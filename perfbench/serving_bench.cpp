// End-to-end serving benchmark: one named analyst workload through the
// real Fig. 2 serving loop (ServedAnalytics -> DatalessAgent / replicated
// model provider -> ExactExecutor -> 8-node replicated Cluster), one
// closed-loop client, answers checked against the independent oracle in
// oracle.h. See README.md for the workloads, metrics and reference
// figures.
//
//   serving_bench --workload NAME --seed N --seconds S --trace 0|1
//                 [--requests N] [--inject-off-by-one]
//
// A run serves a fixed number of requests, S times the workload's
// reference request rate, so every count, error figure and the answer
// digest repeat exactly for a seed while the wall time tracks the host.
// The requests are split evenly over passes that each start from scratch
// with the same seed, so every pass does identical work. --trace 0 makes
// kPasses passes and prints the end-to-end metrics, timing each request
// by the least of its executions; --trace 1 makes two, attaches per-layer
// timing and the modelled-clock tracer to the second, and prints the
// per-layer metrics and the tracing overhead. The last stdout line is one
// JSON object.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "fault/outage.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "oracle.h"
#include "recovery/replica.h"
#include "sea/agent.h"
#include "sea/exact.h"
#include "sea/served.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kProcessStart = Clock::now();

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

constexpr std::size_t kNodes = 8;
constexpr const char* kTable = "t";
/// answer_rel_error divides by max(|oracle|, kRelFloor): the agent's own
/// default relative-error floor (AgentConfig::rel_floor), so answers near
/// zero (correlations, small variances) are judged by absolute error.
constexpr double kRelFloor = 1.0;
/// Fewest requests per pass: enough that p99 has ten samples beyond it.
constexpr std::size_t kMinRequests = 1000;
/// Passes of an untraced run (see end_to_end_metrics).
constexpr std::size_t kPasses = 3;

// ---------------------------------------------------------------------------
// Timing wrapper around the replicated model provider (traced run only):
// the recovery layer measured from outside, around its public calls.

class TimedProvider final : public sea::ServingModelProvider {
 public:
  explicit TimedProvider(sea::recovery::ModelReplicaSet& rs) : rs_(rs) {}

  sea::DatalessAgent* primary() override {
    const auto t0 = Clock::now();
    sea::DatalessAgent* p = rs_.primary();
    other_ms += ms_since(t0);
    return p;
  }
  bool primary_stale() const override {
    const auto t0 = Clock::now();
    const bool s = rs_.primary_stale();
    other_ms += ms_since(t0);
    return s;
  }
  void observe(const sea::AnalyticalQuery& q, double truth) override {
    const auto t0 = Clock::now();
    rs_.observe(q, truth);
    observe_ms += ms_since(t0);
    ++observe_calls;
  }
  void advance(double modelled_ms) override {
    const auto t0 = Clock::now();
    rs_.advance(modelled_ms);
    advance_ms += ms_since(t0);
    ++advance_calls;
  }
  RecoveryDelta take_recovery_delta() override {
    const auto t0 = Clock::now();
    const RecoveryDelta d = rs_.take_recovery_delta();
    other_ms += ms_since(t0);
    return d;
  }

  double total_ms() const { return observe_ms + advance_ms + other_ms; }

  double observe_ms = 0.0, advance_ms = 0.0;
  mutable double other_ms = 0.0;
  std::uint64_t observe_calls = 0, advance_calls = 0;

 private:
  sea::recovery::ModelReplicaSet& rs_;
};

// ---------------------------------------------------------------------------
// Modelled-clock span accounting: self time per span name, folded after
// every request so the tracer never fills up.

struct SpanTotals {
  std::map<std::string, double> self_ms;
  std::map<std::string, std::uint64_t> count;
  std::uint64_t dropped = 0;

  void fold(sea::obs::Tracer& tracer) {
    const auto& spans = tracer.spans();
    std::vector<double> child_ms(spans.size(), 0.0);
    for (const auto& s : spans)
      if (s.parent != sea::obs::kNoSpan) child_ms[s.parent] += s.duration_ms();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      self_ms[spans[i].name] += spans[i].duration_ms() - child_ms[i];
      ++count[spans[i].name];
    }
    dropped += tracer.dropped_spans();
    tracer.reset();
  }
};

// ---------------------------------------------------------------------------
// One pass of a workload: set-up, timed requests, oracle checks.

struct Checked {
  sea::AnalyticalQuery query;
  std::size_t prefix = 0;  ///< oracle rows visible to the query
  double value = 0.0;
  bool data_less = false;
  double expected_abs_error = 0.0;
};

struct PassResult {
  double setup_s = 0.0;
  double timed_ms = 0.0;  ///< requests plus ingest steps
  /// Per request: its wall time plus any ingest step run just before it.
  std::vector<double> phase_ms;
  std::uint64_t requests = 0;
  std::uint64_t queries = 0;
  std::uint64_t failed = 0;
  std::vector<double> latency_ms;
  std::uint64_t rows_scanned = 0;
  double modelled_ms = 0.0;
  double answer_rel_error = 0.0;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::vector<std::string> violations;

  // per-layer (filled on the traced pass; some also untraced)
  double served_self_ms = 0.0;
  std::uint64_t exact_executed = 0;
  std::uint64_t data_less = 0;
  std::uint64_t agent_served = 0, agent_declined = 0, drift_alarms = 0;
  double agent_coverage = 0.0;
  double model_kb = 0.0;
  std::vector<double> exact_wall_ms;
  double map_compute_ms = 0.0, coordinator_compute_ms = 0.0;
  double makespan_ms = 0.0, shuffle_bytes = 0.0;
  double index_build_ms = 0.0;
  std::uint64_t qualifying = 0, tasks = 0, net_bytes = 0;
  double observe_ms = 0.0, advance_ms = 0.0;
  std::uint64_t observe_calls = 0, advance_calls = 0, checkpoints = 0;
  std::uint64_t ingest_steps = 0;
  double append_ms = 0.0, invalidate_ms = 0.0;
  SpanTotals spans;
  double max_exact_rel_error = 0.0;
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Deterministic per-query coin in [0,1) for oracle sampling.
double sample_coin(std::uint64_t seed, std::uint64_t query_index) {
  sea::SplitMix64 sm(seed * 0x9e3779b97f4a7c15ULL + query_index);
  return static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t requests = 0;  ///< override of the fixed request count
  bool inject_off_by_one = false;
};

std::size_t passes(const Options& o) { return o.trace ? 2 : kPasses; }

/// Requests one pass serves: the workload's reference rate times the run
/// length, shared over the run's passes.
std::size_t planned_requests(const WorkloadSpec& w, const Options& o) {
  if (o.requests > 0) return o.requests;
  return std::max<std::size_t>(
      kMinRequests,
      static_cast<std::size_t>(std::llround(
          o.seconds * w.requests_per_s / static_cast<double>(passes(o)))));
}

PassResult run_pass(const WorkloadSpec& w, const Options& opt, bool traced,
                    Clock::time_point setup_start) {
  PassResult res;
  const std::size_t n_requests = planned_requests(w, opt);
  const std::size_t per_request = w.batch_size ? w.batch_size : 1;
  const std::size_t n_queries = n_requests * per_request;
  const std::size_t n_ingests =
      w.ingest_every ? (n_queries + w.warmup_queries) / w.ingest_every + 1 : 0;

  // --- data: the initial rows plus the pool ingest appends, one draw ---
  const OracleRows oracle = generate_rows(
      w, w.rows + n_ingests * w.ingest_rows, opt.seed * 7919 + 11);
  std::size_t loaded = w.rows;
  sea::Cluster cluster(kNodes, sea::Network::single_zone(kNodes));
  {
    std::vector<std::vector<double>> initial;
    for (const auto& c : oracle.cols)
      initial.emplace_back(c.begin(), c.begin() + w.rows);
    sea::PartitionSpec pspec;
    pspec.replicas = 2;
    cluster.load_table(kTable,
                       sea::Table::from_columns(sea::Schema(column_names(w)),
                                                std::move(initial)),
                       pspec);
  }
  sea::ExactExecutor exec(cluster, kTable);
  const auto domain_of = [&exec](const std::vector<std::size_t>& cols) {
    return exec.domain(cols);
  };

  sea::AgentConfig acfg;
  acfg.seed = opt.seed ^ 0x5ea00001ULL;
  sea::DatalessAgent agent(acfg, domain_of);
  sea::ServeConfig scfg;
  scfg.exact_paradigm = w.paradigm;
  scfg.audit_fraction = 0.05;
  scfg.audit_seed = opt.seed + 99;
  sea::ServedAnalytics served(agent, exec, scfg);

  std::unique_ptr<sea::recovery::ModelReplicaSet> replicas;
  std::unique_ptr<TimedProvider> timed_provider;
  if (w.replicated_model) {
    sea::recovery::ReplicaSetConfig rcfg;
    rcfg.nodes = {0, 1, 2};
    rcfg.agent = acfg;
    replicas = std::make_unique<sea::recovery::ModelReplicaSet>(rcfg, domain_of);
    if (traced) {
      timed_provider = std::make_unique<TimedProvider>(*replicas);
      served.set_model_provider(timed_provider.get());
    } else {
      served.set_model_provider(replicas.get());
    }
  }
  const auto serving_agent = [&]() -> sea::DatalessAgent* {
    return replicas ? replicas->primary() : &agent;
  };

  std::vector<std::size_t> xcols(w.dims);
  for (std::size_t d = 0; d < w.dims; ++d) xcols[d] = d;
  QueryStream stream(w, oracle, exec.domain(xcols), opt.seed * 104729 + 5);
  const auto next_query = [&stream] { return stream.next(); };

  // --- ingest: append the next pooled rows to one partition ---
  std::size_t ingest_node = 0;
  double pending_ingest_ms = 0.0;
  const auto ingest = [&](bool timed) {
    const auto t0 = Clock::now();
    sea::Table& part = cluster.mutable_partition(kTable, ingest_node);
    std::vector<double> row(oracle.cols.size());
    for (std::size_t r = loaded; r < loaded + w.ingest_rows; ++r) {
      for (std::size_t c = 0; c < row.size(); ++c) row[c] = oracle.cols[c][r];
      part.append_row(row);
    }
    const double append = ms_since(t0);
    const auto t1 = Clock::now();
    exec.invalidate_caches();
    const double invalidate = ms_since(t1);
    loaded += w.ingest_rows;
    agent.note_data_update(static_cast<double>(w.ingest_rows) /
                           static_cast<double>(loaded));
    ingest_node = (ingest_node + 1) % kNodes;
    if (timed) {
      const double step = ms_since(t0);
      res.timed_ms += step;
      pending_ingest_ms += step;
      res.append_ms += append;
      res.invalidate_ms += invalidate;
      ++res.ingest_steps;
    }
  };

  // --- warm-up (part of set-up): bootstrap, first index builds ---
  std::size_t since_ingest = 0;
  {
    std::vector<sea::AnalyticalQuery> batch;
    for (std::size_t i = 0; i < w.warmup_queries; ++i) {
      if (w.ingest_every && since_ingest == w.ingest_every) {
        ingest(false);
        since_ingest = 0;
      }
      ++since_ingest;
      batch.push_back(next_query());
      if (batch.size() == per_request || i + 1 == w.warmup_queries) {
        if (w.batch_size)
          served.serve_batch(batch);
        else
          served.serve(batch.front());
        batch.clear();
      }
    }
  }

  sea::obs::Tracer tracer;
  sea::obs::MetricsRegistry registry;
  if (traced) {
    cluster.set_observability(&tracer, &registry);
    if (replicas) replicas->bind_obs(&tracer, &registry);
  }

  // --- timed phase ---
  const sea::ServeStats s0 = served.stats();
  const sea::AccessStats a0 = cluster.stats();
  const std::uint64_t net0 = cluster.network().stats().bytes;
  const double build0 = exec.index_build_ms();
  const sea::AgentStats ag0 = serving_agent()->stats();
  const std::uint64_t ckpt0 = replicas ? replicas->stats().checkpoints : 0;
  res.setup_s = ms_since(setup_start) / 1000.0;

  std::uint64_t tally_data_less = 0, tally_exact = 0, tally_audited = 0,
                tally_shed = 0, tally_degraded = 0, tally_failed = 0;
  std::vector<Checked> checks;
  bool injected = false;
  std::uint64_t qindex = 0;
  std::vector<sea::AnalyticalQuery> batch;
  res.latency_ms.reserve(n_requests);

  for (std::size_t req = 0; req < n_requests; ++req) {
    batch.clear();
    for (std::size_t k = 0; k < per_request; ++k) {
      if (w.ingest_every && since_ingest == w.ingest_every) {
        ingest(true);
        since_ingest = 0;
      }
      ++since_ingest;
      batch.push_back(next_query());
    }
    const sea::AccessStats before = cluster.stats();
    const std::uint64_t exec_before = served.stats().exact_executed;
    const double provider_before =
        timed_provider ? timed_provider->total_ms() : 0.0;

    std::vector<sea::ServedAnswer> answers;
    const auto t0 = Clock::now();
    if (w.batch_size) {
      answers = served.serve_batch(batch);
    } else {
      try {
        answers.push_back(served.serve(batch.front()));
      } catch (const sea::OutageError&) {
        answers.emplace_back();
        answers.back().failed = true;
      }
    }
    const double wall = ms_since(t0);
    res.timed_ms += wall;
    res.latency_ms.push_back(wall);
    res.phase_ms.push_back(wall + pending_ingest_ms);
    pending_ingest_ms = 0.0;
    ++res.requests;

    const sea::AccessStats after = cluster.stats();
    const bool executed_any = served.stats().exact_executed != exec_before;
    if (!executed_any && after.rows_scanned != before.rows_scanned)
      res.violations.push_back(
          "request " + std::to_string(req) +
          " executed nothing exactly but rows_scanned rose by " +
          std::to_string(after.rows_scanned - before.rows_scanned));

    double exact_wall = 0.0;
    for (std::size_t k = 0; k < answers.size(); ++k, ++qindex) {
      sea::ServedAnswer& a = answers[k];
      ++res.queries;
      if (a.failed) {
        ++res.failed;
        ++tally_failed;
        continue;
      }
      tally_data_less += a.data_less;
      tally_exact += !a.data_less;
      tally_audited += a.audited;
      tally_shed += a.shed;
      tally_degraded += a.degraded;
      fnv_mix(res.digest, bits_of(a.value));
      fnv_mix(res.digest, a.data_less);
      if (!a.data_less || a.audited) {
        const sea::ExecReport& rep = a.exact.report;
        res.modelled_ms += rep.modelled_ms();
        exact_wall += rep.wall_ms;
        res.exact_wall_ms.push_back(rep.wall_ms);
        res.map_compute_ms += rep.map_compute_ms_total;
        res.coordinator_compute_ms += rep.coordinator_compute_ms;
        res.makespan_ms += rep.makespan_ms();
        res.shuffle_bytes += static_cast<double>(rep.shuffle_bytes);
        res.qualifying += a.exact.qualifying_tuples;
      }
      const double share = a.data_less ? w.model_share : w.exact_share;
      // Self-test: corrupt the first exact count answer by one and make
      // sure the oracle sees it.
      const bool corrupt = opt.inject_off_by_one && !injected &&
                           !a.data_less &&
                           batch[k].analytic == AnalyticType::kCount;
      if (corrupt || sample_coin(opt.seed, qindex) < share) {
        Checked c;
        c.query = batch[k];
        c.prefix = loaded;
        c.value = a.value + (corrupt ? 1.0 : 0.0);
        c.data_less = a.data_less;
        c.expected_abs_error = a.prediction.expected_abs_error;
        injected = injected || corrupt;
        checks.push_back(std::move(c));
      }
    }
    if (traced) {
      res.served_self_ms +=
          wall - exact_wall -
          (timed_provider ? timed_provider->total_ms() - provider_before : 0.0);
      res.spans.fold(tracer);
    }
  }

  // --- counters over the timed phase ---
  const sea::ServeStats s1 = served.stats();
  const sea::AccessStats a1 = cluster.stats();
  res.rows_scanned = a1.rows_scanned - a0.rows_scanned;
  res.tasks = a1.tasks - a0.tasks;
  res.net_bytes = cluster.network().stats().bytes - net0;
  res.index_build_ms = exec.index_build_ms() - build0;
  res.exact_executed = s1.exact_executed - s0.exact_executed;
  res.data_less = tally_data_less;
  const sea::AgentStats ag1 = serving_agent()->stats();
  res.agent_served = ag1.predictions_served - ag0.predictions_served;
  res.agent_declined = ag1.predictions_declined - ag0.predictions_declined;
  res.drift_alarms = ag1.drift_alarms - ag0.drift_alarms;
  res.model_kb = static_cast<double>(serving_agent()->byte_size()) / 1024.0;
  if (replicas) res.checkpoints = replicas->stats().checkpoints - ckpt0;
  if (timed_provider) {
    res.observe_ms = timed_provider->observe_ms;
    res.advance_ms = timed_provider->advance_ms;
    res.observe_calls = timed_provider->observe_calls;
    res.advance_calls = timed_provider->advance_calls;
  }

  // --- ServeStats must agree with the benchmark's own tally ---
  const auto expect_eq = [&](const char* what, std::uint64_t stats,
                             std::uint64_t tally) {
    if (stats != tally)
      res.violations.push_back(std::string("ServeStats.") + what + "=" +
                               std::to_string(stats) + " but answers say " +
                               std::to_string(tally));
  };
  expect_eq("queries", s1.queries - s0.queries, res.queries);
  expect_eq("data_less_served", s1.data_less_served - s0.data_less_served,
            tally_data_less);
  expect_eq("exact_answered", s1.exact_answered - s0.exact_answered,
            tally_exact);
  expect_eq("shed", s1.shed - s0.shed, tally_shed);
  expect_eq("degraded_served", s1.degraded_served - s0.degraded_served,
            tally_degraded);
  expect_eq("failed", s1.failed - s0.failed, tally_failed);
  expect_eq("exact_executed", res.exact_executed, tally_exact + tally_audited);
  if (!s1.conserved()) res.violations.push_back("ServeStats not conserved()");

  // --- oracle, outside the timed region, fanned over plain threads ---
  std::vector<OracleAnswer> truth(checks.size());
  {
    const std::size_t workers = std::max<std::size_t>(
        1, std::min<std::size_t>(4, std::thread::hardware_concurrency()));
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < workers; ++t)
      pool.emplace_back([&, t] {
        for (std::size_t i = t; i < checks.size(); i += workers)
          truth[i] = oracle_answer(oracle, checks[i].query, checks[i].prefix);
      });
    for (auto& th : pool) th.join();
  }
  std::vector<double> model_rel_error;
  std::uint64_t model_checked = 0, model_covered = 0;
  for (std::size_t i = 0; i < checks.size(); ++i) {
    const Checked& c = checks[i];
    const double diff = std::fabs(c.value - truth[i].value);
    if (c.data_less) {
      model_rel_error.push_back(
          diff / std::max(std::fabs(truth[i].value), kRelFloor));
      ++model_checked;
      model_covered += diff <= c.expected_abs_error;
    } else {
      if (!(diff <= truth[i].tolerance))
        res.violations.push_back(
            "exact answer " + std::to_string(c.value) + " vs oracle " +
            std::to_string(truth[i].value) + " (tolerance " +
            std::to_string(truth[i].tolerance) + ") for " +
            c.query.describe());
      if (truth[i].value != 0.0)
        res.max_exact_rel_error = std::max(
            res.max_exact_rel_error, diff / std::fabs(truth[i].value));
    }
  }
  res.answer_rel_error = quantile(model_rel_error, 0.5);
  res.agent_coverage =
      model_checked ? static_cast<double>(model_covered) / model_checked : 1.0;
  // Conformal intervals at confidence c promise coverage >= c on
  // exchangeable residuals; serving is gated and queries drift, so the
  // check allows the miss rate to double: coverage >= 1 - 2 (1 - c).
  const double min_coverage = 2.0 * acfg.confidence - 1.0;
  if (w.check_coverage && res.agent_coverage < min_coverage)
    res.violations.push_back("agent coverage " +
                             std::to_string(res.agent_coverage) + " below " +
                             std::to_string(min_coverage));
  std::fprintf(stderr,
               "[%s] checked %zu answers (%llu data-less), max exact rel "
               "error %.3g, coverage %.4f, data-less share %.4f\n",
               w.name, checks.size(),
               static_cast<unsigned long long>(model_checked),
               res.max_exact_rel_error, res.agent_coverage,
               static_cast<double>(res.data_less) /
                   static_cast<double>(std::max<std::uint64_t>(res.queries, 1)));
  if (traced) {
    cluster.set_observability(nullptr, nullptr);
    if (replicas) replicas->bind_obs(nullptr, nullptr);
  }
  served.set_model_provider(nullptr);
  return res;
}

// ---------------------------------------------------------------------------
// Reporting


double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
}

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The first pass's set-up is the cold one. Each request counts with the
/// least of its wall times over the passes: every pass does identical
/// work, and host noise only ever adds time, coming in bursts of a few
/// seconds that rarely hit all executions of a request. A slowdown in the
/// program slows every execution.
std::vector<Metric> end_to_end_metrics(const std::vector<PassResult>& runs) {
  const PassResult& r = runs.front();
  const double q = static_cast<double>(r.queries);
  std::vector<double> latency_ms = r.latency_ms;
  std::vector<double> phase_ms = r.phase_ms;
  for (const PassResult& again : runs)
    for (std::size_t i = 0; i < latency_ms.size(); ++i) {
      latency_ms[i] = std::min(latency_ms[i], again.latency_ms[i]);
      phase_ms[i] = std::min(phase_ms[i], again.phase_ms[i]);
    }
  double timed_ms = 0.0;
  for (const double ms : phase_ms) timed_ms += ms;
  return {
      {"setup_s", r.setup_s, "s"},
      {"queries_per_s",
       per(q - static_cast<double>(r.failed), timed_ms / 1000.0), "queries/s"},
      {"latency_p50_ms", quantile(latency_ms, 0.5), "ms"},
      {"latency_p99_ms", quantile(std::move(latency_ms), 0.99), "ms"},
      {"base_rows_per_query", per(static_cast<double>(r.rows_scanned), q),
       "rows"},
      {"modelled_ms_per_query", per(r.modelled_ms, q), "ms-modelled"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer_metrics(const PassResult& traced,
                                      const PassResult& plain) {
  const double q = static_cast<double>(traced.queries);
  const double ex = static_cast<double>(traced.exact_wall_ms.size());
  const double ingests = static_cast<double>(traced.ingest_steps);
  const auto span_ms = [&](const char* name) {
    const auto it = traced.spans.self_ms.find(name);
    return per(it == traced.spans.self_ms.end() ? 0.0 : it->second, q);
  };
  const auto span_count = [&](const char* name) {
    const auto it = traced.spans.count.find(name);
    return per(it == traced.spans.count.end()
                   ? 0.0
                   : static_cast<double>(it->second),
               q);
  };
  const double plain_qps = per(static_cast<double>(plain.queries),
                               plain.timed_ms / 1000.0);
  const double traced_qps = per(q, traced.timed_ms / 1000.0);
  return {
      {"served.self_us_per_query", per(traced.served_self_ms * 1000.0, q), "us"},
      {"served.exact_per_query",
       per(static_cast<double>(traced.exact_executed), q), "ratio"},
      {"agent.hit_ratio",
       per(static_cast<double>(traced.agent_served),
           static_cast<double>(traced.agent_served + traced.agent_declined)),
       "ratio"},
      {"agent.coverage", traced.agent_coverage, "ratio"},
      {"agent.answer_rel_error", traced.answer_rel_error, "ratio"},
      {"agent.model_kb", traced.model_kb, "KiB"},
      {"agent.drift_alarms", static_cast<double>(traced.drift_alarms), "count"},
      {"exact.wall_ms_p50", quantile(traced.exact_wall_ms, 0.5), "ms"},
      {"exact.map_compute_ms", per(traced.map_compute_ms, ex), "ms"},
      {"exact.coordinator_compute_ms", per(traced.coordinator_compute_ms, ex),
       "ms"},
      {"exact.modelled_ms", per(traced.makespan_ms, ex), "ms-modelled"},
      {"exact.shuffle_kb", per(traced.shuffle_bytes / 1024.0, ex), "KiB"},
      {"index.build_ms", traced.index_build_ms, "ms"},
      {"index.rows_examined_per_result",
       per(static_cast<double>(traced.rows_scanned),
           static_cast<double>(traced.qualifying)),
       "ratio"},
      {"cluster.rows_scanned_per_query",
       per(static_cast<double>(traced.rows_scanned), q), "rows"},
      {"cluster.tasks_per_query", per(static_cast<double>(traced.tasks), q),
       "count"},
      {"net.bytes_per_query", per(static_cast<double>(traced.net_bytes), q),
       "bytes"},
      {"recovery.observe_us",
       per(traced.observe_ms * 1000.0,
           static_cast<double>(traced.observe_calls)),
       "us"},
      {"recovery.advance_us",
       per(traced.advance_ms * 1000.0,
           static_cast<double>(traced.advance_calls)),
       "us"},
      {"recovery.checkpoints", static_cast<double>(traced.checkpoints),
       "count"},
      {"ingest.append_ms", per(traced.append_ms, ingests), "ms"},
      {"ingest.invalidate_ms", per(traced.invalidate_ms, ingests), "ms"},
      {"modelled.serve_ms_per_query", span_ms("serve"), "ms-modelled"},
      {"modelled.peek_per_query", span_count("peek"), "count"},
      {"modelled.exact_ms_per_query", span_ms("exact"), "ms-modelled"},
      {"modelled.rpc_ms_per_query", span_ms("rpc"), "ms-modelled"},
      {"modelled.map_phase_ms_per_query", span_ms("map_phase"), "ms-modelled"},
      {"modelled.shuffle_ms_per_query", span_ms("shuffle"), "ms-modelled"},
      {"modelled.reduce_phase_ms_per_query", span_ms("reduce_phase"),
       "ms-modelled"},
      {"modelled.checkpoint_ms_per_query", span_ms("checkpoint"),
       "ms-modelled"},
      {"trace.dropped_spans", static_cast<double>(traced.spans.dropped),
       "count"},
      {"trace.queries_per_s", traced_qps, "queries/s"},
      {"trace.overhead_ratio", per(plain_qps, traced_qps), "ratio"},
  };
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "serving_bench: %s\nusage: serving_bench --workload "
               "hot_dashboard|adhoc_scan|ingest_mix --seed N --seconds S "
               "--trace 0|1 [--requests N] [--inject-off-by-one]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") o.workload = value();
      else if (a == "--seed") o.seed = std::stoull(value());
      else if (a == "--seconds") o.seconds = std::stod(value());
      else if (a == "--trace") o.trace = std::stoi(value()) != 0;
      else if (a == "--requests") o.requests = std::stoull(value());
      else if (a == "--inject-off-by-one") o.inject_off_by_one = true;
      else usage(("unknown argument " + a).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!(o.seconds > 0.0 && o.seconds <= 600.0)) usage("--seconds out of range");
  return o;
}

int run(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const WorkloadSpec* w = find_workload(opt.workload);
  if (!w) usage(("unknown workload '" + opt.workload + "'").c_str());

  std::vector<PassResult> runs;
  std::vector<std::string> violations;
  std::uint64_t attempted = 0, failed = 0;
  for (std::size_t p = 0; p < passes(opt); ++p) {
    const bool traced = opt.trace && p == 1;
    runs.push_back(run_pass(*w, opt, traced, p ? Clock::now() : kProcessStart));
    const PassResult& r = runs.back();
    violations.insert(violations.end(), r.violations.begin(),
                      r.violations.end());
    if (r.digest != runs.front().digest)
      violations.push_back("pass " + std::to_string(p + 1) +
                           "'s answer digest differs from the first's");
    attempted += r.queries;
    failed += r.failed;
  }
  const PassResult& first = runs.front();
  const std::vector<Metric> metrics =
      opt.trace ? per_layer_metrics(runs[1], first) : end_to_end_metrics(runs);
  for (const std::string& v : violations)
    std::fprintf(stderr, "CHECK FAILED: %s\n", v.c_str());
  std::printf("workload=%s seed=%llu threads=%zu requests=%llu queries=%llu "
              "digest=%016" PRIx64 "\n",
              w->name, static_cast<unsigned long long>(opt.seed),
              sea::configured_threads(),
              static_cast<unsigned long long>(first.requests),
              static_cast<unsigned long long>(first.queries), first.digest);
  const bool correct = violations.empty();
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serving_bench: %s\n", e.what());
    return 3;
  }
}
