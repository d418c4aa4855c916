// The benchmark's three analyst workloads: data shape, query mix and
// serving configuration, plus the seeded generators that turn a workload
// and a seed into rows and queries. The program under test receives only
// the generated rows and queries.
//
// The *shape* of each workload (cluster centres, query kinds, widths,
// cadences) is fixed here; the seed draws the rows, the query jitter, the
// kind order and the roaming hotspots. Metrics therefore compare like
// with like across seeds, and every run averages over thousands of
// independently drawn queries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/point.h"
#include "oracle.h"
#include "sea/exact.h"
#include "sea/query.h"

namespace perfbench {

struct QueryKind {
  sea::SelectionType selection;
  sea::AnalyticType analytic;
  std::size_t target_col = 0;
  std::size_t target_col2 = 0;
  unsigned weight = 1;  ///< relative frequency in the mix
};

struct WorkloadSpec {
  const char* name;
  std::size_t rows;              ///< rows loaded at set-up
  std::size_t dims;              ///< x columns; y is appended after them
  sea::ExecParadigm paradigm;
  std::size_t batch_size;        ///< 0 = one serve() call per request
  bool replicated_model;         ///< attach a ModelReplicaSet as provider
  double requests_per_s;         ///< reference request rate (fixes the work)
  std::size_t warmup_queries;    ///< served during set-up
  /// 0: analysts watch the fixed cluster centres. N > 0: every N queries
  /// the hotspots jump to fresh data rows drawn by the seed.
  std::size_t hotspot_reset_every;
  std::size_t roaming_hotspots;  ///< hotspots per reset when roaming
  std::size_t ingest_every;      ///< queries between ingest steps, 0 = none
  std::size_t ingest_rows;       ///< rows appended per ingest step
  /// Oracle sample shares: a data-less answer is checked with probability
  /// model_share, an exact answer with exact_share (a seeded coin per
  /// query).
  double model_share;
  double exact_share;
  std::vector<QueryKind> mix;
  double min_width, max_width;    ///< range queries, fraction of domain
  double min_radius, max_radius;  ///< radius queries, fraction of domain
  double hotspot_spread;          ///< std-dev of query centres
  /// Column pairs a query may select over, drawn uniformly per query.
  std::vector<std::vector<std::size_t>> subspaces;
  /// Fail the run when data-less answers cover the oracle less often than
  /// the agent's confidence allows (the steady-state workload only).
  bool check_coverage;
};

using sea::AnalyticType;
using sea::ExecParadigm;
using sea::SelectionType;

/// Cluster centres in the (x0, x1) plane shared by every workload.
inline const std::vector<sea::Point>& cluster_centres() {
  static const std::vector<sea::Point> c = {
      {0.20, 0.20}, {0.50, 0.30}, {0.80, 0.20}, {0.30, 0.55},
      {0.70, 0.60}, {0.15, 0.85}, {0.50, 0.80}, {0.85, 0.85}};
  return c;
}
inline constexpr double kClusterStd = 0.06;
/// Share of rows spread uniformly over the unit square (background).
inline constexpr double kBackgroundShare = 0.10;

inline const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      // Warm dashboard: a small table well inside L2, analysts watching
      // fixed places, the batch path; most answers come from the agent.
      {"hot_dashboard", 200000, 2, ExecParadigm::kCoordinatorIndexed,
       /*batch*/ 32, /*replicated*/ true, /*req/s*/ 650.0,
       /*warmup*/ 6000, /*reset*/ 0, 0, /*ingest*/ 0, 0,
       /*oracle*/ 1.0 / 32, 1.0 / 4,
       {{SelectionType::kRange, AnalyticType::kCount},
        {SelectionType::kRange, AnalyticType::kAvg, 2, 0, 4}},
       0.05, 0.20, 0.03, 0.12, 0.02, {{0, 1}}, true},
      // Exploratory scans: a table far beyond L2, hotspots that keep
      // moving, full-scan MapReduce; the agent rarely gets warm.
      {"adhoc_scan", 1500000, 3, ExecParadigm::kMapReduce,
       0, true, 180.0,
       /*warmup*/ 100, /*reset*/ 40, /*roaming*/ 3, 0, 0,
       /*oracle*/ 1.0, 1.0 / 8,
       {{SelectionType::kRange, AnalyticType::kCount, 0, 0, 2},
        {SelectionType::kRange, AnalyticType::kAvg, 3, 0, 2},
        {SelectionType::kRadius, AnalyticType::kVariance, 3},
        {SelectionType::kRadius, AnalyticType::kCorrelation, 0, 3}},
       0.05, 0.30, 0.05, 0.20, 0.03, {{0, 1}, {0, 2}, {1, 2}}, false},
      // Reads beside writes: learned-grid probes, round-robin appends,
      // cache invalidation and agent staleness after every ingest step.
      {"ingest_mix", 400000, 2, ExecParadigm::kCoordinatorLearned,
       0, false, 200.0,
       /*warmup*/ 400, 0, 0, /*ingest every*/ 50, /*rows*/ 4000,
       /*oracle*/ 1.0, 1.0 / 8,
       {{SelectionType::kRange, AnalyticType::kSum, 2, 0, 6},
        {SelectionType::kRange, AnalyticType::kAvg, 2}},
       0.05, 0.20, 0.03, 0.12, 0.03, {{0, 1}}, false},
  };
  return specs;
}

inline const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

inline std::vector<std::string> column_names(const WorkloadSpec& w) {
  std::vector<std::string> names;
  for (std::size_t d = 0; d < w.dims; ++d)
    names.push_back("x" + std::to_string(d));
  names.push_back("y");
  return names;
}

/// `n` rows drawn from the workload's fixed mixture: (x0, x1) from one of
/// the cluster centres (or the uniform background), further x columns
/// uniform, and y = 2 x0 + 0.5 + N(0, 0.05), a dependence the avg,
/// variance and correlation analytics can see.
inline OracleRows generate_rows(const WorkloadSpec& w, std::size_t n,
                                std::uint64_t seed) {
  sea::Rng rng(seed);
  const auto& centres = cluster_centres();
  OracleRows rows;
  rows.cols.assign(w.dims + 1, std::vector<double>(n));
  for (std::size_t r = 0; r < n; ++r) {
    if (rng.bernoulli(kBackgroundShare)) {
      rows.cols[0][r] = rng.uniform();
      rows.cols[1][r] = rng.uniform();
    } else {
      const sea::Point& c = centres[rng.uniform_index(centres.size())];
      rows.cols[0][r] = rng.normal(c[0], kClusterStd);
      rows.cols[1][r] = rng.normal(c[1], kClusterStd);
    }
    for (std::size_t d = 2; d < w.dims; ++d) rows.cols[d][r] = rng.uniform();
    rows.cols[w.dims][r] = 2.0 * rows.cols[0][r] + 0.5 + rng.normal(0.0, 0.05);
  }
  return rows;
}

/// Seeded analyst query stream. Hotspots are points over all x columns;
/// a query selects around one of them in one of the workload's subspaces.
class QueryStream {
 public:
  /// `domain` bounds every x column (it sets the scale of widths, radii
  /// and jitter).
  QueryStream(const WorkloadSpec& w, const OracleRows& rows, sea::Rect domain,
              std::uint64_t seed)
      : w_(w), rows_(rows), domain_(std::move(domain)), rng_(seed) {
    for (std::size_t k = 0; k < w.mix.size(); ++k)
      slots_.insert(slots_.end(), w.mix[k].weight, k);
    hotspots_ = cluster_centres();
  }

  sea::AnalyticalQuery next() {
    if (w_.hotspot_reset_every && drawn_ % w_.hotspot_reset_every == 0)
      roam();
    ++drawn_;
    const QueryKind& kind = w_.mix[slots_[rng_.uniform_index(slots_.size())]];
    const auto& cols = w_.subspaces[rng_.uniform_index(w_.subspaces.size())];
    const sea::Point& h = hotspots_[rng_.uniform_index(hotspots_.size())];
    sea::AnalyticalQuery q;
    q.selection = kind.selection;
    q.analytic = kind.analytic;
    q.subspace_cols = cols;
    q.target_col = kind.target_col;
    q.target_col2 = kind.target_col2;
    sea::Point centre(cols.size());
    for (std::size_t i = 0; i < cols.size(); ++i)
      centre[i] = rng_.normal(h[cols[i]], w_.hotspot_spread * extent(cols[i]));
    if (kind.selection == SelectionType::kRange) {
      q.range.lo.resize(cols.size());
      q.range.hi.resize(cols.size());
      for (std::size_t i = 0; i < cols.size(); ++i) {
        const double half =
            rng_.uniform(w_.min_width, w_.max_width) * extent(cols[i]) / 2.0;
        q.range.lo[i] = centre[i] - half;
        q.range.hi[i] = centre[i] + half;
      }
    } else {
      double mean_extent = 0.0;
      for (const std::size_t c : cols) mean_extent += extent(c);
      mean_extent /= static_cast<double>(cols.size());
      q.ball.center = centre;
      q.ball.radius =
          rng_.uniform(w_.min_radius, w_.max_radius) * mean_extent;
    }
    return q;
  }

 private:
  double extent(std::size_t col) const {
    return domain_.hi[col] - domain_.lo[col];
  }

  /// Hotspots jump to data rows drawn from the initial load.
  void roam() {
    hotspots_.clear();
    for (std::size_t h = 0; h < w_.roaming_hotspots; ++h) {
      const std::size_t r = rng_.uniform_index(w_.rows);
      sea::Point p(w_.dims);
      for (std::size_t d = 0; d < w_.dims; ++d) p[d] = rows_.cols[d][r];
      hotspots_.push_back(std::move(p));
    }
  }

  const WorkloadSpec& w_;
  const OracleRows& rows_;
  sea::Rect domain_;
  sea::Rng rng_;
  std::vector<std::size_t> slots_;
  std::vector<sea::Point> hotspots_;
  std::uint64_t drawn_ = 0;
};

}  // namespace perfbench
