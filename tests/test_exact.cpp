// Tests: exact executor — both paradigms must agree with brute force and
// with each other, while their costs differ in the direction the paper
// argues (P3).
#include <gtest/gtest.h>

#include "sea/exact.h"
#include "test_util.h"

namespace sea {
namespace {

using testing::brute_force_answer;
using testing::small_dataset;

struct Case {
  SelectionType selection;
  AnalyticType analytic;
};

class ExactParadigms : public ::testing::TestWithParam<Case> {};

AnalyticalQuery make_query(const Case& c, Rng& rng, const Rect& domain) {
  AnalyticalQuery q;
  q.selection = c.selection;
  q.analytic = c.analytic;
  q.subspace_cols = {0, 1};
  q.target_col = 2;   // the derived y column
  q.target_col2 = 0;  // dependence vs x0
  Point center(2);
  for (std::size_t i = 0; i < 2; ++i)
    center[i] = rng.uniform(domain.lo[i] + 0.1, domain.hi[i] - 0.1);
  switch (c.selection) {
    case SelectionType::kRange: {
      q.range.lo.resize(2);
      q.range.hi.resize(2);
      for (std::size_t i = 0; i < 2; ++i) {
        const double w = rng.uniform(0.1, 0.3);
        q.range.lo[i] = center[i] - w;
        q.range.hi[i] = center[i] + w;
      }
      break;
    }
    case SelectionType::kRadius:
      q.ball.center = center;
      q.ball.radius = rng.uniform(0.05, 0.25);
      break;
    case SelectionType::kNearestNeighbors:
      q.knn_point = center;
      q.knn_k = static_cast<std::size_t>(rng.uniform_int(5, 60));
      break;
  }
  return q;
}

TEST_P(ExactParadigms, BothParadigmsMatchBruteForce) {
  const Case c = GetParam();
  const Table t = small_dataset(3000, 2, 11);
  Cluster cluster = testing::make_cluster(t, "t", 4);
  ExactExecutor exec(cluster, "t");
  const Rect domain = exec.domain({0, 1});
  Rng rng(123);
  for (int trial = 0; trial < 8; ++trial) {
    const auto q = make_query(c, rng, domain);
    const double truth = brute_force_answer(t, q);
    const auto mr = exec.execute(q, ExecParadigm::kMapReduce);
    const auto idx = exec.execute(q, ExecParadigm::kCoordinatorIndexed);
    const auto grid = exec.execute(q, ExecParadigm::kCoordinatorGrid);
    EXPECT_NEAR(mr.answer, truth, 1e-6 + 1e-9 * std::abs(truth))
        << q.describe();
    EXPECT_NEAR(idx.answer, truth, 1e-6 + 1e-9 * std::abs(truth))
        << q.describe();
    EXPECT_NEAR(grid.answer, truth, 1e-6 + 1e-9 * std::abs(truth))
        << q.describe();
    EXPECT_EQ(mr.qualifying_tuples, idx.qualifying_tuples);
    EXPECT_EQ(mr.qualifying_tuples, grid.qualifying_tuples);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, ExactParadigms,
    ::testing::Values(
        Case{SelectionType::kRange, AnalyticType::kCount},
        Case{SelectionType::kRange, AnalyticType::kSum},
        Case{SelectionType::kRange, AnalyticType::kAvg},
        Case{SelectionType::kRange, AnalyticType::kVariance},
        Case{SelectionType::kRange, AnalyticType::kCorrelation},
        Case{SelectionType::kRange, AnalyticType::kRegressionSlope},
        Case{SelectionType::kRange, AnalyticType::kRegressionIntercept},
        Case{SelectionType::kRadius, AnalyticType::kCount},
        Case{SelectionType::kRadius, AnalyticType::kAvg},
        Case{SelectionType::kRadius, AnalyticType::kCorrelation},
        Case{SelectionType::kNearestNeighbors, AnalyticType::kCount},
        Case{SelectionType::kNearestNeighbors, AnalyticType::kAvg},
        Case{SelectionType::kNearestNeighbors, AnalyticType::kSum}));

TEST(ExactExecutor, IndexedPathTouchesFarFewerRows) {
  const Table t = small_dataset(20000, 2, 17);
  Cluster c1 = testing::make_cluster(t, "t", 8);
  Cluster c2 = testing::make_cluster(t, "t", 8);
  ExactExecutor mr_exec(c1, "t");
  ExactExecutor idx_exec(c2, "t");
  auto q = testing::range_count_query(0.45, 0.55, 0.45, 0.55);
  mr_exec.execute(q, ExecParadigm::kMapReduce);
  idx_exec.execute(q, ExecParadigm::kCoordinatorIndexed);
  EXPECT_EQ(c1.stats().rows_scanned, 20000u);
  EXPECT_LT(c2.stats().rows_scanned, 20000u / 3);
  EXPECT_GT(c2.stats().index_probes, 0u);
}

TEST(ExactExecutor, IndexedShufflesFewerBytes) {
  const Table t = small_dataset(10000, 2, 19);
  Cluster c = testing::make_cluster(t, "t", 4);
  ExactExecutor exec(c, "t");
  auto q = testing::range_count_query(0.4, 0.6, 0.4, 0.6);
  const auto mr = exec.execute(q, ExecParadigm::kMapReduce);
  const auto idx = exec.execute(q, ExecParadigm::kCoordinatorIndexed);
  EXPECT_LT(idx.report.makespan_ms(), mr.report.makespan_ms());
}

TEST(ExactExecutor, RangePartitionPruningReducesRpcs) {
  const Table t = small_dataset(8000, 2, 23);
  Cluster c = testing::make_cluster(
      t, "t", 8, PartitionSpec{Partitioning::kRangeColumn, 0});
  ExactExecutor exec(c, "t");
  // A sliver in x0 should hit a strict subset of nodes.
  const Rect domain = exec.domain({0, 1});
  const double mid = 0.5 * (domain.lo[0] + domain.hi[0]);
  AnalyticalQuery q = testing::range_count_query(mid, mid + 0.01,
                                                 domain.lo[1], domain.hi[1]);
  const auto r = exec.execute(q, ExecParadigm::kCoordinatorIndexed);
  EXPECT_LT(r.report.rpc_round_trips, 8u);
  // And the answer still matches brute force.
  EXPECT_NEAR(r.answer, brute_force_answer(t, q), 1e-9);
}

TEST(ExactExecutor, GridPathAlsoSurgical) {
  const Table t = small_dataset(20000, 2, 18);
  Cluster c = testing::make_cluster(t, "t", 8);
  ExactExecutor exec(c, "t");
  auto q = testing::range_count_query(0.45, 0.55, 0.45, 0.55);
  c.reset_stats();
  exec.execute(q, ExecParadigm::kCoordinatorGrid);
  // Far fewer rows than a full scan, like the k-d path.
  EXPECT_LT(c.stats().rows_scanned, 20000u / 3);
  EXPECT_GT(c.stats().index_probes, 0u);
}

TEST(ExactExecutor, DomainCoversData) {
  const Table t = small_dataset(1000, 2, 29);
  Cluster c = testing::make_cluster(t, "t", 4);
  ExactExecutor exec(c, "t");
  const Rect domain = exec.domain({0, 1});
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_GE(t.at(r, 0), domain.lo[0]);
    EXPECT_LE(t.at(r, 0), domain.hi[0]);
  }
}

TEST(ExactExecutor, EmptySubspaceGivesZero) {
  const Table t = small_dataset(500, 2, 31);
  Cluster c = testing::make_cluster(t, "t", 4);
  ExactExecutor exec(c, "t");
  auto q = testing::range_count_query(100.0, 101.0, 100.0, 101.0);
  EXPECT_EQ(exec.execute(q, ExecParadigm::kMapReduce).answer, 0.0);
  EXPECT_EQ(exec.execute(q, ExecParadigm::kCoordinatorIndexed).answer, 0.0);
}

TEST(ExactExecutor, UnknownTableThrows) {
  const Table t = small_dataset(10, 2, 33);
  Cluster c = testing::make_cluster(t, "t", 2);
  EXPECT_THROW(ExactExecutor(c, "nope"), std::invalid_argument);
}

TEST(ExactExecutor, InvalidQueryThrows) {
  const Table t = small_dataset(10, 2, 34);
  Cluster c = testing::make_cluster(t, "t", 2);
  ExactExecutor exec(c, "t");
  AnalyticalQuery q;  // no subspace cols
  EXPECT_THROW(exec.execute(q, ExecParadigm::kMapReduce),
               std::invalid_argument);
}

TEST(ExactExecutor, IndexBuildTimeAmortized) {
  const Table t = small_dataset(2000, 2, 35);
  Cluster c = testing::make_cluster(t, "t", 4);
  ExactExecutor exec(c, "t");
  auto q = testing::range_count_query(0.4, 0.6, 0.4, 0.6);
  exec.execute(q, ExecParadigm::kCoordinatorIndexed);
  const double after_first = exec.index_build_ms();
  exec.execute(q, ExecParadigm::kCoordinatorIndexed);
  EXPECT_DOUBLE_EQ(exec.index_build_ms(), after_first);  // cached
}

TEST(ExactExecutor, InvalidateCachesRebuilds) {
  const Table t = small_dataset(2000, 2, 36);
  Cluster c = testing::make_cluster(t, "t", 4);
  ExactExecutor exec(c, "t");
  auto q = testing::range_count_query(0.4, 0.6, 0.4, 0.6);
  exec.execute(q, ExecParadigm::kCoordinatorIndexed);
  const double first = exec.index_build_ms();
  c.mutable_partition("t", 0);
  exec.invalidate_caches();
  exec.execute(q, ExecParadigm::kCoordinatorIndexed);
  EXPECT_GT(exec.index_build_ms(), first);
}

constexpr ExecParadigm kIndexedParadigms[] = {
    ExecParadigm::kCoordinatorIndexed, ExecParadigm::kCoordinatorGrid,
    ExecParadigm::kCoordinatorLearned};

/// Count query over `cols` selecting [lo, hi] on every axis.
AnalyticalQuery box_count(const std::vector<std::size_t>& cols, double lo,
                          double hi) {
  AnalyticalQuery q;
  q.selection = SelectionType::kRange;
  q.analytic = AnalyticType::kCount;
  q.subspace_cols = cols;
  q.range.lo.assign(cols.size(), lo);
  q.range.hi.assign(cols.size(), hi);
  return q;
}

TEST(ExactExecutor, AppendRebuildsOnlyTouchedNode) {
  const Table t = small_dataset(4000, 2, 38);
  Cluster c = testing::make_cluster(t, "t", 8);
  ExactExecutor exec(c, "t");
  // Two cached column sets x three structures, eight nodes each.
  const AnalyticalQuery queries[] = {box_count({0, 1}, 0.3, 0.7),
                                     box_count({1}, 0.3, 0.7)};
  const auto counts = [&] {
    std::vector<std::uint64_t> out;
    for (const auto& q : queries)
      for (const auto p : kIndexedParadigms)
        out.push_back(exec.execute(q, p).qualifying_tuples);
    return out;
  };
  const auto before = counts();
  EXPECT_EQ(exec.index_builds(), 2u * 3u * 8u);
  const std::uint64_t structures = 2 * 3;

  // A row inside both boxes, appended to one node at a time: each cached
  // (column set, structure) pair is rebuilt exactly once — on that node,
  // since every count sees the new row.
  const std::vector<double> row(t.num_columns(), 0.5);
  for (const NodeId k : {NodeId{3}, NodeId{5}}) {
    const std::uint64_t builds = exec.index_builds();
    c.mutable_partition("t", k).append_row(row);
    const auto after = counts();
    EXPECT_EQ(exec.index_builds() - builds, structures) << "node " << k;
    for (std::size_t i = 0; i < after.size(); ++i)
      EXPECT_EQ(after[i], before[i] + (k == 3 ? 1 : 2)) << i;
    EXPECT_EQ(counts(), after);  // warm again: no further builds
    EXPECT_EQ(exec.index_builds() - builds, structures);
  }

  // invalidate_caches frees the stale node but builds nothing itself.
  c.mutable_partition("t", 1).append_row(row);
  const std::uint64_t builds = exec.index_builds();
  exec.invalidate_caches();
  EXPECT_EQ(exec.index_builds(), builds);
  counts();
  EXPECT_EQ(exec.index_builds() - builds, structures);
}

TEST(ExactExecutor, ReloadedTableAnswersFromNewData) {
  const Table old_data = small_dataset(2000, 2, 39);
  Cluster c = testing::make_cluster(old_data, "t", 4);
  ExactExecutor exec(c, "t");
  const AnalyticalQuery q = box_count({0, 1}, 0.2, 0.9);
  for (const auto p : kIndexedParadigms) exec.execute(q, p);
  exec.domain({0, 1});

  // Same name, same node count, different rows and bounds.
  Table new_data = small_dataset(1500, 2, 40);
  for (auto& v : new_data.mutable_column(0)) v = v * 0.5 + 0.4;
  c.drop_table("t");
  c.load_table("t", new_data);

  const double truth = brute_force_answer(new_data, q);
  ASSERT_NE(truth, brute_force_answer(old_data, q));
  for (const auto p : kIndexedParadigms)
    EXPECT_EQ(exec.execute(q, p).answer, truth) << to_string(p);
  const Rect& dom = exec.domain({0, 1});
  const Rect want = table_bounds(new_data, std::vector<std::size_t>{0, 1});
  EXPECT_EQ(dom.lo, want.lo);
  EXPECT_EQ(dom.hi, want.hi);
}

TEST(ExactExecutor, StateCarriesMergeableAggregate) {
  const Table t = small_dataset(1000, 2, 37);
  Cluster c = testing::make_cluster(t, "t", 4);
  ExactExecutor exec(c, "t");
  AnalyticalQuery q = testing::range_count_query(0.2, 0.8, 0.2, 0.8);
  q.analytic = AnalyticType::kAvg;
  q.target_col = 2;
  const auto r = exec.execute(q, ExecParadigm::kCoordinatorIndexed);
  EXPECT_EQ(r.state.count, r.qualifying_tuples);
  EXPECT_NEAR(r.state.finalize(AnalyticType::kAvg), r.answer, 1e-12);
}

// Differential check of the version-stamped caches: seeded appends to
// random nodes, with and without invalidate_caches(), interleaved with
// range / radius / kNN queries on every paradigm. After every step the
// long-lived executor must agree bit for bit with a freshly built one.
// Registered again as the tier2 `exact_cache_threaded` run (SEA_THREADS=8).
class ExactCacheDifferential : public ::testing::TestWithParam<bool> {};

TEST_P(ExactCacheDifferential, SeededAppendsMatchFreshExecutor) {
  const bool all_on_one_node = GetParam();
  constexpr std::size_t kNodes = 5;
  const Table base = small_dataset(2500, 2, 41);
  // Appended rows come from a wider, shifted population so appends move
  // the partition (and table) bounds as well as the counts.
  Table pool = small_dataset(1200, 2, 42);
  for (auto& v : pool.mutable_column(1)) v = v * 1.6 - 0.3;
  Cluster c(kNodes, Network::single_zone(kNodes));
  // Round-robin, or everything on node 0 so appends fill empty partitions.
  if (all_on_one_node)
    c.load_table_at("t", base, 0);
  else
    c.load_table("t", base);
  ExactExecutor live(c, "t");
  const std::vector<std::size_t> cols{0, 1};
  constexpr ExecParadigm kAll[] = {
      ExecParadigm::kMapReduce, ExecParadigm::kCoordinatorIndexed,
      ExecParadigm::kCoordinatorGrid, ExecParadigm::kCoordinatorLearned};
  constexpr AnalyticType kAnalytics[] = {AnalyticType::kCount,
                                         AnalyticType::kAvg,
                                         AnalyticType::kVariance};
  Rng rng(all_on_one_node ? 4301 : 4302);
  std::size_t next = 0;
  std::vector<double> row(pool.num_columns());
  for (int step = 0; step < 30; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    // Append 1..60 rows to one or two random nodes.
    const int touched = static_cast<int>(rng.uniform_int(1, 2));
    for (int i = 0; i < touched && next < pool.num_rows(); ++i) {
      const auto node = static_cast<NodeId>(rng.uniform_int(0, kNodes - 1));
      Table& part = c.mutable_partition("t", node);
      const auto rows = static_cast<std::size_t>(rng.uniform_int(1, 60));
      for (std::size_t r = 0; r < rows && next < pool.num_rows(); ++r, ++next) {
        for (std::size_t col = 0; col < row.size(); ++col)
          row[col] = pool.at(next, col);
        part.append_row(row);
      }
    }
    if (rng.uniform() < 0.5) live.invalidate_caches();
    if (rng.uniform() < 0.25) continue;  // let some nodes go stale twice

    ExactExecutor fresh(c, "t");
    const Rect& dom = fresh.domain(cols);
    for (const auto sel :
         {SelectionType::kRange, SelectionType::kRadius,
          SelectionType::kNearestNeighbors}) {
      AnalyticalQuery q;
      q.selection = sel;
      q.analytic = kAnalytics[rng.uniform_int(0, 2)];
      q.subspace_cols = cols;
      q.target_col = 2;
      Point centre(2);
      for (std::size_t i = 0; i < 2; ++i)
        centre[i] = rng.uniform(dom.lo[i], dom.hi[i]);
      if (sel == SelectionType::kRange) {
        q.range.lo = centre;
        q.range.hi = centre;
        for (std::size_t i = 0; i < 2; ++i) {
          const double w = rng.uniform(0.05, 0.4) * (dom.hi[i] - dom.lo[i]);
          q.range.lo[i] -= w;
          q.range.hi[i] += w;
        }
      } else if (sel == SelectionType::kRadius) {
        q.ball.center = centre;
        q.ball.radius = rng.uniform(0.05, 0.4);
      } else {
        q.knn_point = centre;
        q.knn_k = static_cast<std::size_t>(rng.uniform_int(1, 40));
      }
      for (const auto p : kAll) {
        const auto want = fresh.execute(q, p);
        const auto got = live.execute(q, p);
        EXPECT_EQ(got.answer, want.answer) << to_string(p) << q.describe();
        EXPECT_EQ(got.qualifying_tuples, want.qualifying_tuples)
            << to_string(p) << q.describe();
      }
    }
    // Checked after the queries: domain() refreshes stale stamps too.
    const Rect& live_dom = live.domain(cols);
    EXPECT_EQ(live_dom.lo, dom.lo);
    EXPECT_EQ(live_dom.hi, dom.hi);
  }
  EXPECT_GT(next, 500u);  // the run really appended
}

INSTANTIATE_TEST_SUITE_P(Loaders, ExactCacheDifferential, ::testing::Bool());

}  // namespace
}  // namespace sea
