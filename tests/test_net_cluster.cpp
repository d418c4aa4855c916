// Unit tests: simulated network and cluster (partitioning + accounting).
#include <gtest/gtest.h>

#include "test_util.h"

namespace sea {
namespace {

using testing::small_dataset;

TEST(LinkSpec, TransferTimeFormula) {
  LinkSpec link{1.0, 100.0};  // 1ms latency, 100 Mbps
  // 1 MB = 8e6 bits / 1e8 bits-per-s = 80 ms + 1 ms latency.
  EXPECT_NEAR(link.transfer_ms(1000000), 81.0, 1e-9);
  EXPECT_NEAR(link.transfer_ms(0), 1.0, 1e-12);
}

TEST(Network, LoopbackIsFree) {
  Network net = Network::single_zone(4);
  EXPECT_DOUBLE_EQ(net.cost_ms(2, 2, 1000000), 0.0);
  net.send(2, 2, 1000);
  EXPECT_EQ(net.stats().messages, 0u);
}

TEST(Network, ZoneClassification) {
  Network net({0, 0, 1, 1}, LinkSpec{0.1, 1000}, LinkSpec{50, 100});
  EXPECT_TRUE(net.same_zone(0, 1));
  EXPECT_FALSE(net.same_zone(1, 2));
  EXPECT_LT(net.cost_ms(0, 1, 1000), net.cost_ms(0, 2, 1000));
}

TEST(Network, TrafficAccounting) {
  Network net({0, 0, 1}, LinkSpec{0.1, 1000}, LinkSpec{50, 100});
  net.send(0, 1, 100);  // LAN
  net.send(0, 2, 200);  // WAN
  const auto& s = net.stats();
  EXPECT_EQ(s.messages, 2u);
  EXPECT_EQ(s.bytes, 300u);
  EXPECT_EQ(s.lan_bytes, 100u);
  EXPECT_EQ(s.wan_bytes, 200u);
  EXPECT_GT(s.modelled_ms, 50.0);
  net.reset_stats();
  EXPECT_EQ(net.stats().messages, 0u);
}

TEST(Network, RestoreStats) {
  Network net = Network::single_zone(2);
  net.send(0, 1, 100);
  const TrafficStats snap = net.stats();
  net.send(0, 1, 100);
  net.restore_stats(snap);
  EXPECT_EQ(net.stats().bytes, 100u);
}

TEST(Network, BadNodeThrows) {
  Network net = Network::single_zone(2);
  EXPECT_THROW(net.cost_ms(0, 5, 10), std::out_of_range);
  EXPECT_THROW(net.zone_of(9), std::out_of_range);
}

TEST(Cluster, RoundRobinPartitioningBalances) {
  const Table t = small_dataset(1000, 2);
  Cluster c = testing::make_cluster(t, "t", 4);
  EXPECT_EQ(c.table_rows("t"), 1000u);
  for (std::size_t n = 0; n < 4; ++n)
    EXPECT_EQ(c.partition("t", static_cast<NodeId>(n)).num_rows(), 250u);
}

TEST(Cluster, HashPartitioningCoversAllRows) {
  const Table t = small_dataset(1000, 2);
  Cluster c = testing::make_cluster(
      t, "t", 4, PartitionSpec{Partitioning::kHashColumn, 0});
  EXPECT_EQ(c.table_rows("t"), 1000u);
}

TEST(Cluster, RangePartitioningOrdersValues) {
  const Table t = small_dataset(2000, 2);
  Cluster c = testing::make_cluster(
      t, "t", 4, PartitionSpec{Partitioning::kRangeColumn, 0});
  EXPECT_EQ(c.table_rows("t"), 2000u);
  // Every value at node i must be <= every value at node i+1 (boundaries
  // may tie).
  double prev_max = -1e300;
  for (std::size_t n = 0; n < 4; ++n) {
    const auto& part = c.partition("t", static_cast<NodeId>(n));
    if (part.num_rows() == 0) continue;
    double mn = 1e300, mx = -1e300;
    for (const double v : part.column(0)) {
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
    EXPECT_GE(mn, prev_max - 1e-12);
    prev_max = mx;
  }
}

TEST(Cluster, RangePartitioningIsBalanced) {
  const Table t = small_dataset(4000, 2);
  Cluster c = testing::make_cluster(
      t, "t", 4, PartitionSpec{Partitioning::kRangeColumn, 0});
  for (std::size_t n = 0; n < 4; ++n) {
    const auto rows = c.partition("t", static_cast<NodeId>(n)).num_rows();
    EXPECT_GT(rows, 500u);
    EXPECT_LT(rows, 1500u);
  }
}

TEST(Cluster, NodesForRangePrunes) {
  const Table t = small_dataset(4000, 2);
  Cluster c = testing::make_cluster(
      t, "t", 4, PartitionSpec{Partitioning::kRangeColumn, 0});
  // A tiny range touches fewer nodes than the full domain.
  const auto all = c.nodes_for_range("t", -1e300, 1e300);
  EXPECT_EQ(all.size(), 4u);
  const Rect bounds = table_bounds(t, std::vector<std::size_t>{0});
  const double mid = 0.5 * (bounds.lo[0] + bounds.hi[0]);
  const auto few = c.nodes_for_range("t", mid, mid + 1e-6);
  EXPECT_LT(few.size(), 4u);
  EXPECT_GE(few.size(), 1u);
}

TEST(Cluster, NodesForRangeCorrectness) {
  // Every row in [lo, hi] must live on a returned node.
  const Table t = small_dataset(2000, 2);
  Cluster c = testing::make_cluster(
      t, "t", 4, PartitionSpec{Partitioning::kRangeColumn, 0});
  const double lo = 0.3, hi = 0.5;
  const auto nodes = c.nodes_for_range("t", lo, hi);
  std::size_t found = 0;
  for (const auto n : nodes) {
    for (const double v : c.partition("t", n).column(0))
      if (v >= lo && v <= hi) ++found;
  }
  std::size_t expected = 0;
  for (const double v : t.column(0))
    if (v >= lo && v <= hi) ++expected;
  EXPECT_EQ(found, expected);
}

TEST(Cluster, NonRangeSchemesReturnAllNodes) {
  const Table t = small_dataset(100, 2);
  Cluster c = testing::make_cluster(t, "t", 3);
  EXPECT_EQ(c.nodes_for_range("t", 0.0, 0.1).size(), 3u);
}

TEST(Cluster, LoadTableAtPinsToNode) {
  const Table t = small_dataset(100, 2);
  Cluster c(3, Network::single_zone(3));
  c.load_table_at("pinned", t, 1);
  EXPECT_EQ(c.partition("pinned", 0).num_rows(), 0u);
  EXPECT_EQ(c.partition("pinned", 1).num_rows(), 100u);
  EXPECT_EQ(c.partition("pinned", 2).num_rows(), 0u);
}

TEST(Cluster, VersionBumpsOnMutableAccess) {
  const Table t = small_dataset(100, 2);
  Cluster c = testing::make_cluster(t, "t", 2);
  const auto v0 = c.partition_version("t", 0);
  c.mutable_partition("t", 0);
  EXPECT_EQ(c.partition_version("t", 0), v0 + 1);
  EXPECT_EQ(c.partition_version("t", 1), v0);
}

TEST(Cluster, VersionsNeverRepeatAcrossReload) {
  const Table t = small_dataset(100, 2);
  Cluster c = testing::make_cluster(t, "t", 3);
  for (int i = 0; i < 3; ++i) c.mutable_partition("t", 1);
  std::uint64_t high = 0;
  for (NodeId n = 0; n < 3; ++n)
    high = std::max(high, c.partition_version("t", n));
  c.drop_table("t");
  c.load_table("t", t);
  for (NodeId n = 0; n < 3; ++n) EXPECT_GT(c.partition_version("t", n), high);
  high = c.partition_version("t", 0);
  c.drop_table("t");
  c.load_table_at("t", t, 2);
  for (NodeId n = 0; n < 3; ++n) EXPECT_GT(c.partition_version("t", n), high);
}

TEST(Cluster, UnknownTableThrows) {
  Cluster c(2, Network::single_zone(2));
  EXPECT_THROW(c.partition("nope", 0), std::out_of_range);
  EXPECT_THROW(c.drop_table("nope"), std::out_of_range);
}

TEST(Cluster, DropTable) {
  const Table t = small_dataset(10, 2);
  Cluster c = testing::make_cluster(t, "t", 2);
  EXPECT_TRUE(c.has_table("t"));
  c.drop_table("t");
  EXPECT_FALSE(c.has_table("t"));
}

TEST(Cluster, AccountingAccumulates) {
  const Table t = small_dataset(100, 2);
  Cluster c = testing::make_cluster(t, "t", 2);
  c.account_task(0);
  c.account_scan(0, 50, 1200);
  c.account_probe(1, 3, 10, 240);
  const auto& s = c.stats();
  EXPECT_EQ(s.tasks, 1u);
  EXPECT_EQ(s.rows_scanned, 60u);
  EXPECT_EQ(s.bytes_read, 1440u);
  EXPECT_EQ(s.index_probes, 3u);
  EXPECT_GT(s.modelled_overhead_ms, 0.0);
  c.reset_stats();
  EXPECT_EQ(c.stats().tasks, 0u);
}

TEST(Cluster, TaskOverheadUsesCostModel) {
  BdasCostModel cost;
  cost.layers = 3;
  cost.layer_overhead_ms = 2.0;
  cost.task_startup_ms = 4.0;
  EXPECT_DOUBLE_EQ(cost.task_overhead_ms(), 10.0);
}

TEST(Cluster, InvalidConstructionThrows) {
  EXPECT_THROW(Cluster(0, Network::single_zone(1)), std::invalid_argument);
  EXPECT_THROW(Cluster(4, Network::single_zone(2)), std::invalid_argument);
}

}  // namespace
}  // namespace sea
