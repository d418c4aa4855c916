// Exact execution of analytical queries over the simulated BDAS.
//
// Two interchangeable paradigms (paper RT3.2):
//  * kMapReduce — the Fig. 1 status quo: every node launches a task, scans
//    its whole partition through all stack layers, and shuffles partial
//    aggregates.
//  * kCoordinatorIndexed — the big-data-less path (P3): the coordinator
//    RPCs only relevant nodes, which answer from per-node k-d trees with
//    surgical tuple access; only 48-byte aggregate states travel.
//
// Both return the same exact answer; they differ (hugely) in cost, which
// is exactly what experiments E1/E6 measure.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.h"
#include "exec/exec_report.h"
#include "fault/outage.h"
#include "index/grid.h"
#include "index/kdtree.h"
#include "index/learned.h"
#include "sea/aggregate.h"
#include "sea/query.h"

namespace sea {

enum class ExecParadigm {
  kMapReduce,
  kCoordinatorIndexed,  ///< per-node k-d trees
  kCoordinatorGrid,     ///< per-node uniform grids (RT3.1 alternative)
  kCoordinatorLearned,  ///< per-node CDF-learned grids (exact, see learned.h)
};

const char* to_string(ExecParadigm p) noexcept;

struct ExactResult {
  double answer = 0.0;
  std::uint64_t qualifying_tuples = 0;
  /// Raw mergeable aggregate (lets callers combine answers across systems,
  /// e.g. the polystore's federated queries).
  AggregateState state;
  ExecReport report;
};

class ExactExecutor {
 public:
  /// Executes against table `table_name` stored in `cluster`.
  /// `coordinator` is the node issuing queries (also reducer target).
  ExactExecutor(Cluster& cluster, std::string table_name,
                NodeId coordinator = 0);
  ~ExactExecutor();  // out-of-line: MrScratch is complete only in exact.cpp

  /// Exact answer via the chosen paradigm. The coordinator paradigms
  /// lazily build and cache one access structure (k-d tree, grid or
  /// learned grid) per node over the query's subspace columns. Each is
  /// stamped with the Cluster::partition_version it was built from; a
  /// lookup rebuilds only the nodes whose partition version moved since,
  /// so an append to one partition rebuilds one node's structure and the
  /// answer never comes from a stale one. Every structure is a pure
  /// function of its partition, so answers do not depend on when it was
  /// built. Build time is reported via index_build_ms(), the number of
  /// per-node builds via index_builds().
  /// When `deadline` is non-null, every modelled cost (transfers, task
  /// overheads, retry backoff) is charged against its budget and the
  /// execution aborts with DeadlineExceeded once it is spent.
  ExactResult execute(const AnalyticalQuery& query, ExecParadigm paradigm,
                      QueryDeadline* deadline = nullptr);

  /// Global bounds of the given columns: the union, in node order, of
  /// per-node bounds cached under the same version stamps as the access
  /// structures, so only changed partitions are rescanned. The returned
  /// reference stays valid and is updated in place by later calls.
  /// Used for feature normalization by the agent and workload generators.
  const Rect& domain(const std::vector<std::size_t>& cols);

  Cluster& cluster() noexcept { return cluster_; }
  const std::string& table_name() const noexcept { return table_; }
  /// Wall time spent building per-node structures (reporting only).
  double index_build_ms() const noexcept { return index_build_ms_; }
  /// Number of per-node access-structure builds so far (deterministic).
  std::uint64_t index_builds() const noexcept { return index_builds_; }

  /// Frees the cached structures and bounds of every node whose partition
  /// version moved since they were built; other nodes keep theirs. Only
  /// memory depends on this call: lookups check the version stamps
  /// themselves, so a caller that skips it still gets fresh answers.
  void invalidate_caches();

 private:
  /// One node's cache for one column set. Everything present was built
  /// from partition version `version` (0 = nothing built yet); a stale
  /// entry is cleared whole before anything is rebuilt.
  struct NodeCache {
    std::uint64_t version = 0;
    std::optional<Rect> bounds;  ///< table_bounds; empty Rect when no rows
    std::optional<KdTree> kd;
    std::optional<GridIndex> grid;
    std::optional<LearnedGrid> learned;
  };
  struct ColsetCache {
    std::vector<NodeCache> nodes;  ///< one per cluster node
    std::optional<Rect> domain;    ///< union of `nodes` bounds
  };

  ColsetCache& cache_for(const std::vector<std::size_t>& cols);
  /// Node `n`'s entry, cleared and restamped if its partition moved.
  NodeCache& fresh_node(ColsetCache& cache, std::size_t n);
  const Rect& node_bounds(ColsetCache& cache, std::size_t n,
                          const std::vector<std::size_t>& cols);
  /// The one refresh path: builds `slot` (a KdTree, GridIndex or
  /// LearnedGrid) on every node that lacks it at the partition's current
  /// version.
  template <typename T>
  const ColsetCache& refresh(const std::vector<std::size_t>& cols,
                             std::optional<T> NodeCache::*slot);

  ExactResult execute_mapreduce(const AnalyticalQuery& query,
                                QueryDeadline* deadline);
  /// Shared coordinator-cohort path; `access` selects the per-node access
  /// structure (RT3.1): k-d tree, uniform grid, or learned grid.
  ExactResult execute_indexed(const AnalyticalQuery& query,
                              ExecParadigm access, QueryDeadline* deadline);

  /// Scans `rows` of a partition and accumulates qualifying tuples.
  AggregateState aggregate_rows(const Table& part,
                                const std::vector<std::uint64_t>& rows,
                                const AnalyticalQuery& q) const;

  /// Reusable MapReduce shuffle buffers (one per job key/value shape),
  /// kept warm across the executor's query stream — see MapReduceScratch.
  struct MrScratch;

  Cluster& cluster_;
  std::string table_;
  NodeId coordinator_;
  double index_build_ms_ = 0.0;
  std::uint64_t index_builds_ = 0;
  std::unordered_map<std::string, ColsetCache> cache_;  ///< by column set
  std::unique_ptr<MrScratch> mr_scratch_;
};

}  // namespace sea
