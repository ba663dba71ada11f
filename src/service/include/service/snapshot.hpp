// service/snapshot.hpp — immutable graph snapshots for concurrent serving.
//
// A GraphSnapshot owns a lagraph::Graph<double> that has been fully
// finalized: pending tuples merged, zombies buried, rows sorted, and every
// property the query kernels consult (transpose, row degrees, symmetric
// pattern, diagonal count) computed up front. After
// construction nothing about the snapshot ever changes, so any number of
// worker threads may run queries against it without synchronization — the
// "finalized" half of the grb threading contract (see grb/matrix.hpp).
//
// Snapshots are handed around as shared_ptr<const GraphSnapshot>: the
// Engine's install_snapshot swaps the pointer atomically while queries
// already bound to the old snapshot keep it alive until they finish —
// snapshot isolation by reference counting, the same discipline RedisGraph
// applies to its in-flight queries during a graph swap.
#pragma once

#include <cstdint>
#include <memory>

#include "lagraph/lagraph.hpp"

namespace lagraph {
namespace service {

class GraphSnapshot;
using SnapshotPtr = std::shared_ptr<const GraphSnapshot>;

class GraphSnapshot {
 public:
  /// The wrapped graph. Everything reachable from it is finalized;
  /// treat it as deeply immutable.
  [[nodiscard]] const Graph<double> &graph() const noexcept { return g_; }

  [[nodiscard]] grb::Index nodes() const noexcept { return g_.a.nrows(); }
  [[nodiscard]] grb::Index entries() const { return g_.a.nvals(); }
  [[nodiscard]] Kind kind() const noexcept { return g_.kind; }

  /// Monotonically increasing build id (process-wide); lets clients tell
  /// which graph version answered their query.
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

  /// Storage width the finalized adjacency settled on (u32 when the freeze
  /// found dimensions and nnz inside the u32 domain) and the bytes its
  /// index arrays currently occupy.
  [[nodiscard]] grb::IndexWidth index_width() const {
    return g_.a.index_width();
  }
  [[nodiscard]] std::size_t index_bytes() const { return g_.a.index_bytes(); }
  /// Estimated index bytes saved vs hypothetical u64 storage. u32 halves
  /// every slot, so the saving equals the current footprint; 0 for u64.
  [[nodiscard]] std::size_t index_bytes_saved() const {
    return index_width() == grb::IndexWidth::u32 ? index_bytes() : 0;
  }

  /// Ingest epoch this snapshot was published at. Snapshots built outside
  /// the write path (make_snapshot) are epoch 0; the ingest Writer stamps
  /// each publication with its strictly increasing epoch counter, which
  /// keys plan-cache scoping and registry reclamation. Two snapshots with
  /// different epochs never share a plan cache.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  /// Per-snapshot grb::plan memo. make_snapshot pre-warms it with traversal
  /// plans across a sweep of frontier densities; workers install it (via
  /// grb::plan::CacheScope) for the duration of each query so repeated
  /// shape buckets across a batch hit the cache instead of re-running the
  /// cost model. PlanCache is internally synchronized, hence mutable here:
  /// inserting a memoized plan does not observably change the snapshot.
  [[nodiscard]] grb::plan::PlanCache &plan_cache() const noexcept {
    return plan_cache_;
  }

 private:
  friend int make_snapshot(SnapshotPtr *out, Graph<double> &&g, char *msg);
  friend int publish_snapshot(SnapshotPtr *out, Graph<double> &&g,
                              std::uint64_t epoch, char *msg);
  GraphSnapshot() = default;

  Graph<double> g_;
  std::uint64_t id_ = 0;
  std::uint64_t epoch_ = 0;
  mutable grb::plan::PlanCache plan_cache_;
};

/// Build a snapshot from a graph (ownership moves, LAGraph_New style): cache
/// transpose + row degrees + symmetric pattern + ndiag, drain all deferred
/// work, freeze every container. On success *out holds the new snapshot.
int make_snapshot(SnapshotPtr *out, Graph<double> &&g, char *msg);

/// Ingest fast path: wrap an ALREADY-maintained graph — properties kept
/// current incrementally by the writer (degrees, transpose, ndiag) — into a
/// snapshot stamped with `epoch`, skipping the from-scratch property
/// recomputation of make_snapshot. Deferred work is still drained and every
/// container frozen; properties the writer did not populate stay absent
/// (query paths fall back, exactly as with a property-less make_snapshot
/// graph). The fresh per-snapshot plan cache is pre-warmed the same way.
int publish_snapshot(SnapshotPtr *out, Graph<double> &&g, std::uint64_t epoch,
                     char *msg);

}  // namespace service
}  // namespace lagraph
