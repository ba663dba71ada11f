// grb/config.hpp — library-wide tunables and instrumentation counters.
//
// The paper's §VI-A discusses SuiteSparse-specific optimizations (bitmap
// format for pull steps, lazy sort under non-blocking mode). These knobs let
// the benchmark harness turn each one on and off to reproduce those ablations.
#pragma once

#include <atomic>
#include <cstdint>

#include "grb/types.hpp"

namespace grb {

/// Global operand-format override for the execution planner (grb/plan.hpp).
/// `sparse` pins CSR matrices / sorted-sparse vectors (the forced-serial-CSR
/// reference path of the equivalence suite); `bitmap` pins bitmap operands
/// wherever the kernels support them; `none` lets the cost model choose.
enum class ForceFormat : std::uint8_t { none, sparse, bitmap };

/// Global index-width override for container storage (grb/indexarray.hpp).
/// `auto_select` applies the 2^31 rule at build/finalize time; `u32`/`u64`
/// pin the storage width — forcing u32 on a container whose dimensions or
/// entry count exceed the u32 limit throws Info::index_out_of_bounds rather
/// than truncating.
enum class ForceIndexWidth : std::uint8_t { auto_select, u32, u64 };

inline const char *force_index_width_name(ForceIndexWidth w) noexcept {
  switch (w) {
    case ForceIndexWidth::u32: return "u32";
    case ForceIndexWidth::u64: return "u64";
    default: return "auto";
  }
}

struct Config {
  /// Density threshold (nvals/size) above which a vector auto-switches to the
  /// bitmap format. The bitmap format is what makes "pull" steps cheap
  /// (paper §VI-A); set to > 1.0 to disable bitmap switching entirely.
  double bitmap_switch_density = 1.0 / 16.0;

  /// Lazy sort ("jumbled" matrices, paper §VI-A): operations that produce
  /// rows in arbitrary column order leave them unsorted; the sort happens
  /// only when a consumer requires sorted rows. If disabled, producers sort
  /// eagerly.
  bool lazy_sort = true;

  /// Thread-count override for every parallel kernel. 0 = the OpenMP default
  /// (OMP_NUM_THREADS / hardware); 1 pins the bit-exact serial schedule
  /// (used by the determinism suite); N > 1 requests exactly N threads.
  /// See detail::effective_threads() in grb/parallel.hpp.
  int num_threads = 0;

  /// Planner overrides (grb/plan.hpp). force_push / force_pull pin the
  /// traversal direction wherever both kernels exist (a pull without a cached
  /// transpose still falls back to push); force_format pins operand formats.
  /// Overrides outrank the cost model but not an Advanced-mode caller hint,
  /// which encodes an algorithmic requirement rather than a preference.
  bool force_push = false;
  bool force_pull = false;
  ForceFormat force_format = ForceFormat::none;

  /// grb::trace sampling gate (grb/trace.hpp): 0 disables span recording
  /// entirely (the default — a ScopedSpan then costs one branch and touches
  /// no global state), 1 records every span, N records every Nth span per
  /// thread. Toggle at runtime between ops; changing it mid-kernel is
  /// harmless (each span consults it once, on entry).
  std::uint32_t trace_sample_every = 0;

  /// Storage index width (grb/indexarray.hpp). auto_select picks u32 when
  /// max(nrows, ncols, nvals) < u32_index_limit at build/finalize time and
  /// u64 otherwise; u32/u64 pin the width for every subsequent build. The
  /// conformance differ sweeps this knob to prove u32 and u64 storage are
  /// bit-identical.
  ForceIndexWidth force_index_width = ForceIndexWidth::auto_select;

  /// The auto-selection threshold. Defaults to grb::kU32IndexLimit (2^31);
  /// tests lower it so the u32→u64 promotion boundary can be exercised with
  /// tiny containers instead of two billion entries. Must never exceed
  /// kU32IndexLimit (values above it would let u32 storage overflow).
  Index u32_index_limit = kU32IndexLimit;

  /// Burble-style narration (SuiteSparse:GraphBLAS's diagnostic): one
  /// stderr line per algorithm iteration — BFS level, PageRank sweep,
  /// FastSV round — with frontier size, chosen direction, and duration.
  /// Independent of trace_sample_every: narration works with recording off.
  bool burble = false;
};

inline Config &config() {
  static Config c;
  return c;
}

/// Plain-value copy of the Stats counters at one instant. Readers (CLI JSON
/// dumps, the service Prometheus exposition, bench reports) should take a
/// snapshot() instead of touching the hot atomics field-by-field: each
/// counter is loaded exactly once, so a report can't show the same counter
/// with two different values.
struct StatsSnapshot {
  std::uint64_t row_sorts = 0;
  std::uint64_t eager_sorts = 0;
  std::uint64_t pending_flushes = 0;
  std::uint64_t format_switches = 0;
  std::uint64_t index_width_compressions = 0;
  std::uint64_t index_width_promotions = 0;
  std::uint64_t finalize_calls = 0;
  std::uint64_t snapshot_builds = 0;
  std::uint64_t batched_queries = 0;
  std::uint64_t solo_queries = 0;
  std::uint64_t batch_sweeps = 0;
  std::uint64_t push_calls = 0;
  std::uint64_t pull_calls = 0;
  std::uint64_t parallel_regions = 0;
  std::uint64_t work_items_stolen = 0;
  std::uint64_t plans_built = 0;
  std::uint64_t plans_cached = 0;
  std::uint64_t plans_overridden = 0;
  std::uint64_t plan_push_decisions = 0;
  std::uint64_t plan_pull_decisions = 0;
  std::uint64_t format_conversions = 0;
  std::uint64_t fused_dispatches = 0;
  std::uint64_t edges_ingested = 0;
  std::uint64_t ingest_batches = 0;
  std::uint64_t epochs_published = 0;
  std::uint64_t snapshots_reclaimed = 0;

  /// Visit every counter as (name, value), in declaration order — the one
  /// place the counter list is spelled out for serializers (lagraph_cli
  /// stats JSON, the service /metrics exposition).
  template <typename F>
  void for_each(F &&f) const {
    f("row_sorts", row_sorts);
    f("eager_sorts", eager_sorts);
    f("pending_flushes", pending_flushes);
    f("format_switches", format_switches);
    f("index_width_compressions", index_width_compressions);
    f("index_width_promotions", index_width_promotions);
    f("finalize_calls", finalize_calls);
    f("snapshot_builds", snapshot_builds);
    f("batched_queries", batched_queries);
    f("solo_queries", solo_queries);
    f("batch_sweeps", batch_sweeps);
    f("push_calls", push_calls);
    f("pull_calls", pull_calls);
    f("parallel_regions", parallel_regions);
    f("work_items_stolen", work_items_stolen);
    f("plans_built", plans_built);
    f("plans_cached", plans_cached);
    f("plans_overridden", plans_overridden);
    f("plan_push_decisions", plan_push_decisions);
    f("plan_pull_decisions", plan_pull_decisions);
    f("format_conversions", format_conversions);
    f("fused_dispatches", fused_dispatches);
    f("edges_ingested", edges_ingested);
    f("ingest_batches", ingest_batches);
    f("epochs_published", epochs_published);
    f("snapshots_reclaimed", snapshots_reclaimed);
  }
};

/// Instrumentation counters, cheap enough to leave always-on. Used by the
/// ablation benchmarks to show, e.g., that the BFS/BC pipelines never pay for
/// a sort when lazy sort is enabled ("if the sort is lazy enough, it might
/// never occur").
struct Stats {
  std::atomic<std::uint64_t> row_sorts{0};        // deferred sorts performed
  std::atomic<std::uint64_t> eager_sorts{0};      // eager sorts performed
  std::atomic<std::uint64_t> pending_flushes{0};  // pending-tuple merges
  std::atomic<std::uint64_t> format_switches{0};  // vector format conversions

  // Index-width transitions (grb/indexarray.hpp): compressions are
  // u64→u32 conversions at build/finalize time (the memory win landing);
  // promotions are u32→u64 when a rebuild or mutation merge pushes a
  // container past the u32 limit.
  std::atomic<std::uint64_t> index_width_compressions{0};
  std::atomic<std::uint64_t> index_width_promotions{0};

  // Service-layer counters (lagraph::service): how often containers are
  // frozen for concurrent sharing and how effective query batching is. The
  // throughput benchmark reports batching effectiveness straight from these,
  // with no external profiler.
  std::atomic<std::uint64_t> finalize_calls{0};   // Matrix/Vector finalize()
  std::atomic<std::uint64_t> snapshot_builds{0};  // GraphSnapshot::build
  std::atomic<std::uint64_t> batched_queries{0};  // queries merged into a batch
  std::atomic<std::uint64_t> solo_queries{0};     // queries run one-at-a-time
  std::atomic<std::uint64_t> batch_sweeps{0};     // msbfs sweeps issued

  // Parallel-kernel counters (grb/parallel.hpp): push/pull kernel mix, how
  // many OpenMP regions actually forked, and how many work chunks were
  // claimed by a thread other than their round-robin home — the
  // load-imbalance signal of the nnz-balanced scheduler.
  std::atomic<std::uint64_t> push_calls{0};         // saxpy (vxm-style) kernels
  std::atomic<std::uint64_t> pull_calls{0};         // dot (mxv-style) kernels
  std::atomic<std::uint64_t> parallel_regions{0};   // OpenMP teams forked
  std::atomic<std::uint64_t> work_items_stolen{0};  // chunks run off-home

  // Execution-planner counters (grb/plan.hpp): how many plans were built,
  // how often a Config override or caller hint outranked the cost model, the
  // per-decision outcome mix, and how many operand conversions the planner
  // explicitly requested.
  std::atomic<std::uint64_t> plans_built{0};          // cost model evaluated
  // Always 0: no plan is memoized. Kept only because perfbench reads it.
  std::atomic<std::uint64_t> plans_cached{0};
  std::atomic<std::uint64_t> plans_overridden{0};     // hint/override decided
  std::atomic<std::uint64_t> plan_push_decisions{0};  // plans choosing push
  std::atomic<std::uint64_t> plan_pull_decisions{0};  // plans choosing pull
  std::atomic<std::uint64_t> format_conversions{0};   // planner-driven converts
  std::atomic<std::uint64_t> fused_dispatches{0};     // fused kernel chosen

  // Ingest counters (lagraph::ingest): the streaming write path. Edges
  // counts individual mutation commands accepted; batches counts writer
  // drains; epochs counts snapshot publications; reclaimed counts retired
  // snapshots whose grace period expired with no readers pinning them.
  std::atomic<std::uint64_t> edges_ingested{0};       // mutation cmds accepted
  std::atomic<std::uint64_t> ingest_batches{0};       // writer queue drains
  std::atomic<std::uint64_t> epochs_published{0};     // snapshots published
  std::atomic<std::uint64_t> snapshots_reclaimed{0};  // retired after grace

  /// Race-free value copy: every counter loaded exactly once (relaxed).
  /// The set is not a consistent cut across counters — increments land
  /// between loads — but each value is a real observed count, and repeated
  /// reads of the snapshot are stable. This is what serializers and
  /// concurrent readers (the service engine may be running) must use.
  [[nodiscard]] StatsSnapshot snapshot() const noexcept {
    StatsSnapshot s;
    s.row_sorts = row_sorts.load(std::memory_order_relaxed);
    s.eager_sorts = eager_sorts.load(std::memory_order_relaxed);
    s.pending_flushes = pending_flushes.load(std::memory_order_relaxed);
    s.format_switches = format_switches.load(std::memory_order_relaxed);
    s.index_width_compressions =
        index_width_compressions.load(std::memory_order_relaxed);
    s.index_width_promotions =
        index_width_promotions.load(std::memory_order_relaxed);
    s.finalize_calls = finalize_calls.load(std::memory_order_relaxed);
    s.snapshot_builds = snapshot_builds.load(std::memory_order_relaxed);
    s.batched_queries = batched_queries.load(std::memory_order_relaxed);
    s.solo_queries = solo_queries.load(std::memory_order_relaxed);
    s.batch_sweeps = batch_sweeps.load(std::memory_order_relaxed);
    s.push_calls = push_calls.load(std::memory_order_relaxed);
    s.pull_calls = pull_calls.load(std::memory_order_relaxed);
    s.parallel_regions = parallel_regions.load(std::memory_order_relaxed);
    s.work_items_stolen = work_items_stolen.load(std::memory_order_relaxed);
    s.plans_built = plans_built.load(std::memory_order_relaxed);
    s.plans_cached = plans_cached.load(std::memory_order_relaxed);
    s.plans_overridden = plans_overridden.load(std::memory_order_relaxed);
    s.plan_push_decisions = plan_push_decisions.load(std::memory_order_relaxed);
    s.plan_pull_decisions = plan_pull_decisions.load(std::memory_order_relaxed);
    s.format_conversions = format_conversions.load(std::memory_order_relaxed);
    s.fused_dispatches = fused_dispatches.load(std::memory_order_relaxed);
    s.edges_ingested = edges_ingested.load(std::memory_order_relaxed);
    s.ingest_batches = ingest_batches.load(std::memory_order_relaxed);
    s.epochs_published = epochs_published.load(std::memory_order_relaxed);
    s.snapshots_reclaimed =
        snapshots_reclaimed.load(std::memory_order_relaxed);
    return s;
  }

  /// Zero every counter. NOT safe concurrently with running kernels or a
  /// live service engine: the stores race member-by-member with in-flight
  /// fetch_adds, so some increments survive the reset and others vanish —
  /// the resulting mix never corresponds to any real instant. Quiesce all
  /// workers (Engine::stop(), join benches) before calling; concurrent
  /// *readers* should use snapshot() and never reset().
  void reset() noexcept {
    row_sorts = 0;
    eager_sorts = 0;
    pending_flushes = 0;
    format_switches = 0;
    index_width_compressions = 0;
    index_width_promotions = 0;
    finalize_calls = 0;
    snapshot_builds = 0;
    batched_queries = 0;
    solo_queries = 0;
    batch_sweeps = 0;
    push_calls = 0;
    pull_calls = 0;
    parallel_regions = 0;
    work_items_stolen = 0;
    plans_built = 0;
    plans_cached = 0;
    plans_overridden = 0;
    plan_push_decisions = 0;
    plan_pull_decisions = 0;
    format_conversions = 0;
    fused_dispatches = 0;
    edges_ingested = 0;
    ingest_batches = 0;
    epochs_published = 0;
    snapshots_reclaimed = 0;
  }
};

inline Stats &stats() {
  static Stats s;
  return s;
}

}  // namespace grb
