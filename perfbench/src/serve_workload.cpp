// perfbench/src/serve_workload.cpp — serve_mixed: service::Engine (2
// workers, BFS batching on, one kernel thread each) serving a Kronecker
// scale-14 graph while ingest::Writer publishes snapshots under it.
//
// Reads arrive in an open loop: one generator thread submits at Poisson
// due times of a fixed rate, whatever the engine's state, and every read is
// timed from its due time. The mix is ~85% BFS, ~10% pinned cypher chains
// and ~5% SSSP. One mutator thread submits insert/upsert/remove batches at a
// fixed interval; each batch carries a marker, an insert of the self-loop
// (m, m) whose weight is the batch's sequence number, so the publish hook
// can tell exactly which batches an installed snapshot contains.
//
// A seeded sample of answers is held with the snapshot that answered it and
// re-checked after the window: BFS and SSSP against gapbs on that snapshot,
// cypher against the naive plan (compile with optimize=false).
#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <thread>

#include "common.hpp"
#include "gapbs/graph.hpp"
#include "gen/generators.hpp"
#include "ingest/writer.hpp"
#include "lagraph/lagraph.hpp"
#include "query/query.hpp"
#include "service/engine.hpp"

namespace pb {
namespace {

using grb::Index;
namespace svc = lagraph::service;
namespace ing = lagraph::ingest;
namespace q = lagraph::query;

constexpr int kScale = 14;
constexpr int kWorkers = 2;
// One kernel thread per worker: with 2-thread teams on this 4-core host,
// every fork-join waited on a descheduled team thread and SSSP times
// spread 20-65% between identical runs.
constexpr int kKernelThreads = 1;
constexpr int kSetupRepeats = 3;
// The graph is fixed; --seed draws arrivals, the read mix, sources, pins
// and mutations.
constexpr std::uint64_t kGraphSeed = 1;
// Offered read rate, fixed: about 40% of the closed-loop capacity that
// `perfbench --workload serve_mixed --capacity 1` measured on the commit
// that introduced the benchmark (174 and 215 reads/s in two runs, 4 cores).
// At 115 reads/s (60%) the BFS serving overhead spread 7-33% between runs;
// at 80 it spread 1-2%.
constexpr double kReadRate = 80.0;
constexpr double kBfsShare = 0.85, kCypherShare = 0.10;  // rest is SSSP
constexpr double kSsspDelta = 2.0;
constexpr int kWriteBatch = 16;  // mutations per batch, marker included
constexpr double kWriteIntervalMs = 20.0;
constexpr double kPublishIntervalMs = 200.0;
// The run is invalid when the generator's p99 lateness exceeds this: wake-up
// jitter of a few ms is normal on a busy host and is charged to latency
// anyway; a generator starved for tens of ms no longer offers the rate.
constexpr double kMaxLateMs = 20.0;
// Answers re-checked after the window, per kind.
constexpr int kSampleBfs = 8, kSampleSssp = 6, kSampleCypher = 4;
constexpr int kMaxHeldSnapshots = 6;
constexpr int kCapacityOutstanding = 16;

enum Kind { kBfs, kSssp, kCypher, kNumKinds };
const char *const kKindName[kNumKinds] = {"bfs", "sssp", "cypher"};

/// One submitted read, as the generator hands it to the collector.
struct Issued {
  Kind kind = kBfs;
  Index arg = 0;  // BFS/SSSP source or cypher pin
  Clock::time_point due, submitted;
  std::future<svc::QueryResult> fut;
  bool sampled = false;
  svc::SnapshotPtr snap_before, snap_after;
};

/// A sampled answer held for the post-window check.
struct Held {
  Kind kind;
  Index arg;
  svc::QueryResult result;
  svc::SnapshotPtr snap;
};

std::string chain_text(Index pin) {
  return "MATCH (a)-[]->(b)-[]->(c) WHERE c = " + std::to_string(pin) +
         " RETURN COUNT(*)";
}

gapbs::Graph ref_of(const lagraph::Graph<double> &g) {
  gen::EdgeList el;
  el.n = g.nodes();
  g.a.for_each([&](Index i, Index j, double w) {
    el.push(i, j);
    el.weight.push_back(w);
  });
  return gapbs::Graph::build(el, g.kind == lagraph::Kind::adjacency_directed);
}

struct SetupTimes {
  double total = 0, gen = 0, graph = 0;
};

/// The serving stack of one run. Members are declared in teardown order's
/// reverse: the writer's hook uses the engine, so the writer goes first.
struct Stack {
  gen::EdgeList edges;
  std::unique_ptr<svc::Engine> engine;
  std::unique_ptr<ing::Writer> writer;
  Index marker = 0;

  // Publish-hook state; written only from the writer thread until stop().
  std::vector<Clock::time_point> write_submitted;  // by batch sequence number
  std::vector<Clock::time_point> write_installed;
  std::uint64_t resolved = 0;  // highest marker seen installed
  Samples publish_ms;
  std::uint64_t installs = 0;

  void on_publish(const svc::SnapshotPtr &s) {
    engine->install_snapshot(s);
    const auto now = Clock::now();
    ++installs;
    const auto w = s->graph().a.get(marker, marker);
    const auto seq = static_cast<std::uint64_t>(w.value_or(0.0));
    for (std::uint64_t k = resolved + 1; k <= seq && k < write_installed.size();
         ++k) {
      write_installed[k] = now;
    }
    resolved = std::max(resolved, seq);
    // The hook runs before the writer stores this epoch's duration, so this
    // reads the previous publication's.
    if (writer != nullptr && writer->last_publish_seconds() > 0) {
      publish_ms.add(writer->last_publish_seconds() * 1e3);
    }
  }

  void stop() {
    if (writer != nullptr) writer->stop();
    if (engine != nullptr) engine->stop();
  }
};

std::unique_ptr<Stack> build_stack(std::uint64_t seed, std::size_t max_batches,
                                   SetupTimes *t, Tracer &tracer) {
  char msg[LAGRAPH_MSG_LEN];
  auto st = std::make_unique<Stack>();
  const std::uint64_t req = tracer.next_id();
  const auto t0 = Clock::now();
  st->edges = gen::make_gap_graph({gen::GapGraphId::kron, kScale, 8, seed}).edges;
  const auto t1 = Clock::now();
  tracer.record(0, req, "gen.make_gap_graph", t0, t1);
  lagraph::Graph<double> g;
  if (lagraph::make_graph(g, gen::to_matrix<double>(st->edges),
                          lagraph::Kind::adjacency_undirected, msg) < 0) {
    std::fprintf(stderr, "perfbench: make_graph failed: %s\n", msg);
    std::exit(1);
  }
  st->marker = g.nodes() - 1;
  st->write_submitted.resize(max_batches + 1);
  st->write_installed.resize(max_batches + 1);
  svc::EngineConfig ecfg;
  ecfg.threads = kWorkers;
  ecfg.enable_batching = true;
  st->engine = std::make_unique<svc::Engine>(ecfg);
  ing::WriterConfig wcfg;
  // At most five epochs per second: each publication copies and freezes
  // the whole graph (tens of ms here), and a read-mostly service keeps that
  // to a small share of one core.
  wcfg.publish_threshold = 1 << 16;
  wcfg.min_publish_interval_ms = kPublishIntervalMs;
  Stack *raw = st.get();
  st->writer = std::make_unique<ing::Writer>(
      std::move(g), wcfg,
      [raw](const svc::SnapshotPtr &s) { raw->on_publish(s); });
  const auto t2 = Clock::now();
  tracer.record(0, req, "lagraph.make_graph+snapshot", t1, t2);
  t->gen = std::chrono::duration<double>(t1 - t0).count();
  t->graph = std::chrono::duration<double>(t2 - t1).count();
  t->total = std::chrono::duration<double>(t2 - t0).count();
  return st;
}

struct Pools {
  std::vector<Index> bfs, sssp, pins;
};

Pools pick_pools(const std::vector<Index> &degree, std::uint64_t seed) {
  Rng seeded(seed ^ 0x5e7e5u), fixed(kGraphSeed ^ 0xf1c5edu);
  const auto n = static_cast<Index>(degree.size());
  auto pick = [&](Rng &rng, std::size_t count, Index lo, Index hi) {
    std::vector<Index> out;
    while (out.size() < count) {
      // The last node carries the write marker; keep it out of the inputs.
      const Index v = rng.below(n - 1);
      if (degree[v] >= lo && degree[v] <= hi) out.push_back(v);
    }
    return out;
  };
  Pools p;
  p.bfs = pick(seeded, 256, 1, n);
  p.pins = pick(seeded, 256, 1, 32);  // modest in-degree: point-lookup sized
  // SSSP, the rare expensive read, draws from a fixed list of sources (as
  // GAP fixes its source lists) so every run times about the same inputs.
  p.sssp = pick(fixed, 16, 1, n);
  return p;
}

// -- correctness -----------------------------------------------------------------

/// Shape checks every answer gets (the full check is for the sample).
bool plausible(Kind k, Index arg, const svc::QueryResult &r) {
  switch (k) {
    case kBfs: return r.level.get(arg).value_or(-1) == 0;
    case kSssp: return r.dist.get(arg).value_or(-1.0) == 0.0;
    case kCypher: return r.table.rows() == 1;
    default: return false;
  }
}

bool check_held(const Held &h, const gapbs::Graph &ref, char *msg) {
  const auto &r = h.result;
  switch (h.kind) {
    case kBfs: {
      auto want = gapbs::bfs_levels_reference(
          ref, static_cast<gapbs::NodeId>(h.arg));
      if (r.level.size() != want.size()) return false;
      std::vector<std::int64_t> got(want.size(), -1);
      r.level.for_each([&](Index i, std::int64_t x) { got[i] = x; });
      return got == want;
    }
    case kSssp: {
      auto want = gapbs::sssp(ref, static_cast<gapbs::NodeId>(h.arg), kSsspDelta);
      if (r.dist.size() != want.size()) return false;
      std::vector<double> got(want.size(),
                              std::numeric_limits<double>::infinity());
      r.dist.for_each([&](Index i, double x) { got[i] = x; });
      return got == want;
    }
    case kCypher: {
      q::Query parsed;
      q::QueryPlan naive;
      q::ResultSet want;
      const auto &g = h.snap->graph();
      if (q::parse(&parsed, chain_text(h.arg), msg) < 0 ||
          q::compile(&naive, parsed, g, /*optimize=*/false, msg) < 0 ||
          q::execute(&want, parsed, naive, g, msg) < 0) {
        return false;
      }
      return want == r.table;
    }
    default: return false;
  }
}

// -- the measured window -----------------------------------------------------

struct ReadLog {
  Samples latency_ms[kNumKinds], all_latency_ms, queue_ms, exec_ms[kNumKinds];
  Samples overhead[kNumKinds];  // latency / execution, per read
  Samples late_ms;
  std::uint64_t issued = 0, ok = 0, failed = 0, wrong = 0;
  std::uint64_t bfs = 0, bfs_batched = 0;
  double bfs_batch_sum = 0;
  double worst_excess = 0;  // (late + queue + exec - observed) / observed
  std::size_t backlog_max = 0;
  std::vector<Held> held;
  int held_snapshots = 0;
};

struct WriteLog {
  Samples submit_ms;
  std::uint64_t batches = 0, queue_full = 0, rejected = 0;
};

int run_window(Stack &st, const Pools &pools, const Options &opt,
               bool capacity, Tracer &tracer, ReadLog &rl, WriteLog &wl,
               double *window_s) {
  svc::Engine &engine = *st.engine;
  const double expected_reads = kReadRate * opt.seconds;
  const double p_sample[kNumKinds] = {
      kSampleBfs / (expected_reads * kBfsShare),
      kSampleSssp / (expected_reads * (1 - kBfsShare - kCypherShare)),
      kSampleCypher / (expected_reads * kCypherShare)};
  const int sample_cap[kNumKinds] = {kSampleBfs, kSampleSssp, kSampleCypher};

  std::mutex mu;
  std::condition_variable cv;
  std::deque<Issued> pending;
  bool gen_done = false;
  std::atomic<int> outstanding{0};

  const auto w0 = Clock::now();
  const auto w1 = w0 + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(opt.seconds));

  std::thread collector([&] {
    for (;;) {
      Issued is;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return gen_done || !pending.empty(); });
        if (pending.empty()) return;
        is = std::move(pending.front());
        pending.pop_front();
      }
      svc::QueryResult r = is.fut.get();
      const auto ready = Clock::now();
      outstanding.fetch_sub(1);
      auto ms = [](Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration<double, std::milli>(b - a).count();
      };
      const double late = ms(is.due, is.submitted);
      const double latency = late + (r.queue_seconds + r.exec_seconds) * 1e3;
      const double observed = ms(is.due, ready);
      rl.worst_excess = std::max(rl.worst_excess, (latency - observed) / observed);
      const bool ok = r.status >= 0 && plausible(is.kind, is.arg, r);
      if (tracer.on()) {
        const auto start = is.submitted + std::chrono::duration_cast<Clock::duration>(
                                              std::chrono::duration<double>(r.queue_seconds));
        const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(r.exec_seconds));
        const std::uint64_t root =
            tracer.record(0, r.request_id, "service.read", is.due, end);
        tracer.record(root, r.request_id, "bench.gen_late", is.due, is.submitted);
        tracer.record(root, r.request_id, "service.queue", is.submitted, start);
        tracer.record(root, r.request_id, "service.exec", start, end);
      }
      if (!ok) {
        ++rl.failed;
        continue;
      }
      ++rl.ok;
      rl.latency_ms[is.kind].add(latency);
      rl.overhead[is.kind].add(latency / (r.exec_seconds * 1e3));
      rl.all_latency_ms.add(latency);
      rl.queue_ms.add(r.queue_seconds * 1e3);
      rl.exec_ms[is.kind].add(r.exec_seconds * 1e3);
      if (is.kind == kBfs) {
        ++rl.bfs;
        rl.bfs_batch_sum += r.batch_size;
        if (r.batched) ++rl.bfs_batched;
      }
      if (is.sampled) {
        svc::SnapshotPtr snap;
        if (is.snap_before->id() == r.snapshot_id) snap = is.snap_before;
        if (is.snap_after->id() == r.snapshot_id) snap = is.snap_after;
        // Two installs between the bracketing reads: the answering snapshot
        // was not held, so this answer cannot be re-checked; skip it. Past
        // kMaxHeldSnapshots distinct snapshots, only answers from those
        // already held are kept, so held memory does not vary run to run.
        const bool fresh =
            snap != nullptr &&
            std::none_of(rl.held.begin(), rl.held.end(),
                         [&](const Held &h) { return h.snap == snap; });
        if (snap != nullptr && (!fresh || rl.held_snapshots < kMaxHeldSnapshots)) {
          rl.held_snapshots += fresh ? 1 : 0;
          rl.held.push_back({is.kind, is.arg, std::move(r), std::move(snap)});
        }
      }
    }
  });

  std::thread generator([&] {
    Rng rng(opt.seed ^ 0x6e6e6u);
    int sampled[kNumKinds] = {};
    auto due = w0;
    for (;;) {
      Issued is;
      const double u = rng.uniform();
      is.kind = u < kBfsShare ? kBfs : u < kBfsShare + kCypherShare ? kCypher : kSssp;
      const auto &pool = is.kind == kBfs    ? pools.bfs
                         : is.kind == kSssp ? pools.sssp
                                            : pools.pins;
      is.arg = pool[rng.below(pool.size())];
      is.sampled = !capacity && sampled[is.kind] < sample_cap[is.kind] &&
                   rng.uniform() < p_sample[is.kind];
      if (capacity) {
        while (outstanding.load() >= kCapacityOutstanding) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        due = Clock::now();
        if (due >= w1) break;
      } else {
        due += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(rng.exponential(1.0 / kReadRate)));
        if (due >= w1) break;
        std::this_thread::sleep_until(due);
      }
      svc::Request req;
      req.kind = is.kind == kBfs    ? svc::QueryKind::bfs
                 : is.kind == kSssp ? svc::QueryKind::sssp
                                    : svc::QueryKind::cypher;
      req.source = is.arg;
      req.delta = kSsspDelta;
      if (is.kind == kCypher) req.query = chain_text(is.arg);
      if (is.sampled) is.snap_before = engine.snapshot();
      is.due = due;
      is.submitted = Clock::now();
      is.fut = engine.submit(std::move(req));
      if (is.sampled) {
        is.snap_after = engine.snapshot();
        ++sampled[is.kind];
      }
      outstanding.fetch_add(1);
      rl.late_ms.add(std::chrono::duration<double, std::milli>(is.submitted - due).count());
      rl.backlog_max = std::max(rl.backlog_max, engine.queue_depth());
      ++rl.issued;
      {
        std::lock_guard<std::mutex> lk(mu);
        pending.push_back(std::move(is));
      }
      cv.notify_one();
    }
    {
      std::lock_guard<std::mutex> lk(mu);
      gen_done = true;
    }
    cv.notify_one();
  });

  std::thread mutator([&] {
    Rng rng(opt.seed ^ 0x3a7a7u);
    const Index n = static_cast<Index>(st.edges.n);
    auto next = w0;
    std::uint64_t seq = 0;
    const auto step = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(kWriteIntervalMs));
    std::vector<ing::Mutation> batch;
    while ((next += step) < w1 && seq + 1 < st.write_submitted.size()) {
      std::this_thread::sleep_until(next);
      batch.clear();
      for (int i = 0; i + 1 < kWriteBatch; ++i) {
        ing::Mutation m;
        const auto k = rng.below(10);
        m.op = k < 5 ? ing::MutationOp::insert
               : k < 8 ? ing::MutationOp::upsert
                       : ing::MutationOp::remove;
        // Self-loops are reserved for the marker.
        m.src = rng.below(n - 1);
        m.dst = (m.src + 1 + rng.below(n - 2)) % (n - 1);
        m.weight = static_cast<double>(1 + rng.below(255));
        batch.push_back(m);
      }
      ++seq;
      batch.push_back({ing::MutationOp::insert, st.marker, st.marker,
                       static_cast<double>(seq)});
      const auto t0 = Clock::now();
      st.write_submitted[seq] = t0;
      const int rc = st.writer->submit_batch(batch);
      wl.submit_ms.add(std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
      ++wl.batches;
      if (rc == LAGRAPH_INGEST_QUEUE_FULL) ++wl.queue_full;
      if (rc < 0) ++wl.rejected;
    }
  });

  generator.join();
  mutator.join();
  *window_s = seconds_since(w0);
  collector.join();
  // Flush the writes still queued so each batch's install is observed.
  st.writer->publish_now();
  return 0;
}

/// Tracing overhead on the kernels the service runs: BFS from the pool on
/// the final snapshot, untraced and traced in alternating order.
double trace_overhead(const svc::GraphSnapshot &snap, const Pools &pools) {
  Samples plain, traced;
  char msg[LAGRAPH_MSG_LEN];
  for (int i = 0; i < 64; ++i) {
    const Index s = pools.bfs[static_cast<std::size_t>(i) % pools.bfs.size()];
    for (int pass = 0; pass < 2; ++pass) {
      const bool on = (pass + i) % 2 == 0;
      grb::config().trace_sample_every = on ? 1 : 0;
      const auto t0 = Clock::now();
      grb::Vector<std::int64_t> level;
      lagraph::advanced::bfs_do(&level, nullptr, snap.graph(), s, msg);
      const double ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
      (on ? traced : plain).add(ms);
    }
  }
  grb::config().trace_sample_every = 0;
  return traced.median() / plain.median() - 1.0;
}

}  // namespace

int run_serve(const Options &opt, Report &rep) {
  const bool capacity = opt.capacity;
  grb::config().num_threads = kKernelThreads;
  Tracer tracer(opt.trace);
  const auto max_batches =
      static_cast<std::size_t>(opt.seconds * 1000.0 / kWriteIntervalMs) + 16;

  Samples setup_s, gen_s, graph_s;
  std::unique_ptr<Stack> st;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (st != nullptr) st->stop();
    st.reset();
    SetupTimes t;
    st = build_stack(kGraphSeed, max_batches, &t, tracer);
    setup_s.add(t.total);
    gen_s.add(t.gen);
    graph_s.add(t.graph);
  }
  const svc::SnapshotPtr initial = st->engine->snapshot();
  std::vector<Index> degree(initial->nodes(), 0);
  for (Index v = 0; v < initial->nodes(); ++v) {
    degree[v] = initial->graph().a.row_nvals(v);
  }
  const Pools pools = pick_pools(degree, opt.seed);
  std::printf("workload serve_mixed: kron scale %d, %llu nodes, %llu entries, "
              "%.1f MiB graph; %d workers x %d kernel threads, batching on; "
              "open loop at %.0f reads/s (bfs %.0f%%, cypher %.0f%%, sssp "
              "%.0f%%); writes: %d-edit batches every %.0f ms\n",
              kScale, static_cast<unsigned long long>(initial->nodes()),
              static_cast<unsigned long long>(initial->entries()),
              bytes_per_edge(initial->graph()) *
                  static_cast<double>(initial->entries()) / (1 << 20),
              kWorkers, kKernelThreads, kReadRate, kBfsShare * 100,
              kCypherShare * 100, (1 - kBfsShare - kCypherShare) * 100,
              kWriteBatch, kWriteIntervalMs);

  // Warm-up: one read of each kind, not measured.
  for (svc::QueryKind k : {svc::QueryKind::bfs, svc::QueryKind::sssp,
                           svc::QueryKind::cypher}) {
    svc::Request req;
    req.kind = k;
    req.source = pools.bfs[0];
    req.query = chain_text(pools.pins[0]);
    if (st->engine->submit(req).get().status < 0) {
      std::fprintf(stderr, "perfbench: warm-up %s failed\n",
                   svc::query_kind_name(k));
      return 1;
    }
  }

  const auto c0 = st->engine->counters();
  const auto s0 = grb::stats().snapshot();
  grb::trace::reset();
  if (opt.trace) grb::config().trace_sample_every = 1;
  ReadLog rl;
  WriteLog wl;
  double window_s = 0;
  run_window(*st, pools, opt, capacity, tracer, rl, wl, &window_s);
  grb::config().trace_sample_every = 0;
  const auto s1 = grb::stats().snapshot();
  std::vector<grb::trace::Span> kept;
  const KernelTotals kt = read_kernel_totals(opt.trace ? &kept : nullptr);
  const svc::SnapshotPtr final_snap = st->engine->snapshot();
  st->stop();
  const auto c1 = st->engine->counters();

  const std::uint64_t write_epochs = st->installs;
  std::uint64_t writes_ok = 0;
  Samples write_ms;
  for (std::uint64_t k = 1; k <= wl.batches && k < st->write_installed.size(); ++k) {
    if (st->write_installed[k] == Clock::time_point{}) continue;
    ++writes_ok;
    write_ms.add(std::chrono::duration<double, std::milli>(
                     st->write_installed[k] - st->write_submitted[k])
                     .count());
  }

  if (capacity) {
    std::printf("capacity: %.1f reads/s (%llu reads in %.2f s, %d outstanding)\n",
                static_cast<double>(rl.ok) / window_s,
                static_cast<unsigned long long>(rl.ok), window_s,
                kCapacityOutstanding);
    return 0;
  }

  // Re-check the sampled answers against the snapshot that gave them.
  char msg[LAGRAPH_MSG_LEN];
  std::uint64_t checked = 0;
  {
    std::map<std::uint64_t, gapbs::Graph> refs;
    for (const Held &h : rl.held) {
      auto it = refs.find(h.snap->id());
      if (it == refs.end()) {
        it = refs.emplace(h.snap->id(), ref_of(h.snap->graph())).first;
      }
      ++checked;
      if (!check_held(h, it->second, msg)) {
        ++rl.wrong;
        rep.fail(std::string("sampled ") + kKindName[h.kind] + " answer from "
                 "snapshot epoch " + std::to_string(h.snap->epoch()) +
                 " differs from the reference");
      }
    }
  }
  rl.held.clear();
  std::printf("reads: %llu issued, %llu ok, %llu failed, %llu sampled answers "
              "re-checked; writes: %llu batches, %llu installed, %llu epochs\n",
              static_cast<unsigned long long>(rl.issued),
              static_cast<unsigned long long>(rl.ok),
              static_cast<unsigned long long>(rl.failed),
              static_cast<unsigned long long>(checked),
              static_cast<unsigned long long>(wl.batches),
              static_cast<unsigned long long>(writes_ok),
              static_cast<unsigned long long>(write_epochs));

  const std::uint64_t attempted = rl.issued + wl.batches;
  // A refused batch fails even when a later batch's marker marks it seen.
  const std::uint64_t failed =
      rl.failed + rl.wrong + (wl.batches - writes_ok) + wl.rejected;
  rep.count(attempted, failed);
  const double ok_frac =
      static_cast<double>(attempted - failed) / static_cast<double>(attempted);
  const double late_p99 = rl.late_ms.percentile(99);
  std::printf("generator lateness p99 %.3f ms (bound %.1f ms), backlog max %zu\n",
              late_p99, kMaxLateMs, rl.backlog_max);
  if (late_p99 > kMaxLateMs) {
    std::fprintf(stderr,
                 "perfbench: INVALID run: the read generator fell %.3f ms "
                 "behind its schedule at p99 (bound %.1f ms)\n",
                 late_p99, kMaxLateMs);
    return 2;
  }

  if (!opt.trace) {
    rep.add("setup_s", setup_s.median(), "s", count_note(setup_s));
    rep.add("peak_rss_mb", peak_rss_mb(), "MiB");
    rep.add("ok_frac", ok_frac, "frac");
    // The serving overhead: each read's latency from its due time over its
    // own execution time, measured on the same worker at the same moment,
    // so kernel speed and the host's speed cancel and queueing, batching
    // and generator lateness remain. (Absolute times spread 10-30% between
    // identical runs on a shared host; these ratios spread 2-5%.)
    const double bfs_ratio = rl.overhead[kBfs].median();
    const double sssp_ratio = rl.overhead[kSssp].median();
    rep.add("gap_ratio", std::sqrt(bfs_ratio * sssp_ratio), "x",
            "geomean of the bfs and sssp serving-overhead ratios");
    rep.add("bfs_ratio", bfs_ratio, "x", count_note(rl.latency_ms[kBfs]));
    std::printf("  sssp serving overhead %.4f\n", sssp_ratio);
    for (int k = 0; k < kNumKinds; ++k) {
      std::printf("  %-6s read latency p50 %.3f ms (%s), execution p50 %.3f ms\n",
                  kKindName[k], rl.latency_ms[k].median(),
                  count_note(rl.latency_ms[k]).c_str(), rl.exec_ms[k].median());
    }
    std::printf("  qps %.2f\n", static_cast<double>(rl.ok) / window_s);
    std::printf("  reads pooled: p50 %.3f ms, %s; writes: p50 %.3f ms, %s\n",
                rl.all_latency_ms.median(),
                count_note(rl.all_latency_ms).c_str(), write_ms.median(),
                count_note(write_ms).c_str());
    return 0;
  }

  // -- traced run: the per-layer split ---------------------------------------
  rep.add("gen.build_s", gen_s.median(), "s");
  rep.add("lagraph.graph_s", graph_s.median(), "s");
  report_grb_layer(rep, kt, StatDelta::between(s0, s1),
                   static_cast<double>(rl.ok), bytes_per_edge(final_snap->graph()));
  rep.add("service.qps", static_cast<double>(rl.ok) / window_s, "1/s",
          "correct reads per second");
  for (int k = 0; k < kNumKinds; ++k) {
    rep.add(std::string("service.") + kKindName[k] + ".read_p50_ms",
            rl.latency_ms[k].median(), "ms", count_note(rl.latency_ms[k]));
  }
  rep.add("service.read_p50_ms", rl.all_latency_ms.median(), "ms",
          count_note(rl.all_latency_ms));
  rep.add("service.read_p99_ms", rl.all_latency_ms.percentile(99), "ms");
  rep.add("service.queue_p50_ms", rl.queue_ms.median(), "ms",
          count_note(rl.queue_ms));
  rep.add("service.queue_p99_ms", rl.queue_ms.percentile(99), "ms");
  for (int k = 0; k < kNumKinds; ++k) {
    const std::string base = std::string("service.") + kKindName[k];
    rep.add(base + ".exec_p50_ms", rl.exec_ms[k].median(), "ms",
            count_note(rl.exec_ms[k]));
    rep.add(base + ".exec_p99_ms", rl.exec_ms[k].percentile(99), "ms");
  }
  rep.add("service.bfs.batched_frac",
          rl.bfs > 0 ? static_cast<double>(rl.bfs_batched) / rl.bfs : 0.0,
          "frac");
  rep.add("service.bfs.batch_mean", rl.bfs > 0 ? rl.bfs_batch_sum / rl.bfs : 0.0,
          "count");
  rep.add("service.failed", static_cast<double>(c1.failed - c0.failed), "count");
  rep.add("service.deadline_expired",
          static_cast<double>(c1.deadline_expired - c0.deadline_expired), "count");
  rep.add("service.queue_rejected",
          static_cast<double>(c1.queue_rejected - c0.queue_rejected), "count");
  rep.add("service.wrong", static_cast<double>(rl.wrong), "count",
          std::to_string(checked) + " re-checked");
  rep.add("service.snapshot_installs",
          static_cast<double>(c1.snapshot_installs - c0.snapshot_installs),
          "count");
  rep.add("service.gen_late_p99_ms", late_p99, "ms", count_note(rl.late_ms));
  rep.add("service.backlog_max", static_cast<double>(rl.backlog_max), "count");
  rep.add("service.write_p50_ms", write_ms.median(), "ms", count_note(write_ms));
  rep.add("service.write_p99_ms", write_ms.percentile(99), "ms");

  // Query layer: replay the workload's cypher texts through the public calls.
  {
    Samples parse, compile, execute, rows;
    const auto &g = final_snap->graph();
    for (Index pin : pools.pins) {
      const std::string text = chain_text(pin);
      const std::uint64_t req = tracer.next_id();
      q::Query parsed;
      q::QueryPlan plan;
      q::ResultSet rs;
      const auto t0 = Clock::now();
      q::parse(&parsed, text, msg);
      const auto t1 = Clock::now();
      q::compile(&plan, parsed, g, /*optimize=*/true, msg);
      const auto t2 = Clock::now();
      q::execute(&rs, parsed, plan, g, msg);
      const auto t3 = Clock::now();
      const std::uint64_t root = tracer.record(0, req, "query.run", t0, t3);
      tracer.record(root, req, "query.parse", t0, t1);
      tracer.record(root, req, "query.compile", t1, t2);
      tracer.record(root, req, "query.execute", t2, t3);
      auto ms = [](Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration<double, std::milli>(b - a).count();
      };
      parse.add(ms(t0, t1));
      compile.add(ms(t1, t2));
      execute.add(ms(t2, t3));
      rows.add(static_cast<double>(rs.rows()));
    }
    rep.add("query.parse_ms", parse.median(), "ms");
    rep.add("query.compile_ms", compile.median(), "ms");
    rep.add("query.execute_ms", execute.median(), "ms");
    rep.add("query.rows", rows.mean(), "count", "per query");
  }
  rep.add("ingest.submit_p99_ms", wl.submit_ms.percentile(99), "ms",
          count_note(wl.submit_ms));
  rep.add("ingest.queue_full", static_cast<double>(wl.queue_full), "count");
  rep.add("ingest.publish_p50_ms", st->publish_ms.median(), "ms",
          count_note(st->publish_ms));
  rep.add("ingest.publish_p99_ms", st->publish_ms.percentile(99), "ms");
  rep.add("ingest.epochs", static_cast<double>(s1.epochs_published - s0.epochs_published),
          "count");
  rep.add("ingest.edges", static_cast<double>(s1.edges_ingested - s0.edges_ingested),
          "count");
  rep.add("bench.trace_overhead_frac", trace_overhead(*final_snap, pools), "frac",
          "bfs_do traced/untraced - 1");
  rep.add("bench.self_time_excess_frac", std::max(0.0, rl.worst_excess), "frac",
          "worst (late + queue + exec - observed) / observed");
  rep.add("bench.failed_frac", 1.0 - ok_frac, "frac");
  if (rl.worst_excess > 0.02) {
    rep.fail("a read's queue + exec time exceeds its observed latency");
  }
  if (!opt.trace_dir.empty()) {
    tracer.write(opt.trace_dir + "/serve_mixed-" + std::to_string(opt.seed) +
                     ".trace.json",
                 kept);
  }
  return 0;
}

}  // namespace pb
