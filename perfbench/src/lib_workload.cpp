// perfbench/src/lib_workload.cpp — lib_kron and lib_road: the six LAGraph
// algorithms and their gapbs references, called directly on one generated
// graph at one thread, plus pinned cypher chains through the query layer.
//
// A run sets the graph up three times (setup_s is the median), then runs
// rounds until --seconds of rounds have passed. Round 0 is warm-up and is
// excluded from every timing. Each round calls kBfsPerRound BFS,
// kSsspPerRound SSSP, one 4-source BC batch, PageRank, CC, TC and kCypherPerRound cypher
// chains, each LAGraph call followed by its gapbs reference on the same
// input. Every LAGraph answer is checked against the gapbs answer; a cypher
// count against a closed form computed from the gapbs adjacency. The
// end-to-end figures are LAGraph/gapbs ratios of paired calls (Table III).
//
// The traced run (--trace 1) times every call twice, untraced and traced,
// in alternating order, and reports the per-layer split.
#include <cmath>
#include <cstring>
#include <functional>
#include <optional>

#include "common.hpp"
#include "gapbs/graph.hpp"
#include "gen/generators.hpp"
#include "lagraph/lagraph.hpp"
#include "query/query.hpp"

namespace pb {
namespace {

using grb::Index;

constexpr int kBfsPerRound = 16;
constexpr int kCypherPerRound = 16;
constexpr int kSsspPerRound = 2;
constexpr int kBcBatch = 4;
constexpr int kSetupRepeats = 3;
// The graph is fixed per workload, as the GAP suite fixes its graphs;
// --seed draws the BFS sources and cypher pins.
constexpr std::uint64_t kGraphSeed = 1;
// SSSP and BC, a few calls per round, cycle through a fixed list of sources
// (as GAP fixes its source lists), so every run times about the same inputs;
// the seed picks where the cycle starts. BFS and cypher, many calls per
// round, draw their sources and pins from the seed.
constexpr std::size_t kFixedSources = 4;
// Each gapbs reference is timed up to kGapReps times while under kGapRepMs.
constexpr std::size_t kGapReps = 5;
constexpr double kGapRepMs = 40.0;
constexpr double kSsspDelta = 2.0;
constexpr double kPrDamping = 0.85, kPrTol = 1e-4;
constexpr int kPrItermax = 100;
// Tolerances for the floating-point answers (the others match exactly).
constexpr double kBcRelTol = 1e-6;
constexpr double kPrAbsTol = 1e-9;
// A traced call's top-level kernel time may exceed its wall time by this
// share (clock reads at the span edges) before the split counts as broken.
constexpr double kSelfTimeTol = 0.02;
// grb spans written to the traced run's span file (the first calls' worth).
constexpr std::size_t kKeptSpans = 20000;

struct LibSpec {
  gen::GapGraphId id;
  int scale;
};

enum Algo { kBfs, kSssp, kBc, kPr, kCc, kTc, kNumAlgos };
const char *const kAlgoName[kNumAlgos] = {"bfs", "sssp", "bc",
                                          "pr",  "cc",   "tc"};

/// Everything one workload runs on: the generated edges, both graph
/// representations, and (for a directed graph) the symmetrized pair TC uses.
struct LibGraph {
  gen::GapGraph spec;
  gapbs::Graph ref;
  gapbs::Graph sym_ref;  // empty when the graph is already undirected
  lagraph::Graph<double> lg;
  lagraph::Graph<double> sym;  // likewise
  [[nodiscard]] const gapbs::Graph &tc_ref() const {
    return spec.directed ? sym_ref : ref;
  }
  [[nodiscard]] const lagraph::Graph<double> &tc_graph() const {
    return spec.directed ? sym : lg;
  }
};

struct SetupTimes {
  double total = 0, gen = 0, graph = 0;
};

void check_status(int st, const char *what, const char *msg) {
  if (st < 0) {
    std::fprintf(stderr, "perfbench: setup %s failed (%d): %s\n", what, st,
                 msg);
    std::exit(1);
  }
}

LibGraph build_graph(const LibSpec &ls, std::uint64_t seed, SetupTimes *t,
                     Tracer &tracer) {
  char msg[LAGRAPH_MSG_LEN];
  LibGraph g;
  const std::uint64_t req = tracer.next_id();
  const auto t0 = Clock::now();
  g.spec = gen::make_gap_graph({ls.id, ls.scale, 8, seed});
  const auto t1 = Clock::now();
  tracer.record(0, req, "gen.make_gap_graph", t0, t1);
  g.ref = gapbs::Graph::build(g.spec.edges, g.spec.directed);
  if (g.spec.directed) {
    gen::EdgeList sym = g.spec.edges;
    gen::symmetrize(sym);
    g.sym_ref = gapbs::Graph::build(sym, false);
  }
  const auto t2 = Clock::now();
  tracer.record(0, req, "gapbs.Graph::build", t1, t2);
  check_status(lagraph::make_graph(g.lg, gen::to_matrix<double>(g.spec.edges),
                                   g.spec.directed
                                       ? lagraph::Kind::adjacency_directed
                                       : lagraph::Kind::adjacency_undirected,
                                   msg),
               "make_graph", msg);
  check_status(lagraph::property_at(g.lg, msg), "property_at", msg);
  check_status(lagraph::property_row_degree(g.lg, msg), "row_degree", msg);
  check_status(lagraph::property_ndiag(g.lg, msg), "ndiag", msg);
  check_status(lagraph::property_symmetric_pattern(g.lg, msg), "symmetric",
               msg);
  if (g.spec.directed) {
    grb::Matrix<double> s(g.lg.nodes(), g.lg.nodes());
    grb::eWiseAdd(s, grb::no_mask, grb::NoAccum{}, grb::First{}, g.lg.a,
                  *g.lg.at);
    check_status(lagraph::make_graph(g.sym, std::move(s),
                                     lagraph::Kind::adjacency_undirected, msg),
                 "make_graph(sym)", msg);
    check_status(lagraph::property_row_degree(g.sym, msg), "row_degree", msg);
    check_status(lagraph::property_ndiag(g.sym, msg), "ndiag", msg);
  }
  const auto t3 = Clock::now();
  tracer.record(0, req, "lagraph.make_graph+properties", t2, t3);
  t->gen = std::chrono::duration<double>(t1 - t0).count();
  t->graph = std::chrono::duration<double>(t3 - t2).count();
  t->total = std::chrono::duration<double>(t3 - t0).count();
  return g;
}

// -- checks against the gapbs answers ----------------------------------------

/// BFS levels implied by a parent array (-1 = unreached); empty if the
/// parents do not form a tree rooted at `src` along graph edges.
std::vector<std::int64_t> levels_from_parents(const gapbs::Graph &ref,
                                              const std::vector<std::int64_t> &p,
                                              Index src) {
  const std::size_t n = p.size();
  std::vector<std::int64_t> lvl(n, -1);
  if (src >= n || p[src] != static_cast<std::int64_t>(src)) return {};
  lvl[src] = 0;
  std::vector<std::size_t> chain;
  for (std::size_t v = 0; v < n; ++v) {
    if (p[v] < 0 || lvl[v] >= 0) continue;
    chain.clear();
    std::size_t u = v;
    while (lvl[u] < 0) {
      if (p[u] < 0 || chain.size() > n) return {};
      chain.push_back(u);
      u = static_cast<std::size_t>(p[u]);
    }
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      const std::size_t w = *it;
      const auto par = static_cast<gapbs::NodeId>(p[w]);
      auto nb = ref.out_neigh(par);
      if (!std::binary_search(nb.begin(), nb.end(),
                              static_cast<gapbs::NodeId>(w))) {
        return {};
      }
      lvl[w] = lvl[static_cast<std::size_t>(par)] + 1;
    }
  }
  return lvl;
}

std::vector<std::int64_t> dense_parents(const grb::Vector<std::int64_t> &v,
                                        std::size_t n) {
  std::vector<std::int64_t> p(n, -1);
  v.for_each([&](Index i, std::int64_t x) { p[i] = x; });
  return p;
}

bool same_bfs(const gapbs::Graph &ref, const grb::Vector<std::int64_t> &got,
              const std::vector<gapbs::NodeId> &want, Index src) {
  const std::size_t n = want.size();
  std::vector<std::int64_t> wp(want.begin(), want.end());
  auto a = levels_from_parents(ref, dense_parents(got, n), src);
  auto b = levels_from_parents(ref, wp, src);
  return !a.empty() && a == b;
}

bool same_sssp(const grb::Vector<double> &got, const std::vector<double> &want) {
  if (got.size() != want.size()) return false;
  std::vector<double> d(want.size(), std::numeric_limits<double>::infinity());
  got.for_each([&](Index i, double x) { d[i] = x; });
  return d == want;
}

bool close_bc(const grb::Vector<double> &got, const std::vector<double> &want) {
  if (got.size() != want.size()) return false;
  for (Index v = 0; v < got.size(); ++v) {
    const double a = got.get(v).value_or(0.0);
    if (std::abs(a - want[v]) > kBcRelTol * std::max(1.0, std::abs(want[v]))) {
      return false;
    }
  }
  return true;
}

bool close_pr(const grb::Vector<double> &got, const std::vector<double> &want) {
  if (got.size() != want.size()) return false;
  for (Index v = 0; v < got.size(); ++v) {
    if (std::abs(got.get(v).value_or(0.0) - want[v]) > kPrAbsTol) return false;
  }
  return true;
}

bool same_partition(const grb::Vector<Index> &got,
                    const std::vector<gapbs::NodeId> &want) {
  const std::size_t n = want.size();
  if (got.size() != n || got.nvals() != n) return false;
  std::vector<std::int64_t> ref_to_got(n, -1), got_to_ref(n, -1);
  for (Index v = 0; v < n; ++v) {
    const auto g = static_cast<std::int64_t>(*got.get(v));
    const auto w = static_cast<std::size_t>(want[v]);
    if (g < 0 || static_cast<std::size_t>(g) >= n) return false;
    if (ref_to_got[w] < 0) ref_to_got[w] = g;
    if (got_to_ref[static_cast<std::size_t>(g)] < 0) {
      got_to_ref[static_cast<std::size_t>(g)] = static_cast<std::int64_t>(w);
    }
    if (ref_to_got[w] != g ||
        got_to_ref[static_cast<std::size_t>(g)] != static_cast<std::int64_t>(w)) {
      return false;
    }
  }
  return true;
}

/// COUNT(*) of MATCH (a)-[]->(b)-[]->(c) WHERE c = pin: every in-neighbour
/// b of the pin contributes its in-degree.
std::int64_t chain_count(const gapbs::Graph &ref, Index pin) {
  std::int64_t c = 0;
  for (gapbs::NodeId b : ref.in_neigh(static_cast<gapbs::NodeId>(pin))) {
    c += ref.in_degree(b);
  }
  return c;
}

std::string chain_text(Index pin) {
  return "MATCH (a)-[]->(b)-[]->(c) WHERE c = " + std::to_string(pin) +
         " RETURN COUNT(*)";
}

// -- inputs --------------------------------------------------------------------

struct Inputs {
  std::vector<Index> bfs, sssp, bc, pins;
  std::size_t rotate = 0;  // where the fixed SSSP/BC cycle starts
};

Inputs pick_inputs(const gapbs::Graph &ref, std::uint64_t seed) {
  Rng seeded(seed ^ 0x5eed50u), fixed(kGraphSeed ^ 0xf1c5edu);
  const Index n = static_cast<Index>(ref.num_nodes());
  auto pick = [&](Rng &rng, std::size_t count, auto ok) {
    std::vector<Index> out;
    while (out.size() < count) {
      const Index v = rng.below(n);
      if (ok(v)) out.push_back(v);
    }
    return out;
  };
  auto has_out = [&](Index v) {
    return ref.out_degree(static_cast<gapbs::NodeId>(v)) > 0;
  };
  // Pins with a modest in-degree keep each chain's answer small, like a
  // point lookup; hubs would turn it into an analytics query.
  auto pin_ok = [&](Index v) {
    const auto d = ref.in_degree(static_cast<gapbs::NodeId>(v));
    return d >= 1 && d <= 32;
  };
  Inputs in;
  in.bfs = pick(seeded, 256, has_out);
  in.pins = pick(seeded, 256, pin_ok);
  in.sssp = pick(fixed, kFixedSources, has_out);
  in.bc = pick(fixed, kFixedSources * kBcBatch, has_out);
  in.rotate = seeded.below(kFixedSources);
  return in;
}

// -- the measured calls ----------------------------------------------------------

/// Per-algorithm sample sets. `ms` holds untraced LAGraph call times and
/// `ratio` each call's time over its gapbs reference's, measured right
/// after it on the same input; pairing cancels the machine's drift. The
/// traced run adds traced/untraced pairs and the per-call split.
struct AlgoStats {
  Samples ms, gap_ms, ratio, overhead, iters, glue_ms, kernel_calls;
  double last_ms = 0;  // the latest untraced call, awaiting its reference
  // Calls on the fixed source list also keep their ratio per source, so a
  // run that happens to repeat one source does not tilt the median.
  int input = -1;
  Samples by_input[kFixedSources];

  [[nodiscard]] double paired_ratio() const {
    if (input < 0) return ratio.median();
    Samples medians;
    for (const Samples &s : by_input) {
      if (!s.empty()) medians.add(s.median());
    }
    return medians.median();
  }
};

struct Runner {
  Runner(LibGraph &graph, const Inputs &inputs, Report &report, Tracer &tr,
         bool traced)
      : g(graph), in(inputs), rep(report), tracer(tr), trace(traced) {}

  LibGraph &g;
  const Inputs &in;
  Report &rep;
  Tracer &tracer;
  bool trace;
  bool measuring = false;  // false during the warm-up round
  AlgoStats algo[kNumAlgos];
  Samples cypher_ms, parse_ms, compile_ms, execute_ms, rows;
  std::uint64_t calls = 0, wrong = 0, errors = 0;
  double lagraph_seconds = 0;
  StatDelta stats;
  KernelTotals kernels;  // every traced call, cypher included
  std::uint64_t traced_ops = 0;
  std::vector<grb::trace::Span> kept;
  double self_time_worst = 0;  // max (kernel - wall) / wall over traced calls

  char msg[LAGRAPH_MSG_LEN] = {};

  void verdict(bool ok, int st, const char *what) {
    ++calls;
    if (st < 0) {
      ++errors;
      rep.fail(std::string(what) + " returned " + std::to_string(st) + ": " +
               msg);
    } else if (!ok) {
      ++wrong;
      rep.fail(std::string(what) + " disagrees with the gapbs reference");
    }
  }

  /// Time one LAGraph call. In the traced run the call runs twice — once
  /// untraced, once traced, order alternating by round — and the traced
  /// copy feeds the per-layer split. Returns the status of the last run.
  int lagraph_call(Algo a, int round, const char *name,
                   const std::function<int()> &fn) {
    AlgoStats &as = algo[a];
    auto untraced = [&] {
      const auto t0 = Clock::now();
      const int st = fn();
      const auto t1 = Clock::now();
      if (st >= 0) lagraph_seconds += std::chrono::duration<double>(t1 - t0).count();
      as.last_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
      if (measuring) as.ms.add(as.last_ms);
      tracer.record(0, tracer.next_id(), name, t0, t1);
      return st;
    };
    if (!trace) return untraced();
    double traced_ms = 0;
    auto traced = [&] {
      grb::trace::reset();
      const auto s0 = grb::stats().snapshot();
      grb::config().trace_sample_every = 1;
      const auto t0 = Clock::now();
      const int st = fn();
      const auto t1 = Clock::now();
      grb::config().trace_sample_every = 0;
      const auto s1 = grb::stats().snapshot();
      const KernelTotals kt = read_kernel_totals(
          kept.size() < kKeptSpans ? &kept : nullptr);
      const double wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
      const double kern_ms = kt.top_ns * 1e-6;
      self_time_worst = std::max(self_time_worst, (kern_ms - wall_ms) / wall_ms);
      tracer.record(0, tracer.next_id(), name, t0, t1);
      traced_ms = wall_ms;
      if (measuring) {
        as.glue_ms.add(wall_ms - kern_ms);
        as.iters.add(static_cast<double>(kt.iterations));
        as.kernel_calls.add(static_cast<double>(kt.top_calls));
        kernels += kt;
        ++traced_ops;
        stats += StatDelta::between(s0, s1);
      }
      return st;
    };
    int st = 0;
    if (round % 2 == 0) {
      untraced();
      st = traced();
    } else {
      traced();
      st = untraced();
    }
    if (measuring) as.overhead.add(traced_ms / as.last_ms);
    return st;
  }

  template <typename F>
  auto gapbs_call(Algo a, const char *name, F &&fn) {
    // A cheap reference is timed over repeats and the fastest counts: the
    // first run after a large LAGraph call finds its graph out of cache.
    auto timed = [&] {
      const auto t0 = Clock::now();
      auto out = fn();
      const auto t1 = Clock::now();
      tracer.record(0, tracer.next_id(), name, t0, t1);
      return std::make_pair(std::move(out),
                            std::chrono::duration<double, std::milli>(t1 - t0).count());
    };
    auto [out, first_ms] = timed();
    Samples reps;
    reps.add(first_ms);
    while (reps.count() < kGapReps && reps.sum() < kGapRepMs) {
      reps.add(timed().second);
    }
    if (measuring) {
      const double ms = reps.percentile(0);
      algo[a].gap_ms.add(ms);
      algo[a].ratio.add(algo[a].last_ms / ms);
      if (algo[a].input >= 0) algo[a].by_input[algo[a].input].add(algo[a].last_ms / ms);
    }
    return out;
  }

  void round(int r) {
    const lagraph::Graph<double> &lg = g.lg;
    // BFS
    for (int i = 0; i < kBfsPerRound; ++i) {
      const Index s = in.bfs[(static_cast<std::size_t>(r) * kBfsPerRound + i) %
                             in.bfs.size()];
      grb::Vector<std::int64_t> parent;
      const int st = lagraph_call(kBfs, r, "lagraph.bfs_do", [&] {
        parent = grb::Vector<std::int64_t>();
        return lagraph::advanced::bfs_do(nullptr, &parent, lg, s, msg);
      });
      auto want = gapbs_call(kBfs, "gapbs.bfs", [&] {
        return gapbs::bfs(g.ref, static_cast<gapbs::NodeId>(s));
      });
      verdict(st >= 0 && same_bfs(g.ref, parent, want, s), st, "bfs_do");
    }
    // SSSP
    for (int i = 0; i < kSsspPerRound; ++i) {
      const std::size_t k =
          (in.rotate + static_cast<std::size_t>(r * kSsspPerRound + i)) % kFixedSources;
      const Index s = in.sssp[k];
      algo[kSssp].input = static_cast<int>(k);
      grb::Vector<double> dist;
      const int st = lagraph_call(kSssp, r, "lagraph.sssp_delta_stepping", [&] {
        dist = grb::Vector<double>();
        return lagraph::advanced::sssp_delta_stepping(&dist, lg, s, kSsspDelta,
                                                      msg);
      });
      auto want = gapbs_call(kSssp, "gapbs.sssp", [&] {
        return gapbs::sssp(g.ref, static_cast<gapbs::NodeId>(s), kSsspDelta);
      });
      verdict(st >= 0 && same_sssp(dist, want), st, "sssp_delta_stepping");
    }
    // BC on a batch of sources
    {
      const std::size_t k = (in.rotate + static_cast<std::size_t>(r)) % kFixedSources;
      algo[kBc].input = static_cast<int>(k);
      std::vector<Index> batch(in.bc.begin() + k * kBcBatch,
                               in.bc.begin() + (k + 1) * kBcBatch);
      std::vector<gapbs::NodeId> gb(batch.begin(), batch.end());
      grb::Vector<double> cent;
      const int st = lagraph_call(kBc, r, "lagraph.betweenness_centrality", [&] {
        cent = grb::Vector<double>();
        return lagraph::advanced::betweenness_centrality(&cent, lg, batch, true,
                                                         msg);
      });
      auto want = gapbs_call(kBc, "gapbs.bc", [&] { return gapbs::bc(g.ref, gb); });
      verdict(st >= 0 && close_bc(cent, want), st, "betweenness_centrality");
    }
    // PageRank
    {
      grb::Vector<double> rank;
      int iters = 0;
      const int st = lagraph_call(kPr, r, "lagraph.pagerank_gap", [&] {
        rank = grb::Vector<double>();
        return lagraph::advanced::pagerank_gap(&rank, &iters, lg, kPrDamping,
                                               kPrTol, kPrItermax, msg);
      });
      auto want = gapbs_call(kPr, "gapbs.pagerank", [&] {
        return gapbs::pagerank(g.ref, kPrDamping, kPrTol, kPrItermax);
      });
      verdict(st >= 0 && close_pr(rank, want), st, "pagerank_gap");
    }
    // CC
    {
      grb::Vector<Index> comp;
      const int st = lagraph_call(kCc, r, "lagraph.connected_components", [&] {
        comp = grb::Vector<Index>();
        return lagraph::connected_components(&comp, g.lg, msg);
      });
      auto want = gapbs_call(kCc, "gapbs.cc", [&] { return gapbs::cc(g.ref); });
      verdict(st >= 0 && same_partition(comp, want), st, "connected_components");
    }
    // TC on the symmetrized graph
    {
      std::uint64_t count = 0;
      const int st = lagraph_call(kTc, r, "lagraph.triangle_count", [&] {
        return lagraph::advanced::triangle_count(
            &count, g.tc_graph(), lagraph::TcPresort::automatic, false, msg);
      });
      auto want = gapbs_call(kTc, "gapbs.tc", [&] { return gapbs::tc(g.tc_ref()); });
      verdict(st >= 0 && count == want, st, "triangle_count");
    }
    // Cypher chains through the query layer's public calls.
    for (int i = 0; i < kCypherPerRound; ++i) {
      const Index pin = in.pins[(static_cast<std::size_t>(r) * kCypherPerRound +
                                 i) % in.pins.size()];
      cypher(pin);
    }
  }

  void cypher(Index pin) {
    namespace q = lagraph::query;
    const std::string text = chain_text(pin);
    const std::uint64_t req = tracer.next_id();
    q::Query parsed;
    q::QueryPlan plan;
    q::ResultSet rs;
    const auto t0 = Clock::now();
    int st = q::parse(&parsed, text, msg);
    const auto t1 = Clock::now();
    if (st >= 0) st = q::compile(&plan, parsed, g.lg, /*optimize=*/true, msg);
    const auto t2 = Clock::now();
    if (st >= 0) st = q::execute(&rs, parsed, plan, g.lg, msg);
    const auto t3 = Clock::now();
    const std::uint64_t root = tracer.record(0, req, "query.run", t0, t3);
    tracer.record(root, req, "query.parse", t0, t1);
    tracer.record(root, req, "query.compile", t1, t2);
    tracer.record(root, req, "query.execute", t2, t3);
    auto ms = [](Clock::time_point a, Clock::time_point b) {
      return std::chrono::duration<double, std::milli>(b - a).count();
    };
    if (st >= 0) lagraph_seconds += ms(t0, t3) * 1e-3;
    if (measuring) {
      cypher_ms.add(ms(t0, t3));
      parse_ms.add(ms(t0, t1));
      compile_ms.add(ms(t1, t2));
      execute_ms.add(ms(t2, t3));
      rows.add(static_cast<double>(rs.rows()));
    }
    const bool ok = st >= 0 && rs.rows() == 1 && !rs.data.empty() &&
                    rs.data[0][0] == chain_count(g.ref, pin);
    verdict(ok, st, "cypher chain");
  }
};

/// Geometric mean over the six algorithms of a per-algorithm figure.
double geomean(const AlgoStats *algo, double (*f)(const AlgoStats &)) {
  double log_sum = 0;
  for (int a = 0; a < kNumAlgos; ++a) log_sum += std::log(f(algo[a]));
  return std::exp(log_sum / static_cast<double>(kNumAlgos));
}

}  // namespace

int run_lib(const Options &opt, Report &rep) {
  const LibSpec ls = opt.workload == "lib_kron"
                         ? LibSpec{gen::GapGraphId::kron, 16}
                         : LibSpec{gen::GapGraphId::road, 14};
  // LAGraph pinned to one thread, like the serial gapbs references.
  grb::config().num_threads = 1;
  Tracer tracer(opt.trace);

  // Set-up, repeated; the last graph built is the one measured.
  Samples setup_s, gen_s, graph_s;
  std::optional<LibGraph> g;
  for (int i = 0; i < kSetupRepeats; ++i) {
    g.reset();
    SetupTimes t;
    g.emplace(build_graph(ls, kGraphSeed, &t, tracer));
    setup_s.add(t.total);
    gen_s.add(t.gen);
    graph_s.add(t.graph);
  }
  const Inputs in = pick_inputs(g->ref, opt.seed);
  std::printf("workload %s: %s, %llu nodes, %llu entries, %.1f MiB graph, "
              "1 thread, closed loop\n",
              opt.workload.c_str(), g->spec.name.c_str(),
              static_cast<unsigned long long>(g->lg.nodes()),
              static_cast<unsigned long long>(g->lg.entries()),
              bytes_per_edge(g->lg) * static_cast<double>(g->lg.entries()) /
                  (1 << 20));

  Runner run(*g, in, rep, tracer, opt.trace);
  run.round(0);  // warm-up: every call kind once, checked, not timed
  run.measuring = true;
  const auto w0 = Clock::now();
  int rounds = 0;
  while (seconds_since(w0) < opt.seconds) run.round(++rounds);
  const double window_s = seconds_since(w0);
  std::printf("measured %d rounds in %.2f s\n", rounds, window_s);

  rep.count(run.calls, run.errors + run.wrong);
  const double ok_frac =
      static_cast<double>(run.calls - run.errors - run.wrong) / run.calls;
  const AlgoStats *algo = run.algo;
  if (!opt.trace) {
    rep.add("setup_s", setup_s.median(), "s", count_note(setup_s));
    rep.add("peak_rss_mb", peak_rss_mb(), "MiB");
    rep.add("ok_frac", ok_frac, "frac");
    rep.add("gap_ratio",
            geomean(algo, [](const AlgoStats &a) { return a.paired_ratio(); }),
            "x",
            "geomean over six algorithms of the median LAGraph/gapbs ratio");
    rep.add("bfs_ratio", algo[kBfs].ratio.median(), "x",
            count_note(algo[kBfs].ratio));
    std::printf("  qps %.3f calls per second of LAGraph and query time; "
                "cypher %.4f ms (%s)\n",
                static_cast<double>(run.calls - run.errors - run.wrong) /
                    run.lagraph_seconds,
                run.cypher_ms.median(), count_note(run.cypher_ms).c_str());
    for (int a = 0; a < kNumAlgos; ++a) {
      std::printf("  %-5s lagraph %10.3f ms  gapbs %10.3f ms  ratio %7.2f  "
                  "(n=%zu)\n",
                  kAlgoName[a], algo[a].ms.median(), algo[a].gap_ms.median(),
                  algo[a].paired_ratio(),
                  algo[a].ms.count());
    }
    return 0;
  }

  // -- traced run: the per-layer split ---------------------------------------
  rep.add("gen.build_s", gen_s.median(), "s");
  rep.add("lagraph.graph_s", graph_s.median(), "s");
  report_grb_layer(rep, run.kernels, run.stats,
                   static_cast<double>(run.traced_ops), bytes_per_edge(g->lg));
  for (int a = 0; a < kNumAlgos; ++a) {
    const std::string base = std::string("lagraph.") + kAlgoName[a];
    rep.add(base + ".ms", algo[a].ms.median(), "ms", count_note(algo[a].ms));
    rep.add(base + ".iters", algo[a].iters.median(), "count", "per call");
    rep.add(base + ".glue_ms", algo[a].glue_ms.median(), "ms", "per call");
    rep.add(base + ".kernel_calls", algo[a].kernel_calls.median(), "count",
            "per call");
  }
  for (int a = 0; a < kNumAlgos; ++a) {
    rep.add(std::string("gapbs.") + kAlgoName[a] + "_ms",
            algo[a].gap_ms.median(), "ms", count_note(algo[a].gap_ms));
  }
  rep.add("query.parse_ms", run.parse_ms.median(), "ms");
  rep.add("query.compile_ms", run.compile_ms.median(), "ms");
  rep.add("query.execute_ms", run.execute_ms.median(), "ms");
  rep.add("query.rows", run.rows.mean(), "count", "per query");
  rep.add("bench.trace_overhead_frac",
          geomean(algo, [](const AlgoStats &a) { return a.overhead.median(); }) - 1.0,
          "frac", "geomean over six algorithms of traced/untraced - 1");
  rep.add("bench.self_time_excess_frac", std::max(0.0, run.self_time_worst),
          "frac", "worst (kernel - wall) / wall");
  rep.add("bench.failed_frac", 1.0 - ok_frac, "frac");
  if (run.self_time_worst > kSelfTimeTol) {
    rep.fail("kernel self time exceeds the call's wall time by more than " +
             std::to_string(kSelfTimeTol));
  }
  if (!opt.trace_dir.empty()) {
    tracer.write(opt.trace_dir + "/" + opt.workload + "-" +
                     std::to_string(opt.seed) + ".trace.json",
                 run.kept);
  }
  return 0;
}

}  // namespace pb
