// Execution tests for the compiled query pipeline: direct semantic units
// on tiny graphs, the golden-file queries (independent Python references
// from tests/golden/gen_golden.py), differential spot checks + a budgeted
// fuzz run against the tuple-at-a-time oracle, and the service::Engine
// integration (QueryKind::cypher end to end).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gen/generators.hpp"
#include "query/query.hpp"
#include "query/testing/qtest.hpp"
#include "service/engine.hpp"

#ifndef LAGRAPH_GOLDEN_DIR
#define LAGRAPH_GOLDEN_DIR "tests/golden"
#endif

namespace q = lagraph::query;
namespace qt = lagraph::query::testing;
namespace svc = lagraph::service;
using grb::Index;

namespace {

lagraph::Graph<double> graph_from_edges(
    Index n, bool directed,
    const std::vector<std::pair<Index, Index>> &edges) {
  qt::QueryScenario s;
  s.n = n;
  s.directed = directed;
  for (const auto &e : edges) s.edges.emplace_back(e.first, e.second);
  return qt::build_graph(s, /*cache_properties=*/true);
}

q::ResultSet run_ok(const std::string &text,
                    const lagraph::Graph<double> &g) {
  q::ResultSet rs;
  char msg[LAGRAPH_MSG_LEN];
  EXPECT_EQ(q::run(&rs, text, g, msg), LAGRAPH_OK) << text << ": " << msg;
  return rs;
}

// tests/golden/<name>.edges, same format as the algorithm golden tests.
lagraph::Graph<double> load_golden_graph(const std::string &name) {
  std::ifstream in(std::string(LAGRAPH_GOLDEN_DIR) + "/" + name + ".edges");
  EXPECT_TRUE(in.good()) << "missing " << name << ".edges";
  Index n = 0;
  bool directed = false;
  std::vector<std::pair<Index, Index>> edges;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string tok;
    ls >> tok;
    if (tok == "n") {
      ls >> n;
    } else if (tok == "directed") {
      int d = 0;
      ls >> d;
      directed = d != 0;
    } else {
      Index u = std::stoull(tok), v = 0;
      ls >> v;
      edges.emplace_back(u, v);
    }
  }
  return graph_from_edges(n, directed, edges);
}

std::string load_golden_text(const std::string &file) {
  std::ifstream in(std::string(LAGRAPH_GOLDEN_DIR) + "/" + file);
  EXPECT_TRUE(in.good()) << "missing " << file;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace

TEST(QueryExec, TriangleCountOnDirectedCycle) {
  // 0->1->2->0: exactly 3 homomorphic triangle embeddings (one per
  // starting corner).
  auto g = graph_from_edges(3, true, {{0, 1}, {1, 2}, {2, 0}});
  auto rs = run_ok(
      "MATCH (a)-[]->(b)-[]->(c)-[]->(a) RETURN COUNT(*)", g);
  ASSERT_EQ(rs.columns, (std::vector<std::string>{"count"}));
  ASSERT_EQ(rs.rows(), 1u);
  EXPECT_EQ(rs.data[0][0], 3);
}

TEST(QueryExec, ProjectionIsSortedAndLimited) {
  auto g = graph_from_edges(4, true, {{0, 1}, {0, 2}, {0, 3}, {2, 3}});
  auto all = run_ok("MATCH (a)-[]->(b) RETURN a, b", g);
  ASSERT_EQ(all.rows(), 4u);
  // Lexicographic row order.
  EXPECT_EQ(all.data[0], (std::vector<std::int64_t>{0, 0, 0, 2}));
  EXPECT_EQ(all.data[1], (std::vector<std::int64_t>{1, 2, 3, 3}));
  auto limited = run_ok("MATCH (a)-[]->(b) RETURN a, b LIMIT 2", g);
  ASSERT_EQ(limited.rows(), 2u);
  EXPECT_EQ(limited.data[1], (std::vector<std::int64_t>{1, 2}));
  // LIMIT 0 is a valid degenerate query.
  EXPECT_EQ(run_ok("MATCH (a)-[]->(b) RETURN a LIMIT 0", g).rows(), 0u);
}

TEST(QueryExec, HomomorphismUnlessNeq) {
  // 0<->1: the 2-hop pattern may fold back (a=c) unless a <> c.
  auto g = graph_from_edges(2, true, {{0, 1}, {1, 0}});
  auto folded =
      run_ok("MATCH (a)-[]->(b)-[]->(c) RETURN COUNT(*)", g);
  EXPECT_EQ(folded.data[0][0], 2);  // 0-1-0 and 1-0-1
  auto strict = run_ok(
      "MATCH (a)-[]->(b)-[]->(c) WHERE a <> c RETURN COUNT(*)", g);
  EXPECT_EQ(strict.data[0][0], 0);
}

TEST(QueryExec, BothDirectionEdgeMatchesEitherArc) {
  auto g = graph_from_edges(3, true, {{0, 1}});
  EXPECT_EQ(run_ok("MATCH (a)-[]-(b) RETURN COUNT(*)", g).data[0][0], 2);
  EXPECT_EQ(run_ok("MATCH (a)-[]->(b) RETURN COUNT(*)", g).data[0][0], 1);
}

TEST(QueryExec, DegreePredicatesSeeIsolatedNodes) {
  // Node 2 is isolated: out-degree 0 must satisfy `< 1`.
  auto g = graph_from_edges(3, true, {{0, 1}});
  auto rs = run_ok("MATCH (a) WHERE a.out < 1 RETURN a", g);
  // A single-node pattern: every node with out-degree 0.
  ASSERT_EQ(rs.rows(), 2u);
  EXPECT_EQ(rs.data[0], (std::vector<std::int64_t>{1, 2}));
}

TEST(QueryExec, OutOfRangeAndConflictingPinsYieldEmpty) {
  auto g = graph_from_edges(3, true, {{0, 1}, {1, 2}});
  EXPECT_EQ(
      run_ok("MATCH (a)-[]->(b) WHERE a = 99 RETURN COUNT(*)", g).data[0][0],
      0);
  EXPECT_EQ(run_ok("MATCH (a)-[]->(b) WHERE a = 0 AND a = 1 RETURN COUNT(*)",
                   g)
                .data[0][0],
            0);
}

TEST(QueryExec, NaiveAndOptimizedPlansAgree) {
  auto g = graph_from_edges(
      5, true, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2}, {1, 3}});
  const std::string text =
      "MATCH (a)-[]->(b)-[]->(c) WHERE a <> c AND b.out >= 1 RETURN a, c";
  q::Query p;
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(q::parse(&p, text, msg), LAGRAPH_OK) << msg;
  q::ResultSet opt, naive;
  q::QueryPlan po, pn;
  ASSERT_EQ(q::compile(&po, p, g, true, msg), LAGRAPH_OK) << msg;
  ASSERT_EQ(q::compile(&pn, p, g, false, msg), LAGRAPH_OK) << msg;
  ASSERT_EQ(q::execute(&opt, p, po, g, msg), LAGRAPH_OK) << msg;
  ASSERT_EQ(q::execute(&naive, p, pn, g, msg), LAGRAPH_OK) << msg;
  EXPECT_EQ(opt, naive);
}

// ---------------------------------------------------------------------------
// Golden-file queries: fixed queries over the committed fixtures, checked
// against tests/golden/*.golden written by the independent Python
// references in gen_golden.py. The query strings here must match the
// GOLDEN_QUERIES table there verbatim (in spirit: same constraints).

struct GoldenQuery {
  const char *graph;
  const char *file;
  const char *text;
};

// Without this gtest prints the param as a raw byte dump of its pointers,
// so the listed test name (and the ctest name built from it) changed with
// every process under address-space randomisation.
void PrintTo(const GoldenQuery &gq, std::ostream *os) {
  *os << '"' << gq.file << '"';
}

class QueryGolden : public ::testing::TestWithParam<GoldenQuery> {};

TEST_P(QueryGolden, MatchesIndependentReference) {
  const GoldenQuery &gq = GetParam();
  auto g = load_golden_graph(gq.graph);
  auto rs = run_ok(gq.text, g);
  EXPECT_EQ(rs.to_string(), load_golden_text(gq.file))
      << gq.graph << ": " << gq.text;
}

INSTANTIATE_TEST_SUITE_P(
    Fixtures, QueryGolden,
    ::testing::Values(
        GoldenQuery{"karate", "karate.q_nbrs.golden",
                    "MATCH (a)-[]-(b) WHERE a = 0 RETURN b"},
        GoldenQuery{"karate", "karate.q_wedge_count.golden",
                    "MATCH (a)-[]->(b)-[]->(c) WHERE a = 33 AND a <> c "
                    "RETURN COUNT(*)"},
        GoldenQuery{"path", "path.q_pairs.golden",
                    "MATCH (a)-[]->(b)-[]->(c) RETURN a, c LIMIT 5"},
        GoldenQuery{"wdag", "wdag.q_fanout.golden",
                    "MATCH (a)-[]->(b) WHERE a.out >= 2 RETURN a, b"}),
    [](const ::testing::TestParamInfo<GoldenQuery> &info) {
      std::string name = info.param.file;
      const auto dot = name.find('.');
      return name.substr(0, dot) + "_" + std::to_string(info.index);
    });

// ---------------------------------------------------------------------------
// Differential checks against the tuple-at-a-time oracle.

TEST(QueryDiff, SpotScenariosSweepClean) {
  for (std::uint64_t seed : {3u, 11u, 29u}) {
    auto s = qt::generate(seed);
    auto mm = qt::check_sweep(s);
    EXPECT_FALSE(mm.has_value()) << mm->to_string();
  }
}

TEST(QueryDiff, BudgetedFuzzAgainstOracle) {
  qt::QueryFuzzOptions fo;
  fo.max_scenarios = 400;  // ~7k instances; the 10k+ run lives in check.sh
  fo.seed = 1;
  auto rep = qt::fuzz(fo);
  EXPECT_TRUE(rep.ok) << "seed " << rep.failing_seed << "\n"
                      << rep.detail << "\n"
                      << rep.repro;
  EXPECT_EQ(rep.scenarios, 400u);
  EXPECT_EQ(rep.instances,
            400u * 2 * grb::testing::sweep_configs().size());
}

TEST(QueryDiff, ScenarioSerializationRoundTrips) {
  auto s = qt::generate(17);
  std::string text = qt::serialize(s);
  qt::QueryScenario back;
  std::string err;
  ASSERT_TRUE(qt::parse_scenario(text, &back, &err)) << err;
  EXPECT_EQ(back.seed, s.seed);
  EXPECT_EQ(back.n, s.n);
  EXPECT_EQ(back.directed, s.directed);
  EXPECT_EQ(back.edges, s.edges);
  EXPECT_EQ(back.text, s.text);
  // Unknown keys are skipped (append-only format contract).
  std::string grown = text;
  grown.insert(grown.find("query "), "future_knob 7\n");
  qt::QueryScenario tolerant;
  EXPECT_TRUE(qt::parse_scenario(grown, &tolerant, &err)) << err;
  EXPECT_EQ(tolerant.edges, s.edges);
}

// ---------------------------------------------------------------------------
// service::Engine integration: cypher as a first-class query kind.

TEST(QueryEngine, CypherThroughTheEngineMatchesDirectExecution) {
  auto g = graph_from_edges(
      6, true, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {1, 4}, {4, 5}});
  const std::string text =
      "MATCH (a)-[]->(b)-[]->(c) WHERE a <> c RETURN a, c";
  q::ResultSet direct = run_ok(text, g);

  svc::SnapshotPtr snap;
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(svc::make_snapshot(&snap, std::move(g), msg), LAGRAPH_OK) << msg;
  svc::Engine engine(snap);
  svc::Request req;
  req.kind = svc::QueryKind::cypher;
  req.query = text;
  auto res = engine.submit(req).get();
  ASSERT_EQ(res.status, LAGRAPH_OK) << res.error;
  EXPECT_EQ(res.kind, svc::QueryKind::cypher);
  EXPECT_EQ(res.table, direct);
  EXPECT_NE(res.plan.find("cypher[opt]"), std::string::npos) << res.plan;
  // The request log keeps the plan one-liner as the summary.
  engine.drain();
  bool logged = false;
  for (const auto &r : engine.request_log().recent(16)) {
    if (r.kind == static_cast<std::uint8_t>(svc::QueryKind::cypher)) {
      logged = true;
      EXPECT_NE(std::string(r.plan).find("cypher["), std::string::npos);
    }
  }
  EXPECT_TRUE(logged);
  engine.stop();
}

TEST(QueryEngine, MalformedCypherFailsTheFutureNotTheEngine) {
  auto g = graph_from_edges(3, true, {{0, 1}});
  svc::SnapshotPtr snap;
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(svc::make_snapshot(&snap, std::move(g), msg), LAGRAPH_OK) << msg;
  svc::Engine engine(snap);
  svc::Request bad;
  bad.kind = svc::QueryKind::cypher;
  bad.query = "MATCH (a)-[]->(b)";  // missing RETURN
  auto res = engine.submit(bad).get();
  EXPECT_LT(res.status, 0);
  EXPECT_FALSE(res.error.empty());
  // Engine still serves afterwards.
  svc::Request good;
  good.kind = svc::QueryKind::cypher;
  good.query = "MATCH (a)-[]->(b) RETURN COUNT(*)";
  auto ok = engine.submit(good).get();
  ASSERT_EQ(ok.status, LAGRAPH_OK) << ok.error;
  EXPECT_EQ(ok.table.data[0][0], 1);
  engine.stop();
}
