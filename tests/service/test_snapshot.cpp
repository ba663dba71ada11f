// GraphSnapshot tests: construction caches every property the query kernels
// need, freezes all containers, and hands out monotonically increasing ids.
#include <gtest/gtest.h>

#include "common/test_graphs.hpp"
#include "service/snapshot.hpp"

namespace svc = lagraph::service;
using grb::Index;

namespace {

lagraph::Graph<double> kron_graph(int scale, std::uint64_t seed) {
  auto el = gen::kronecker(scale, 6, seed);
  lagraph::Graph<double> g;
  char msg[LAGRAPH_MSG_LEN];
  lagraph::make_graph(g, gen::to_matrix<double>(el),
                      lagraph::Kind::adjacency_undirected, msg);
  return g;
}

}  // namespace

TEST(Snapshot, BuildCachesAndFreezesEverything) {
  auto g = kron_graph(7, 3);
  const auto nodes = g.nodes();
  const auto entries = g.entries();

  svc::SnapshotPtr snap;
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(svc::make_snapshot(&snap, std::move(g), msg), LAGRAPH_OK) << msg;
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->nodes(), nodes);
  EXPECT_EQ(snap->entries(), entries);
  EXPECT_EQ(snap->kind(), lagraph::Kind::adjacency_undirected);

  const auto &sg = snap->graph();
  EXPECT_TRUE(sg.a.is_finalized());
  ASSERT_TRUE(sg.row_degree.has_value());
  EXPECT_TRUE(sg.row_degree->is_finalized());
  EXPECT_EQ(sg.a_pattern_is_symmetric, lagraph::BooleanProperty::yes);
  EXPECT_GE(sg.ndiag, 0);
  EXPECT_NE(sg.transpose_view(), nullptr);
}

TEST(Snapshot, DirectedGraphGetsConcreteTranspose) {
  auto el = gen::twitter_like(7, 6, 5);
  lagraph::Graph<double> g;
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::make_graph(g, gen::to_matrix<double>(el),
                                lagraph::Kind::adjacency_directed, msg),
            LAGRAPH_OK);
  svc::SnapshotPtr snap;
  ASSERT_EQ(svc::make_snapshot(&snap, std::move(g), msg), LAGRAPH_OK) << msg;
  const auto &sg = snap->graph();
  ASSERT_TRUE(sg.at.has_value());
  EXPECT_TRUE(sg.at->is_finalized());
  EXPECT_EQ(sg.transpose_view(), &*sg.at);
}

TEST(Snapshot, IdsAreMonotonic) {
  char msg[LAGRAPH_MSG_LEN];
  svc::SnapshotPtr s1;
  svc::SnapshotPtr s2;
  ASSERT_EQ(svc::make_snapshot(&s1, kron_graph(5, 1), msg), LAGRAPH_OK);
  ASSERT_EQ(svc::make_snapshot(&s2, kron_graph(5, 2), msg), LAGRAPH_OK);
  EXPECT_LT(s1->id(), s2->id());
}

TEST(Snapshot, CountsInStats) {
  const auto before = grb::stats().snapshot_builds.load();
  char msg[LAGRAPH_MSG_LEN];
  svc::SnapshotPtr snap;
  ASSERT_EQ(svc::make_snapshot(&snap, kron_graph(5, 4), msg), LAGRAPH_OK);
  EXPECT_EQ(grb::stats().snapshot_builds.load(), before + 1);
}

TEST(Snapshot, RejectsNullOutAndBadGraph) {
  char msg[LAGRAPH_MSG_LEN];
  EXPECT_EQ(svc::make_snapshot(nullptr, kron_graph(4, 1), msg),
            LAGRAPH_NULL_POINTER);
  lagraph::Graph<double> g;
  g.a = grb::Matrix<double>(3, 4);  // not square
  svc::SnapshotPtr snap;
  EXPECT_EQ(svc::make_snapshot(&snap, std::move(g), msg),
            LAGRAPH_INVALID_GRAPH);
}
