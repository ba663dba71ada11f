// Allocation guard: per-iteration work in delta-stepping SSSP and batched BC
// must cost the bucket or frontier, never n. The deterministic proxy is the
// number of heap allocations of at least n bytes made during one call: the
// set-up (split matrices, the distance bitmap, BC's ns×n matrices) makes a
// fixed number of them, so the count must not grow with the thousands of
// buckets and hundreds of levels a road grid takes. An O(n) scratch array
// per bucket or level shows up as thousands.
//
// This binary replaces the global operator new, so it is its own target.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <new>
#include <vector>

#include "gen/generators.hpp"
#include "lagraph/lagraph.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_min_bytes{0};
std::atomic<std::size_t> g_large{0};

/// Number of allocations of at least `min_bytes` made while `f` runs.
template <typename F>
std::size_t count_large_allocations(std::size_t min_bytes, F &&f) {
  g_min_bytes = min_bytes;
  g_large = 0;
  g_counting = true;
  f();
  g_counting = false;
  return g_large;
}

// Side 96: n = 9,216 nodes, hop diameter ~190.
constexpr grb::Index kSide = 96;
constexpr double kDelta = 2.0;
// Far below the per-bucket and per-level counts of an O(n)-per-iteration
// implementation, above the fixed set-up allocations.
constexpr std::size_t kMaxLarge = 64;

lagraph::Graph<double> road_graph() {
  // The serial schedule: per-chunk buffers of a parallel kernel would add
  // thread-count-dependent allocations to the set-up.
  grb::config().num_threads = 1;
  auto el = gen::road_grid(kSide, kSide, 1);
  gen::add_uniform_weights(el, 1, 255, 7);
  lagraph::Graph<double> g;
  char msg[LAGRAPH_MSG_LEN];
  EXPECT_EQ(lagraph::make_graph(g, gen::to_matrix<double>(el),
                                lagraph::Kind::adjacency_directed, msg),
            LAGRAPH_OK)
      << msg;
  EXPECT_EQ(lagraph::property_at(g, msg), LAGRAPH_OK) << msg;
  return g;
}

}  // namespace

void *operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed) &&
      size >= g_min_bytes.load(std::memory_order_relaxed)) {
    g_large.fetch_add(1, std::memory_order_relaxed);
  }
  if (void *p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// GCC flags free() on operator new's memory; this pair is that operator's.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

TEST(AllocGuard, SsspBucketsMakeNoOrderNAllocations) {
  auto g = road_graph();
  const grb::Index n = g.nodes();
  char msg[LAGRAPH_MSG_LEN];
  grb::Vector<double> dist;
  // Warm-up: the pooled scatter workspace is allocated on first use.
  ASSERT_EQ(lagraph::advanced::sssp_delta_stepping(&dist, g, 0, kDelta, msg),
            LAGRAPH_OK)
      << msg;
  const std::size_t large = count_large_allocations(n, [&] {
    EXPECT_EQ(lagraph::advanced::sssp_delta_stepping(&dist, g, 0, kDelta, msg),
              LAGRAPH_OK);
  });
  // The run must really take thousands of buckets for the bound to mean
  // anything: the farthest node sits at distance / Δ buckets from the source.
  double far = 0;
  grb::reduce(far, grb::NoAccum{}, grb::MaxMonoid<double>{}, dist);
  ASSERT_EQ(dist.nvals(), n);
  EXPECT_GT(far / kDelta, 1000.0);
  std::cout << "SSSP: " << large << " allocations of >= n bytes\n";
  EXPECT_LE(large, kMaxLarge) << "allocations of >= n bytes in one SSSP call";
}

TEST(AllocGuard, BcLevelsMakeNoOrderNAllocations) {
  auto g = road_graph();
  const grb::Index n = g.nodes();
  char msg[LAGRAPH_MSG_LEN];
  // The four corners: each BFS from a corner runs ~190 levels.
  const std::vector<grb::Index> sources = {0, kSide - 1, n - kSide, n - 1};
  grb::Vector<double> cent;
  ASSERT_EQ(lagraph::advanced::betweenness_centrality(&cent, g, sources, true,
                                                      msg),
            LAGRAPH_OK)
      << msg;
  const std::size_t large = count_large_allocations(n, [&] {
    EXPECT_EQ(lagraph::advanced::betweenness_centrality(&cent, g, sources,
                                                        true, msg),
              LAGRAPH_OK);
  });
  std::cout << "BC: " << large << " allocations of >= n bytes\n";
  EXPECT_LE(large, kMaxLarge) << "allocations of >= n bytes in one BC call";
}
