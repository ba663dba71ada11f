// Graph I/O tests: Matrix Market read/write round trips (real, integer,
// pattern, symmetric), binary round trips, and malformed-input handling.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "common/test_graphs.hpp"

using grb::Index;

namespace {

grb::Matrix<double> sample() {
  grb::Matrix<double> a(3, 4);
  a.set_element(0, 1, 1.5);
  a.set_element(1, 0, -2.0);
  a.set_element(2, 3, 42.0);
  return a;
}

}  // namespace

TEST(Io, MmWriteReadRoundTrip) {
  auto a = sample();
  std::stringstream ss;
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::mm_write(a, ss, msg), LAGRAPH_OK);
  grb::Matrix<double> b(0, 0);
  ASSERT_EQ(lagraph::mm_read(b, ss, msg), LAGRAPH_OK) << msg;
  EXPECT_EQ(a, b);
}

TEST(Io, MmWriteIntegerBanner) {
  grb::Matrix<std::int64_t> a(2, 2);
  a.set_element(0, 0, 7);
  std::stringstream ss;
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::mm_write(a, ss, msg), LAGRAPH_OK);
  EXPECT_NE(ss.str().find("integer"), std::string::npos);
  grb::Matrix<std::int64_t> b(0, 0);
  ASSERT_EQ(lagraph::mm_read(b, ss, msg), LAGRAPH_OK);
  EXPECT_EQ(a, b);
}

TEST(Io, MmReadPattern) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "% a comment\n"
      "3 3 2\n"
      "1 2\n"
      "3 1\n");
  grb::Matrix<double> a(0, 0);
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::mm_read(a, ss, msg), LAGRAPH_OK) << msg;
  EXPECT_EQ(a.nvals(), 2u);
  EXPECT_EQ(a.get(0, 1), 1.0);  // pattern entries read as 1
  EXPECT_EQ(a.get(2, 0), 1.0);
}

TEST(Io, MmReadSymmetricExpandsEntries) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 2\n"
      "2 1 5.0\n"
      "3 3 7.0\n");
  grb::Matrix<double> a(0, 0);
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::mm_read(a, ss, msg), LAGRAPH_OK);
  EXPECT_EQ(a.nvals(), 3u);  // off-diagonal mirrored, diagonal not
  EXPECT_EQ(a.get(1, 0), 5.0);
  EXPECT_EQ(a.get(0, 1), 5.0);
  EXPECT_EQ(a.get(2, 2), 7.0);
}

TEST(Io, MmReadRejectsGarbage) {
  char msg[LAGRAPH_MSG_LEN];
  grb::Matrix<double> a(0, 0);
  {
    std::stringstream ss("not a matrix market file\n");
    EXPECT_EQ(lagraph::mm_read(a, ss, msg), LAGRAPH_IO_ERROR);
    EXPECT_GT(std::strlen(msg), 0u);
  }
  {
    std::stringstream ss(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 1\n"
        "5 5 1.0\n");  // out of bounds
    EXPECT_EQ(lagraph::mm_read(a, ss, msg), LAGRAPH_IO_ERROR);
  }
  {
    std::stringstream ss(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 3\n"
        "1 1 1.0\n");  // truncated
    EXPECT_EQ(lagraph::mm_read(a, ss, msg), LAGRAPH_IO_ERROR);
  }
  {
    std::stringstream ss(
        "%%MatrixMarket matrix array real general\n"
        "2 2\n");  // dense format unsupported
    EXPECT_EQ(lagraph::mm_read(a, ss, msg), LAGRAPH_IO_ERROR);
  }
}

TEST(Io, MmReadZeroBasedIndexRejected) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "0 1 1.0\n");
  grb::Matrix<double> a(0, 0);
  char msg[LAGRAPH_MSG_LEN];
  EXPECT_EQ(lagraph::mm_read(a, ss, msg), LAGRAPH_IO_ERROR);
}

TEST(Io, BinRoundTrip) {
  auto a = sample();
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::bin_write(a, ss, msg), LAGRAPH_OK);
  grb::Matrix<double> b(0, 0);
  ASSERT_EQ(lagraph::bin_read(b, ss, msg), LAGRAPH_OK) << msg;
  EXPECT_EQ(a, b);
}

TEST(Io, BinRejectsWrongMagicAndType) {
  char msg[LAGRAPH_MSG_LEN];
  {
    std::stringstream ss("BOGUSMAGIC.....................");
    grb::Matrix<double> b(0, 0);
    EXPECT_EQ(lagraph::bin_read(b, ss, msg), LAGRAPH_IO_ERROR);
  }
  {
    // written as double, read as int64 -> type size mismatch caught
    auto a = sample();
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_EQ(lagraph::bin_write(a, ss, msg), LAGRAPH_OK);
    grb::Matrix<std::int32_t> b(0, 0);
    EXPECT_EQ(lagraph::bin_read(b, ss, msg), LAGRAPH_IO_ERROR);
  }
  // Well-sized but malformed CSR arrays: each must be rejected before the
  // matrix adopts them (a later for_each would read out of bounds).
  struct Blob {
    const char *what;
    std::uint64_t nrows, ncols;
    std::vector<std::uint64_t> rp, cx;
  };
  const std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const Blob blobs[] = {
      {"rowptr past nvals, column past ncols", 1, 2, {0, 5}, {7}},
      {"nrows + 1 wraps to 0", kMax, 2, {}, {}},
      {"rowptr[0] != 0", 1, 2, {1, 1}, {0}},
      {"rowptr decreases", 2, 2, {0, 2, 1}, {0}},
      {"rowptr[nrows] != nvals", 1, 2, {0, 0}, {0}},
      {"column index >= ncols", 1, 2, {0, 1}, {2}},
  };
  for (const Blob &b : blobs) {
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    ss.write(lagraph::kBinMagic, sizeof(lagraph::kBinMagic));
    const std::uint64_t header[4] = {b.nrows, b.ncols, b.cx.size(),
                                     sizeof(double)};
    ss.write(reinterpret_cast<const char *>(header), sizeof(header));
    ss.write(reinterpret_cast<const char *>(b.rp.data()),
             static_cast<std::streamsize>(b.rp.size() * sizeof(std::uint64_t)));
    ss.write(reinterpret_cast<const char *>(b.cx.data()),
             static_cast<std::streamsize>(b.cx.size() * sizeof(std::uint64_t)));
    const std::vector<double> vx(b.cx.size(), 1.0);
    ss.write(reinterpret_cast<const char *>(vx.data()),
             static_cast<std::streamsize>(vx.size() * sizeof(double)));
    grb::Matrix<double> m(0, 0);
    EXPECT_EQ(lagraph::bin_read(m, ss, msg), LAGRAPH_IO_ERROR) << b.what;
  }
}

TEST(Io, FileRoundTripThroughGraph) {
  auto t = testutil::random_kron(6, 4, 3);
  const std::string path = "/tmp/lagraph_io_test.mtx";
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::mm_write(t.lg.a, path, msg), LAGRAPH_OK);
  grb::Matrix<double> back(0, 0);
  ASSERT_EQ(lagraph::mm_read(back, path, msg), LAGRAPH_OK);
  EXPECT_EQ(t.lg.a, back);
  std::remove(path.c_str());
}

TEST(Io, MissingFileError) {
  grb::Matrix<double> a(0, 0);
  char msg[LAGRAPH_MSG_LEN];
  EXPECT_EQ(lagraph::mm_read(a, std::string("/nonexistent/nope.mtx"), msg),
            LAGRAPH_IO_ERROR);
}

// -- Graphalytics ingestion -------------------------------------------------------

TEST(Graphalytics, ParseVertexAndEdgeBuffers) {
  lagraph::GraphalyticsData data;
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::graphalytics_parse_vertices(
                data, "# comment\n10\n20\n30\n40\n", msg),
            LAGRAPH_OK);
  ASSERT_EQ(lagraph::graphalytics_parse_edges(
                data, "10 20 1.5\n20 30 2.5\n# c\n30 10 0.5\n", msg),
            LAGRAPH_OK)
      << msg;
  EXPECT_EQ(data.vertex_ids.size(), 4u);
  EXPECT_EQ(data.src.size(), 3u);
  ASSERT_TRUE(data.weighted());
  EXPECT_EQ(data.weight[1], 2.5);
  grb::Matrix<double> a(0, 0);
  ASSERT_EQ(lagraph::graphalytics_build(a, nullptr, data, msg), LAGRAPH_OK);
  EXPECT_EQ(a.nrows(), 4u);
  EXPECT_EQ(a.get(0, 1), 1.5);  // 10 -> 20 relabelled to 0 -> 1
  EXPECT_EQ(a.get(2, 0), 0.5);
}

TEST(Graphalytics, UnweightedEdgesGetOnes) {
  lagraph::GraphalyticsData data;
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::graphalytics_parse_vertices(data, "1\n2\n", msg),
            LAGRAPH_OK);
  ASSERT_EQ(lagraph::graphalytics_parse_edges(data, "1 2\n2 1\n", msg),
            LAGRAPH_OK);
  EXPECT_FALSE(data.weighted());
  grb::Matrix<double> a(0, 0);
  ASSERT_EQ(lagraph::graphalytics_build(a, nullptr, data, msg), LAGRAPH_OK);
  EXPECT_EQ(a.get(0, 1), 1.0);
}

TEST(Graphalytics, MalformedInputsRejected) {
  char msg[LAGRAPH_MSG_LEN];
  {
    lagraph::GraphalyticsData d;
    EXPECT_EQ(lagraph::graphalytics_parse_vertices(d, "abc\n", msg),
              LAGRAPH_IO_ERROR);
  }
  {
    lagraph::GraphalyticsData d;
    lagraph::graphalytics_parse_vertices(d, "1\n2\n", msg);
    EXPECT_EQ(lagraph::graphalytics_parse_edges(d, "1\n", msg),
              LAGRAPH_IO_ERROR);  // missing target
    lagraph::GraphalyticsData d2;
    lagraph::graphalytics_parse_vertices(d2, "1\n2\n", msg);
    EXPECT_EQ(lagraph::graphalytics_parse_edges(d2, "1 2 3.0\n1 2\n", msg),
              LAGRAPH_IO_ERROR);  // inconsistent weights
  }
  {
    lagraph::GraphalyticsData d;
    lagraph::graphalytics_parse_vertices(d, "1\n1\n", msg);  // duplicate id
    lagraph::graphalytics_parse_edges(d, "1 1\n", msg);
    grb::Matrix<double> a(0, 0);
    EXPECT_EQ(lagraph::graphalytics_build(a, nullptr, d, msg),
              LAGRAPH_IO_ERROR);
  }
  {
    lagraph::GraphalyticsData d;
    lagraph::graphalytics_parse_vertices(d, "1\n", msg);
    lagraph::graphalytics_parse_edges(d, "1 99\n", msg);  // unknown endpoint
    grb::Matrix<double> a(0, 0);
    EXPECT_EQ(lagraph::graphalytics_build(a, nullptr, d, msg),
              LAGRAPH_IO_ERROR);
  }
}

TEST(Graphalytics, FileRoundTripIntoGraph) {
  // write a small dataset, read it back with graphalytics_read
  const std::string vp = "/tmp/lagraph_ga_test.v";
  const std::string ep = "/tmp/lagraph_ga_test.e";
  {
    std::ofstream v(vp);
    v << "100\n200\n300\n";
    std::ofstream e(ep);
    e << "100 200 5\n200 300 7\n";
  }
  lagraph::Graph<double> g;
  std::vector<std::uint64_t> ids;
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::graphalytics_read(g, &ids, vp, ep, /*directed=*/false,
                                       msg),
            LAGRAPH_OK)
      << msg;
  EXPECT_EQ(g.nodes(), 3u);
  EXPECT_EQ(g.entries(), 4u);  // undirected: mirrored
  EXPECT_EQ(g.kind, lagraph::Kind::adjacency_undirected);
  EXPECT_EQ(ids[1], 200u);
  EXPECT_EQ(g.a.get(1, 0), 5.0);
  std::remove(vp.c_str());
  std::remove(ep.c_str());
}
