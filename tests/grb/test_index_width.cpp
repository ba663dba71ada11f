// Storage-width suite (ctest label "storage"): the per-container IndexWidth
// property added in the 32-bit CSR work. Pins down
//
//   - the auto-selection rule (u32 iff max(nrows, ncols, nvals) <
//     Config::u32_index_limit, clamped to the physical 2^31 ceiling) and the
//     Config::force_index_width override,
//   - u32 -> u64 promotion when a mutation batch crosses the limit, and
//     u64 -> u32 compression at finalize(), both visible in grb::stats(),
//   - the spec'd overflow guard: forced-u32 containers reject out-of-range
//     builds/stage batches with Info::index_out_of_bounds, never truncation,
//   - bit-identical kernel results u32 vs u64 across storage formats and
//     thread counts (the width must be invisible to every consumer), and
//   - the IndexArray / IndexSpan building blocks themselves.
//
// This file is also compiled a second time under -fsanitize=undefined as the
// narrowing-conversion smoke target (tests_storage_ubsan): every u32 store
// in the width-erased paths runs under the sanitizer on real kernel traffic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gen/generators.hpp"
#include "grb/grb.hpp"

namespace {

using grb::Index;
using grb::IndexWidth;
using T = std::int64_t;
using Mat = grb::Matrix<T>;
using Vec = grb::Vector<T>;

// Restores the full Config (width knobs, thread count, format force) on
// scope exit so test cases cannot leak settings into each other.
struct ConfigGuard {
  grb::Config saved = grb::config();
  ~ConfigGuard() { grb::config() = saved; }
};

Mat ladder(Index m, Index n, Index nvals) {
  std::vector<Index> ri, ci;
  std::vector<T> vv;
  for (Index p = 0; p < nvals; ++p) {
    ri.push_back(p % m);
    ci.push_back((p * 7 + p / m) % n);  // distinct (i, j) for nvals <= 5*m
    vv.push_back(static_cast<T>(1 + p));
  }
  Mat a(m, n);
  a.build(ri, ci, vv);
  a.finalize();
  return a;
}

std::vector<std::tuple<Index, Index, T>> tuples_of(const Mat &a) {
  std::vector<std::tuple<Index, Index, T>> out;
  a.for_each([&](Index i, Index j, const T &x) { out.emplace_back(i, j, x); });
  std::sort(out.begin(), out.end());
  return out;
}

// --- building blocks ------------------------------------------------------

TEST(IndexArray, WidthErasedRoundTrip) {
  grb::detail::IndexArray a(IndexWidth::u32);
  for (Index x : {Index{0}, Index{7}, Index{42}, Index{1000000}}) {
    a.push_back(x);
  }
  EXPECT_EQ(a.width(), IndexWidth::u32);
  EXPECT_EQ(a.size(), 4u);
  EXPECT_EQ(a.byte_size(), 4u * sizeof(std::uint32_t));
  EXPECT_EQ(a[3], 1000000u);
  EXPECT_EQ(a.back(), 1000000u);
  a.set(1, 9);
  EXPECT_EQ(a[1], 9u);

  // Widen: values survive, byte footprint doubles.
  a.convert(IndexWidth::u64);
  EXPECT_EQ(a.width(), IndexWidth::u64);
  EXPECT_EQ(a[0], 0u);
  EXPECT_EQ(a[1], 9u);
  EXPECT_EQ(a[3], 1000000u);
  EXPECT_EQ(a.byte_size(), 4u * sizeof(std::uint64_t));

  // Narrow back (all values in range): still intact.
  a.convert(IndexWidth::u32);
  EXPECT_EQ(a.width(), IndexWidth::u32);
  EXPECT_EQ(a.to_u64(), (std::vector<Index>{0, 9, 42, 1000000}));
}

TEST(IndexArray, AdoptAndTypedViews) {
  grb::detail::IndexArray a;
  a.adopt(std::vector<std::uint32_t>{3, 1, 4, 1, 5});
  EXPECT_EQ(a.width(), IndexWidth::u32);
  auto s32 = a.as<std::uint32_t>();
  ASSERT_EQ(s32.size(), 5u);
  EXPECT_EQ(s32[2], 4u);

  a.adopt(std::vector<std::uint64_t>{8, 6, 7});
  EXPECT_EQ(a.width(), IndexWidth::u64);
  EXPECT_EQ(a.as<std::uint64_t>()[2], 7u);
}

TEST(IndexSpan, ValueIteratorsOverBothWidths) {
  grb::detail::IndexArray a(IndexWidth::u32);
  for (Index x = 0; x < 10; ++x) a.push_back(x * x);
  grb::IndexSpan s{a};
  EXPECT_EQ(s.width(), IndexWidth::u32);
  EXPECT_EQ(s.size(), 10u);
  EXPECT_EQ(s[3], 9u);
  EXPECT_EQ(s.front(), 0u);
  EXPECT_EQ(s.back(), 81u);

  // Random-access iterator contract: std algorithms over the erased view.
  auto it = std::lower_bound(s.begin(), s.end(), Index{16});
  EXPECT_EQ(it - s.begin(), 4);
  EXPECT_EQ(*it, 16u);
  std::vector<Index> copied(s.begin(), s.end());
  EXPECT_EQ(copied.size(), 10u);
  EXPECT_EQ(copied[7], 49u);

  auto sub = s.subspan(2, 3);
  EXPECT_EQ(sub.size(), 3u);
  EXPECT_EQ(sub[0], 4u);
  EXPECT_EQ(sub[2], 16u);

  // u64 spans view through the same type.
  std::vector<Index> v64{5, 10, 15};
  grb::IndexSpan w{std::span<const Index>{v64}};
  EXPECT_EQ(w.width(), IndexWidth::u64);
  EXPECT_EQ(w[1], 10u);
}

// --- selection rule and overrides -----------------------------------------

TEST(IndexWidthSelect, SmallContainersPickU32) {
  ConfigGuard g;
  Mat a = ladder(100, 100, 60);
  EXPECT_EQ(a.index_width(), IndexWidth::u32);
  // rowptr (m+1) + colidx (nnz), 4 bytes each.
  EXPECT_EQ(a.index_bytes(), (101 + a.nvals()) * 4u);
}

TEST(IndexWidthSelect, LoweredLimitPicksU64) {
  ConfigGuard g;
  grb::config().u32_index_limit = 50;  // dims >= 50 leave the u32 domain
  Mat a = ladder(100, 100, 60);
  EXPECT_EQ(a.index_width(), IndexWidth::u64);
  if (a.format() == Mat::Format::csr) {
    EXPECT_EQ(a.index_bytes(), (101 + a.nvals()) * 8u);
  } else {
    EXPECT_EQ(a.index_bytes() % 8u, 0u);
  }
}

TEST(IndexWidthSelect, NvalsAloneCanForceU64) {
  ConfigGuard g;
  grb::config().u32_index_limit = 32;
  // Dims fit (8 < 32) but the entry count does not (40 >= 32).
  Mat a = ladder(8, 8, 40);
  EXPECT_EQ(a.index_width(), IndexWidth::u64);
}

TEST(IndexWidthSelect, ForcedOverridesWin) {
  ConfigGuard g;
  grb::config().force_index_width = grb::ForceIndexWidth::u64;
  Mat a = ladder(16, 16, 20);
  EXPECT_EQ(a.index_width(), IndexWidth::u64);

  grb::config().force_index_width = grb::ForceIndexWidth::u32;
  Mat b = ladder(16, 16, 20);
  EXPECT_EQ(b.index_width(), IndexWidth::u32);
}

TEST(IndexWidthSelect, VectorsStayU64) {
  // Vector index storage is intentionally 64-bit (frontiers are transient);
  // the accessors exist so callers can account uniformly.
  Vec v(1000);
  v.set_element(3, 1);
  v.set_element(500, 2);
  v.finalize();
  EXPECT_EQ(v.index_width(), IndexWidth::u64);
  EXPECT_EQ(v.index_bytes(), v.nvals() * sizeof(Index));
}

// --- promotion and compression --------------------------------------------

TEST(IndexWidthTransitions, MutationBatchPromotesAcrossTheLimit) {
  ConfigGuard g;
  grb::config().u32_index_limit = 6;
  Mat a(5, 5);
  std::vector<Index> ri{0, 1, 2, 4}, ci{1, 4, 2, 0};
  std::vector<T> vv{3, 2, -1, 5};
  a.build(ri, ci, vv);
  a.finalize();
  ASSERT_EQ(a.index_width(), IndexWidth::u32);  // max(5, 5, 4) < 6

  const auto before = grb::stats().index_width_promotions.load();
  a.set_element(3, 3, 7);  // nvals 5: still under the limit after merge
  a.finalize();
  EXPECT_EQ(a.index_width(), IndexWidth::u32);

  a.set_element(0, 4, -2);  // nvals 6: crosses the boundary exactly
  a.finalize();
  EXPECT_EQ(a.index_width(), IndexWidth::u64);
  EXPECT_GE(grb::stats().index_width_promotions.load(), before + 1);

  // Contents survive the width change.
  auto t = tuples_of(a);
  ASSERT_EQ(t.size(), 6u);
  EXPECT_EQ(t.front(), std::make_tuple(Index{0}, Index{1}, T{3}));
  EXPECT_EQ(std::get<2>(t[1]), T{-2});
}

TEST(IndexWidthTransitions, DeletionCompressesAtFinalize) {
  ConfigGuard g;
  grb::config().u32_index_limit = 6;
  Mat a(5, 5);
  std::vector<Index> ri, ci;
  std::vector<T> vv;
  for (Index p = 0; p < 5; ++p) {
    ri.push_back(p);
    ci.push_back((p + 1) % 5);
    vv.push_back(static_cast<T>(p));
  }
  ri.push_back(0);
  ci.push_back(3);
  vv.push_back(99);
  a.build(ri, ci, vv);
  a.finalize();
  ASSERT_EQ(a.index_width(), IndexWidth::u64);  // nvals 6 >= limit

  const auto before = grb::stats().index_width_compressions.load();
  a.remove_element(0, 3);
  a.remove_element(1, 2);
  a.finalize();  // nvals 4: back inside the u32 domain
  EXPECT_EQ(a.index_width(), IndexWidth::u32);
  EXPECT_GE(grb::stats().index_width_compressions.load(), before + 1);
  EXPECT_EQ(a.nvals(), 4u);
}

TEST(IndexWidthTransitions, AdoptedCsrStaysU64UntilFinalize) {
  ConfigGuard g;
  // adopt_csr is the zero-copy ingest path: the caller hands u64 arrays, so
  // the container keeps them as-is; finalize() applies the selection rule.
  std::vector<Index> rp{0, 1, 2};
  std::vector<Index> cx{1, 0};
  std::vector<T> vx{10, 20};
  Mat a(2, 2);
  a.adopt_csr(std::move(rp), std::move(cx), std::move(vx));
  EXPECT_EQ(a.index_width(), IndexWidth::u64);
  a.finalize();
  EXPECT_EQ(a.index_width(), IndexWidth::u32);
  EXPECT_EQ(a.nvals(), 2u);
}

// --- overflow guards ------------------------------------------------------

TEST(IndexWidthGuards, ForcedU32BuildThrowsSpeccedCode) {
  ConfigGuard g;
  grb::config().force_index_width = grb::ForceIndexWidth::u32;
  grb::config().u32_index_limit = 4;
  Mat a(8, 8);  // dims already out of the modeled u32 domain
  std::vector<Index> ri{0}, ci{0};
  std::vector<T> vv{1};
  try {
    a.build(ri, ci, vv);
    a.finalize();
    FAIL() << "expected Info::index_out_of_bounds";
  } catch (const grb::Exception &e) {
    EXPECT_EQ(e.info(), grb::Info::index_out_of_bounds);
  }
}

TEST(IndexWidthGuards, StageTuplesProjectedOverflowThrows) {
  ConfigGuard g;
  Mat a = ladder(4, 4, 3);
  grb::config().force_index_width = grb::ForceIndexWidth::u32;
  grb::config().u32_index_limit = 6;
  // 3 existing + 3 staged = 6 >= limit: the batch must be rejected up front
  // (projected count), not discovered as truncation at merge time.
  std::vector<Index> ri{0, 1, 2}, ci{3, 3, 3};
  std::vector<T> vv{1, 2, 3};
  std::vector<std::uint8_t> ops(ri.size(), Mat::kPendSet);
  try {
    a.stage_tuples(ri, ci, vv, ops);
    FAIL() << "expected Info::index_out_of_bounds";
  } catch (const grb::Exception &e) {
    EXPECT_EQ(e.info(), grb::Info::index_out_of_bounds);
  }
  // The guard fired before any mutation: the container is still usable.
  EXPECT_EQ(a.nvals(), 3u);
}

// --- kernel bit-identity across widths ------------------------------------

class WidthIdentity : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(WidthIdentity, KernelsMatchAcrossWidths) {
  const auto [threads, fmt] = GetParam();
  auto el = gen::uniform_random(8, 6, 0x5eedULL);  // 256 rows, ~1.5k edges
  gen::add_uniform_weights(el, 1, 100, 0x99ULL);

  auto run = [&](grb::ForceIndexWidth w) {
    ConfigGuard g;
    grb::config().num_threads = threads;
    grb::config().force_format = static_cast<grb::ForceFormat>(fmt);
    grb::config().force_index_width = w;
    grb::Matrix<double> a = gen::to_matrix<double>(el);
    a.finalize();
    EXPECT_EQ(a.index_width(), w == grb::ForceIndexWidth::u32
                                   ? IndexWidth::u32
                                   : IndexWidth::u64);

    const Index n = a.ncols();
    grb::Vector<double> u(n);
    for (Index i = 0; i < n; i += 3) u.set_element(i, 1.0 + (i % 7));
    u.finalize();

    grb::Vector<double> w_out(a.nrows());
    grb::mxv(w_out, grb::no_mask, grb::NoAccum{}, grb::PlusTimes<double>{}, a,
             u, grb::Descriptor{});

    grb::Matrix<double> at(a.ncols(), a.nrows());
    grb::transpose(at, grb::no_mask, grb::NoAccum{}, a, grb::Descriptor{});

    grb::Vector<double> rows(a.nrows());
    grb::reduce(rows, grb::no_mask, grb::NoAccum{}, grb::PlusMonoid<double>{},
                a, grb::Descriptor{});

    grb::Matrix<double> sq(a.nrows(), a.nrows());
    grb::mxm(sq, grb::no_mask, grb::NoAccum{}, grb::PlusTimes<double>{}, a, at,
             grb::Descriptor{});

    std::vector<Index> wi, ri2, sqi, sqj;
    std::vector<double> wv, rv, sqv;
    w_out.extract_tuples(wi, wv);
    rows.extract_tuples(ri2, rv);
    std::vector<std::tuple<Index, Index, double>> sqt;
    sq.for_each([&](Index i, Index j, const double &x) {
      sqt.emplace_back(i, j, x);
    });
    std::sort(sqt.begin(), sqt.end());
    return std::make_tuple(wi, wv, ri2, rv, sqt);
  };

  auto r32 = run(grb::ForceIndexWidth::u32);
  auto r64 = run(grb::ForceIndexWidth::u64);
  EXPECT_EQ(std::get<0>(r32), std::get<0>(r64)) << "mxv index sets differ";
  EXPECT_EQ(std::get<1>(r32), std::get<1>(r64)) << "mxv values differ";
  EXPECT_EQ(std::get<2>(r32), std::get<2>(r64)) << "reduce index sets differ";
  EXPECT_EQ(std::get<3>(r32), std::get<3>(r64)) << "reduce values differ";
  EXPECT_EQ(std::get<4>(r32), std::get<4>(r64)) << "mxm results differ";
}

std::string width_param_name(
    const ::testing::TestParamInfo<WidthIdentity::ParamType> &info) {
  static const char *const kFmt[] = {"anyfmt", "sparse", "bitmap"};
  return "t" + std::to_string(std::get<0>(info.param)) + "_" +
         kFmt[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(ThreadsByFormat, WidthIdentity,
                         ::testing::Combine(::testing::Values(1, 4),
                                            ::testing::Values(0, 1, 2)),
                         width_param_name);

}  // namespace
