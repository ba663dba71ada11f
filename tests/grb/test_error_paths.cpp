// Table-driven error-path conformance: every malformed call must throw
// grb::Exception carrying the spec'd Info code — never assert, never return a
// wrong answer silently. One row per misuse; the table loop reports the row
// name on failure so a regression pinpoints the offending check.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "grb/grb.hpp"

namespace {

using grb::Index;
using grb::Info;
using T = std::int64_t;
using Mat = grb::Matrix<T>;
using Vec = grb::Vector<T>;

Mat small_mat(Index m, Index n) {
  Mat a(m, n);
  if (m > 0 && n > 0) {
    std::vector<Index> r{0}, c{0};
    std::vector<T> v{1};
    a.build(r, c, v);
  }
  return a;
}

Vec small_vec(Index n) {
  Vec u(n);
  if (n > 0) {
    std::vector<Index> ix{0};
    std::vector<T> v{1};
    u.build(ix, v);
  }
  return u;
}

struct Case {
  const char *name;
  Info expected;
  std::function<void()> run;
};

const grb::Descriptor kDefault{};

std::vector<Case> make_cases() {
  using grb::no_mask;
  using grb::NoAccum;
  std::vector<Case> cases;

  // --- mxm / mxv / vxm shape checks ------------------------------------
  cases.push_back({"mxm inner dimension mismatch", Info::dimension_mismatch,
                   [] {
                     Mat a = small_mat(2, 3), b = small_mat(4, 2);
                     Mat c(2, 2);
                     grb::mxm(c, no_mask, NoAccum{},
                              grb::PlusTimes<T>{}, a, b, kDefault);
                   }});
  cases.push_back({"mxm output row mismatch", Info::dimension_mismatch, [] {
                     Mat a = small_mat(2, 3), b = small_mat(3, 2);
                     Mat c(5, 2);
                     grb::mxm(c, no_mask, NoAccum{},
                              grb::PlusTimes<T>{}, a, b, kDefault);
                   }});
  cases.push_back({"mxm output column mismatch", Info::dimension_mismatch,
                   [] {
                     Mat a = small_mat(2, 3), b = small_mat(3, 2);
                     Mat c(2, 7);
                     grb::mxm(c, no_mask, NoAccum{},
                              grb::PlusTimes<T>{}, a, b, kDefault);
                   }});
  cases.push_back({"mxv input size mismatch", Info::dimension_mismatch, [] {
                     Mat a = small_mat(2, 3);
                     Vec u = small_vec(4), w = small_vec(2);
                     grb::mxv(w, no_mask, NoAccum{},
                              grb::PlusTimes<T>{}, a, u, kDefault);
                   }});
  cases.push_back({"mxv output size mismatch", Info::dimension_mismatch, [] {
                     Mat a = small_mat(2, 3);
                     Vec u = small_vec(3), w = small_vec(9);
                     grb::mxv(w, no_mask, NoAccum{},
                              grb::PlusTimes<T>{}, a, u, kDefault);
                   }});
  cases.push_back({"mxv transposed input mismatch", Info::dimension_mismatch,
                   [] {
                     Mat a = small_mat(2, 3);
                     Vec u = small_vec(3), w = small_vec(3);
                     grb::Descriptor d;
                     d.transpose_a = true;  // Aᵀ is 3x2, u must be length 2.
                     grb::mxv(w, no_mask, NoAccum{},
                              grb::PlusTimes<T>{}, a, u, d);
                   }});
  cases.push_back({"vxm input size mismatch", Info::dimension_mismatch, [] {
                     Mat a = small_mat(2, 3);
                     Vec u = small_vec(3), w = small_vec(3);
                     grb::vxm(w, no_mask, NoAccum{},
                              grb::PlusTimes<T>{}, u, a, kDefault);
                   }});

  // --- element-wise shape checks ---------------------------------------
  cases.push_back({"eWiseAdd vector input mismatch", Info::dimension_mismatch,
                   [] {
                     Vec u = small_vec(3), v = small_vec(4), w = small_vec(3);
                     grb::eWiseAdd(w, no_mask, NoAccum{}, grb::Plus{}, u, v,
                                   kDefault);
                   }});
  cases.push_back({"eWiseAdd vector output mismatch", Info::dimension_mismatch,
                   [] {
                     Vec u = small_vec(3), v = small_vec(3), w = small_vec(5);
                     grb::eWiseAdd(w, no_mask, NoAccum{}, grb::Plus{}, u, v,
                                   kDefault);
                   }});
  cases.push_back({"eWiseMult matrix shape mismatch", Info::dimension_mismatch,
                   [] {
                     Mat a = small_mat(2, 3), b = small_mat(2, 4), c(2, 3);
                     grb::eWiseMult(c, no_mask, NoAccum{}, grb::Times{}, a, b,
                                    kDefault);
                   }});
  cases.push_back({"eWiseMult matrix output mismatch", Info::dimension_mismatch,
                   [] {
                     Mat a = small_mat(2, 3), b = small_mat(2, 3), c(3, 3);
                     grb::eWiseMult(c, no_mask, NoAccum{}, grb::Times{}, a, b,
                                    kDefault);
                   }});

  // --- apply / select / reduce -----------------------------------------
  cases.push_back({"apply vector size mismatch", Info::dimension_mismatch, [] {
                     Vec u = small_vec(3), w = small_vec(4);
                     grb::apply(w, no_mask, NoAccum{}, grb::Identity{}, u,
                                kDefault);
                   }});
  cases.push_back({"apply matrix shape mismatch", Info::dimension_mismatch,
                   [] {
                     Mat a = small_mat(2, 3), c(3, 2);
                     grb::apply(c, no_mask, NoAccum{}, grb::Identity{}, a,
                                kDefault);
                   }});
  cases.push_back({"select vector size mismatch", Info::dimension_mismatch,
                   [] {
                     Vec u = small_vec(3), w = small_vec(2);
                     grb::select(w, no_mask, NoAccum{}, grb::ValueNe{}, u, 0,
                                 kDefault);
                   }});
  cases.push_back({"select matrix shape mismatch", Info::dimension_mismatch,
                   [] {
                     Mat a = small_mat(2, 3), c(2, 2);
                     grb::select(c, no_mask, NoAccum{}, grb::Tril{}, a, 0,
                                 kDefault);
                   }});
  cases.push_back({"reduce matrix-to-vector size mismatch",
                   Info::dimension_mismatch, [] {
                     Mat a = small_mat(2, 3);
                     Vec w = small_vec(3);  // must be nrows(a) == 2
                     grb::reduce(w, no_mask, NoAccum{}, grb::PlusMonoid<T>{},
                                 a, kDefault);
                   }});

  // --- masks ------------------------------------------------------------
  cases.push_back({"vector mask size mismatch", Info::dimension_mismatch, [] {
                     Vec u = small_vec(3), v = small_vec(3), w = small_vec(3);
                     Vec mask = small_vec(4);
                     grb::eWiseAdd(w, mask, NoAccum{}, grb::Plus{}, u, v,
                                   kDefault);
                   }});
  cases.push_back({"matrix mask shape mismatch", Info::dimension_mismatch, [] {
                     Mat a = small_mat(2, 3), b = small_mat(2, 3), c(2, 3);
                     Mat mask = small_mat(3, 3);
                     grb::eWiseAdd(c, mask, NoAccum{}, grb::Plus{}, a, b,
                                   kDefault);
                   }});

  // --- extract ----------------------------------------------------------
  cases.push_back({"extract output size mismatch", Info::dimension_mismatch,
                   [] {
                     Vec u = small_vec(5), w = small_vec(3);
                     std::vector<Index> ix{0, 1};
                     grb::extract(w, no_mask, NoAccum{}, u, grb::Indices(ix),
                                  kDefault);
                   }});
  cases.push_back({"extract index out of bounds", Info::index_out_of_bounds,
                   [] {
                     Vec u = small_vec(5), w = small_vec(2);
                     std::vector<Index> ix{0, 9};
                     grb::extract(w, no_mask, NoAccum{}, u, grb::Indices(ix),
                                  kDefault);
                   }});
  cases.push_back({"extract matrix row index out of bounds",
                   Info::index_out_of_bounds, [] {
                     Mat a = small_mat(3, 3), c(2, 3);
                     std::vector<Index> rows{0, 7};
                     grb::extract(c, no_mask, NoAccum{}, a, grb::Indices(rows),
                                  grb::Indices::all(), kDefault);
                   }});
  cases.push_back({"extract_col column out of bounds",
                   Info::index_out_of_bounds, [] {
                     Mat a = small_mat(3, 3);
                     Vec w = small_vec(3);
                     grb::extract_col(w, no_mask, NoAccum{}, a, 5, kDefault);
                   }});

  // --- assign -----------------------------------------------------------
  cases.push_back({"assign source size mismatch", Info::dimension_mismatch,
                   [] {
                     Vec w = small_vec(5), u = small_vec(3);
                     std::vector<Index> ix{0, 1};  // region is 2, u is 3
                     grb::assign(w, no_mask, NoAccum{}, u, grb::Indices(ix),
                                 kDefault);
                   }});
  cases.push_back({"assign index out of bounds", Info::index_out_of_bounds,
                   [] {
                     Vec w = small_vec(3), u = small_vec(2);
                     std::vector<Index> ix{0, 8};
                     grb::assign(w, no_mask, NoAccum{}, u, grb::Indices(ix),
                                 kDefault);
                   }});
  cases.push_back({"scalar assign index out of bounds",
                   Info::index_out_of_bounds, [] {
                     Vec w = small_vec(3);
                     std::vector<Index> ix{4};
                     grb::assign(w, no_mask, NoAccum{}, T{7}, grb::Indices(ix),
                                 kDefault);
                   }});
  cases.push_back({"matrix assign source shape mismatch",
                   Info::dimension_mismatch, [] {
                     Mat c = small_mat(4, 4), a = small_mat(3, 2);
                     std::vector<Index> rows{0, 1}, cols{0, 1};
                     grb::assign(c, no_mask, NoAccum{}, a, grb::Indices(rows),
                                 grb::Indices(cols), kDefault);
                   }});
  cases.push_back({"matrix assign row index out of bounds",
                   Info::index_out_of_bounds, [] {
                     Mat c = small_mat(4, 4), a = small_mat(2, 2);
                     std::vector<Index> rows{0, 9}, cols{0, 1};
                     grb::assign(c, no_mask, NoAccum{}, a, grb::Indices(rows),
                                 grb::Indices(cols), kDefault);
                   }});
  cases.push_back({"matrix assign duplicate row index", Info::invalid_value,
                   [] {
                     Mat c = small_mat(4, 4), a = small_mat(2, 2);
                     std::vector<Index> rows{1, 1}, cols{0, 1};
                     grb::assign(c, no_mask, NoAccum{}, a, grb::Indices(rows),
                                 grb::Indices(cols), kDefault);
                   }});

  // --- build / element access -------------------------------------------
  cases.push_back({"vector build length mismatch", Info::invalid_value, [] {
                     Vec u(4);
                     std::vector<Index> ix{0, 1};
                     std::vector<T> vals{1};
                     u.build(ix, vals);
                   }});
  cases.push_back({"vector build index out of bounds",
                   Info::index_out_of_bounds, [] {
                     Vec u(4);
                     std::vector<Index> ix{0, 6};
                     std::vector<T> vals{1, 2};
                     u.build(ix, vals);
                   }});
  cases.push_back({"matrix build length mismatch", Info::invalid_value, [] {
                     Mat a(3, 3);
                     std::vector<Index> r{0, 1}, c{0, 1};
                     std::vector<T> vals{1};
                     a.build(r, c, vals);
                   }});
  cases.push_back({"matrix build index out of bounds",
                   Info::index_out_of_bounds, [] {
                     Mat a(3, 3);
                     std::vector<Index> r{0, 5}, c{0, 1};
                     std::vector<T> vals{1, 2};
                     a.build(r, c, vals);
                   }});
  cases.push_back({"matrix set_element out of bounds",
                   Info::index_out_of_bounds, [] {
                     Mat a = small_mat(3, 3);
                     a.set_element(3, 0, T{1});
                   }});
  cases.push_back({"vector set_element out of bounds",
                   Info::index_out_of_bounds, [] {
                     Vec u = small_vec(3);
                     u.set_element(3, T{1});
                   }});

  // --- kronecker / transpose --------------------------------------------
  cases.push_back({"kronecker output shape mismatch",
                   Info::dimension_mismatch, [] {
                     Mat a = small_mat(2, 2), b = small_mat(3, 3), c(5, 6);
                     grb::kronecker(c, no_mask, NoAccum{}, grb::Times{}, a, b,
                                    kDefault);
                   }});
  cases.push_back({"transpose output shape mismatch",
                   Info::dimension_mismatch, [] {
                     Mat a = small_mat(2, 3), c(2, 3);  // must be 3x2
                     grb::transpose(c, no_mask, NoAccum{}, a, kDefault);
                   }});

  // --- default-constructed (uninitialized) containers --------------------
  // A default-constructed Matrix/Vector is 0-dimensional; using one where a
  // real operand is expected must surface as a dimension error, not a crash.
  cases.push_back({"default-constructed matrix operand",
                   Info::dimension_mismatch, [] {
                     Mat a;  // 0x0
                     Mat b = small_mat(3, 2), c(3, 2);
                     grb::mxm(c, no_mask, NoAccum{},
                              grb::PlusTimes<T>{}, a, b, kDefault);
                   }});
  cases.push_back({"default-constructed vector operand",
                   Info::dimension_mismatch, [] {
                     Vec u;  // length 0
                     Mat a = small_mat(2, 3);
                     Vec w = small_vec(2);
                     grb::mxv(w, no_mask, NoAccum{},
                              grb::PlusTimes<T>{}, a, u, kDefault);
                   }});

  // --- index-width overflow guards ---------------------------------------
  // A container forced to u32 storage must reject out-of-range builds and
  // stage batches with the spec'd code — never truncate silently. The limit
  // is lowered so tiny test containers can trip the guard; WidthGuard
  // restores the full Config even when the case throws.
  struct WidthGuard {
    grb::Config saved = grb::config();
    explicit WidthGuard(Index limit) {
      grb::config().force_index_width = grb::ForceIndexWidth::u32;
      grb::config().u32_index_limit = limit;
    }
    ~WidthGuard() { grb::config() = saved; }
  };
  cases.push_back({"build exceeds forced u32 width", Info::index_out_of_bounds,
                   [] {
                     WidthGuard g(4);
                     Mat a(8, 8);  // dims outside the modeled u32 domain
                     std::vector<Index> r{0}, c{0};
                     std::vector<T> v{1};
                     a.build(r, c, v);
                     a.finalize();
                   }});
  cases.push_back({"stage_tuples batch exceeds forced u32 width",
                   Info::index_out_of_bounds, [] {
                     Mat a(4, 4);
                     std::vector<Index> r{0, 1, 2}, c{1, 2, 3};
                     std::vector<T> v{1, 2, 3};
                     a.build(r, c, v);
                     WidthGuard g(6);
                     // 3 existing + 3 staged = 6 >= limit: rejected on the
                     // projected count, before any pending-list mutation.
                     std::vector<std::uint8_t> ops(r.size(), Mat::kPendSet);
                     a.stage_tuples(r, c, v, ops);
                   }});

  return cases;
}

TEST(ErrorPaths, TableDriven) {
  for (const Case &c : make_cases()) {
    SCOPED_TRACE(c.name);
    bool threw = false;
    try {
      c.run();
    } catch (const grb::Exception &e) {
      threw = true;
      EXPECT_EQ(e.info(), c.expected)
          << c.name << ": threw " << grb::info_name(e.info()) << ", expected "
          << grb::info_name(c.expected);
    } catch (const std::exception &e) {
      threw = true;
      ADD_FAILURE() << c.name << ": threw non-grb exception: " << e.what();
    }
    EXPECT_TRUE(threw) << c.name << ": expected grb::Exception, none thrown";
  }
}

// Successful calls after a failed one must still work: error checks fire
// before any output mutation, so a caught Exception leaves operands usable.
TEST(ErrorPaths, FailedCallLeavesOperandsUsable) {
  Mat a = small_mat(2, 3), b = small_mat(3, 2);
  Mat bad(5, 2), good(2, 2);
  EXPECT_THROW(grb::mxm(bad, grb::no_mask, grb::NoAccum{},
                        grb::PlusTimes<T>{}, a, b, kDefault),
               grb::Exception);
  grb::mxm(good, grb::no_mask, grb::NoAccum{}, grb::PlusTimes<T>{}, a,
           b, kDefault);
  EXPECT_EQ(good.nvals(), 1u);
  auto x = good.get(0, 0);
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(*x, 1);
}

}  // namespace
