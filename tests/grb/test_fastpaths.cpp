// Regression tests for the performance fast paths: the in-place assign
// variants, mixed-format element-wise kernels, the sparse-probe pull mode,
// bitmap-probing dots, and aliased mxm operands. Each fast path is compared
// against the generic path on identical inputs.
#include <gtest/gtest.h>

#include <random>

#include "grb/grb.hpp"

using grb::Index;
using grb::Matrix;
using grb::Vector;
using grb::no_mask;

namespace {

Vector<double> random_vec(Index n, double density, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u01(0, 1);
  std::uniform_int_distribution<int> uv(-9, 9);
  Vector<double> v(n);
  for (Index i = 0; i < n; ++i) {
    if (u01(rng) < density) v.set_element(i, uv(rng));
  }
  return v;
}

Matrix<double> random_mat(Index n, double density, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u01(0, 1);
  std::uniform_int_distribution<int> uv(1, 9);
  Matrix<double> a(n, n);
  std::vector<Index> ri, ci;
  std::vector<double> vx;
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) {
      if (u01(rng) < density) {
        ri.push_back(i);
        ci.push_back(j);
        vx.push_back(uv(rng));
      }
    }
  }
  a.build(std::span<const Index>(ri), std::span<const Index>(ci),
          std::span<const double>(vx));
  return a;
}

// Mask variants the output step distinguishes: none, valued, structural,
// each plain or complemented.
struct MaskCase {
  bool has;
  bool structural;
  bool complement;
};
constexpr MaskCase kMaskCases[] = {
    {false, false, false}, {false, false, true}, {true, false, false},
    {true, true, false},   {true, false, true},  {true, true, true}};

grb::Descriptor mask_desc(const MaskCase &mc, bool replace) {
  grb::Descriptor d;
  d.mask_structural = mc.structural;
  d.mask_complement = mc.complement;
  d.replace = replace;
  return d;
}

/// The output step with an optional mask and a (non-commutative) Minus
/// accumulator or none, on a copy of `t`.
template <typename Out, typename Mask>
void write_step(Out &out, const Out &t, const MaskCase &mc, const Mask &mask,
                bool accum, bool replace) {
  const grb::Descriptor d = mask_desc(mc, replace);
  auto run = [&](const auto &m) {
    if (accum) {
      grb::detail::write_result(out, Out(t), m, grb::Minus{}, d);
    } else {
      grb::detail::write_result(out, Out(t), m, grb::NoAccum{}, d);
    }
  };
  if (mc.has) {
    run(mask);
  } else {
    run(no_mask);
  }
}

/// Random matrix whose values above 6 are zeroed: a valued mask with holes.
Matrix<double> random_mask_mat(Index n, double density, unsigned seed) {
  auto m = random_mat(n, density, seed);
  grb::apply(m, no_mask, grb::NoAccum{},
             [](double x) { return x > 6 ? 0.0 : x; }, m);
  return m;
}

/// A full matrix with varied values.
Matrix<double> random_full_mat(Index n, unsigned seed) {
  auto f = Matrix<double>::full_matrix(n, n, 1.0);
  random_mat(n, 0.5, seed).for_each(
      [&](Index i, Index j, const double &x) { f.set_element(i, j, x); });
  return f;
}

}  // namespace

TEST(FastPath, InPlaceAccumAssignMatchesGeneral) {
  for (unsigned seed = 1; seed <= 5; ++seed) {
    auto w0 = random_vec(64, 0.6, seed);
    auto u = random_vec(64, 0.2, seed + 100);
    // fast path: w bitmap
    auto w_fast = w0;
    w_fast.to_bitmap();
    grb::assign(w_fast, no_mask, grb::Min{}, u, grb::Indices::all());
    // general path: w sparse
    auto w_gen = w0;
    w_gen.to_sparse();
    grb::assign(w_gen, no_mask, grb::Min{}, u, grb::Indices::all());
    EXPECT_EQ(w_fast, w_gen) << "seed " << seed;
  }
}

TEST(FastPath, MaskedSelfScatterMatchesGeneral) {
  // p⟨s(q)⟩ = q (the BFS parent update) where the mask IS the source.
  for (unsigned seed = 1; seed <= 5; ++seed) {
    auto p0 = random_vec(64, 0.4, seed);
    auto q = random_vec(64, 0.3, seed + 7);
    auto p_fast = p0;
    p_fast.to_bitmap();
    grb::assign(p_fast, q, grb::NoAccum{}, q, grb::Indices::all(),
                grb::desc::S);
    auto p_gen = p0;
    p_gen.to_sparse();
    grb::assign(p_gen, q, grb::NoAccum{}, q, grb::Indices::all(),
                grb::desc::S);
    EXPECT_EQ(p_fast, p_gen) << "seed " << seed;
  }
}

TEST(FastPath, MaskedScalarAssignMatchesGeneral) {
  for (unsigned seed = 1; seed <= 5; ++seed) {
    auto w0 = random_vec(64, 0.5, seed);
    auto m = random_vec(64, 0.4, seed + 9);
    for (bool structural : {true, false}) {
      grb::Descriptor d;
      d.mask_structural = structural;
      auto w_fast = w0;
      w_fast.to_bitmap();
      grb::assign(w_fast, m, grb::NoAccum{}, 5.0, grb::Indices::all(), d);
      auto w_gen = w0;
      w_gen.to_sparse();
      grb::assign(w_gen, m, grb::NoAccum{}, 5.0, grb::Indices::all(), d);
      EXPECT_EQ(w_fast, w_gen) << "seed " << seed << " s=" << structural;
    }
  }
}

TEST(FastPath, UnmaskedScalarFillOnBitmap) {
  auto w = random_vec(32, 0.5, 3);
  w.to_bitmap();
  grb::assign(w, no_mask, grb::NoAccum{}, 2.5, grb::Indices::all());
  EXPECT_EQ(w.nvals(), 32u);
  for (Index i = 0; i < 32; ++i) EXPECT_EQ(w.get(i), 2.5);
}

TEST(FastPath, EWiseIntersectionMixedFormats) {
  for (unsigned seed = 1; seed <= 5; ++seed) {
    auto u = random_vec(80, 0.1, seed);
    auto v = random_vec(80, 0.7, seed + 3);
    v.to_bitmap();
    Vector<double> w1(80);
    grb::eWiseMult(w1, no_mask, grb::NoAccum{}, grb::Times{}, u, v);
    // same with both sparse
    auto v2 = v;
    v2.to_sparse();
    Vector<double> w2(80);
    grb::eWiseMult(w2, no_mask, grb::NoAccum{}, grb::Times{}, u, v2);
    EXPECT_EQ(w1, w2);
    // and swapped operand order (bitmap first)
    Vector<double> w3(80);
    grb::eWiseMult(w3, no_mask, grb::NoAccum{}, grb::Times{}, v, u);
    v.to_sparse();
    Vector<double> w4(80);
    grb::eWiseMult(w4, no_mask, grb::NoAccum{}, grb::Times{}, v, u);
    EXPECT_EQ(w3, w4);
  }
}

TEST(FastPath, PullWithSparseProbesMatchesBitmapProbes) {
  // dot_kernel honours the bitmap-disable knob; both modes must agree.
  auto a = random_mat(48, 0.2, 11);
  auto u = random_vec(48, 0.5, 12);
  Vector<double> w_bitmap(48);
  grb::config().bitmap_switch_density = 1.0 / 16.0;
  grb::mxv(w_bitmap, no_mask, grb::NoAccum{}, grb::PlusTimes<double>{}, a, u);
  Vector<double> w_sparse(48);
  grb::config().bitmap_switch_density = 2.0;  // bitmap disabled
  grb::mxv(w_sparse, no_mask, grb::NoAccum{}, grb::PlusTimes<double>{}, a, u);
  grb::config().bitmap_switch_density = 1.0 / 16.0;
  EXPECT_EQ(w_bitmap, w_sparse);
}

TEST(FastPath, AliasedMxmOperands) {
  // C⟨s(A)⟩ = A ⊕.⊗ Aᵀ with a == b == mask (the k-truss shape) must not
  // corrupt state even when format conversions kick in.
  auto a = random_mat(24, 0.5, 21);  // dense enough to trigger bitmap paths
  Matrix<double> c1(24, 24);
  grb::mxm(c1, a, grb::NoAccum{}, grb::PlusTimes<double>{}, a, a,
           grb::Descriptor{}.T1().S());
  // reference: explicit transpose + gustavson + masked copy
  auto at = grb::transposed(a);
  Matrix<double> full(24, 24);
  grb::mxm(full, no_mask, grb::NoAccum{}, grb::PlusTimes<double>{}, a, at);
  Matrix<double> c2(24, 24);
  grb::apply(c2, a, grb::NoAccum{}, grb::Identity{}, full, grb::desc::S);
  EXPECT_EQ(c1, c2);
}

TEST(FastPath, BitmapDotMatchesMergeDot) {
  // Dense A (bitmap-probing dots) vs the same computation with A sparse.
  auto a = random_mat(32, 0.6, 31);
  auto b = random_mat(32, 0.1, 32);
  auto m = random_mat(32, 0.3, 33);
  Matrix<double> c1(32, 32);
  grb::mxm(c1, m, grb::NoAccum{}, grb::PlusTimes<double>{}, a, b,
           grb::Descriptor{}.T1().S());
  Matrix<double> c2(32, 32);
  grb::config().bitmap_switch_density = 2.0;  // force merge dots
  grb::mxm(c2, m, grb::NoAccum{}, grb::PlusTimes<double>{}, a, b,
           grb::Descriptor{}.T1().S());
  grb::config().bitmap_switch_density = 1.0 / 16.0;
  EXPECT_EQ(c1, c2);
}

TEST(FastPath, InPlaceVectorOutputStepMatchesRebuild) {
  // A bitmap or full output takes the in-place output step where it
  // applies; the same step on the output held sparse takes the rebuild.
  const Index n = 48;
  for (unsigned seed = 1; seed <= 3; ++seed) {
    auto t = random_vec(n, 0.25, seed);
    auto tb = t;
    tb.to_bitmap();
    auto m = random_vec(n, 0.4, seed + 50);  // values -9..9: some are zero
    auto mb = m;
    mb.to_bitmap();
    auto w_bitmap = random_vec(n, 0.5, seed + 20);
    w_bitmap.to_bitmap();
    for (const auto &w0 : {w_bitmap, Vector<double>::full(n, 3.0)}) {
      for (const auto *tt : {&t, &tb}) {
        for (const auto *mm : {&m, &mb}) {
          for (const auto &mc : kMaskCases) {
            for (bool accum : {false, true}) {
              for (bool replace : {false, true}) {
                auto fast = w0;
                write_step(fast, *tt, mc, *mm, accum, replace);
                auto ref = w0;
                ref.to_sparse();
                write_step(ref, *tt, mc, *mm, accum, replace);
                EXPECT_EQ(fast, ref)
                    << "seed " << seed << " full " << (w0.nvals() == n)
                    << " t_bitmap " << (tt == &tb) << " m_bitmap "
                    << (mm == &mb) << " mask " << mc.has << mc.structural
                    << mc.complement << " accum " << accum << " replace "
                    << replace;
              }
            }
          }
        }
      }
    }
  }
}

TEST(FastPath, InPlaceMatrixOutputStepMatchesRebuild) {
  const Index n = 20;
  for (unsigned seed = 1; seed <= 3; ++seed) {
    auto t = random_mat(n, 0.2, seed);
    auto tb = t;
    tb.to_bitmap();
    auto m = random_mask_mat(n, 0.4, seed + 50);
    auto mb = m;
    mb.to_bitmap();
    auto c_bitmap = random_mat(n, 0.5, seed + 20);
    c_bitmap.to_bitmap();
    for (const auto &c0 : {c_bitmap, random_full_mat(n, seed + 30)}) {
      for (const auto *tt : {&t, &tb}) {
        for (const auto *mm : {&m, &mb}) {
          for (const auto &mc : kMaskCases) {
            for (bool accum : {false, true}) {
              for (bool replace : {false, true}) {
                auto fast = c0;
                write_step(fast, *tt, mc, *mm, accum, replace);
                auto ref = c0;
                ref.to_csr();
                write_step(ref, *tt, mc, *mm, accum, replace);
                EXPECT_EQ(fast, ref)
                    << "seed " << seed << " full "
                    << (c0.format() == Matrix<double>::Format::full)
                    << " t_bitmap " << (tt == &tb) << " m_bitmap "
                    << (mm == &mb) << " mask " << mc.has << mc.structural
                    << mc.complement << " accum " << accum << " replace "
                    << replace;
              }
            }
          }
        }
      }
    }
  }
}

TEST(FastPath, MatrixIntersectionCsrProbesDense) {
  // CSR ∩ bitmap/full walks the CSR entries; Minus checks operand order.
  const Index n = 24;
  for (unsigned seed = 1; seed <= 3; ++seed) {
    auto a = random_mat(n, 0.2, seed);
    auto b = random_mat(n, 0.6, seed + 3);
    b.to_bitmap();
    for (const auto &dense : {b, random_full_mat(n, seed + 7)}) {
      auto dense_csr = dense;
      dense_csr.to_csr();
      Matrix<double> c1(n, n), c2(n, n), c3(n, n), c4(n, n);
      grb::eWiseMult(c1, no_mask, grb::NoAccum{}, grb::Minus{}, a, dense);
      grb::eWiseMult(c2, no_mask, grb::NoAccum{}, grb::Minus{}, a, dense_csr);
      EXPECT_EQ(c1, c2) << "seed " << seed;
      grb::eWiseMult(c3, no_mask, grb::NoAccum{}, grb::Minus{}, dense, a);
      grb::eWiseMult(c4, no_mask, grb::NoAccum{}, grb::Minus{}, dense_csr, a);
      EXPECT_EQ(c3, c4) << "seed " << seed;
    }
  }
}

TEST(FastPath, MatrixIntersectionAtMaskEntries) {
  // Two dense operands under a plain mask are evaluated at the mask's
  // entries only; the same op on CSR operands walks both.
  const Index n = 24;
  for (unsigned seed = 1; seed <= 3; ++seed) {
    auto u = random_mat(n, 0.7, seed);
    u.to_bitmap();
    auto v = random_full_mat(n, seed + 5);
    auto u_csr = u;
    u_csr.to_csr();
    auto v_csr = v;
    v_csr.to_csr();
    auto m = random_mask_mat(n, 0.1, seed + 9);
    auto c0 = random_mat(n, 0.3, seed + 11);
    for (bool structural : {false, true}) {
      for (bool accum : {false, true}) {
        for (bool replace : {false, true}) {
          const grb::Descriptor d =
              mask_desc({true, structural, false}, replace);
          auto fast = c0;
          auto ref = c0;
          if (accum) {
            grb::eWiseMult(fast, m, grb::Plus{}, grb::Div{}, u, v, d);
            grb::eWiseMult(ref, m, grb::Plus{}, grb::Div{}, u_csr, v_csr, d);
          } else {
            grb::eWiseMult(fast, m, grb::NoAccum{}, grb::Div{}, u, v, d);
            grb::eWiseMult(ref, m, grb::NoAccum{}, grb::Div{}, u_csr, v_csr,
                           d);
          }
          EXPECT_EQ(fast, ref) << "seed " << seed << " structural "
                               << structural << " accum " << accum
                               << " replace " << replace;
        }
      }
    }
  }
}

TEST(Kronecker, SmallProduct) {
  // A = [1 2; 3 0] (0 = no entry), B = [0 1; 1 0] pattern
  Matrix<double> a(2, 2);
  a.set_element(0, 0, 1.0);
  a.set_element(0, 1, 2.0);
  a.set_element(1, 0, 3.0);
  Matrix<double> b(2, 2);
  b.set_element(0, 1, 1.0);
  b.set_element(1, 0, 1.0);
  Matrix<double> c(4, 4);
  grb::kronecker(c, no_mask, grb::NoAccum{}, grb::Times{}, a, b);
  EXPECT_EQ(c.nvals(), 6u);
  EXPECT_EQ(c.get(0, 1), 1.0);  // a(0,0)*b(0,1)
  EXPECT_EQ(c.get(1, 0), 1.0);  // a(0,0)*b(1,0)
  EXPECT_EQ(c.get(0, 3), 2.0);  // a(0,1)*b(0,1)
  EXPECT_EQ(c.get(1, 2), 2.0);
  EXPECT_EQ(c.get(2, 1), 3.0);  // a(1,0)*b(0,1)
  EXPECT_EQ(c.get(3, 0), 3.0);
}

TEST(Kronecker, PowerGrowsKroneckerGraph) {
  // The Graph500 construction: repeated Kronecker powers of a seed graph.
  Matrix<double> seed(2, 2);
  seed.set_element(0, 0, 1.0);
  seed.set_element(0, 1, 1.0);
  seed.set_element(1, 0, 1.0);
  Matrix<double> g = seed;
  for (int k = 0; k < 3; ++k) {
    Matrix<double> next(g.nrows() * 2, g.ncols() * 2);
    grb::kronecker(next, no_mask, grb::NoAccum{}, grb::Times{}, g, seed);
    g = std::move(next);
  }
  EXPECT_EQ(g.nrows(), 16u);
  EXPECT_EQ(g.nvals(), 81u);  // 3^4
}

TEST(Kronecker, DimensionChecks) {
  Matrix<double> a(2, 2);
  Matrix<double> b(3, 3);
  Matrix<double> wrong(5, 5);
  EXPECT_THROW(grb::kronecker(wrong, no_mask, grb::NoAccum{}, grb::Times{},
                              a, b),
               grb::Exception);
}
