// grb/ewise.hpp — element-wise addition (set union) and multiplication
// (set intersection) for vectors and matrices (paper §III-B b,c).
//
// "Addition" and "multiplication" refer to the structure of the result, not
// the operator: any binary op may be used. eWiseAdd applies op on the union
// of the input structures (entries present in only one input pass through
// unchanged); eWiseMult applies op on the intersection.
//
// All paths are parallel (grb/parallel.hpp): the index space is split into
// contiguous chunks, each chunk emits into its own buffer, and buffers
// concatenate in chunk order — position-wise ops have no cross-chunk state,
// so the result is identical to the serial walk for any thread count.
#pragma once

#include <algorithm>
#include <vector>

#include "grb/mask.hpp"
#include "grb/parallel.hpp"
#include "grb/plan.hpp"
#include "grb/trace.hpp"

namespace grb {
namespace detail {

template <typename Z, typename Op, typename U, typename V, bool UnionMode>
Vector<Z> ewise_vec(Op op, const Vector<U> &u, const Vector<V> &v) {
  check_same_size(u.size(), v.size(), "eWise: dimension mismatch");
  const Index n = u.size();
  trace::ScopedSpan sp(UnionMode ? trace::SpanKind::ewise_add
                                 : trace::SpanKind::ewise_mult);
  sp.set_in_nvals(static_cast<std::uint64_t>(u.nvals()) + v.nvals());
  std::vector<Index> idx;
  std::vector<Z> val;

  // Plan operand formats: union promotes mixed inputs to bitmap for the
  // dense walk, intersection keeps them mixed so the sparse side can probe
  // the bitmap side; Config::force_format overrides both ways.
  plan::OpDesc od;
  od.op = UnionMode ? plan::OpKind::ewise_add : plan::OpKind::ewise_mult;
  od.out_size = n;
  od.u_nvals = u.nvals();
  od.v_nvals = v.nvals();
  od.u_format = u.format() == Vector<U>::Format::bitmap ? 1 : 0;
  od.v_format = v.format() == Vector<V>::Format::bitmap ? 1 : 0;
  const auto pl = plan::make_plan(od);
  sp.set_plan(pl);
  plan::prepare(u, pl.u_format);
  plan::prepare(v, pl.v_format);

  const bool dense_walk = u.format() == Vector<U>::Format::bitmap ||
                          v.format() == Vector<V>::Format::bitmap;
  auto combine = [&](std::vector<Index> &oi, std::vector<Z> &ov, Index i,
                     const U *x, const V *y) {
    if (x != nullptr && y != nullptr) {
      oi.push_back(i);
      ov.push_back(static_cast<Z>(op(static_cast<Z>(*x), static_cast<Z>(*y))));
    } else if constexpr (UnionMode) {
      if (x != nullptr) {
        oi.push_back(i);
        ov.push_back(static_cast<Z>(*x));
      } else if (y != nullptr) {
        oi.push_back(i);
        ov.push_back(static_cast<Z>(*y));
      }
    }
  };

  // Chunked emit: run `body(chunk, lo, hi, oi, ov)` over an even split of
  // [0, limit) and concatenate the per-chunk buffers in order.
  auto run_chunked = [&](Index limit, Index work, auto &&body) {
    const int parts = plan::chunk_parts(work, 2);
    auto bounds = partition_even(limit, parts);
    const int nchunks = static_cast<int>(bounds.size()) - 1;
    if (nchunks <= 1) {
      body(bounds[0], bounds.back(), idx, val);
      return;
    }
    std::vector<std::vector<Index>> cidx(static_cast<std::size_t>(nchunks));
    std::vector<std::vector<Z>> cval(static_cast<std::size_t>(nchunks));
    for_each_chunk(bounds, [&](int c, Index lo, Index hi) {
      body(lo, hi, cidx[c], cval[c]);
    });
    concat_chunks(cidx, cval, idx, val);
  };

  if constexpr (!UnionMode) {
    // Intersection with one sparse and one bitmap side: walk the sparse
    // entries and probe the bitmap — O(nnz(sparse)), not O(n).
    const bool u_sparse = u.format() == Vector<U>::Format::sparse;
    const bool v_sparse = v.format() == Vector<V>::Format::sparse;
    if (u_sparse != v_sparse) {
      if (u_sparse) {
        const std::uint8_t *vp = v.bitmap_present();
        const V *vv = v.bitmap_values();
        auto ui = u.sparse_indices();
        auto uv = u.sparse_values();
        run_chunked(static_cast<Index>(ui.size()),
                    static_cast<Index>(ui.size()),
                    [&](Index lo, Index hi, std::vector<Index> &oi,
                        std::vector<Z> &ov) {
                      for (Index p = lo; p < hi; ++p) {
                        const Index i = ui[p];
                        if (vp[i]) combine(oi, ov, i, &uv[p], &vv[i]);
                      }
                    });
      } else {
        const std::uint8_t *up = u.bitmap_present();
        const U *uv = u.bitmap_values();
        auto vi = v.sparse_indices();
        auto vv = v.sparse_values();
        run_chunked(static_cast<Index>(vi.size()),
                    static_cast<Index>(vi.size()),
                    [&](Index lo, Index hi, std::vector<Index> &oi,
                        std::vector<Z> &ov) {
                      for (Index q = lo; q < hi; ++q) {
                        const Index i = vi[q];
                        if (up[i]) combine(oi, ov, i, &uv[i], &vv[q]);
                      }
                    });
      }
      Vector<Z> t0(n);
      t0.adopt_sparse(std::move(idx), std::move(val));
      sp.set_out_nvals(t0.nvals());
      return t0;
    }
  }
  if (dense_walk) {
    // Hot path (e.g. SSSP's t = min∪(t, tReq) every relaxation round): walk
    // the raw bitmap arrays rather than paying a bounds-checked get() per
    // position. The planner already promoted both sides to bitmap — the
    // mixed intersection case returned above.
    const std::uint8_t *up = u.bitmap_present();
    const U *uv = u.bitmap_values();
    const std::uint8_t *vp = v.bitmap_present();
    const V *vv = v.bitmap_values();
    run_chunked(n, n,
                [&](Index lo, Index hi, std::vector<Index> &oi,
                    std::vector<Z> &ov) {
                  for (Index i = lo; i < hi; ++i) {
                    const bool hu = up[i] != 0;
                    const bool hv = vp[i] != 0;
                    if (!hu && !hv) continue;
                    combine(oi, ov, i, hu ? &uv[i] : nullptr,
                            hv ? &vv[i] : nullptr);
                  }
                });
  } else {
    // Sorted sparse-sparse merge, split by *position* ranges of [0, n):
    // each chunk merges the sub-ranges of u and v that fall in [lo, hi),
    // located with a binary search — no cross-chunk state.
    auto ui = u.sparse_indices();
    auto uv = u.sparse_values();
    auto vi = v.sparse_indices();
    auto vv = v.sparse_values();
    run_chunked(
        n, static_cast<Index>(ui.size() + vi.size()),
        [&](Index lo, Index hi, std::vector<Index> &oi, std::vector<Z> &ov) {
          std::size_t p = static_cast<std::size_t>(
              std::lower_bound(ui.begin(), ui.end(), lo) - ui.begin());
          std::size_t q = static_cast<std::size_t>(
              std::lower_bound(vi.begin(), vi.end(), lo) - vi.begin());
          const std::size_t pe = static_cast<std::size_t>(
              std::lower_bound(ui.begin(), ui.end(), hi) - ui.begin());
          const std::size_t qe = static_cast<std::size_t>(
              std::lower_bound(vi.begin(), vi.end(), hi) - vi.begin());
          while (p < pe || q < qe) {
            if (q >= qe || (p < pe && ui[p] < vi[q])) {
              combine(oi, ov, ui[p], &uv[p], nullptr);
              ++p;
            } else if (p >= pe || vi[q] < ui[p]) {
              combine(oi, ov, vi[q], nullptr, &vv[q]);
              ++q;
            } else {
              combine(oi, ov, ui[p], &uv[p], &vv[q]);
              ++p;
              ++q;
            }
          }
        });
  }
  Vector<Z> t(n);
  t.adopt_sparse(std::move(idx), std::move(val));
  sp.set_out_nvals(t.nvals());
  return t;
}

template <typename Z, typename Op, typename U, typename V, bool UnionMode>
Matrix<Z> ewise_mat(Op op, const Matrix<U> &u, const Matrix<V> &v) {
  check_same_size(u.nrows(), v.nrows(), "eWise: row dimension mismatch");
  check_same_size(u.ncols(), v.ncols(), "eWise: column dimension mismatch");
  trace::ScopedSpan sp(UnionMode ? trace::SpanKind::ewise_add
                                 : trace::SpanKind::ewise_mult);
  sp.set_in_nvals(static_cast<std::uint64_t>(u.nvals()) + v.nvals());
  const Index m = u.nrows();
  u.ensure_sorted();
  v.ensure_sorted();

  // Rows are independent merges: chunk them by combined nnz, emit into
  // per-chunk buffers, stitch the row pointer from per-chunk row lengths.
  // Matrix operands are walked via for_each_in_row in whatever format they
  // hold; the plan only sizes the thread team (u_format = -1 sentinel).
  // An intersection of a CSR operand with a bitmap/full one walks the CSR
  // entries and probes the dense side — O(nnz(CSR)), as in ewise_vec.
  const bool u_csr = u.format() == Matrix<U>::Format::csr;
  const bool v_csr = v.format() == Matrix<V>::Format::csr;
  const bool probe_dense = !UnionMode && u_csr != v_csr;
  auto row_work = [&](Index i) -> Index {
    if (probe_dense) return (u_csr ? u.row_nvals(i) : v.row_nvals(i)) + 1;
    return u.row_nvals(i) + v.row_nvals(i) + 1;
  };
  plan::OpDesc od;
  od.op = UnionMode ? plan::OpKind::ewise_add : plan::OpKind::ewise_mult;
  od.a_rows = m;
  od.a_cols = u.ncols();
  od.u_nvals = u.nvals();
  od.v_nvals = v.nvals();
  sp.set_plan(plan::make_plan(od));
  const Index total = probe_dense ? (u_csr ? u.nvals() : v.nvals())
                                  : u.nvals() + v.nvals();
  const int parts = plan::chunk_parts(total, 2);
  std::vector<Index> bounds = parts > 1
                                  ? partition_rows_by_work(m, parts, row_work)
                                  : partition_even(m, 1);
  const int nchunks = static_cast<int>(bounds.size()) - 1;
  std::vector<std::vector<Index>> crlen(static_cast<std::size_t>(nchunks));
  std::vector<std::vector<Index>> cci(static_cast<std::size_t>(nchunks));
  std::vector<std::vector<Z>> ccv(static_cast<std::size_t>(nchunks));

  for_each_chunk(bounds, [&](int c, Index lo, Index hi) {
    auto &rlen = crlen[c];
    auto &ci = cci[c];
    auto &cv = ccv[c];
    rlen.reserve(static_cast<std::size_t>(hi - lo));
    std::vector<std::pair<Index, U>> urow;
    std::vector<std::pair<Index, V>> vrow;
    for (Index i = lo; i < hi; ++i) {
      if (probe_dense) {
        const std::size_t base = static_cast<std::size_t>(i) * u.ncols();
        const std::size_t before = ci.size();
        if (u_csr) {
          const std::uint8_t *vp =
              v.format() == Matrix<V>::Format::full ? nullptr
                                                    : v.bitmap_present();
          const V *vv = v.dense_values();
          u.for_each_in_row(i, [&](Index j, const U &x) {
            if (vp != nullptr && !vp[base + j]) return;
            ci.push_back(j);
            cv.push_back(static_cast<Z>(
                op(static_cast<Z>(x), static_cast<Z>(vv[base + j]))));
          });
        } else {
          const std::uint8_t *up =
              u.format() == Matrix<U>::Format::full ? nullptr
                                                    : u.bitmap_present();
          const U *uv = u.dense_values();
          v.for_each_in_row(i, [&](Index j, const V &y) {
            if (up != nullptr && !up[base + j]) return;
            ci.push_back(j);
            cv.push_back(static_cast<Z>(
                op(static_cast<Z>(uv[base + j]), static_cast<Z>(y))));
          });
        }
        rlen.push_back(static_cast<Index>(ci.size() - before));
        continue;
      }
      urow.clear();
      vrow.clear();
      u.for_each_in_row(i,
                        [&](Index j, const U &x) { urow.emplace_back(j, x); });
      v.for_each_in_row(i,
                        [&](Index j, const V &x) { vrow.emplace_back(j, x); });
      const std::size_t before = ci.size();
      std::size_t p = 0;
      std::size_t q = 0;
      auto emit = [&](Index j, const Z &x) {
        ci.push_back(j);
        cv.push_back(x);
      };
      while (p < urow.size() || q < vrow.size()) {
        if (q >= vrow.size() ||
            (p < urow.size() && urow[p].first < vrow[q].first)) {
          if constexpr (UnionMode) {
            emit(urow[p].first, static_cast<Z>(urow[p].second));
          }
          ++p;
        } else if (p >= urow.size() || vrow[q].first < urow[p].first) {
          if constexpr (UnionMode) {
            emit(vrow[q].first, static_cast<Z>(vrow[q].second));
          }
          ++q;
        } else {
          emit(urow[p].first,
               static_cast<Z>(op(static_cast<Z>(urow[p].second),
                                 static_cast<Z>(vrow[q].second))));
          ++p;
          ++q;
        }
      }
      rlen.push_back(static_cast<Index>(ci.size() - before));
    }
  });

  std::vector<Index> rp(static_cast<std::size_t>(m) + 1, 0);
  {
    Index at = 0;
    Index i = 0;
    for (int c = 0; c < nchunks; ++c) {
      for (Index len : crlen[c]) {
        rp[i] = at;
        at += len;
        ++i;
      }
    }
    rp[m] = at;
  }
  std::vector<Index> ci;
  std::vector<Z> cv;
  concat_chunks(cci, ccv, ci, cv);
  Matrix<Z> t(m, u.ncols());
  t.adopt_csr(std::move(rp), std::move(ci), std::move(cv), false);
  sp.set_out_nvals(t.nvals());
  return t;
}

/// Intersection of two bitmap/full operands evaluated only at the entries
/// of a plain (non-complemented) mask: one O(1) probe of each operand per
/// mask entry, instead of a walk over all m·n cells. The result is already
/// restricted to the mask.
template <typename Z, typename Op, typename U, typename V, typename MaskT>
Matrix<Z> ewise_mult_at_mask(Op op, const Matrix<U> &u, const Matrix<V> &v,
                             const MaskT &mask, const Descriptor &d) {
  check_same_size(u.nrows(), v.nrows(), "eWise: row dimension mismatch");
  check_same_size(u.ncols(), v.ncols(), "eWise: column dimension mismatch");
  check_matrix_mask(mask, u.nrows(), u.ncols());
  trace::ScopedSpan sp(trace::SpanKind::ewise_mult);
  sp.set_in_nvals(mask.nvals());
  const Index m = u.nrows();
  const Index n = u.ncols();
  const std::uint8_t *up =
      u.format() == Matrix<U>::Format::full ? nullptr : u.bitmap_present();
  const std::uint8_t *vp =
      v.format() == Matrix<V>::Format::full ? nullptr : v.bitmap_present();
  const U *uv = u.dense_values();
  const V *vv = v.dense_values();
  mask.ensure_sorted();
  std::vector<Index> rp(static_cast<std::size_t>(m) + 1, 0);
  std::vector<Index> ci;
  std::vector<Z> cv;
  for (Index i = 0; i < m; ++i) {
    mask.for_each_in_row(i, [&](Index j, const auto &mv) {
      if (!d.mask_structural && mv == 0) return;
      const std::size_t p = static_cast<std::size_t>(i) * n + j;
      if ((up != nullptr && !up[p]) || (vp != nullptr && !vp[p])) return;
      ci.push_back(j);
      cv.push_back(
          static_cast<Z>(op(static_cast<Z>(uv[p]), static_cast<Z>(vv[p]))));
    });
    rp[i + 1] = static_cast<Index>(ci.size());
  }
  Matrix<Z> t(m, n);
  t.adopt_csr(std::move(rp), std::move(ci), std::move(cv), false);
  sp.set_out_nvals(t.nvals());
  return t;
}

}  // namespace detail

/// w⟨m⟩ ⊙= u op∪ v
template <typename W, typename MaskT, typename Accum, typename Op, typename U,
          typename V>
void eWiseAdd(Vector<W> &w, const MaskT &mask, Accum accum, Op op,
              const Vector<U> &u, const Vector<V> &v,
              const Descriptor &d = desc::DEFAULT) {
  detail::check_same_size(w.size(), u.size(), "eWiseAdd: output size mismatch");
  auto t = detail::ewise_vec<W, Op, U, V, true>(op, u, v);
  detail::write_result(w, std::move(t), mask, accum, d);
}

/// w⟨m⟩ ⊙= u op∩ v
template <typename W, typename MaskT, typename Accum, typename Op, typename U,
          typename V>
void eWiseMult(Vector<W> &w, const MaskT &mask, Accum accum, Op op,
               const Vector<U> &u, const Vector<V> &v,
               const Descriptor &d = desc::DEFAULT) {
  detail::check_same_size(w.size(), u.size(), "eWiseMult: output size mismatch");
  auto t = detail::ewise_vec<W, Op, U, V, false>(op, u, v);
  detail::write_result(w, std::move(t), mask, accum, d);
}

/// C⟨M⟩ ⊙= A op∪ B
template <typename W, typename MaskT, typename Accum, typename Op, typename U,
          typename V>
void eWiseAdd(Matrix<W> &c, const MaskT &mask, Accum accum, Op op,
              const Matrix<U> &a, const Matrix<V> &b,
              const Descriptor &d = desc::DEFAULT) {
  detail::check_same_size(c.nrows(), a.nrows(), "eWiseAdd: output shape");
  detail::check_same_size(c.ncols(), a.ncols(), "eWiseAdd: output shape");
  auto t = detail::ewise_mat<W, Op, U, V, true>(op, a, b);
  detail::write_result(c, std::move(t), mask, accum, d);
}

/// C⟨M⟩ ⊙= A op∩ B
template <typename W, typename MaskT, typename Accum, typename Op, typename U,
          typename V>
void eWiseMult(Matrix<W> &c, const MaskT &mask, Accum accum, Op op,
               const Matrix<U> &a, const Matrix<V> &b,
               const Descriptor &d = desc::DEFAULT) {
  detail::check_same_size(c.nrows(), a.nrows(), "eWiseMult: output shape");
  detail::check_same_size(c.ncols(), a.ncols(), "eWiseMult: output shape");
  if constexpr (has_mask_v<MaskT>) {
    // Both operands dense: a plain mask's entries are the only cells worth
    // visiting (BC's W⟨s(S[d])⟩ = bc_update ÷ P).
    if (!d.mask_complement && a.format() != Matrix<U>::Format::csr &&
        b.format() != Matrix<V>::Format::csr) {
      auto t = detail::ewise_mult_at_mask<W>(op, a, b, mask, d);
      detail::write_result(c, std::move(t), mask, accum, d,
                           /*t_is_masked=*/true);
      return;
    }
  }
  auto t = detail::ewise_mat<W, Op, U, V, false>(op, a, b);
  detail::write_result(c, std::move(t), mask, accum, d);
}

}  // namespace grb
