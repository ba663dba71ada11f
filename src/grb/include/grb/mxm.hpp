// grb/mxm.hpp — matrix-matrix multiplication.
//
// Two kernels, chosen the way SuiteSparse does for the paper's algorithms:
//   - Gustavson (saxpy) kernel for C⟨M⟩ = A ⊕.⊗ B: row-at-a-time scatter into
//     a dense workspace. Its rows come out in first-touch order, so the
//     result is "jumbled" and the sort is deferred (lazy sort, §VI-A).
//   - dot kernel for C⟨M⟩ = A ⊕.⊗ Bᵀ (transposed descriptor on B): each
//     C(i,j) is a sparse dot product of row i of A and row j of B. With a
//     non-complemented mask only the mask's entries are computed — exactly
//     the triangle-counting step C⟨s(L)⟩ = L plus.pair Uᵀ; with a
//     complemented mask all surviving (i,j) pairs are computed — the
//     "pull" step of betweenness centrality.
// mxm_reduce_scalar is the fused mxm+reduce kernel the paper's §VI-B wishes
// for ("All that GraphBLAS needs is a fused kernel that does not explicitly
// instantiate the temporary matrix C") — used by the TC fusion ablation.
#pragma once

#include <cassert>
#include <vector>

#include "grb/mask.hpp"
#include "grb/parallel.hpp"
#include "grb/plan.hpp"
#include "grb/semiring.hpp"
#include "grb/trace.hpp"
#include "grb/transpose.hpp"

namespace grb {
namespace detail {

/// Gustavson (row-wise saxpy) kernel. Output rows are independent, so rows
/// are split into contiguous chunks of ~equal *flops* (Σ over a(i,k) of
/// |B(k,:)|, the true per-row cost on power-law graphs) and each chunk
/// scatters into its own pooled workspace. Within a row the scatter order is
/// exactly the serial order, and chunks concatenate back in row order, so
/// the result is identical for any thread count.
template <typename Z, typename SR, typename TA, typename TB, typename Pred>
Matrix<Z> mxm_gustavson(SR sr, const Matrix<TA> &a, const Matrix<TB> &b,
                        Pred &&allowed) {
  const Index m = a.nrows();
  const Index n = b.ncols();
  using AddM = typename SR::add_monoid;

  // Drain deferred work before forking: for_each_in_row is read-only
  // afterwards (threading contract in matrix.hpp).
  a.finish();
  b.finish();

  // Per-row flop prefix (counted in parallel, summed serially).
  std::vector<Index> flops(static_cast<std::size_t>(m) + 1, 0);
  {
    const int cparts = effective_threads() > 1 ? effective_threads() * 4 : 1;
    for_each_chunk(partition_even(m, cparts), [&](int, Index lo, Index hi) {
      for (Index i = lo; i < hi; ++i) {
        Index fl = 1;  // bias so empty rows still cost something
        a.for_each_in_row(
            i, [&](Index k, const TA &) { fl += b.row_nvals(k); });
        flops[i + 1] = fl;
      }
    });
    for (Index i = 0; i < m; ++i) flops[i + 1] += flops[i];
  }

  const int P = plan::team_size(flops[m]);
  std::vector<Index> bounds =
      partition_rows_by_work(std::span<const Index>(flops), P);
  const int nchunks = static_cast<int>(bounds.size()) - 1;

  std::vector<std::vector<Index>> crlen(static_cast<std::size_t>(nchunks));
  std::vector<std::vector<Index>> cci(static_cast<std::size_t>(nchunks));
  std::vector<std::vector<Z>> ccv(static_cast<std::size_t>(nchunks));

  for_each_chunk(bounds, [&](int c, Index lo, Index hi) {
    auto &pool = WorkspacePool<Z>::instance();
    SaxpyWorkspace<Z> ws = pool.acquire(n);
    auto &rlen = crlen[c];
    auto &ci = cci[c];
    auto &cv = ccv[c];
    rlen.reserve(static_cast<std::size_t>(hi - lo));
    for (Index i = lo; i < hi; ++i) {
      ws.touched.clear();
      a.for_each_in_row(i, [&](Index k, const TA &aik) {
        b.for_each_in_row(k, [&](Index j, const TB &bkj) {
          if (!allowed(i, j)) return;
          if (ws.mark[j]) {
            if constexpr (AddM::has_terminal) {
              if (AddM::is_terminal(ws.work[j])) return;
            }
            ws.work[j] = sr.add(ws.work[j], sr.multiply(aik, bkj, i, k, j));
          } else {
            ws.mark[j] = 1;
            ws.work[j] = sr.multiply(aik, bkj, i, k, j);
            ws.touched.push_back(j);
          }
        });
      });
      for (Index j : ws.touched) {
        ci.push_back(j);
        cv.push_back(ws.work[j]);
        ws.mark[j] = 0;
      }
      rlen.push_back(static_cast<Index>(ws.touched.size()));
    }
    ws.touched.clear();
    pool.release(std::move(ws));
  });

  // Stitch per-chunk row lengths into the row pointer (row i spans
  // [rp[i], rp[i+1])) and concatenate the chunk buffers in row order.
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
  Matrix<Z> t(m, n);
  // First-touch order is not column order: the result is jumbled and the
  // sort is left pending (Matrix::adopt_csr sorts eagerly if lazy sort is
  // disabled in Config).
  t.adopt_csr(std::move(rp), std::move(ci), std::move(cv), /*jumbled=*/true);
  return t;
}

/// Sorted-sparse-row dot product: ⊕_k combine(a(i,k), b(j,k)). Generic over
/// the two operands' index widths (IA/IB may differ — a u32 snapshot can
/// multiply against a freshly-adopted u64 intermediate); the comparisons
/// promote to 64-bit, so the merge walk is width-agnostic.
template <typename Z, typename SR, typename IA, typename IB, typename TA,
          typename TB>
bool row_dot(SR sr, std::span<const IA> acol, std::span<const TA> aval,
             std::span<const IB> bcol, std::span<const TB> bval, Index i,
             Index j, Z &out) {
  using AddM = typename SR::add_monoid;
  std::size_t p = 0;
  std::size_t q = 0;
  bool found = false;
  Z acc{};
  while (p < acol.size() && q < bcol.size()) {
    if (acol[p] < bcol[q]) {
      ++p;
    } else if (bcol[q] < acol[p]) {
      ++q;
    } else {
      Z prod = sr.multiply(aval[p], bval[q], i, acol[p], j);
      if (!found) {
        found = true;
        acc = prod;
      } else {
        acc = sr.add(acc, prod);
      }
      if constexpr (AddM::has_terminal) {
        if (AddM::is_terminal(acc)) break;
      }
      ++p;
      ++q;
    }
  }
  if (found) out = acc;
  return found;
}

/// Dot kernel for C = A ⊕.⊗ Bᵀ: candidate (i,j) pairs come from the mask
/// (non-complemented) or from the full cross product filtered by the mask.
template <typename Z, typename SR, typename TA, typename TB, typename MaskT>
Matrix<Z> mxm_dot(SR sr, const Matrix<TA> &a, const Matrix<TB> &b,
                  const MaskT &mask, const Descriptor &d,
                  const plan::ExecPlan &pl) {
  const Index m = a.nrows();
  const Index n = b.nrows();  // logical Bᵀ has b.nrows() columns
  using AddM = typename SR::add_monoid;

  // The first operand's format is a plan decision (bitmap reduces each dot
  // to O(|B row|) probes — the §VI-A effect — unless A and B alias and must
  // share one format). The entry point already converted both operands per
  // the plan; this kernel only asserts what it was promised.
  const bool a_bitmap = pl.a_format == plan::MatFormat::bitmap;
  assert(a.format() == (a_bitmap ? Matrix<TA>::Format::bitmap
                                 : Matrix<TA>::Format::csr));
  assert(b.format() == Matrix<TB>::Format::csr);
  const std::uint8_t *apres = a_bitmap ? a.bitmap_present() : nullptr;
  const TA *avals = a_bitmap ? a.dense_values() : nullptr;

  // Each output row is independent: rows fill their own buffer in parallel
  // and are concatenated into CSR afterwards.
  std::vector<std::vector<std::pair<Index, Z>>> rows(
      static_cast<std::size_t>(m));

  // One nested width dispatch per call: the merge walks below run on
  // monomorphic typed spans (A and B may carry different widths — row_dot
  // promotes per element).
  dispatch_width(a_bitmap ? b.index_width() : a.index_width(), [&](auto atag) {
    using IA = decltype(atag);
    dispatch_width(b.index_width(), [&](auto btag) {
      using IB = decltype(btag);
      auto arp = a_bitmap ? std::span<const IA>{} : a.rowptr().template as<IA>();
      auto acx = a_bitmap ? std::span<const IA>{} : a.colidx().template as<IA>();
      auto avx = a_bitmap ? std::span<const TA>{} : a.values();
      auto brp = b.rowptr().template as<IB>();
      auto bcx = b.colidx().template as<IB>();
      auto bvx = b.values();
      auto arow_c = [&](Index i) {
        return acx.subspan(arp[i], arp[i + 1] - arp[i]);
      };
      auto arow_v = [&](Index i) {
        return avx.subspan(arp[i], arp[i + 1] - arp[i]);
      };
      auto brow_c = [&](Index j) {
        return bcx.subspan(brp[j], brp[j + 1] - brp[j]);
      };
      auto brow_v = [&](Index j) {
        return bvx.subspan(brp[j], brp[j + 1] - brp[j]);
      };

      auto try_pair = [&](std::vector<std::pair<Index, Z>> &rowbuf, Index i,
                          Index j) {
        Z out{};
        bool found = false;
        if (a_bitmap) {
          const std::size_t base = static_cast<std::size_t>(i) * a.ncols();
          auto bc = brow_c(j);
          auto bv = brow_v(j);
          Z acc{};
          for (std::size_t p = 0; p < bc.size(); ++p) {
            const Index k = bc[p];
            if (!apres[base + k]) continue;
            Z prod = sr.multiply(avals[base + k], bv[p], i, k, j);
            if (!found) {
              found = true;
              acc = prod;
            } else {
              acc = sr.add(acc, prod);
            }
            if constexpr (AddM::has_terminal) {
              if (AddM::is_terminal(acc)) break;
            }
          }
          out = acc;
        } else {
          found = row_dot<Z>(sr, arow_c(i), arow_v(i), brow_c(j), brow_v(j), i,
                             j, out);
        }
        if (found) rowbuf.emplace_back(j, out);
      };

      bool masked_candidates = false;
      if constexpr (has_mask_v<MaskT>) {
        masked_candidates = !d.mask_complement;
        // Complete any deferred work before the parallel region: probing a
        // jumbled/pending mask would otherwise race on its lazy mutation.
        mask.wait();
      }
      const int nparts =
          effective_threads() > 1 ? effective_threads() * 4 : 1;
      if (masked_candidates) {
        if constexpr (has_mask_v<MaskT>) {
          // Candidates are exactly the mask's entries (row-major sorted). Rows
          // are chunked by mask nnz — for triangle counting the mask is L
          // itself, so this is exactly the nnz balance the hub rows need.
          mask.ensure_sorted();
          mask.finish();
          std::vector<Index> bounds =
              (nparts > 1 && mask.nvals() >= kParallelGrain)
                  ? partition_rows_by_work(
                        m, nparts,
                        [&](Index i) { return mask.row_nvals(i) + 1; })
                  : partition_even(m, 1);
          for_each_chunk(bounds, [&](int, Index lo, Index hi) {
            for (Index i = lo; i < hi; ++i) {
              mask.for_each_in_row(i, [&](Index j, const auto &mv) {
                if (!d.mask_structural && mv == 0) return;
                try_pair(rows[i], i, j);
              });
            }
          });
        }
      } else {
        // Complemented mask (or none): all surviving pairs — the bottom-up
        // shape. Every row probes all n candidates, but the dot cost still
        // scales with |A(i,:)|, so balance on that when A is sparse.
        std::vector<Index> bounds;
        if (nparts > 1 && m >= 2) {
          if (!a_bitmap) {
            bounds = partition_rows_by_work(m, nparts, [&](Index i) {
              return static_cast<Index>(arp[i + 1] - arp[i]) + n / 16 + 1;
            });
          } else {
            bounds = partition_even(m, nparts);
          }
        } else {
          bounds = partition_even(m, 1);
        }
        for_each_chunk(bounds, [&](int, Index lo, Index hi) {
          for (Index i = lo; i < hi; ++i) {
            for (Index j = 0; j < n; ++j) {
              if (!mmask_test(mask, i, j, d)) continue;
              try_pair(rows[i], i, j);
            }
          }
        });
      }
    });
  });

  std::vector<Index> rp(static_cast<std::size_t>(m) + 1, 0);
  std::vector<Index> ci;
  std::vector<Z> cv;
  for (Index i = 0; i < m; ++i) {
    for (const auto &[j, x] : rows[i]) {
      ci.push_back(j);
      cv.push_back(x);
    }
    rp[i + 1] = static_cast<Index>(ci.size());
  }
  Matrix<Z> t(m, n);
  t.adopt_csr(std::move(rp), std::move(ci), std::move(cv), false);
  return t;
}

}  // namespace detail

/// C⟨M⟩ ⊙= A ⊕.⊗ B (with optional transposed inputs via the descriptor).
template <typename W, typename MaskT, typename Accum, typename SR, typename TA,
          typename TB>
void mxm(Matrix<W> &c, const MaskT &mask, Accum accum, SR sr,
         const Matrix<TA> &a, const Matrix<TB> &b,
         const Descriptor &d = desc::DEFAULT) {
  using Z = typename SR::value_type;
  if (d.transpose_a) {
    Matrix<TA> at = transposed(a);
    Descriptor d2 = d;
    d2.transpose_a = false;
    mxm(c, mask, accum, sr, at, b, d2);
    return;
  }
  trace::ScopedSpan sp(trace::SpanKind::mxm);
  sp.set_in_nvals(static_cast<std::uint64_t>(a.nvals()) + b.nvals());
  const Index inner = d.transpose_b ? b.ncols() : b.nrows();
  const Index n = d.transpose_b ? b.nrows() : b.ncols();
  detail::check_same_size(a.ncols(), inner, "mxm: inner dimension mismatch");
  detail::check_same_size(c.nrows(), a.nrows(), "mxm: output row mismatch");
  detail::check_same_size(c.ncols(), n, "mxm: output column mismatch");
  detail::check_matrix_mask(mask, c.nrows(), c.ncols());

  // Describe the op and plan kernel + operand formats: dot vs Gustavson,
  // bitmap vs CSR first operand, and whether the mask is worth a bitmap
  // conversion for O(1) probes (the BC mask ¬s(P) grows dense as the
  // traversal proceeds).
  plan::OpDesc od;
  od.op = plan::OpKind::mxm;
  od.a_rows = a.nrows();
  od.a_cols = a.ncols();
  od.a_nvals = a.nvals();
  od.b_nvals = b.nvals();
  od.a_width = a.index_width();
  od.b_width = b.index_width();
  od.transpose_b = d.transpose_b;
  od.has_terminal = SR::add_monoid::has_terminal;
  if constexpr (has_mask_v<MaskT>) {
    od.masked = true;
    od.mask_nvals = mask.nvals();
    od.mask_complement = d.mask_complement;
    od.mask_structural = d.mask_structural;
  }
  if constexpr (std::is_same_v<TA, TB>) {
    od.operands_aliased =
        static_cast<const void *>(&a) == static_cast<const void *>(&b);
  }
  const auto pl = plan::make_plan(od);
  sp.set_plan(pl);

  // Apply the planned mask conversion, then drain the mask's deferred work:
  // the kernels probe it from inside parallel regions, where a lazy sort
  // would be a race.
  if constexpr (has_mask_v<MaskT>) {
    plan::prepare(mask, pl.mask_format);
    mask.wait();
  }

  Matrix<Z> t(0, 0);
  if (d.transpose_b) {
    if constexpr (has_mask_v<MaskT>) {
      // Prepare both operands per the plan; the dot kernel asserts this.
      if (pl.a_format == plan::MatFormat::bitmap) {
        plan::prepare(a, plan::MatFormat::bitmap);
      } else {
        a.ensure_sorted();
        plan::prepare(a, plan::MatFormat::csr);
      }
      b.ensure_sorted();
      plan::prepare(b, pl.b_format);
      t = detail::mxm_dot<Z>(sr, a, b, mask, d, pl);
    } else {
      // No mask: materializing Bᵀ and running Gustavson beats n² dots.
      Matrix<TB> bt = transposed(b);
      t = detail::mxm_gustavson<Z>(sr, a, bt,
                                   [](Index, Index) { return true; });
    }
  } else {
    t = detail::mxm_gustavson<Z>(sr, a, b, [&](Index i, Index j) {
      return detail::mmask_test(mask, i, j, d);
    });
  }
  sp.set_out_nvals(t.nvals());
  detail::write_result(c, std::move(t), mask, accum, d, /*t_is_masked=*/true);
}

/// Fused C⟨M⟩ = A ⊕.⊗ Bᵀ followed by reduce(C) to a scalar, without
/// materializing C (§VI-B's missing fused kernel for triangle counting).
template <typename S, typename ReduceMonoid, typename MaskT, typename SR,
          typename TA, typename TB>
S mxm_reduce_scalar(ReduceMonoid rm, const MaskT &mask, SR sr,
                    const Matrix<TA> &a, const Matrix<TB> &b,
                    const Descriptor &d = desc::DEFAULT) {
  using Z = typename SR::value_type;
  detail::require(d.transpose_b, Info::not_implemented,
                  "mxm_reduce_scalar: only the dot (transposed B) form");
  trace::ScopedSpan sp(trace::SpanKind::mxm_reduce);
  sp.set_in_nvals(static_cast<std::uint64_t>(a.nvals()) + b.nvals());
  // Both operands walk rows via rowptr(); route the CSR materialization
  // through the planner so a bitmap operand's conversion is counted.
  plan::OpDesc od;
  od.op = plan::OpKind::mxm;
  od.a_rows = a.nrows();
  od.a_cols = a.ncols();
  od.a_nvals = a.nvals();
  od.b_nvals = b.nvals();
  od.a_width = a.index_width();
  od.b_width = b.index_width();
  od.transpose_b = true;
  if constexpr (has_mask_v<MaskT>) {
    od.masked = true;
    od.mask_nvals = mask.nvals();
    od.mask_complement = d.mask_complement;
    od.mask_structural = d.mask_structural;
  }
  if constexpr (std::is_same_v<TA, TB>) {
    od.operands_aliased =
        static_cast<const void *>(&a) == static_cast<const void *>(&b);
  }
  sp.set_plan(plan::make_plan(od));
  a.ensure_sorted();
  b.ensure_sorted();
  plan::prepare(a, plan::MatFormat::csr);
  plan::prepare(b, plan::MatFormat::csr);
  S total = static_cast<S>(ReduceMonoid::identity());
  // One nested width dispatch; the dot walks below run on typed spans.
  detail::dispatch_width(a.index_width(), [&](auto atag) {
    using IA = decltype(atag);
    detail::dispatch_width(b.index_width(), [&](auto btag) {
      using IB = decltype(btag);
      auto arp = a.rowptr().template as<IA>();
      auto acx = a.colidx().template as<IA>();
      auto avx = a.values();
      auto brp = b.rowptr().template as<IB>();
      auto bcx = b.colidx().template as<IB>();
      auto bvx = b.values();
      auto do_pair = [&](Index i, Index j) {
        Z out{};
        if (detail::row_dot<Z>(sr, acx.subspan(arp[i], arp[i + 1] - arp[i]),
                               avx.subspan(arp[i], arp[i + 1] - arp[i]),
                               bcx.subspan(brp[j], brp[j + 1] - brp[j]),
                               bvx.subspan(brp[j], brp[j + 1] - brp[j]), i, j,
                               out)) {
          total = static_cast<S>(rm(total, static_cast<S>(out)));
        }
      };
      if constexpr (has_mask_v<MaskT>) {
        if (!d.mask_complement) {
          mask.ensure_sorted();
          for (Index i = 0; i < a.nrows(); ++i) {
            mask.for_each_in_row(i, [&](Index j, const auto &mv) {
              if (!d.mask_structural && mv == 0) return;
              do_pair(i, j);
            });
          }
          return;
        }
      }
      for (Index i = 0; i < a.nrows(); ++i) {
        for (Index j = 0; j < b.nrows(); ++j) {
          if (!detail::mmask_test(mask, i, j, d)) continue;
          do_pair(i, j);
        }
      }
    });
  });
  return total;
}

}  // namespace grb
