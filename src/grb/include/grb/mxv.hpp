// grb/mxv.hpp — matrix-vector and vector-matrix multiplication.
//
// These two operations are the push/pull pair of the paper (§IV-A):
//   - vxm (w = uᵀ ⊕.⊗ A) iterates the entries of u and scatters along the
//     rows of A — a "push" step, cheap when the frontier u is small;
//   - mxv (w = A ⊕.⊗ u) iterates rows of A and computes sparse dot products
//     against u — a "pull" step, cheap when the mask prunes most rows and
//     the `any` monoid allows the dot product to stop at the first hit.
// A transposed descriptor swaps the kernels (uᵀAᵀ is a pull, Aᵀu is a push),
// so LAGraph's direction-optimizing BFS simply chooses between vxm(u, A) and
// mxv(Aᵀ, u) on the explicitly cached transpose.
//
// Both kernels are parallel (grb/parallel.hpp):
//   - the push kernel partitions the frontier into contiguous chunks of
//     ~equal scattered nnz; each thread scatters its chunk into a pooled
//     dense accumulator + touched list, and a parallel pass merges the
//     per-thread partials over disjoint output ranges, folding chunks in
//     ascending frontier order — the exact serial order, so results match
//     num_threads=1 bit-for-bit (any/min/max terminals are absorbing;
//     plus/times over exactly-representable values are associative);
//   - the pull kernel partitions rows by the CSR row-pointer prefix (nnz)
//     instead of row count, so power-law hub rows no longer serialize a
//     dynamic schedule.
//
// Masks are pushed down into both kernels (output positions outside the
// effective mask are never computed) and then the common output step in
// mask.hpp applies the full mask/accumulator/replace semantics.
#pragma once

#include <algorithm>
#include <cassert>
#include <vector>

#include "grb/assign.hpp"
#include "grb/mask.hpp"
#include "grb/parallel.hpp"
#include "grb/plan.hpp"
#include "grb/semiring.hpp"
#include "grb/trace.hpp"

namespace grb {
namespace detail {

/// Push kernel: for each entry u(k), scatter along row k of A into a dense
/// accumulator workspace. `combine(aval, uval, jout, k) -> Z` evaluates the
/// semiring multiply with the caller's operand order and coordinate
/// convention. Parallel saxpy: frontier chunks balanced by row nnz, one
/// pooled workspace per thread, per-thread partials merged in chunk order.
template <typename Z, typename SR, typename AT, typename U, typename Pred,
          typename Combine>
Vector<Z> push_kernel(SR sr, const Matrix<AT> &a, const Vector<U> &u,
                      Pred &&allowed, Combine &&combine, Index out_size,
                      [[maybe_unused]] const plan::ExecPlan &pl) {
  assert(pl.direction == plan::Direction::push);
  stats().push_calls.fetch_add(1, std::memory_order_relaxed);
  using AddM = typename SR::add_monoid;

  // Materialize the frontier in ascending index order: chunk boundaries over
  // this list give each thread a contiguous k-range, and merging per-thread
  // partials in chunk order then reproduces the serial scatter order.
  std::vector<Index> fk;
  std::vector<U> fv;
  fk.reserve(u.nvals());
  fv.reserve(u.nvals());
  u.for_each([&](Index k, const U &uk) {
    fk.push_back(k);
    fv.push_back(uk);
  });
  const Index nf = static_cast<Index>(fk.size());

  a.finish();
  const bool csr = a.format() == Matrix<AT>::Format::csr;
  // Width-erased view is fine here: the row pointer is only consulted for
  // the per-frontier-row work estimate; the scatter itself goes through
  // for_each_in_row, which dispatches on the storage width per row.
  IndexSpan rp = csr ? a.rowptr() : IndexSpan{};

  auto scatter = [&](SaxpyWorkspace<Z> &ws, Index k, const U &uk) {
    a.for_each_in_row(k, [&](Index j, const AT &akj) {
      if (!allowed(j)) return;
      if (ws.mark[j]) {
        if constexpr (AddM::has_terminal) {
          if (AddM::is_terminal(ws.work[j])) return;
        }
        ws.work[j] = sr.add(ws.work[j], combine(akj, uk, j, k));
      } else {
        ws.mark[j] = 1;
        ws.work[j] = combine(akj, uk, j, k);
        ws.touched.push_back(j);
      }
    });
  };

  // Team size: the plan records the a-priori estimate; the final gate runs
  // the planner's rule (plan::team_size) on the exact scattered work so BFS
  // tail levels stay on the serial schedule even when the estimate was off.
  int nthreads = effective_threads();
  if (nthreads > 1) {
    Index total_work = 0;
    if (csr) {
      for (Index e = 0; e < nf; ++e) total_work += rp[fk[e] + 1] - rp[fk[e]];
    } else {
      total_work = nf * a.ncols();
    }
    nthreads = plan::team_size(total_work);
  }

  std::vector<Index> idx;
  std::vector<Z> val;
  if (nthreads <= 1 || nf < 2) {
    // Serial schedule — also the reference order the parallel path must
    // reproduce. The pooled workspace makes repeated calls (BFS levels)
    // O(touched) instead of O(out_size) per call.
    WorkspaceLease<Z> lease(out_size);
    auto &ws = *lease;
    for (Index e = 0; e < nf; ++e) scatter(ws, fk[e], fv[e]);
    std::sort(ws.touched.begin(), ws.touched.end());
    idx.reserve(ws.touched.size());
    val.reserve(ws.touched.size());
    for (Index j : ws.touched) {
      idx.push_back(j);
      val.push_back(ws.work[j]);
    }
  } else {
    // Frontier chunks of ~equal scattered nnz (+1 biases against degenerate
    // all-empty chunks); exactly one chunk and workspace per thread.
    std::vector<Index> fbounds =
        csr ? partition_rows_by_work(
                  nf, nthreads,
                  [&](Index e) { return rp[fk[e] + 1] - rp[fk[e]] + 1; })
            : partition_even(nf, nthreads);
    const int P = static_cast<int>(fbounds.size()) - 1;

    auto &pool = WorkspacePool<Z>::instance();
    std::vector<SaxpyWorkspace<Z>> ws;
    ws.reserve(static_cast<std::size_t>(P));
    for (int t = 0; t < P; ++t) ws.push_back(pool.acquire(out_size));

    parallel_region(P, [&](int t) {
      for (Index e = fbounds[t]; e < fbounds[t + 1]; ++e) {
        scatter(ws[t], fk[e], fv[e]);
      }
      std::sort(ws[t].touched.begin(), ws[t].touched.end());
    });

    // Merge pass, parallel over disjoint output ranges. For each output j
    // the per-chunk partials fold in ascending chunk (= frontier) order:
    // `any` keeps the first chunk's value, terminal accumulators stay
    // absorbed, associative ops regroup without reordering.
    std::vector<Index> rbounds = partition_even(out_size, P);
    const int R = static_cast<int>(rbounds.size()) - 1;
    std::vector<std::vector<Index>> ridx(static_cast<std::size_t>(R));
    std::vector<std::vector<Z>> rval(static_cast<std::size_t>(R));
    for_each_chunk(rbounds, [&](int r, Index lo, Index hi) {
      std::vector<std::size_t> head(static_cast<std::size_t>(P));
      std::vector<std::size_t> tail(static_cast<std::size_t>(P));
      for (int t = 0; t < P; ++t) {
        const auto &tc = ws[t].touched;
        head[t] = static_cast<std::size_t>(
            std::lower_bound(tc.begin(), tc.end(), lo) - tc.begin());
        tail[t] = static_cast<std::size_t>(
            std::lower_bound(tc.begin(), tc.end(), hi) - tc.begin());
      }
      auto &oi = ridx[r];
      auto &ov = rval[r];
      for (;;) {
        Index jmin = ALL;
        for (int t = 0; t < P; ++t) {
          if (head[t] < tail[t] && ws[t].touched[head[t]] < jmin) {
            jmin = ws[t].touched[head[t]];
          }
        }
        if (jmin == ALL) break;
        bool first = true;
        Z acc{};
        for (int t = 0; t < P; ++t) {
          if (head[t] < tail[t] && ws[t].touched[head[t]] == jmin) {
            ++head[t];
            const Z &part = ws[t].work[jmin];
            if (first) {
              first = false;
              acc = part;
            } else {
              if constexpr (AddM::has_terminal) {
                if (AddM::is_terminal(acc)) continue;
              }
              acc = sr.add(acc, part);
            }
          }
        }
        oi.push_back(jmin);
        ov.push_back(acc);
      }
    });
    concat_chunks(ridx, rval, idx, val);

    parallel_region(P, [&](int t) { ws[t].clear(); });
    for (int t = 0; t < P; ++t) pool.release(std::move(ws[t]));
  }

  Vector<Z> t(out_size);
  t.adopt_sparse(std::move(idx), std::move(val));
  return t;
}

/// Dot kernel: for each row i of A passing `row_allowed`, reduce
/// combine(a(i,k), u(k), i, k) over the entries shared with u. With an
/// all-terminal (`any`) monoid this stops at the first shared entry — the
/// bottom-up BFS early exit. Rows are chunked by nnz (the CSR row pointer is
/// the work prefix sum), not by count.
template <typename Z, typename SR, typename AT, typename U, typename Pred,
          typename Combine>
Vector<Z> dot_kernel(SR sr, const Matrix<AT> &a, const Vector<U> &u,
                     Pred &&row_allowed, Combine &&combine,
                     [[maybe_unused]] const plan::ExecPlan &pl) {
  stats().pull_calls.fetch_add(1, std::memory_order_relaxed);
  const Index m = a.nrows();
  const Index n = a.ncols();
  // The probed operand's format is a plan decision (bitmap = O(1) probes,
  // "particularly important for the 'pull' phase", §VI-A; sorted sparse =
  // binary-search probes, the format ablation's path). The entry point
  // already converted u via plan::prepare — this kernel only executes.
  assert(pl.direction == plan::Direction::pull);
  const bool use_bitmap = u.format() == Vector<U>::Format::bitmap;
  assert(use_bitmap == (pl.u_format == plan::VecFormat::bitmap));
  const std::uint8_t *up = use_bitmap ? u.bitmap_present() : nullptr;
  const U *uv = use_bitmap ? u.bitmap_values() : nullptr;
  auto us_idx = use_bitmap ? std::span<const Index>{} : u.sparse_indices();
  auto us_val = use_bitmap ? std::span<const U>{} : u.sparse_values();
  auto probe = [&](Index k) -> const U * {
    if (use_bitmap) return up[k] ? &uv[k] : nullptr;
    auto it = std::lower_bound(us_idx.begin(), us_idx.end(), k);
    if (it == us_idx.end() || *it != k) return nullptr;
    return &us_val[static_cast<std::size_t>(it - us_idx.begin())];
  };
  using AddM = typename SR::add_monoid;

  a.finish();
  const auto fmt = a.format();
  const bool csr = fmt == Matrix<AT>::Format::csr;
  const std::uint8_t *apres =
      fmt == Matrix<AT>::Format::bitmap ? a.bitmap_present() : nullptr;
  const AT *adense = (fmt == Matrix<AT>::Format::bitmap ||
                      fmt == Matrix<AT>::Format::full)
                         ? a.dense_values()
                         : nullptr;

  // Rows are independent dot products: results land in per-row slots (no
  // shared push_back) and are packed afterwards.
  std::vector<std::uint8_t> found(static_cast<std::size_t>(m), 0);
  std::vector<Z> out(static_cast<std::size_t>(m));

  // One width dispatch per kernel call: the per-entry CSR scan below runs
  // on typed u32 or u64 spans, so halving the index width halves the bytes
  // this bandwidth-bound loop streams.
  dispatch_width(a.index_width(), [&](auto tag) {
    using I = decltype(tag);
    auto rp = csr ? a.rowptr().template as<I>() : std::span<const I>{};
    auto cx = csr ? a.colidx().template as<I>() : std::span<const I>{};
    auto vx = csr ? a.values() : std::span<const AT>{};

    auto do_row = [&](Index i) {
      if (!row_allowed(i)) return;
      bool hit = false;
      Z acc{};
      auto step = [&](Index k, const AT &aik) -> bool {
        const U *ukp = probe(k);
        if (ukp == nullptr) return false;
        Z prod = combine(aik, *ukp, i, k);
        if (!hit) {
          hit = true;
          acc = prod;
        } else {
          acc = sr.add(acc, prod);
        }
        if constexpr (AddM::has_terminal) {
          return AddM::is_terminal(acc);
        }
        return false;
      };
      if (csr) {
        for (std::size_t p = rp[i]; p < rp[i + 1]; ++p) {
          if (step(cx[p], vx[p])) break;  // terminal short-circuit
        }
      } else {
        // bitmap/full rows: direct indexing so a terminal accumulator
        // (`any`, `lor`, ...) breaks out of the row instead of merely
        // saturating.
        const std::size_t base = static_cast<std::size_t>(i) * n;
        if (apres != nullptr) {
          for (Index k = 0; k < n; ++k) {
            if (apres[base + k] && step(k, adense[base + k])) break;
          }
        } else {
          for (Index k = 0; k < n; ++k) {
            if (step(k, adense[base + k])) break;
          }
        }
      }
      if (hit) {
        found[i] = 1;
        out[i] = acc;
      }
    };

    const Index total_work =
        csr ? (rp.empty() ? 0 : static_cast<Index>(rp[m])) : m * n;
    const int parts = plan::chunk_parts(total_work, 4);
    std::vector<Index> bounds = csr && parts > 1
                                    ? partition_rows_by_work(rp, parts)
                                    : partition_even(m, parts);
    for_each_chunk(bounds, [&](int, Index lo, Index hi) {
      for (Index i = lo; i < hi; ++i) do_row(i);
    });
  });

  std::vector<Index> idx;
  std::vector<Z> val;
  pack_slots(found, out, idx, val);
  Vector<Z> t(m);
  t.adopt_sparse(std::move(idx), std::move(val));
  return t;
}

/// Shared planning step for vxm/mxv: describe the op, get the plan, and
/// prepare the probed operand for a pull. The kernels below assert what
/// this promised.
template <typename SR, typename AT, typename U, typename MaskT>
plan::ExecPlan plan_mxv_op(plan::OpKind op, const Matrix<AT> &a,
                           const Vector<U> &u, const MaskT &mask,
                           const Descriptor &d, Index out_size) {
  plan::OpDesc od;
  od.op = op;
  od.out_size = out_size;
  od.a_rows = a.nrows();
  od.a_cols = a.ncols();
  od.a_nvals = a.nvals();
  od.a_width = a.index_width();
  od.u_nvals = u.nvals();
  od.transpose_a = d.transpose_a;
  od.has_terminal = SR::add_monoid::has_terminal;
  if constexpr (has_mask_v<MaskT>) {
    od.masked = true;
    od.mask_nvals = mask.nvals();
    od.mask_complement = d.mask_complement;
    od.mask_structural = d.mask_structural;
  }
  plan::ExecPlan pl = plan::make_plan(od);
  if (pl.direction == plan::Direction::pull) plan::prepare(u, pl.u_format);
  return pl;
}

}  // namespace detail

/// w⟨m⟩ ⊙= uᵀ ⊕.⊗ A  (push; with desc.transpose_a: uᵀ ⊕.⊗ Aᵀ, a pull).
template <typename W, typename MaskT, typename Accum, typename SR, typename U,
          typename AT>
void vxm(Vector<W> &w, const MaskT &mask, Accum accum, SR sr,
         const Vector<U> &u, const Matrix<AT> &a,
         const Descriptor &d = desc::DEFAULT) {
  using Z = typename SR::value_type;
  auto allowed = [&](Index j) { return detail::vmask_test(mask, j, d); };
  trace::ScopedSpan sp(trace::SpanKind::vxm);
  sp.set_in_nvals(u.nvals());
  Vector<Z> t(0);
  if (!d.transpose_a) {
    detail::check_same_size(u.size(), a.nrows(), "vxm: u/A dimension mismatch");
    detail::check_vector_mask(mask, a.ncols());
    detail::check_same_size(w.size(), a.ncols(), "vxm: w/A dimension mismatch");
    const auto pl = detail::plan_mxv_op<SR>(plan::OpKind::vxm, a, u, mask, d,
                                            a.ncols());
    sp.set_plan(pl);
    // w(j) = ⊕_k u(k) ⊗ a(k,j): first operand u (row vector, coords (0,k)),
    // second operand a(k,j).
    t = detail::push_kernel<Z>(
        sr, a, u, allowed,
        [&](const AT &aval, const U &uval, Index j, Index k) {
          return sr.multiply(uval, aval, Index{0}, k, j);
        },
        a.ncols(), pl);
  } else {
    detail::check_same_size(u.size(), a.ncols(), "vxm: u/Aᵀ dimension mismatch");
    detail::check_vector_mask(mask, a.nrows());
    detail::check_same_size(w.size(), a.nrows(), "vxm: w/Aᵀ dimension mismatch");
    const auto pl = detail::plan_mxv_op<SR>(plan::OpKind::vxm, a, u, mask, d,
                                            a.nrows());
    sp.set_plan(pl);
    // w(i) = ⊕_k u(k) ⊗ aᵀ(k,i) = ⊕_k u(k) ⊗ a(i,k): dot products over rows.
    t = detail::dot_kernel<Z>(
        sr, a, u, allowed,
        [&](const AT &aval, const U &uval, Index i, Index k) {
          return sr.multiply(uval, aval, Index{0}, k, i);
        },
        pl);
  }
  sp.set_out_nvals(t.nvals());
  detail::write_result(w, std::move(t), mask, accum, d, /*t_is_masked=*/true);
}

/// w⟨m⟩ ⊙= A ⊕.⊗ u  (pull; with desc.transpose_a: Aᵀ ⊕.⊗ u, a push).
template <typename W, typename MaskT, typename Accum, typename SR, typename AT,
          typename U>
void mxv(Vector<W> &w, const MaskT &mask, Accum accum, SR sr,
         const Matrix<AT> &a, const Vector<U> &u,
         const Descriptor &d = desc::DEFAULT) {
  using Z = typename SR::value_type;
  auto allowed = [&](Index i) { return detail::vmask_test(mask, i, d); };
  trace::ScopedSpan sp(trace::SpanKind::mxv);
  sp.set_in_nvals(u.nvals());
  Vector<Z> t(0);
  if (!d.transpose_a) {
    detail::check_same_size(u.size(), a.ncols(), "mxv: u/A dimension mismatch");
    detail::check_vector_mask(mask, a.nrows());
    detail::check_same_size(w.size(), a.nrows(), "mxv: w/A dimension mismatch");
    const auto pl = detail::plan_mxv_op<SR>(plan::OpKind::mxv, a, u, mask, d,
                                            a.nrows());
    sp.set_plan(pl);
    // w(i) = ⊕_k a(i,k) ⊗ u(k): first operand is the matrix element.
    t = detail::dot_kernel<Z>(
        sr, a, u, allowed,
        [&](const AT &aval, const U &uval, Index i, Index k) {
          return sr.multiply(aval, uval, i, k, Index{0});
        },
        pl);
  } else {
    detail::check_same_size(u.size(), a.nrows(), "mxv: u/Aᵀ dimension mismatch");
    detail::check_vector_mask(mask, a.ncols());
    detail::check_same_size(w.size(), a.ncols(), "mxv: w/Aᵀ dimension mismatch");
    const auto pl = detail::plan_mxv_op<SR>(plan::OpKind::mxv, a, u, mask, d,
                                            a.ncols());
    sp.set_plan(pl);
    // w(j) = ⊕_k aᵀ(j,k) ⊗ u(k) = ⊕_k a(k,j) ⊗ u(k): scatter along rows of A.
    t = detail::push_kernel<Z>(
        sr, a, u, allowed,
        [&](const AT &aval, const U &uval, Index j, Index k) {
          return sr.multiply(aval, uval, j, k, Index{0});
        },
        a.ncols(), pl);
  }
  sp.set_out_nvals(t.nvals());
  detail::write_result(w, std::move(t), mask, accum, d, /*t_is_masked=*/true);
}

namespace detail {

/// One-pass stamp epilogue over the freshly written frontier: replicates the
/// two assign bitmap fast paths (grb/assign.hpp) — `copy⟨s(w)⟩ = w` and
/// `konst⟨s(w)⟩ = value` — in a single sweep of w's entries. Caller
/// guarantees both targets are bitmap-format; results are bit-identical to
/// the two separate assigns because each fast path is an unconditional
/// overwrite at w's (ascending) entry positions.
template <typename W, typename PT, typename LT>
void stamp_frontier(const Vector<W> &w, Vector<PT> *copy, Vector<LT> *konst,
                    LT value) {
  std::uint8_t *pp = copy != nullptr ? copy->bitmap_present_mut() : nullptr;
  PT *pv = copy != nullptr ? copy->bitmap_values_mut() : nullptr;
  std::uint8_t *lp = konst != nullptr ? konst->bitmap_present_mut() : nullptr;
  LT *lv = konst != nullptr ? konst->bitmap_values_mut() : nullptr;
  Index pn = copy != nullptr ? copy->nvals() : 0;
  Index ln = konst != nullptr ? konst->nvals() : 0;
  w.for_each([&](Index p, const W &x) {
    if (pp != nullptr) {
      if (!pp[p]) {
        pp[p] = 1;
        ++pn;
      }
      pv[p] = static_cast<PT>(x);
    }
    if (lp != nullptr) {
      if (!lp[p]) {
        lp[p] = 1;
        ++ln;
      }
      lv[p] = value;
    }
  });
  if (copy != nullptr) copy->set_bitmap_nvals(pn);
  if (konst != nullptr) konst->set_bitmap_nvals(ln);
}

/// Describe a fused op for the planner. `transpose_for_plan` encodes the
/// product's direction in OpDesc terms (fused_mxv_apply is mxv-like: no
/// transpose = pull dot, transpose = push scatter).
template <typename SR, typename AT, typename U, typename MaskT>
plan::ExecPlan plan_fused_op(plan::OpKind op, const Matrix<AT> &a,
                             const Vector<U> &u, const MaskT &mask,
                             const Descriptor &d, Index out_size,
                             bool transpose_for_plan) {
  plan::OpDesc od;
  od.op = op;
  od.out_size = out_size;
  od.a_rows = a.nrows();
  od.a_cols = a.ncols();
  od.a_nvals = a.nvals();
  od.a_width = a.index_width();
  od.u_nvals = u.nvals();
  od.transpose_a = transpose_for_plan;
  od.has_terminal = SR::add_monoid::has_terminal;
  if constexpr (has_mask_v<MaskT>) {
    od.masked = true;
    od.mask_nvals = mask.nvals();
    od.mask_complement = d.mask_complement;
    od.mask_structural = d.mask_structural;
  }
  plan::ExecPlan pl = plan::make_plan(od);
  if (pl.direction == plan::Direction::pull) plan::prepare(u, pl.u_format);
  return pl;
}

/// Shared body of the two fused product+stamp entry points. `pull_form`
/// selects the product shape: mxv-style masked dots (A ⊕.⊗ u) or vxm-style
/// scatter (u ⊕.⊗ A). After the product lands in w through the normal
/// write_result step, one sweep stamps `stamp_copy⟨s(w)⟩ = w` and
/// `stamp_const⟨s(w)⟩ = stamp_value` — the BFS parent and level updates —
/// without two more kernel dispatches. Falls back to the exact unfused
/// composition whenever a fast-path precondition fails, so results are
/// bit-identical by construction.
template <typename W, typename MaskV, typename SR, typename AT, typename PT,
          typename LT>
void fused_product_stamp(bool pull_form, Vector<W> &w,
                         const Vector<MaskV> &mask, SR sr, const Matrix<AT> &a,
                         const Vector<W> &u, const Descriptor &d,
                         Vector<PT> *stamp_copy, Vector<LT> *stamp_const,
                         LT stamp_value) {
  using Z = typename SR::value_type;
  // Transpose-aware dims: a transpose descriptor swaps the product's shape
  // (and lands on the unfused fallback — the fuse gate excludes it).
  const bool eff_rows = pull_form != d.transpose_a;
  const Index out_size = eff_rows ? a.nrows() : a.ncols();
  check_same_size(u.size(), eff_rows ? a.ncols() : a.nrows(),
                  "fused_mxv_apply: u/A dimension mismatch");
  check_vector_mask(mask, out_size);
  check_same_size(w.size(), out_size,
                  "fused_mxv_apply: w/A dimension mismatch");
  // Direction in OpDesc terms: mxv is a pull dot unless transposed; vxm is a
  // push scatter unless transposed.
  const plan::ExecPlan pl =
      plan_fused_op<SR>(plan::OpKind::fused_mxv_apply, a, u, mask, d, out_size,
                        pull_form == d.transpose_a);

  // The single-sweep path needs the assign fast-path preconditions: bitmap
  // stamp targets and a product the output can adopt verbatim (same value
  // type — guaranteed by the signature — and either replace semantics or an
  // empty output).
  bool fuse = std::is_same_v<W, Z> && !d.transpose_a &&
              (d.replace || w.nvals() == 0);
  if (stamp_copy != nullptr &&
      stamp_copy->format() != Vector<PT>::Format::bitmap) {
    fuse = false;
  }
  if (stamp_const != nullptr &&
      stamp_const->format() != Vector<LT>::Format::bitmap) {
    fuse = false;
  }

  if (!fuse) {
    // Unfused composition — the reference semantics the fused path must
    // reproduce bit-for-bit (and the conformance sweep checks it does).
    if (pull_form) {
      mxv(w, mask, NoAccum{}, sr, a, u, d);
    } else {
      vxm(w, mask, NoAccum{}, sr, u, a, d);
    }
    if (stamp_copy != nullptr) {
      assign(*stamp_copy, w, NoAccum{}, w, Indices::all(), desc::S);
    }
    if (stamp_const != nullptr) {
      assign(*stamp_const, w, NoAccum{}, stamp_value, Indices::all(),
             desc::S);
    }
    return;
  }

  stats().fused_dispatches.fetch_add(1, std::memory_order_relaxed);
  trace::ScopedSpan sp(trace::SpanKind::fused_mxv_apply);
  sp.set_in_nvals(u.nvals());
  sp.set_plan(pl);
  auto allowed = [&](Index i) { return vmask_test(mask, i, d); };
  Vector<Z> t(0);
  if (pull_form) {
    t = dot_kernel<Z>(
        sr, a, u, allowed,
        [&](const AT &aval, const W &uval, Index i, Index k) {
          return sr.multiply(aval, uval, i, k, Index{0});
        },
        pl);
  } else {
    t = push_kernel<Z>(
        sr, a, u, allowed,
        [&](const AT &aval, const W &uval, Index j, Index k) {
          return sr.multiply(uval, aval, Index{0}, k, j);
        },
        a.ncols(), pl);
  }
  sp.set_out_nvals(t.nvals());
  write_result(w, std::move(t), mask, NoAccum{}, d, /*t_is_masked=*/true);
  stamp_frontier(w, stamp_copy, stamp_const, stamp_value);
}

}  // namespace detail

/// Fused masked pull product + stamps (one BFS level, pull direction):
///   w⟨mask,d⟩ = A ⊕.⊗ u;  stamp_copy⟨s(w)⟩ = w;  stamp_const⟨s(w)⟩ = value
/// in one kernel sweep when the operands allow it, else the exact
/// mxv + assign + assign chain. Pass nullptr to skip a stamp.
template <typename W, typename MaskV, typename SR, typename AT, typename PT,
          typename LT>
void fused_mxv_apply(Vector<W> &w, const Vector<MaskV> &mask, SR sr,
                     const Matrix<AT> &a, const Vector<W> &u,
                     const Descriptor &d, Vector<PT> *stamp_copy,
                     Vector<LT> *stamp_const, LT stamp_value) {
  detail::fused_product_stamp(/*pull_form=*/true, w, mask, sr, a, u, d,
                              stamp_copy, stamp_const, stamp_value);
}

/// Push-direction form of the same fusion (one BFS level, push direction):
///   w⟨mask,d⟩ = u ⊕.⊗ A;  stamp_copy⟨s(w)⟩ = w;  stamp_const⟨s(w)⟩ = value.
template <typename W, typename MaskV, typename SR, typename AT, typename PT,
          typename LT>
void fused_vxm_apply(Vector<W> &w, const Vector<MaskV> &mask, SR sr,
                     const Vector<W> &u, const Matrix<AT> &a,
                     const Descriptor &d, Vector<PT> *stamp_copy,
                     Vector<LT> *stamp_const, LT stamp_value) {
  detail::fused_product_stamp(/*pull_form=*/false, w, mask, sr, a, u, d,
                              stamp_copy, stamp_const, stamp_value);
}

}  // namespace grb
