// grb/mask.hpp — mask plumbing and the mask/accumulator/replace output step.
//
// Every GraphBLAS operation ends with the same output step (C spec §2.3):
//   1. compute T = op(inputs);
//   2. Z = accum ? (C ⊙ T) : T, where ⊙ merges on the union of structures,
//      applying the accumulator on the intersection;
//   3. masked write:  inside the (possibly complemented, possibly structural)
//      mask C receives Z's content (including deletions where Z has no
//      entry); outside the mask C keeps its old content under merge
//      semantics, or is cleared under replace semantics ⟨M, r⟩.
// Centralizing this in write_result() keeps every kernel small and makes the
// subtle mask/accumulator interplay testable in one place.
#pragma once

#include <type_traits>

#include "grb/descriptor.hpp"
#include "grb/matrix.hpp"
#include "grb/ops.hpp"
#include "grb/types.hpp"
#include "grb/vector.hpp"

namespace grb {

/// Tag for "no mask". Note that a complemented descriptor together with no
/// mask selects nothing (the complement of an implicit all-true mask), as in
/// the C specification.
struct NoMaskT {};
inline constexpr NoMaskT no_mask{};

template <typename MaskT>
inline constexpr bool has_mask_v = !std::is_same_v<std::remove_cvref_t<MaskT>, NoMaskT>;

namespace detail {

template <typename MaskT>
inline bool vmask_test(const MaskT &mask, Index i, const Descriptor &d) {
  if constexpr (!has_mask_v<MaskT>) {
    (void)mask;
    (void)i;
    return !d.mask_complement;
  } else {
    return d.mask_complement != mask.mask_test(i, d.mask_structural);
  }
}

template <typename MaskT>
inline bool mmask_test(const MaskT &mask, Index i, Index j, const Descriptor &d) {
  if constexpr (!has_mask_v<MaskT>) {
    (void)mask;
    (void)i;
    (void)j;
    return !d.mask_complement;
  } else {
    return d.mask_complement != mask.mask_test(i, j, d.mask_structural);
  }
}

template <typename MaskT>
inline void check_vector_mask(const MaskT &mask, Index n) {
  if constexpr (has_mask_v<MaskT>) {
    check_same_size(mask.size(), n, "mask dimension mismatch");
  } else {
    (void)mask;
    (void)n;
  }
}

template <typename MaskT>
inline void check_matrix_mask(const MaskT &mask, Index m, Index n) {
  if constexpr (has_mask_v<MaskT>) {
    check_same_size(mask.nrows(), m, "mask row dimension mismatch");
    check_same_size(mask.ncols(), n, "mask column dimension mismatch");
  } else {
    (void)mask;
    (void)m;
    (void)n;
  }
}

/// Accumulate helper: z = accum(c, t) cast to the output type.
template <typename W, typename Accum, typename C, typename T>
inline W accum_apply(Accum accum, const C &c, const T &t) {
  return static_cast<W>(accum(static_cast<W>(c), static_cast<W>(t)));
}

/// True when the mask is the output container itself. The in-place output
/// step would then probe entries it is rewriting, so it takes the rebuild.
template <typename MaskT, typename Out>
inline bool mask_is_output(const MaskT &mask, const Out &out) {
  if constexpr (has_mask_v<MaskT>) {
    return static_cast<const void *>(&mask) == static_cast<const void *>(&out);
  } else {
    (void)mask;
    (void)out;
    return false;
  }
}

/// True when a membership test costs O(1): no mask, or a dense mask.
template <typename MaskT>
inline bool mask_probe_is_o1(const MaskT &mask) {
  if constexpr (!has_mask_v<MaskT>) {
    (void)mask;
    return true;
  } else if constexpr (requires { mask.ncols(); }) {
    return mask.format() != std::remove_cvref_t<MaskT>::Format::csr;
  } else {
    return mask.format() == std::remove_cvref_t<MaskT>::Format::bitmap;
  }
}

// The output step runs in place on a bitmap (vector) or bitmap/full
// (matrix) output whenever the result is right without visiting positions
// outside T and the mask:
//   - with an accumulator and no replace, and a mask that probes in O(1):
//     only T's entries can change, so each is accumulated into its slot;
//   - without an accumulator, with a plain (non-complemented) mask and no
//     replace: only the mask's entries can change, so each takes T's value
//     or is deleted.
// Cost O(nnz(T) + nnz(mask)) instead of a rebuild over the whole output.
// Every entry sees the same operations as in the rebuild. The output keeps
// its format (no density switch), like the in-place assign paths.
template <typename Accum, typename Out, typename MaskT>
inline bool in_place_write(const Out &out, const MaskT &mask,
                           const Descriptor &d) {
  if (d.replace || mask_is_output(mask, out)) return false;
  if constexpr (is_accum_v<Accum>) {
    return mask_probe_is_o1(mask);
  } else {
    return has_mask_v<MaskT> && !d.mask_complement;
  }
}

// ---------------------------------------------------------------------------
// Vector output step
// ---------------------------------------------------------------------------

/// Apply the mask/accumulator/replace step writing temp result `t` into `w`.
/// `t_is_masked` asserts that the kernel already restricted t to the
/// effective mask, enabling the adopt-in-place fast path (and preserving a
/// jumbled temp — the lazy-sort payoff of §VI-A).
template <typename W, typename Z, typename MaskT, typename Accum>
void write_result(Vector<W> &w, Vector<Z> &&t, const MaskT &mask, Accum accum,
                  const Descriptor &d, bool t_is_masked = false) {
  const Index n = w.size();
  check_same_size(t.size(), n, "result dimension mismatch");
  check_vector_mask(mask, n);

  if constexpr (std::is_same_v<W, Z> && !is_accum_v<Accum>) {
    // With no mask, the complement of the implicit all-true mask selects
    // nothing — never a candidate for the adopt fast path.
    const bool mask_ok = has_mask_v<MaskT> ? t_is_masked : !d.mask_complement;
    const bool no_survivors_from_w =
        w.nvals() == 0 || d.replace || !has_mask_v<MaskT>;
    if (mask_ok && no_survivors_from_w) {
      w = std::move(t);
      w.maybe_switch_format();
      return;
    }
  }

  if (w.format() == Vector<W>::Format::bitmap &&
      in_place_write<Accum>(w, mask, d)) {
    std::uint8_t *wp = w.bitmap_present_mut();
    W *wv = w.bitmap_values_mut();
    Index nv = w.nvals();
    if constexpr (is_accum_v<Accum>) {
      t.for_each([&](Index i, const Z &z) {
        if (!vmask_test(mask, i, d)) return;
        if (wp[i]) {
          wv[i] = accum_apply<W>(accum, wv[i], z);
        } else {
          wp[i] = 1;
          wv[i] = static_cast<W>(z);
          ++nv;
        }
      });
    } else if constexpr (has_mask_v<MaskT>) {
      // Mask entries ascend, so a cursor walks a sparse T alongside.
      const bool t_bitmap = t.format() == Vector<Z>::Format::bitmap;
      auto ti = t.sparse_indices();
      auto tv = t.sparse_values();
      std::size_t b = 0;
      mask.for_each([&](Index i, const auto &mv) {
        if (!d.mask_structural && mv == 0) return;
        const Z *z = nullptr;
        if (t_bitmap) {
          if (t.bitmap_present()[i]) z = &t.bitmap_values()[i];
        } else {
          while (b < ti.size() && ti[b] < i) ++b;
          if (b < ti.size() && ti[b] == i) z = &tv[b];
        }
        if (z != nullptr) {
          if (!wp[i]) ++nv;
          wp[i] = 1;
          wv[i] = static_cast<W>(*z);
        } else if (wp[i]) {
          wp[i] = 0;
          --nv;
        }
      });
    }
    w.set_bitmap_nvals(nv);
    return;
  }

  std::vector<Index> out_idx;
  std::vector<W> out_val;
  out_idx.reserve(w.nvals() + t.nvals());
  out_val.reserve(w.nvals() + t.nvals());

  auto emit = [&](Index i, const W &x) {
    out_idx.push_back(i);
    out_val.push_back(x);
  };

  // Decide the fate of position i given optional old and new values.
  auto resolve = [&](Index i, const W *c, const Z *z) {
    const bool in_mask = vmask_test(mask, i, d);
    if (!in_mask) {
      if (!d.replace && c != nullptr) emit(i, *c);
      return;
    }
    if constexpr (is_accum_v<Accum>) {
      if (c != nullptr && z != nullptr) {
        emit(i, accum_apply<W>(accum, *c, *z));
      } else if (c != nullptr) {
        emit(i, *c);
      } else if (z != nullptr) {
        emit(i, static_cast<W>(*z));
      }
    } else {
      (void)accum;
      if (z != nullptr) emit(i, static_cast<W>(*z));
      // no z: entry (if any) is deleted inside the mask
    }
  };

  const bool dense_walk = w.format() == Vector<W>::Format::bitmap ||
                          t.format() == Vector<Z>::Format::bitmap;
  if (dense_walk) {
    // Walk the raw bitmap arrays; a bounds-checked get() per position
    // dominates iteration-heavy algorithms otherwise.
    w.to_bitmap();
    t.to_bitmap();
    const std::uint8_t *wp = w.bitmap_present();
    const W *wv = w.bitmap_values();
    const std::uint8_t *tp = t.bitmap_present();
    const Z *tv = t.bitmap_values();
    for (Index i = 0; i < n; ++i) {
      const bool hc = wp[i] != 0;
      const bool hz = tp[i] != 0;
      if (!hc && !hz) continue;
      resolve(i, hc ? &wv[i] : nullptr, hz ? &tv[i] : nullptr);
    }
  } else {
    auto wi = w.sparse_indices();
    auto wv = w.sparse_values();
    auto ti = t.sparse_indices();
    auto tv = t.sparse_values();
    std::size_t a = 0;
    std::size_t b = 0;
    while (a < wi.size() || b < ti.size()) {
      if (b >= ti.size() || (a < wi.size() && wi[a] < ti[b])) {
        resolve(wi[a], &wv[a], nullptr);
        ++a;
      } else if (a >= wi.size() || ti[b] < wi[a]) {
        resolve(ti[b], nullptr, &tv[b]);
        ++b;
      } else {
        resolve(wi[a], &wv[a], &tv[b]);
        ++a;
        ++b;
      }
    }
  }

  w.adopt_sparse(std::move(out_idx), std::move(out_val));
  w.maybe_switch_format();
}

// ---------------------------------------------------------------------------
// Matrix output step
// ---------------------------------------------------------------------------

template <typename W, typename Z, typename MaskT, typename Accum>
void write_result(Matrix<W> &c, Matrix<Z> &&t, const MaskT &mask, Accum accum,
                  const Descriptor &d, bool t_is_masked = false) {
  const Index m = c.nrows();
  const Index n = c.ncols();
  check_same_size(t.nrows(), m, "result row dimension mismatch");
  check_same_size(t.ncols(), n, "result column dimension mismatch");
  check_matrix_mask(mask, m, n);

  if constexpr (std::is_same_v<W, Z> && !is_accum_v<Accum>) {
    const bool mask_ok = has_mask_v<MaskT> ? t_is_masked : !d.mask_complement;
    const bool no_survivors_from_c =
        c.nvals() == 0 || d.replace || !has_mask_v<MaskT>;
    if (mask_ok && no_survivors_from_c) {
      c = std::move(t);  // keeps a jumbled temp jumbled (lazy sort)
      return;
    }
  }

  if (c.format() != Matrix<W>::Format::csr &&
      in_place_write<Accum>(c, mask, d)) {
    if constexpr (is_accum_v<Accum>) {
      // A full output stays full: every slot is present.
      const bool full = c.format() == Matrix<W>::Format::full;
      std::uint8_t *cp = full ? nullptr : c.bitmap_present_mut();
      W *cv = c.dense_values_mut();
      Index nv = c.nvals();
      t.for_each([&](Index i, Index j, const Z &z) {
        if (!mmask_test(mask, i, j, d)) return;
        const std::size_t p = static_cast<std::size_t>(i) * n + j;
        if (full || cp[p]) {
          cv[p] = accum_apply<W>(accum, cv[p], z);
        } else {
          cp[p] = 1;
          cv[p] = static_cast<W>(z);
          ++nv;
        }
      });
      if (!full) c.set_bitmap_nvals(nv);
    } else if constexpr (has_mask_v<MaskT>) {
      // Mask entries may delete: a full output drops to bitmap first.
      c.to_bitmap();
      std::uint8_t *cp = c.bitmap_present_mut();
      W *cv = c.dense_values_mut();
      Index nv = c.nvals();
      mask.ensure_sorted();
      t.ensure_sorted();
      std::vector<std::pair<Index, Z>> trow;
      for (Index i = 0; i < m; ++i) {
        trow.clear();
        t.for_each_in_row(
            i, [&](Index j, const Z &x) { trow.emplace_back(j, x); });
        std::size_t b = 0;
        mask.for_each_in_row(i, [&](Index j, const auto &mv) {
          if (!d.mask_structural && mv == 0) return;
          while (b < trow.size() && trow[b].first < j) ++b;
          const std::size_t p = static_cast<std::size_t>(i) * n + j;
          if (b < trow.size() && trow[b].first == j) {
            if (!cp[p]) ++nv;
            cp[p] = 1;
            cv[p] = static_cast<W>(trow[b].second);
          } else if (cp[p]) {
            cp[p] = 0;
            --nv;
          }
        });
      }
      c.set_bitmap_nvals(nv);
    }
    return;
  }

  c.ensure_sorted();
  t.ensure_sorted();

  std::vector<Index> rp(static_cast<std::size_t>(m) + 1, 0);
  std::vector<Index> ci;
  std::vector<W> cv;
  ci.reserve(c.nvals() + t.nvals());
  cv.reserve(c.nvals() + t.nvals());

  // Per-row mask gather: one pass over the mask row builds O(1) membership
  // probes, instead of a bounds-checked binary search per touched position
  // (which dominates level-synchronous algorithms like BC on high-diameter
  // graphs).
  std::vector<std::uint8_t> mrow;
  if constexpr (has_mask_v<MaskT>) {
    mrow.assign(static_cast<std::size_t>(n), 0);
  }
  auto row_mask_test = [&](Index j) {
    if constexpr (!has_mask_v<MaskT>) {
      (void)j;
      return !d.mask_complement;
    } else {
      return d.mask_complement != (mrow[j] != 0);
    }
  };

  auto resolve = [&](Index i, Index j, const W *cold, const Z *z) {
    (void)i;
    const bool in_mask = row_mask_test(j);
    if (!in_mask) {
      if (!d.replace && cold != nullptr) {
        ci.push_back(j);
        cv.push_back(*cold);
      }
      return;
    }
    if constexpr (is_accum_v<Accum>) {
      if (cold != nullptr && z != nullptr) {
        ci.push_back(j);
        cv.push_back(accum_apply<W>(accum, *cold, *z));
      } else if (cold != nullptr) {
        ci.push_back(j);
        cv.push_back(*cold);
      } else if (z != nullptr) {
        ci.push_back(j);
        cv.push_back(static_cast<W>(*z));
      }
    } else {
      (void)accum;
      if (z != nullptr) {
        ci.push_back(j);
        cv.push_back(static_cast<W>(*z));
      }
    }
  };

  // Per-row union merge. Rows are gathered into sorted scratch lists so the
  // walk is uniform across CSR/bitmap/full inputs.
  std::vector<std::pair<Index, W>> crow;
  std::vector<std::pair<Index, Z>> trow;
  std::vector<Index> mtouched;
  for (Index i = 0; i < m; ++i) {
    crow.clear();
    trow.clear();
    if constexpr (has_mask_v<MaskT>) {
      for (Index j : mtouched) mrow[j] = 0;
      mtouched.clear();
      mask.for_each_in_row(i, [&](Index j, const auto &mv) {
        if (!d.mask_structural && mv == 0) return;
        mrow[j] = 1;
        mtouched.push_back(j);
      });
    }
    c.for_each_in_row(i, [&](Index j, const W &x) { crow.emplace_back(j, x); });
    t.for_each_in_row(i, [&](Index j, const Z &x) { trow.emplace_back(j, x); });
    std::size_t a = 0;
    std::size_t b = 0;
    while (a < crow.size() || b < trow.size()) {
      if (b >= trow.size() ||
          (a < crow.size() && crow[a].first < trow[b].first)) {
        resolve(i, crow[a].first, &crow[a].second, nullptr);
        ++a;
      } else if (a >= crow.size() || trow[b].first < crow[a].first) {
        resolve(i, trow[b].first, nullptr, &trow[b].second);
        ++b;
      } else {
        resolve(i, crow[a].first, &crow[a].second, &trow[b].second);
        ++a;
        ++b;
      }
    }
    rp[i + 1] = static_cast<Index>(ci.size());
  }

  const bool was_bitmap = c.format() != Matrix<W>::Format::csr;
  c.adopt_csr(std::move(rp), std::move(ci), std::move(cv), /*jumbled=*/false);
  if (was_bitmap) {
    // Preserve the caller-chosen dense format across the write.
    double density = c.nrows() && c.ncols()
                         ? static_cast<double>(c.nvals()) /
                               (static_cast<double>(c.nrows()) * c.ncols())
                         : 0.0;
    if (density > config().bitmap_switch_density) c.to_bitmap();
  }
}

}  // namespace detail
}  // namespace grb
