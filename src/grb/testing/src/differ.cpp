// differ.cpp — execute scenarios through the real kernels and the oracle,
// compare bit-exactly, shrink failures.
#include "grb/testing/differ.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "grb/grb.hpp"
#include "grb/testing/oracle.hpp"

namespace grb::testing {

namespace {

using T = std::int64_t;

/// Sentinel a getElement probe reports when the entry is absent.
constexpr T kAbsent = std::numeric_limits<T>::min();

// ---------------------------------------------------------------------------
// Config sweep
// ---------------------------------------------------------------------------

struct ConfigGuard {
  Config saved;

  explicit ConfigGuard(const RunConfig &rc) : saved(config()) {
    Config &c = config();
    c.num_threads = rc.threads;
    c.force_format = static_cast<ForceFormat>(rc.force_format);
    c.force_push = rc.force_push;
    c.force_pull = rc.force_pull;
    c.force_index_width = static_cast<ForceIndexWidth>(rc.force_index_width);
  }
  ~ConfigGuard() { config() = saved; }
  ConfigGuard(const ConfigGuard &) = delete;
  ConfigGuard &operator=(const ConfigGuard &) = delete;
};

}  // namespace

std::string RunConfig::name() const {
  std::ostringstream os;
  os << "t" << threads << "/"
     << (force_format == 0 ? "any" : force_format == 1 ? "sparse" : "bitmap");
  if (force_push) os << "/push";
  if (force_pull) os << "/pull";
  if (force_index_width == 1) os << "/u32";
  if (force_index_width == 2) os << "/u64";
  return os.str();
}

std::vector<RunConfig> sweep_configs() {
  std::vector<RunConfig> out;
  for (int threads : {1, 4, 8}) {
    for (int ff : {0, 1, 2}) {
      RunConfig rc;
      rc.threads = threads;
      rc.force_format = ff;
      // Fold the planner direction overrides onto two sweep points so the
      // hint machinery is exercised without doubling the grid.
      rc.force_push = threads == 4 && ff == 1;
      rc.force_pull = threads == 8 && ff == 2;
      // Width joins the sweep on the format-free column: u32 at t1 and t8
      // (serial + parallel compressed storage), an explicit u64 pin at t4
      // so the no-compress path is also exercised.
      rc.force_index_width = ff == 0 ? (threads == 4 ? 2 : 1) : 0;
      out.push_back(rc);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Enum → real-functor dispatch (each with_* expands the template
// cross-product the kernels need; element type is always std::int64_t).
// ---------------------------------------------------------------------------

namespace {

template <typename F>
void with_accum(AccumKind k, F &&f) {
  switch (k) {
    case AccumKind::none: f(NoAccum{}); break;
    case AccumKind::plus: f(Plus{}); break;
    case AccumKind::min: f(Min{}); break;
    case AccumKind::max: f(Max{}); break;
    case AccumKind::second: f(Second{}); break;
    case AccumKind::kCount: break;
  }
}

template <typename F>
void with_semiring(SemiringKind k, F &&f) {
  switch (k) {
    case SemiringKind::plus_times: f(PlusTimes<T>{}); break;
    case SemiringKind::min_plus: f(MinPlus<T>{}); break;
    case SemiringKind::plus_second: f(PlusSecond<T>{}); break;
    case SemiringKind::plus_pair: f(PlusPair<T>{}); break;
    case SemiringKind::lor_land: f(LOrLAnd<T>{}); break;
    case SemiringKind::max_first: f(Semiring<MaxMonoid<T>, First>{}); break;
    case SemiringKind::any_secondi: f(AnySecondI<T>{}); break;
    case SemiringKind::kCount: break;
  }
}

template <typename F>
void with_monoid(MonoidKind k, F &&f) {
  switch (k) {
    case MonoidKind::plus: f(PlusMonoid<T>{}); break;
    case MonoidKind::min: f(MinMonoid<T>{}); break;
    case MonoidKind::max: f(MaxMonoid<T>{}); break;
    case MonoidKind::kCount: break;
  }
}

template <typename F>
void with_binop(BinOpKind k, F &&f) {
  switch (k) {
    case BinOpKind::plus: f(Plus{}); break;
    case BinOpKind::times: f(Times{}); break;
    case BinOpKind::min: f(Min{}); break;
    case BinOpKind::max: f(Max{}); break;
    case BinOpKind::first: f(First{}); break;
    case BinOpKind::second: f(Second{}); break;
    case BinOpKind::minus: f(Minus{}); break;
    case BinOpKind::kCount: break;
  }
}

template <typename F>
void with_select(SelectKind k, F &&f) {
  switch (k) {
    case SelectKind::tril: f(Tril{}); break;
    case SelectKind::triu: f(Triu{}); break;
    case SelectKind::diag: f(Diag{}); break;
    case SelectKind::offdiag: f(OffDiag{}); break;
    case SelectKind::value_ne: f(ValueNe{}); break;
    case SelectKind::value_le: f(ValueLe{}); break;
    case SelectKind::row_lt: f(RowIndexLt{}); break;
    case SelectKind::col_lt: f(ColIndexLt{}); break;
    case SelectKind::kCount: break;
  }
}

template <typename F>
void with_mat_mask(bool has, const Matrix<T> &mask, F &&f) {
  if (has) {
    f(mask);
  } else {
    f(no_mask);
  }
}

template <typename F>
void with_vec_mask(bool has, const Vector<T> &mask, F &&f) {
  if (has) {
    f(mask);
  } else {
    f(no_mask);
  }
}

// ---------------------------------------------------------------------------
// Real-side container construction + mutation prologue
// ---------------------------------------------------------------------------

template <typename Dup>
Matrix<T> mk_mat(const MatData &d, Dup dup) {
  Matrix<T> a(d.m, d.n);
  a.build(std::span<const Index>(d.ri), std::span<const Index>(d.ci),
          std::span<const T>(d.vv), dup);
  switch (d.fmt) {
    case MatFmt::csr: break;  // build leaves CSR
    case MatFmt::bitmap: a.to_bitmap(); break;
    case MatFmt::kCount: break;
  }
  return a;
}

Matrix<T> mk_mat(const MatData &d) { return mk_mat(d, Second{}); }

template <typename Dup>
Vector<T> mk_vec(const VecData &d, Dup dup) {
  Vector<T> u(d.n);
  u.build(std::span<const Index>(d.ix), std::span<const T>(d.vv), dup);
  if (d.fmt == VecFmt::bitmap) u.to_bitmap();
  return u;
}

Vector<T> mk_vec(const VecData &d) { return mk_vec(d, Second{}); }

/// Apply the non-blocking mutation prologue to the real matrix, recording
/// probe answers. Probes force the pending-tuple / zombie machinery: nvals
/// and getElement flush, the reduce walks the flushed structure.
void mutate_real(Matrix<T> &a, const std::vector<Mutation> &muts,
                 std::vector<T> &observed) {
  for (const auto &mu : muts) {
    if (mu.del) {
      a.remove_element(mu.i, mu.j);
    } else if (mu.add) {
      a.accum_element(mu.i, mu.j, mu.v);
    } else {
      a.set_element(mu.i, mu.j, mu.v);
    }
    switch (mu.probe) {
      case 1: observed.push_back(static_cast<T>(a.nvals())); break;
      case 2: {
        auto v = a.get(mu.i, mu.j);
        observed.push_back(v ? *v : kAbsent);
        break;
      }
      case 3: {
        T s = 0;
        reduce(s, NoAccum{}, PlusMonoid<T>{}, a);
        observed.push_back(s);
        break;
      }
      case 4:
        // Flush boundary: merge pending / bury zombies, record nothing.
        // The oracle side applies its map update and does nothing else,
        // so any divergence here is a merge bug, not a probe mismatch.
        a.wait();
        break;
      default: break;
    }
  }
}

void mutate_real(Vector<T> &u, const std::vector<Mutation> &muts,
                 std::vector<T> &observed) {
  for (const auto &mu : muts) {
    if (mu.del) {
      u.remove_element(mu.i);
    } else if (mu.add) {
      auto v = u.get(mu.i);
      u.set_element(mu.i, v ? static_cast<T>(*v + mu.v) : mu.v);
    } else {
      u.set_element(mu.i, mu.v);
    }
    switch (mu.probe) {
      case 1: observed.push_back(static_cast<T>(u.nvals())); break;
      case 2: {
        auto v = u.get(mu.i);
        observed.push_back(v ? *v : kAbsent);
        break;
      }
      case 3: {
        T s = 0;
        reduce(s, NoAccum{}, PlusMonoid<T>{}, u);
        observed.push_back(s);
        break;
      }
      case 4: break;  // flush boundary; vector mutations are eager
      default: break;
    }
  }
}

Result read_mat(const Matrix<T> &a, std::vector<T> observed) {
  Result r;
  r.kind = Result::Kind::matrix;
  r.m = a.nrows();
  r.n = a.ncols();
  std::vector<Index> ri, ci;
  std::vector<T> vv;
  a.extract_tuples(ri, ci, vv);
  r.mat.reserve(ri.size());
  for (std::size_t p = 0; p < ri.size(); ++p) {
    r.mat.emplace_back(ri[p], ci[p], vv[p]);
  }
  std::sort(r.mat.begin(), r.mat.end());
  r.observed = std::move(observed);
  return r;
}

Result read_vec(const Vector<T> &u, std::vector<T> observed) {
  Result r;
  r.kind = Result::Kind::vector;
  r.n = u.size();
  std::vector<Index> ix;
  std::vector<T> vv;
  u.extract_tuples(ix, vv);
  r.vec.reserve(ix.size());
  for (std::size_t p = 0; p < ix.size(); ++p) r.vec.emplace_back(ix[p], vv[p]);
  std::sort(r.vec.begin(), r.vec.end());
  r.observed = std::move(observed);
  return r;
}

Indices mk_indices(bool all, const std::vector<Index> &list) {
  return all ? Indices::all() : Indices(list);
}

/// Fold a fused op's companion output into the probe log: nvals, then
/// (index, value) pairs in ascending index order. The oracle encodes its
/// companions identically (append_ref_observed), so a stamp or prune
/// divergence trips the same Result comparison as the primary output.
void append_vec_observed(std::vector<T> &obs, const Vector<T> &x) {
  obs.push_back(static_cast<T>(x.nvals()));
  std::vector<Index> ix;
  std::vector<T> vv;
  x.extract_tuples(ix, vv);
  std::vector<std::pair<Index, T>> e;
  e.reserve(ix.size());
  for (std::size_t p = 0; p < ix.size(); ++p) e.emplace_back(ix[p], vv[p]);
  std::sort(e.begin(), e.end());
  for (const auto &[i, v] : e) {
    obs.push_back(static_cast<T>(i));
    obs.push_back(v);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// run_real
// ---------------------------------------------------------------------------

Result run_real(const Scenario &s, const RunConfig &rc) {
  ConfigGuard guard(rc);
  // A scenario that pins its own storage width (u32-path and promotion
  // repros) wins over the sweep's fold; the guard still restores on exit.
  if (s.force_index_width != 0) {
    config().force_index_width =
        static_cast<ForceIndexWidth>(s.force_index_width);
  }
  if (s.u32_limit != 0) {
    config().u32_index_limit = s.u32_limit;
    // A lowered limit is about exercising auto-selection and promotion; the
    // sweep's forced-u32 column would instead turn the overflow into the
    // spec'd error. Run those scenarios in auto mode unless they pin a width.
    if (s.force_index_width == 0) {
      config().force_index_width = ForceIndexWidth::auto_select;
    }
  }
  Descriptor d;
  d.transpose_a = s.ta;
  d.transpose_b = s.tb;
  d.mask_complement = s.comp;
  d.mask_structural = s.structural;
  d.replace = s.replace;

  std::vector<T> observed;
  Result r;

  switch (s.op) {
    case OpKind::mxm: {
      Matrix<T> a = mk_mat(s.a), b = mk_mat(s.b), c = mk_mat(s.cinit);
      Matrix<T> mask = mk_mat(s.mmask);
      mutate_real(a, s.a.muts, observed);
      with_mat_mask(s.has_mask, mask, [&](const auto &m) {
        with_accum(s.accum, [&](auto acc) {
          with_semiring(s.sr, [&](auto sr) { mxm(c, m, acc, sr, a, b, d); });
        });
      });
      r = read_mat(c, std::move(observed));
      break;
    }
    case OpKind::mxv:
    case OpKind::vxm: {
      Matrix<T> a = mk_mat(s.a);
      Vector<T> u = mk_vec(s.u), w = mk_vec(s.winit);
      Vector<T> mask = mk_vec(s.vmask);
      mutate_real(a, s.a.muts, observed);
      with_vec_mask(s.has_mask, mask, [&](const auto &m) {
        with_accum(s.accum, [&](auto acc) {
          with_semiring(s.sr, [&](auto sr) {
            if (s.op == OpKind::mxv) {
              mxv(w, m, acc, sr, a, u, d);
            } else {
              vxm(w, m, acc, sr, u, a, d);
            }
          });
        });
      });
      r = read_vec(w, std::move(observed));
      break;
    }
    case OpKind::ewise_add_m:
    case OpKind::ewise_mult_m: {
      Matrix<T> a = mk_mat(s.a), b = mk_mat(s.b), c = mk_mat(s.cinit);
      Matrix<T> mask = mk_mat(s.mmask);
      mutate_real(a, s.a.muts, observed);
      with_mat_mask(s.has_mask, mask, [&](const auto &m) {
        with_accum(s.accum, [&](auto acc) {
          with_binop(s.binop, [&](auto op) {
            if (s.op == OpKind::ewise_add_m) {
              eWiseAdd(c, m, acc, op, a, b, d);
            } else {
              eWiseMult(c, m, acc, op, a, b, d);
            }
          });
        });
      });
      r = read_mat(c, std::move(observed));
      break;
    }
    case OpKind::ewise_add_v:
    case OpKind::ewise_mult_v: {
      Vector<T> u = mk_vec(s.u), v = mk_vec(s.v), w = mk_vec(s.winit);
      Vector<T> mask = mk_vec(s.vmask);
      mutate_real(u, s.u.muts, observed);
      with_vec_mask(s.has_mask, mask, [&](const auto &m) {
        with_accum(s.accum, [&](auto acc) {
          with_binop(s.binop, [&](auto op) {
            if (s.op == OpKind::ewise_add_v) {
              eWiseAdd(w, m, acc, op, u, v, d);
            } else {
              eWiseMult(w, m, acc, op, u, v, d);
            }
          });
        });
      });
      r = read_vec(w, std::move(observed));
      break;
    }
    case OpKind::apply_m: {
      Matrix<T> a = mk_mat(s.a), c = mk_mat(s.cinit);
      Matrix<T> mask = mk_mat(s.mmask);
      mutate_real(a, s.a.muts, observed);
      const T th = s.thunk;
      with_mat_mask(s.has_mask, mask, [&](const auto &m) {
        with_accum(s.accum, [&](auto acc) {
          switch (s.unop) {
            case UnaryKind::identity: apply(c, m, acc, Identity{}, a, d); break;
            case UnaryKind::ainv: apply(c, m, acc, AInv{}, a, d); break;
            case UnaryKind::abs_op: apply(c, m, acc, Abs{}, a, d); break;
            case UnaryKind::one: apply(c, m, acc, One{}, a, d); break;
            case UnaryKind::plus_thunk:
              apply2nd(c, m, acc, Plus{}, a, th, d);
              break;
            case UnaryKind::times_thunk:
              apply2nd(c, m, acc, Times{}, a, th, d);
              break;
            case UnaryKind::kCount: break;
          }
        });
      });
      r = read_mat(c, std::move(observed));
      break;
    }
    case OpKind::apply_v: {
      Vector<T> u = mk_vec(s.u), w = mk_vec(s.winit);
      Vector<T> mask = mk_vec(s.vmask);
      mutate_real(u, s.u.muts, observed);
      const T th = s.thunk;
      with_vec_mask(s.has_mask, mask, [&](const auto &m) {
        with_accum(s.accum, [&](auto acc) {
          switch (s.unop) {
            case UnaryKind::identity: apply(w, m, acc, Identity{}, u, d); break;
            case UnaryKind::ainv: apply(w, m, acc, AInv{}, u, d); break;
            case UnaryKind::abs_op: apply(w, m, acc, Abs{}, u, d); break;
            case UnaryKind::one: apply(w, m, acc, One{}, u, d); break;
            case UnaryKind::plus_thunk:
              apply2nd(w, m, acc, Plus{}, u, th, d);
              break;
            case UnaryKind::times_thunk:
              apply2nd(w, m, acc, Times{}, u, th, d);
              break;
            case UnaryKind::kCount: break;
          }
        });
      });
      r = read_vec(w, std::move(observed));
      break;
    }
    case OpKind::select_m: {
      Matrix<T> a = mk_mat(s.a), c = mk_mat(s.cinit);
      Matrix<T> mask = mk_mat(s.mmask);
      mutate_real(a, s.a.muts, observed);
      with_mat_mask(s.has_mask, mask, [&](const auto &m) {
        with_accum(s.accum, [&](auto acc) {
          with_select(s.sel, [&](auto sel) {
            select(c, m, acc, sel, a, s.thunk, d);
          });
        });
      });
      r = read_mat(c, std::move(observed));
      break;
    }
    case OpKind::select_v: {
      Vector<T> u = mk_vec(s.u), w = mk_vec(s.winit);
      Vector<T> mask = mk_vec(s.vmask);
      mutate_real(u, s.u.muts, observed);
      with_vec_mask(s.has_mask, mask, [&](const auto &m) {
        with_accum(s.accum, [&](auto acc) {
          with_select(s.sel, [&](auto sel) {
            select(w, m, acc, sel, u, s.thunk, d);
          });
        });
      });
      r = read_vec(w, std::move(observed));
      break;
    }
    case OpKind::reduce_m2v: {
      Matrix<T> a = mk_mat(s.a);
      Vector<T> w = mk_vec(s.winit);
      Vector<T> mask = mk_vec(s.vmask);
      mutate_real(a, s.a.muts, observed);
      with_vec_mask(s.has_mask, mask, [&](const auto &m) {
        with_accum(s.accum, [&](auto acc) {
          with_monoid(s.monoid, [&](auto mono) {
            reduce(w, m, acc, mono, a, d);
          });
        });
      });
      r = read_vec(w, std::move(observed));
      break;
    }
    case OpKind::reduce_m2s: {
      Matrix<T> a = mk_mat(s.a);
      mutate_real(a, s.a.muts, observed);
      T sc = s.scalar;
      with_accum(s.accum, [&](auto acc) {
        with_monoid(s.monoid, [&](auto mono) { reduce(sc, acc, mono, a); });
      });
      r.kind = Result::Kind::scalar;
      r.scalar = sc;
      r.observed = std::move(observed);
      break;
    }
    case OpKind::reduce_v2s: {
      Vector<T> u = mk_vec(s.u);
      mutate_real(u, s.u.muts, observed);
      T sc = s.scalar;
      with_accum(s.accum, [&](auto acc) {
        with_monoid(s.monoid, [&](auto mono) { reduce(sc, acc, mono, u); });
      });
      r.kind = Result::Kind::scalar;
      r.scalar = sc;
      r.observed = std::move(observed);
      break;
    }
    case OpKind::transpose_m: {
      Matrix<T> a = mk_mat(s.a), c = mk_mat(s.cinit);
      Matrix<T> mask = mk_mat(s.mmask);
      mutate_real(a, s.a.muts, observed);
      with_mat_mask(s.has_mask, mask, [&](const auto &m) {
        with_accum(s.accum,
                   [&](auto acc) { transpose(c, m, acc, a, d); });
      });
      r = read_mat(c, std::move(observed));
      break;
    }
    case OpKind::kron: {
      Matrix<T> a = mk_mat(s.a), b = mk_mat(s.b), c = mk_mat(s.cinit);
      Matrix<T> mask = mk_mat(s.mmask);
      mutate_real(a, s.a.muts, observed);
      with_mat_mask(s.has_mask, mask, [&](const auto &m) {
        with_accum(s.accum, [&](auto acc) {
          with_binop(s.binop,
                     [&](auto op) { kronecker(c, m, acc, op, a, b, d); });
        });
      });
      r = read_mat(c, std::move(observed));
      break;
    }
    case OpKind::extract_v: {
      Vector<T> u = mk_vec(s.u), w = mk_vec(s.winit);
      Vector<T> mask = mk_vec(s.vmask);
      mutate_real(u, s.u.muts, observed);
      const Indices ix = mk_indices(s.rows_all, s.rows);
      with_vec_mask(s.has_mask, mask, [&](const auto &m) {
        with_accum(s.accum,
                   [&](auto acc) { extract(w, m, acc, u, ix, d); });
      });
      r = read_vec(w, std::move(observed));
      break;
    }
    case OpKind::extract_m: {
      Matrix<T> a = mk_mat(s.a), c = mk_mat(s.cinit);
      Matrix<T> mask = mk_mat(s.mmask);
      mutate_real(a, s.a.muts, observed);
      const Indices rows = mk_indices(s.rows_all, s.rows);
      const Indices cols = mk_indices(s.cols_all, s.cols);
      with_mat_mask(s.has_mask, mask, [&](const auto &m) {
        with_accum(s.accum,
                   [&](auto acc) { extract(c, m, acc, a, rows, cols, d); });
      });
      r = read_mat(c, std::move(observed));
      break;
    }
    case OpKind::extract_col: {
      Matrix<T> a = mk_mat(s.a);
      Vector<T> w = mk_vec(s.winit);
      Vector<T> mask = mk_vec(s.vmask);
      mutate_real(a, s.a.muts, observed);
      with_vec_mask(s.has_mask, mask, [&](const auto &m) {
        with_accum(s.accum,
                   [&](auto acc) { extract_col(w, m, acc, a, s.col, d); });
      });
      r = read_vec(w, std::move(observed));
      break;
    }
    case OpKind::assign_vv: {
      Vector<T> u = mk_vec(s.u), w = mk_vec(s.winit);
      Vector<T> mask = mk_vec(s.vmask);
      mutate_real(u, s.u.muts, observed);
      const Indices ix = mk_indices(s.rows_all, s.rows);
      with_vec_mask(s.has_mask, mask, [&](const auto &m) {
        with_accum(s.accum,
                   [&](auto acc) { assign(w, m, acc, u, ix, d); });
      });
      r = read_vec(w, std::move(observed));
      break;
    }
    case OpKind::assign_vs: {
      Vector<T> w = mk_vec(s.winit);
      Vector<T> mask = mk_vec(s.vmask);
      const Indices ix = mk_indices(s.rows_all, s.rows);
      with_vec_mask(s.has_mask, mask, [&](const auto &m) {
        with_accum(s.accum,
                   [&](auto acc) { assign(w, m, acc, s.scalar, ix, d); });
      });
      r = read_vec(w, std::move(observed));
      break;
    }
    case OpKind::assign_ms: {
      Matrix<T> c = mk_mat(s.cinit);
      Matrix<T> mask = mk_mat(s.mmask);
      const Indices rows = mk_indices(s.rows_all, s.rows);
      const Indices cols = mk_indices(s.cols_all, s.cols);
      with_mat_mask(s.has_mask, mask, [&](const auto &m) {
        with_accum(s.accum, [&](auto acc) {
          assign(c, m, acc, s.scalar, rows, cols, d);
        });
      });
      r = read_mat(c, std::move(observed));
      break;
    }
    case OpKind::assign_mm: {
      Matrix<T> a = mk_mat(s.a), c = mk_mat(s.cinit);
      Matrix<T> mask = mk_mat(s.mmask);
      mutate_real(a, s.a.muts, observed);
      const Indices rows = mk_indices(s.rows_all, s.rows);
      const Indices cols = mk_indices(s.cols_all, s.cols);
      with_mat_mask(s.has_mask, mask, [&](const auto &m) {
        with_accum(s.accum,
                   [&](auto acc) { assign(c, m, acc, a, rows, cols, d); });
      });
      r = read_mat(c, std::move(observed));
      break;
    }
    case OpKind::dup_m: {
      // build with duplicate combining, then GrB_Matrix_dup (copy) and read
      // the copy back through extractTuples.
      Matrix<T> a(s.a.m, s.a.n);
      with_binop(s.binop, [&](auto dup) { a = mk_mat(s.a, dup); });
      Matrix<T> copy = a;
      r = read_mat(copy, std::move(observed));
      break;
    }
    case OpKind::dup_v: {
      Vector<T> u(s.u.n);
      with_binop(s.binop, [&](auto dup) { u = mk_vec(s.u, dup); });
      Vector<T> copy = u;
      r = read_vec(copy, std::move(observed));
      break;
    }
    case OpKind::mutate_m: {
      Matrix<T> a = mk_mat(s.a);
      mutate_real(a, s.a.muts, observed);
      r = read_mat(a, std::move(observed));
      break;
    }
    case OpKind::mutate_v: {
      Vector<T> u = mk_vec(s.u);
      mutate_real(u, s.u.muts, observed);
      r = read_vec(u, std::move(observed));
      break;
    }
    case OpKind::fused_mxv_apply: {
      Matrix<T> a = mk_mat(s.a);
      Vector<T> u = mk_vec(s.u), w = mk_vec(s.winit);
      Vector<T> mask = mk_vec(s.vmask);
      // Companion stamp targets: the copy target seeded from s.v, the const
      // target empty. Bitmap so the single-sweep fast path is reachable
      // (anything else falls back to the composition, also under test).
      Vector<T> stampc = mk_vec(s.v);
      Vector<T> stampk(w.size());
      stampc.to_bitmap();
      stampk.to_bitmap();
      mutate_real(a, s.a.muts, observed);
      with_semiring(s.sr, [&](auto sr) {
        fused_mxv_apply(w, mask, sr, a, u, d, &stampc, &stampk, s.thunk);
      });
      r = read_vec(w, std::move(observed));
      append_vec_observed(r.observed, stampc);
      append_vec_observed(r.observed, stampk);
      break;
    }
    case OpKind::fused_vxm_select: {
      Matrix<T> a = mk_mat(s.a);
      Vector<T> u = mk_vec(s.u), w = mk_vec(s.winit);
      Vector<T> pruned(w.size());
      mutate_real(a, s.a.muts, observed);
      const T lo = std::min(s.thunk, s.scalar);
      const T hi = std::max(s.thunk, s.scalar) + 1;
      with_semiring(s.sr, [&](auto sr) {
        vxm_select_range(w, pruned, sr, u, a, lo, hi, d);
      });
      r = read_vec(w, std::move(observed));
      append_vec_observed(r.observed, pruned);
      break;
    }
    case OpKind::kCount: break;
  }
  return r;
}

// ---------------------------------------------------------------------------
// run_oracle
// ---------------------------------------------------------------------------

namespace {

OBinary oracle_binop(BinOpKind k) {
  switch (k) {
    case BinOpKind::plus: return [](Value x, Value y) { return x + y; };
    case BinOpKind::times: return [](Value x, Value y) { return x * y; };
    case BinOpKind::min:
      return [](Value x, Value y) { return y < x ? y : x; };
    case BinOpKind::max:
      return [](Value x, Value y) { return x < y ? y : x; };
    case BinOpKind::first: return [](Value x, Value) { return x; };
    case BinOpKind::second: return [](Value, Value y) { return y; };
    case BinOpKind::minus: return [](Value x, Value y) { return x - y; };
    case BinOpKind::kCount: break;
  }
  return [](Value x, Value) { return x; };
}

OAccum oracle_accum(AccumKind k) {
  switch (k) {
    case AccumKind::none: return std::nullopt;
    case AccumKind::plus: return OBinary([](Value x, Value y) { return x + y; });
    case AccumKind::min:
      return OBinary([](Value x, Value y) { return y < x ? y : x; });
    case AccumKind::max:
      return OBinary([](Value x, Value y) { return x < y ? y : x; });
    case AccumKind::second: return OBinary([](Value, Value y) { return y; });
    case AccumKind::kCount: break;
  }
  return std::nullopt;
}

struct OracleSemiring {
  OBinary add;
  OMultiply mult;
};

OracleSemiring oracle_semiring(SemiringKind k) {
  auto plus = [](Value x, Value y) { return x + y; };
  switch (k) {
    case SemiringKind::plus_times:
      return {plus, [](Value a, Value b, Index, Index, Index) { return a * b; }};
    case SemiringKind::min_plus:
      return {[](Value x, Value y) { return y < x ? y : x; },
              [](Value a, Value b, Index, Index, Index) { return a + b; }};
    case SemiringKind::plus_second:
      return {plus, [](Value, Value b, Index, Index, Index) { return b; }};
    case SemiringKind::plus_pair:
      return {plus, [](Value, Value, Index, Index, Index) { return Value{1}; }};
    case SemiringKind::lor_land:
      return {[](Value x, Value y) { return Value(x != 0 || y != 0); },
              [](Value a, Value b, Index, Index, Index) {
                return Value(a != 0 && b != 0);
              }};
    case SemiringKind::max_first:
      return {[](Value x, Value y) { return x < y ? y : x; },
              [](Value a, Value, Index, Index, Index) { return a; }};
    case SemiringKind::any_secondi:
      // `any` monoid: the fold keeps the first value (add returns the
      // accumulator); multiply is the positional SecondI (the inner index k).
      return {[](Value x, Value) { return x; },
              [](Value, Value, Index, Index k, Index) {
                return static_cast<Value>(k);
              }};
    case SemiringKind::kCount: break;
  }
  return {plus, [](Value a, Value b, Index, Index, Index) { return a * b; }};
}

Value oracle_identity(MonoidKind k) {
  switch (k) {
    case MonoidKind::plus: return 0;
    case MonoidKind::min: return std::numeric_limits<Value>::max();
    case MonoidKind::max: return std::numeric_limits<Value>::lowest();
    case MonoidKind::kCount: break;
  }
  return 0;
}

OBinary oracle_monoid(MonoidKind k) {
  switch (k) {
    case MonoidKind::plus: return [](Value x, Value y) { return x + y; };
    case MonoidKind::min:
      return [](Value x, Value y) { return y < x ? y : x; };
    case MonoidKind::max:
      return [](Value x, Value y) { return x < y ? y : x; };
    case MonoidKind::kCount: break;
  }
  return [](Value x, Value y) { return x + y; };
}

OUnary oracle_unary(UnaryKind k, Value thunk) {
  switch (k) {
    case UnaryKind::identity: return [](Value x) { return x; };
    case UnaryKind::ainv: return [](Value x) { return -x; };
    case UnaryKind::abs_op: return [](Value x) { return x < 0 ? -x : x; };
    case UnaryKind::one: return [](Value) { return Value{1}; };
    case UnaryKind::plus_thunk:
      return [thunk](Value x) { return x + thunk; };
    case UnaryKind::times_thunk:
      return [thunk](Value x) { return x * thunk; };
    case UnaryKind::kCount: break;
  }
  return [](Value x) { return x; };
}

// Transcribed from grb/ops.hpp index-unary predicates — including the
// unsigned thunk cast of RowIndexLt/ColIndexLt, which is part of the spec'd
// behavior (a negative thunk wraps and keeps everything).
OSelect oracle_select(SelectKind k) {
  switch (k) {
    case SelectKind::tril:
      return [](Value, Index i, Index j, Value th) {
        return static_cast<std::int64_t>(j) <=
               static_cast<std::int64_t>(i) + th;
      };
    case SelectKind::triu:
      return [](Value, Index i, Index j, Value th) {
        return static_cast<std::int64_t>(j) >=
               static_cast<std::int64_t>(i) + th;
      };
    case SelectKind::diag:
      return [](Value, Index i, Index j, Value th) {
        return static_cast<std::int64_t>(j) ==
               static_cast<std::int64_t>(i) + th;
      };
    case SelectKind::offdiag:
      return [](Value, Index i, Index j, Value th) {
        return static_cast<std::int64_t>(j) !=
               static_cast<std::int64_t>(i) + th;
      };
    case SelectKind::value_ne:
      return [](Value x, Index, Index, Value th) { return x != th; };
    case SelectKind::value_le:
      return [](Value x, Index, Index, Value th) { return x <= th; };
    case SelectKind::row_lt:
      return [](Value, Index i, Index, Value th) {
        return i < static_cast<Index>(th);
      };
    case SelectKind::col_lt:
      return [](Value, Index, Index j, Value th) {
        return j < static_cast<Index>(th);
      };
    case SelectKind::kCount: break;
  }
  return [](Value, Index, Index, Value) { return true; };
}

RefMat mk_ref(const MatData &d, const OBinary &dup) {
  return oracle::build_mat(d.m, d.n, d.ri, d.ci, d.vv, dup);
}

RefVec mk_ref(const VecData &d, const OBinary &dup) {
  return oracle::build_vec(d.n, d.ix, d.vv, dup);
}

OBinary last_wins() {
  return [](Value, Value y) { return y; };
}

void mutate_ref(RefMat &a, const std::vector<Mutation> &muts,
                std::vector<Value> &observed) {
  for (const auto &mu : muts) {
    if (mu.del) {
      a.remove(mu.i, mu.j);
    } else if (mu.add) {
      auto v = a.get(mu.i, mu.j);
      a.set(mu.i, mu.j, v ? *v + mu.v : mu.v);
    } else {
      a.set(mu.i, mu.j, mu.v);
    }
    switch (mu.probe) {
      case 1: observed.push_back(static_cast<Value>(a.e.size())); break;
      case 2: {
        auto v = a.get(mu.i, mu.j);
        observed.push_back(v ? *v : kAbsent);
        break;
      }
      case 3: {
        Value sum = 0;
        for (const auto &[ij, x] : a.e) sum += x;
        observed.push_back(sum);
        break;
      }
      default: break;
    }
  }
}

void mutate_ref(RefVec &u, const std::vector<Mutation> &muts,
                std::vector<Value> &observed) {
  for (const auto &mu : muts) {
    if (mu.del) {
      u.remove(mu.i);
    } else if (mu.add) {
      auto v = u.get(mu.i);
      u.set(mu.i, v ? *v + mu.v : mu.v);
    } else {
      u.set(mu.i, mu.v);
    }
    switch (mu.probe) {
      case 1: observed.push_back(static_cast<Value>(u.e.size())); break;
      case 2: {
        auto v = u.get(mu.i);
        observed.push_back(v ? *v : kAbsent);
        break;
      }
      case 3: {
        Value sum = 0;
        for (const auto &[i, x] : u.e) sum += x;
        observed.push_back(sum);
        break;
      }
      default: break;
    }
  }
}

Result read_ref(const RefMat &a, std::vector<Value> observed) {
  Result r;
  r.kind = Result::Kind::matrix;
  r.m = a.m;
  r.n = a.n;
  for (const auto &[ij, v] : a.e) r.mat.emplace_back(ij.first, ij.second, v);
  r.observed = std::move(observed);
  return r;
}

Result read_ref(const RefVec &u, std::vector<Value> observed) {
  Result r;
  r.kind = Result::Kind::vector;
  r.n = u.n;
  for (const auto &[i, v] : u.e) r.vec.emplace_back(i, v);
  r.observed = std::move(observed);
  return r;
}

oracle::OIndices mk_oindices(bool all, const std::vector<Index> &list) {
  oracle::OIndices ix;
  ix.all = all;
  ix.list = list;
  return ix;
}

/// Oracle twin of append_vec_observed: nvals then ascending (index, value)
/// pairs (std::map iterates in index order already).
void append_ref_observed(std::vector<Value> &obs, const RefVec &x) {
  obs.push_back(static_cast<Value>(x.e.size()));
  for (const auto &[i, v] : x.e) {
    obs.push_back(static_cast<Value>(i));
    obs.push_back(v);
  }
}

}  // namespace

Result run_oracle(const Scenario &s) {
  ODesc d;
  d.transpose_a = s.ta;
  d.transpose_b = s.tb;
  d.complement = s.comp;
  d.structural = s.structural;
  d.replace = s.replace;

  const OAccum accum = oracle_accum(s.accum);
  const OBinary lw = last_wins();
  std::vector<Value> observed;

  RefMat a = mk_ref(s.a, lw), b = mk_ref(s.b, lw);
  RefMat c = mk_ref(s.cinit, lw);
  RefMat mmask = mk_ref(s.mmask, lw);
  RefVec u = mk_ref(s.u, lw), v = mk_ref(s.v, lw);
  RefVec w = mk_ref(s.winit, lw);
  RefVec vmask = mk_ref(s.vmask, lw);
  const RefMat *mmp = s.has_mask ? &mmask : nullptr;
  const RefVec *vmp = s.has_mask ? &vmask : nullptr;

  switch (s.op) {
    case OpKind::mxm: {
      mutate_ref(a, s.a.muts, observed);
      auto sr = oracle_semiring(s.sr);
      oracle::mxm(c, mmp, accum, sr.add, sr.mult, a, b, d);
      return read_ref(c, std::move(observed));
    }
    case OpKind::mxv: {
      mutate_ref(a, s.a.muts, observed);
      auto sr = oracle_semiring(s.sr);
      oracle::mxv(w, vmp, accum, sr.add, sr.mult, a, u, d);
      return read_ref(w, std::move(observed));
    }
    case OpKind::vxm: {
      mutate_ref(a, s.a.muts, observed);
      auto sr = oracle_semiring(s.sr);
      oracle::vxm(w, vmp, accum, sr.add, sr.mult, u, a, d);
      return read_ref(w, std::move(observed));
    }
    case OpKind::ewise_add_m:
    case OpKind::ewise_mult_m: {
      mutate_ref(a, s.a.muts, observed);
      oracle::ewise_mat(c, mmp, accum, oracle_binop(s.binop), a, b,
                        s.op == OpKind::ewise_add_m, d);
      return read_ref(c, std::move(observed));
    }
    case OpKind::ewise_add_v:
    case OpKind::ewise_mult_v: {
      mutate_ref(u, s.u.muts, observed);
      oracle::ewise_vec(w, vmp, accum, oracle_binop(s.binop), u, v,
                        s.op == OpKind::ewise_add_v, d);
      return read_ref(w, std::move(observed));
    }
    case OpKind::apply_m: {
      mutate_ref(a, s.a.muts, observed);
      oracle::apply_mat(c, mmp, accum, oracle_unary(s.unop, s.thunk), a, d);
      return read_ref(c, std::move(observed));
    }
    case OpKind::apply_v: {
      mutate_ref(u, s.u.muts, observed);
      oracle::apply_vec(w, vmp, accum, oracle_unary(s.unop, s.thunk), u, d);
      return read_ref(w, std::move(observed));
    }
    case OpKind::select_m: {
      mutate_ref(a, s.a.muts, observed);
      oracle::select_mat(c, mmp, accum, oracle_select(s.sel), a, s.thunk, d);
      return read_ref(c, std::move(observed));
    }
    case OpKind::select_v: {
      mutate_ref(u, s.u.muts, observed);
      oracle::select_vec(w, vmp, accum, oracle_select(s.sel), u, s.thunk, d);
      return read_ref(w, std::move(observed));
    }
    case OpKind::reduce_m2v: {
      mutate_ref(a, s.a.muts, observed);
      oracle::reduce_mat_to_vec(w, vmp, accum, oracle_monoid(s.monoid), a, d);
      return read_ref(w, std::move(observed));
    }
    case OpKind::reduce_m2s: {
      mutate_ref(a, s.a.muts, observed);
      Result r;
      r.kind = Result::Kind::scalar;
      r.scalar = oracle::reduce_mat_to_scalar(
          s.scalar, accum, oracle_monoid(s.monoid),
          oracle_identity(s.monoid), a);
      r.observed = std::move(observed);
      return r;
    }
    case OpKind::reduce_v2s: {
      mutate_ref(u, s.u.muts, observed);
      Result r;
      r.kind = Result::Kind::scalar;
      r.scalar = oracle::reduce_vec_to_scalar(
          s.scalar, accum, oracle_monoid(s.monoid),
          oracle_identity(s.monoid), u);
      r.observed = std::move(observed);
      return r;
    }
    case OpKind::transpose_m: {
      mutate_ref(a, s.a.muts, observed);
      oracle::transpose(c, mmp, accum, a, d);
      return read_ref(c, std::move(observed));
    }
    case OpKind::kron: {
      mutate_ref(a, s.a.muts, observed);
      oracle::kronecker(c, mmp, accum, oracle_binop(s.binop), a, b, d);
      return read_ref(c, std::move(observed));
    }
    case OpKind::extract_v: {
      mutate_ref(u, s.u.muts, observed);
      oracle::extract_vec(w, vmp, accum, u, mk_oindices(s.rows_all, s.rows),
                          d);
      return read_ref(w, std::move(observed));
    }
    case OpKind::extract_m: {
      mutate_ref(a, s.a.muts, observed);
      oracle::extract_mat(c, mmp, accum, a, mk_oindices(s.rows_all, s.rows),
                          mk_oindices(s.cols_all, s.cols), d);
      return read_ref(c, std::move(observed));
    }
    case OpKind::extract_col: {
      mutate_ref(a, s.a.muts, observed);
      oracle::extract_col(w, vmp, accum, a, s.col, d);
      return read_ref(w, std::move(observed));
    }
    case OpKind::assign_vv: {
      mutate_ref(u, s.u.muts, observed);
      oracle::assign_vec(w, vmp, accum, u, mk_oindices(s.rows_all, s.rows),
                         d);
      return read_ref(w, std::move(observed));
    }
    case OpKind::assign_vs: {
      oracle::assign_vec_scalar(w, vmp, accum, s.scalar,
                                mk_oindices(s.rows_all, s.rows), d);
      return read_ref(w, std::move(observed));
    }
    case OpKind::assign_ms: {
      oracle::assign_mat_scalar(c, mmp, accum, s.scalar,
                                mk_oindices(s.rows_all, s.rows),
                                mk_oindices(s.cols_all, s.cols), d);
      return read_ref(c, std::move(observed));
    }
    case OpKind::assign_mm: {
      mutate_ref(a, s.a.muts, observed);
      oracle::assign_mat(c, mmp, accum, a, mk_oindices(s.rows_all, s.rows),
                         mk_oindices(s.cols_all, s.cols), d);
      return read_ref(c, std::move(observed));
    }
    case OpKind::dup_m: {
      RefMat built = mk_ref(s.a, oracle_binop(s.binop));
      return read_ref(built, std::move(observed));
    }
    case OpKind::dup_v: {
      RefVec built = mk_ref(s.u, oracle_binop(s.binop));
      return read_ref(built, std::move(observed));
    }
    case OpKind::mutate_m: {
      mutate_ref(a, s.a.muts, observed);
      return read_ref(a, std::move(observed));
    }
    case OpKind::mutate_v: {
      mutate_ref(u, s.u.muts, observed);
      return read_ref(u, std::move(observed));
    }
    case OpKind::fused_mxv_apply: {
      // The unfused composition the fused kernel must match bit-for-bit:
      // masked mxv, then copy⟨s(w)⟩ = w and konst⟨s(w)⟩ = thunk.
      mutate_ref(a, s.a.muts, observed);
      auto sr = oracle_semiring(s.sr);
      oracle::mxv(w, vmp, accum, sr.add, sr.mult, a, u, d);
      RefVec stampc = v;  // seeded from s.v, like the real side
      RefVec stampk(w.n);
      for (const auto &[i, x] : w.e) {
        stampc.set(i, x);
        stampk.set(i, s.thunk);
      }
      Result r = read_ref(w, std::move(observed));
      append_ref_observed(r.observed, stampc);
      append_ref_observed(r.observed, stampk);
      return r;
    }
    case OpKind::fused_vxm_select: {
      // Unmasked vxm, then the [lo, hi) window prune into a companion.
      mutate_ref(a, s.a.muts, observed);
      auto sr = oracle_semiring(s.sr);
      oracle::vxm(w, vmp, accum, sr.add, sr.mult, u, a, d);
      const Value lo = std::min(s.thunk, s.scalar);
      const Value hi = std::max(s.thunk, s.scalar) + 1;
      RefVec pruned(w.n);
      for (const auto &[i, x] : w.e) {
        if (x >= lo && x < hi) pruned.set(i, x);
      }
      Result r = read_ref(w, std::move(observed));
      append_ref_observed(r.observed, pruned);
      return r;
    }
    case OpKind::kCount: break;
  }
  return {};
}

// ---------------------------------------------------------------------------
// Comparison + mismatch reporting
// ---------------------------------------------------------------------------

std::string Mismatch::to_string() const {
  std::ostringstream os;
  os << "conformance mismatch: op=" << op_name(scenario.op)
     << " seed=" << scenario.seed << " config=" << rc.name() << "\n";
  if (!note.empty()) os << note << "\n";
  os << "--- oracle (expected) ---\n" << expected.to_string();
  os << "--- kernels (actual) ---\n" << actual.to_string();
  os << "--- repro ---\n" << serialize(scenario);
  return os.str();
}

std::optional<Mismatch> check_one(const Scenario &s, const RunConfig &rc,
                                  const CorruptHook *corrupt) {
  Mismatch mm;
  mm.scenario = s;
  mm.rc = rc;
  try {
    mm.expected = run_oracle(s);
  } catch (const std::exception &e) {
    mm.note = std::string("oracle threw: ") + e.what();
    return mm;
  }
  try {
    mm.actual = run_real(s, rc);
  } catch (const std::exception &e) {
    mm.note = std::string("real side threw: ") + e.what();
    return mm;
  }
  if (corrupt && *corrupt) (*corrupt)(s, rc, mm.actual);
  if (mm.expected == mm.actual) return std::nullopt;
  return mm;
}

std::optional<Mismatch> check_sweep(const Scenario &s,
                                    std::uint64_t *instances,
                                    const CorruptHook *corrupt) {
  for (const RunConfig &rc : sweep_configs()) {
    if (instances) ++*instances;
    auto mm = check_one(s, rc, corrupt);
    if (mm) return mm;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Minimizer
// ---------------------------------------------------------------------------

namespace {

/// Try one candidate edit: normalize, keep if the failure persists.
bool accept(Scenario &s, Scenario cand, const FailPred &fails) {
  normalize(cand);
  if (!fails(cand)) return false;
  s = std::move(cand);
  return true;
}

/// Drop ranges from a matrix's tuple list: halves first, then singles.
bool shrink_mat_tuples(Scenario &s, MatData Scenario::*field,
                       const FailPred &fails) {
  bool improved = false;
  auto erase_range = [&](std::size_t lo, std::size_t hi) {
    Scenario cand = s;
    MatData &d = cand.*field;
    d.ri.erase(d.ri.begin() + lo, d.ri.begin() + hi);
    d.ci.erase(d.ci.begin() + lo, d.ci.begin() + hi);
    d.vv.erase(d.vv.begin() + lo, d.vv.begin() + hi);
    return accept(s, std::move(cand), fails);
  };
  // Halves.
  while ((s.*field).ri.size() > 1) {
    const std::size_t n = (s.*field).ri.size();
    if (erase_range(n / 2, n) || erase_range(0, n / 2)) {
      improved = true;
      continue;
    }
    break;
  }
  // Singles.
  for (std::size_t p = 0; p < (s.*field).ri.size();) {
    if (erase_range(p, p + 1)) {
      improved = true;
    } else {
      ++p;
    }
  }
  return improved;
}

bool shrink_vec_tuples(Scenario &s, VecData Scenario::*field,
                       const FailPred &fails) {
  bool improved = false;
  auto erase_range = [&](std::size_t lo, std::size_t hi) {
    Scenario cand = s;
    VecData &d = cand.*field;
    d.ix.erase(d.ix.begin() + lo, d.ix.begin() + hi);
    d.vv.erase(d.vv.begin() + lo, d.vv.begin() + hi);
    return accept(s, std::move(cand), fails);
  };
  while ((s.*field).ix.size() > 1) {
    const std::size_t n = (s.*field).ix.size();
    if (erase_range(n / 2, n) || erase_range(0, n / 2)) {
      improved = true;
      continue;
    }
    break;
  }
  for (std::size_t p = 0; p < (s.*field).ix.size();) {
    if (erase_range(p, p + 1)) {
      improved = true;
    } else {
      ++p;
    }
  }
  return improved;
}

template <typename Elem>
bool shrink_plain_list(Scenario &s, std::vector<Elem> Scenario::*field,
                       const FailPred &fails) {
  bool improved = false;
  auto erase_range = [&](std::size_t lo, std::size_t hi) {
    Scenario cand = s;
    auto &l = cand.*field;
    l.erase(l.begin() + lo, l.begin() + hi);
    return accept(s, std::move(cand), fails);
  };
  while ((s.*field).size() > 1) {
    const std::size_t n = (s.*field).size();
    if (erase_range(n / 2, n) || erase_range(0, n / 2)) {
      improved = true;
      continue;
    }
    break;
  }
  for (std::size_t p = 0; p < (s.*field).size();) {
    if (erase_range(p, p + 1)) {
      improved = true;
    } else {
      ++p;
    }
  }
  return improved;
}

bool shrink_muts(Scenario &s, const FailPred &fails) {
  bool improved = false;
  for (auto which : {0, 1}) {
    auto erase_range = [&](std::size_t lo, std::size_t hi) {
      Scenario cand = s;
      auto &muts = which == 0 ? cand.a.muts : cand.u.muts;
      muts.erase(muts.begin() + lo, muts.begin() + hi);
      return accept(s, std::move(cand), fails);
    };
    auto size = [&] { return which == 0 ? s.a.muts.size() : s.u.muts.size(); };
    while (size() > 1) {
      const std::size_t n = size();
      if (erase_range(n / 2, n) || erase_range(0, n / 2)) {
        improved = true;
        continue;
      }
      break;
    }
    for (std::size_t p = 0; p < size();) {
      if (erase_range(p, p + 1)) {
        improved = true;
      } else {
        ++p;
      }
    }
  }
  return improved;
}

bool shrink_dims(Scenario &s, const FailPred &fails) {
  bool improved = false;
  for (auto field : {&Scenario::dm, &Scenario::dk, &Scenario::dn}) {
    // Halve while it still fails, then step down by one.
    while (s.*field > 1) {
      Scenario cand = s;
      cand.*field = std::max<Index>(1, cand.*field / 2);
      if (!accept(s, std::move(cand), fails)) break;
      improved = true;
    }
    while (s.*field > 1) {
      Scenario cand = s;
      cand.*field -= 1;
      if (!accept(s, std::move(cand), fails)) break;
      improved = true;
    }
  }
  return improved;
}

bool clear_flags(Scenario &s, const FailPred &fails) {
  bool improved = false;
  auto try_set = [&](auto set) {
    Scenario cand = s;
    set(cand);
    if (accept(s, std::move(cand), fails)) improved = true;
  };
  if (s.has_mask) try_set([](Scenario &c) { c.has_mask = false; });
  if (s.replace) try_set([](Scenario &c) { c.replace = false; });
  if (s.comp) try_set([](Scenario &c) { c.comp = false; });
  if (s.structural) try_set([](Scenario &c) { c.structural = false; });
  if (s.ta) try_set([](Scenario &c) { c.ta = false; });
  if (s.tb) try_set([](Scenario &c) { c.tb = false; });
  if (s.accum != AccumKind::none) {
    try_set([](Scenario &c) { c.accum = AccumKind::none; });
  }
  if (!s.rows_all) try_set([](Scenario &c) { c.rows_all = true; });
  if (!s.cols_all) try_set([](Scenario &c) { c.cols_all = true; });
  if (s.force_index_width != 0) {
    try_set([](Scenario &c) { c.force_index_width = 0; });
  }
  if (s.u32_limit != 0) try_set([](Scenario &c) { c.u32_limit = 0; });
  return improved;
}

}  // namespace

Scenario minimize(Scenario s, const FailPred &fails) {
  normalize(s);
  if (!fails(s)) return s;  // caller's predicate must hold at the start
  bool improved = true;
  while (improved) {
    improved = false;
    improved |= shrink_dims(s, fails);
    improved |= clear_flags(s, fails);
    improved |= shrink_muts(s, fails);
    improved |= shrink_mat_tuples(s, &Scenario::a, fails);
    improved |= shrink_mat_tuples(s, &Scenario::b, fails);
    improved |= shrink_mat_tuples(s, &Scenario::cinit, fails);
    improved |= shrink_mat_tuples(s, &Scenario::mmask, fails);
    improved |= shrink_vec_tuples(s, &Scenario::u, fails);
    improved |= shrink_vec_tuples(s, &Scenario::v, fails);
    improved |= shrink_vec_tuples(s, &Scenario::winit, fails);
    improved |= shrink_vec_tuples(s, &Scenario::vmask, fails);
    improved |= shrink_plain_list(s, &Scenario::rows, fails);
    improved |= shrink_plain_list(s, &Scenario::cols, fails);
  }
  return s;
}

Scenario minimize_against(const Scenario &s, const RunConfig &rc,
                          const CorruptHook *corrupt) {
  return minimize(s, [&](const Scenario &cand) {
    return check_one(cand, rc, corrupt).has_value();
  });
}

// ---------------------------------------------------------------------------
// Fuzz loop + corpus replay
// ---------------------------------------------------------------------------

FuzzReport fuzz(const FuzzOptions &opt) {
  FuzzReport rep;
  const auto start = std::chrono::steady_clock::now();
  const CorruptHook *hook = opt.corrupt ? &opt.corrupt : nullptr;
  for (std::uint64_t seed = opt.seed;; ++seed) {
    if (opt.max_scenarios && rep.scenarios >= opt.max_scenarios) break;
    if (opt.seconds > 0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (elapsed >= opt.seconds) break;
    }
    if (!opt.max_scenarios && opt.seconds <= 0) break;  // no budget: no work
    Scenario s = generate(seed);
    ++rep.scenarios;
    auto mm = check_sweep(s, &rep.instances, hook);
    if (!mm) continue;
    rep.ok = false;
    rep.failing_seed = seed;
    if (opt.shrink) {
      Scenario small = minimize_against(mm->scenario, mm->rc, hook);
      auto small_mm = check_one(small, mm->rc, hook);
      rep.shrunk = small;
      rep.repro = serialize(small);
      rep.detail = small_mm ? small_mm->to_string() : mm->to_string();
    } else {
      rep.shrunk = mm->scenario;
      rep.repro = serialize(mm->scenario);
      rep.detail = mm->to_string();
    }
    break;
  }
  return rep;
}

std::optional<Mismatch> replay_file(const std::string &path,
                                    std::string *error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open " + path;
    Mismatch mm;
    mm.note = "cannot open " + path;
    return mm;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string perr;
  auto s = parse(buf.str(), &perr);
  if (!s) {
    if (error) *error = path + ": " + perr;
    Mismatch mm;
    mm.note = path + ": parse error: " + perr;
    return mm;
  }
  if (error) error->clear();
  return check_sweep(*s);
}

ReplayOutcome replay_corpus(const std::string &dir) {
  ReplayOutcome out;
  std::error_code ec;
  std::vector<std::filesystem::path> files;
  for (const auto &entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".repro") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto &path : files) {
    ++out.files;
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string perr;
    auto s = parse(buf.str(), &perr);
    if (!s) {
      ++out.failures;
      out.detail += path.string() + ": parse error: " + perr + "\n";
      continue;
    }
    auto mm = check_sweep(*s, &out.instances);
    if (mm) {
      ++out.failures;
      out.detail += path.string() + ":\n" + mm->to_string() + "\n";
    }
  }
  return out;
}

}  // namespace grb::testing
