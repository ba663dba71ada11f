// scenario.cpp — serialization, normalization, and seeded generation of
// conformance scenarios (see grb/testing/scenario.hpp).
#include "grb/testing/scenario.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <sstream>
#include <unordered_set>

namespace grb::testing {

// ---------------------------------------------------------------------------
// Enum <-> name tables (serialized by name; append-only).
// ---------------------------------------------------------------------------

namespace {

constexpr std::array<const char *, static_cast<int>(OpKind::kCount)> kOpNames{
    "mxm",        "mxv",        "vxm",         "ewise_add_m", "ewise_mult_m",
    "ewise_add_v", "ewise_mult_v", "apply_m",   "apply_v",     "select_m",
    "select_v",   "reduce_m2v", "reduce_m2s",  "reduce_v2s",  "transpose_m",
    "kron",       "extract_v",  "extract_m",   "extract_col", "assign_vv",
    "assign_vs",  "assign_ms",  "assign_mm",   "dup_m",       "dup_v",
    "mutate_m",   "mutate_v",   "fused_mxv_apply", "fused_vxm_select"};

constexpr std::array<const char *, static_cast<int>(AccumKind::kCount)>
    kAccumNames{"none", "plus", "min", "max", "second"};

constexpr std::array<const char *, static_cast<int>(SemiringKind::kCount)>
    kSrNames{"plus_times", "min_plus",  "plus_second", "plus_pair",
             "lor_land",   "max_first", "any_secondi"};

constexpr std::array<const char *, static_cast<int>(MonoidKind::kCount)>
    kMonoidNames{"plus", "min", "max"};

constexpr std::array<const char *, static_cast<int>(BinOpKind::kCount)>
    kBinOpNames{"plus", "times", "min", "max", "first", "second", "minus"};

constexpr std::array<const char *, static_cast<int>(UnaryKind::kCount)>
    kUnaryNames{"identity", "ainv", "abs", "one", "plus_thunk", "times_thunk"};

constexpr std::array<const char *, static_cast<int>(SelectKind::kCount)>
    kSelectNames{"tril",     "triu",     "diag",   "offdiag",
                 "value_ne", "value_le", "row_lt", "col_lt"};

constexpr std::array<const char *, static_cast<int>(MatFmt::kCount)>
    kMatFmtNames{"csr", "bitmap"};

constexpr std::array<const char *, static_cast<int>(VecFmt::kCount)>
    kVecFmtNames{"sparse", "bitmap"};

template <typename E, std::size_t N>
std::optional<E> from_name(const std::array<const char *, N> &names,
                           const std::string &s) {
  for (std::size_t i = 0; i < N; ++i) {
    if (s == names[i]) return static_cast<E>(i);
  }
  return std::nullopt;
}

}  // namespace

const char *op_name(OpKind op) { return kOpNames[static_cast<int>(op)]; }

// ---------------------------------------------------------------------------
// Per-op feature table: which scenario fields an operation consumes. Used by
// normalize() to canonicalize unused fields (stable serialization, honest
// repro files) and by the minimizer to know what is worth perturbing.
// ---------------------------------------------------------------------------

namespace {

struct OpTraits {
  bool uses_a = false, uses_b = false, uses_u = false, uses_v = false;
  bool mat_out = false, vec_out = false, scalar_out = false;
  bool uses_sr = false, uses_monoid = false, uses_binop = false;
  bool uses_unop = false, uses_sel = false;
  bool uses_rows = false, uses_cols = false;
  bool uses_scalar = false, uses_thunk = false, uses_col = false;
  bool uses_ta = false, uses_tb = false;
  bool uses_mask = false, uses_accum = false;
  bool rows_unique = false, cols_unique = false;
  bool keep_dup_tuples = false;  // dup_m / dup_v exercise duplicate combining
  bool probes = false;           // mutation prologue may carry probes
};

OpTraits traits(OpKind op) {
  OpTraits t;
  switch (op) {
    case OpKind::mxm:
      t.uses_a = t.uses_b = t.mat_out = true;
      t.uses_sr = t.uses_ta = t.uses_tb = t.uses_mask = t.uses_accum = true;
      break;
    case OpKind::mxv:
    case OpKind::vxm:
      t.uses_a = t.uses_u = t.vec_out = true;
      t.uses_sr = t.uses_ta = t.uses_mask = t.uses_accum = true;
      break;
    case OpKind::ewise_add_m:
    case OpKind::ewise_mult_m:
      t.uses_a = t.uses_b = t.mat_out = true;
      t.uses_binop = t.uses_mask = t.uses_accum = true;
      break;
    case OpKind::ewise_add_v:
    case OpKind::ewise_mult_v:
      t.uses_u = t.uses_v = t.vec_out = true;
      t.uses_binop = t.uses_mask = t.uses_accum = true;
      break;
    case OpKind::apply_m:
      t.uses_a = t.mat_out = true;
      t.uses_unop = t.uses_thunk = t.uses_mask = t.uses_accum = true;
      break;
    case OpKind::apply_v:
      t.uses_u = t.vec_out = true;
      t.uses_unop = t.uses_thunk = t.uses_mask = t.uses_accum = true;
      break;
    case OpKind::select_m:
      t.uses_a = t.mat_out = true;
      t.uses_sel = t.uses_thunk = t.uses_mask = t.uses_accum = true;
      break;
    case OpKind::select_v:
      t.uses_u = t.vec_out = true;
      t.uses_sel = t.uses_thunk = t.uses_mask = t.uses_accum = true;
      break;
    case OpKind::reduce_m2v:
      t.uses_a = t.vec_out = true;
      t.uses_monoid = t.uses_ta = t.uses_mask = t.uses_accum = true;
      break;
    case OpKind::reduce_m2s:
      t.uses_a = t.scalar_out = true;
      t.uses_monoid = t.uses_scalar = t.uses_accum = true;
      break;
    case OpKind::reduce_v2s:
      t.uses_u = t.scalar_out = true;
      t.uses_monoid = t.uses_scalar = t.uses_accum = true;
      break;
    case OpKind::transpose_m:
      t.uses_a = t.mat_out = true;
      t.uses_ta = t.uses_mask = t.uses_accum = true;
      break;
    case OpKind::kron:
      t.uses_a = t.uses_b = t.mat_out = true;
      t.uses_binop = t.uses_mask = t.uses_accum = true;
      break;
    case OpKind::extract_v:
      t.uses_u = t.vec_out = true;
      t.uses_rows = t.uses_mask = t.uses_accum = true;
      break;
    case OpKind::extract_m:
      t.uses_a = t.mat_out = true;
      t.uses_rows = t.uses_cols = t.uses_ta = t.uses_mask = t.uses_accum =
          true;
      break;
    case OpKind::extract_col:
      t.uses_a = t.vec_out = true;
      t.uses_col = t.uses_ta = t.uses_mask = t.uses_accum = true;
      break;
    case OpKind::assign_vv:
      t.uses_u = t.vec_out = true;
      t.uses_rows = t.uses_mask = t.uses_accum = true;
      break;
    case OpKind::assign_vs:
      t.vec_out = true;
      t.uses_rows = t.uses_scalar = t.uses_mask = t.uses_accum = true;
      break;
    case OpKind::assign_ms:
      t.mat_out = true;
      t.uses_rows = t.uses_cols = t.uses_scalar = t.uses_mask = t.uses_accum =
          true;
      break;
    case OpKind::assign_mm:
      t.uses_a = t.mat_out = true;
      t.uses_rows = t.uses_cols = t.uses_mask = t.uses_accum = true;
      t.rows_unique = t.cols_unique = true;
      break;
    case OpKind::dup_m:
      t.uses_a = t.mat_out = true;
      t.uses_binop = t.keep_dup_tuples = true;
      break;
    case OpKind::dup_v:
      t.uses_u = t.vec_out = true;
      t.uses_binop = t.keep_dup_tuples = true;
      break;
    case OpKind::mutate_m:
      t.uses_a = t.mat_out = true;
      t.probes = true;
      break;
    case OpKind::mutate_v:
      t.uses_u = t.vec_out = true;
      t.probes = true;
      break;
    case OpKind::fused_mxv_apply:
      // w⟨mask⟩ = A ⊕.⊗ u plus the two stamp companions: v seeds the
      // stamp-copy target, thunk is the stamp-const value. Mask mandatory
      // (the entry point takes a vector mask); accum fixed at NoAccum.
      t.uses_a = t.uses_u = t.uses_v = t.vec_out = true;
      t.uses_sr = t.uses_ta = t.uses_mask = t.uses_thunk = true;
      break;
    case OpKind::fused_vxm_select:
      // w = u ⊕.⊗ A plus the [lo, hi) prune companion; thunk/scalar span
      // the window. Unmasked, NoAccum by construction.
      t.uses_a = t.uses_u = t.vec_out = true;
      t.uses_sr = t.uses_ta = t.uses_thunk = t.uses_scalar = true;
      break;
    case OpKind::kCount: break;
  }
  return t;
}

// Last-one-wins tuple dedup, preserving ascending (i, j) output order (the
// real build with Second{} dup produces exactly this content).
void dedup_mat(MatData &a) {
  std::map<std::pair<Index, Index>, std::int64_t> m;
  for (std::size_t p = 0; p < a.ri.size(); ++p) m[{a.ri[p], a.ci[p]}] = a.vv[p];
  a.ri.clear();
  a.ci.clear();
  a.vv.clear();
  for (const auto &[ij, v] : m) {
    a.ri.push_back(ij.first);
    a.ci.push_back(ij.second);
    a.vv.push_back(v);
  }
}

void dedup_vec(VecData &u) {
  std::map<Index, std::int64_t> m;
  for (std::size_t p = 0; p < u.ix.size(); ++p) m[u.ix[p]] = u.vv[p];
  u.ix.clear();
  u.vv.clear();
  for (const auto &[i, v] : m) {
    u.ix.push_back(i);
    u.vv.push_back(v);
  }
}

void clamp_mat(MatData &a, Index m, Index n, bool keep_dups) {
  a.m = m;
  a.n = n;
  std::vector<Index> ri, ci;
  std::vector<std::int64_t> vv;
  for (std::size_t p = 0; p < a.ri.size(); ++p) {
    if (a.ri[p] < m && a.ci[p] < n) {
      ri.push_back(a.ri[p]);
      ci.push_back(a.ci[p]);
      vv.push_back(a.vv[p]);
    }
  }
  a.ri = std::move(ri);
  a.ci = std::move(ci);
  a.vv = std::move(vv);
  if (!keep_dups) dedup_mat(a);
  std::vector<Mutation> muts;
  for (auto mu : a.muts) {
    if (mu.i < m && mu.j < n) muts.push_back(mu);
  }
  a.muts = std::move(muts);
  if (m == 0 || n == 0) {
    a.ri.clear();
    a.ci.clear();
    a.vv.clear();
    a.muts.clear();
  }
}

void clamp_vec(VecData &u, Index n, bool keep_dups) {
  u.n = n;
  std::vector<Index> ix;
  std::vector<std::int64_t> vv;
  for (std::size_t p = 0; p < u.ix.size(); ++p) {
    if (u.ix[p] < n) {
      ix.push_back(u.ix[p]);
      vv.push_back(u.vv[p]);
    }
  }
  u.ix = std::move(ix);
  u.vv = std::move(vv);
  if (!keep_dups) dedup_vec(u);
  std::vector<Mutation> muts;
  for (auto mu : u.muts) {
    if (mu.i < n) muts.push_back(mu);
  }
  u.muts = std::move(muts);
  if (n == 0) {
    u.ix.clear();
    u.vv.clear();
    u.muts.clear();
  }
}

void clamp_list(std::vector<Index> &list, Index domain, bool unique) {
  std::vector<Index> out;
  std::unordered_set<Index> seen;
  for (Index x : list) {
    if (x >= domain) continue;
    if (unique && !seen.insert(x).second) continue;
    out.push_back(x);
  }
  list = std::move(out);
}

}  // namespace

// ---------------------------------------------------------------------------
// normalize
// ---------------------------------------------------------------------------

void normalize(Scenario &s) {
  const OpTraits t = traits(s.op);

  // Logical dims: ≥ 1, capped so a scenario is always tiny.
  auto cap = [](Index &d) { d = std::max<Index>(1, std::min<Index>(d, 64)); };
  cap(s.dm);
  cap(s.dk);
  cap(s.dn);

  // Canonicalize unused selector fields.
  if (!t.uses_sr) s.sr = SemiringKind::plus_times;
  if (!t.uses_monoid) s.monoid = MonoidKind::plus;
  if (!t.uses_binop) s.binop = BinOpKind::plus;
  if (!t.uses_unop) s.unop = UnaryKind::identity;
  if (!t.uses_sel) s.sel = SelectKind::tril;
  if (!t.uses_thunk) s.thunk = 0;
  if (!t.uses_scalar) s.scalar = 0;
  if (!t.uses_ta) s.ta = false;
  if (!t.uses_tb) s.tb = false;
  if (!t.uses_accum) s.accum = AccumKind::none;
  if (!t.uses_mask) {
    s.has_mask = false;
    s.comp = false;
    s.structural = false;
    s.replace = false;
  }
  // The fused mxv+apply entry point takes a mandatory vector mask (BFS's
  // ¬s(parent) shape); scenarios always carry one.
  if (s.op == OpKind::fused_mxv_apply) s.has_mask = true;
  if (!s.has_mask) s.structural = false;
  if (!t.uses_rows) {
    s.rows_all = true;
    s.rows.clear();
  }
  if (!t.uses_cols) {
    s.cols_all = true;
    s.cols.clear();
  }
  if (!t.uses_col) s.col = 0;
  if (!t.probes) {
    // Flush boundaries (probe 4) survive: they record nothing, so they are
    // legal on any op's prologue and keep multi-flush interleavings alive.
    for (auto &mu : s.a.muts) {
      if (mu.probe != 4) mu.probe = 0;
    }
    for (auto &mu : s.u.muts) {
      if (mu.probe != 4) mu.probe = 0;
    }
  }

  // Derive container dims from the logical dims, per op.
  Index out_m = 0, out_n = 0, out_vn = 0;  // matrix / vector output shapes
  const bool keep = t.keep_dup_tuples;
  switch (s.op) {
    case OpKind::mxm:
      clamp_mat(s.a, s.ta ? s.dk : s.dm, s.ta ? s.dm : s.dk, false);
      clamp_mat(s.b, s.tb ? s.dn : s.dk, s.tb ? s.dk : s.dn, false);
      out_m = s.dm;
      out_n = s.dn;
      break;
    case OpKind::mxv:
      clamp_mat(s.a, s.ta ? s.dk : s.dm, s.ta ? s.dm : s.dk, false);
      clamp_vec(s.u, s.dk, false);
      out_vn = s.dm;
      break;
    case OpKind::vxm:
      clamp_mat(s.a, s.ta ? s.dn : s.dk, s.ta ? s.dk : s.dn, false);
      clamp_vec(s.u, s.dk, false);
      out_vn = s.dn;
      break;
    case OpKind::ewise_add_m:
    case OpKind::ewise_mult_m:
      clamp_mat(s.a, s.dm, s.dn, false);
      clamp_mat(s.b, s.dm, s.dn, false);
      out_m = s.dm;
      out_n = s.dn;
      break;
    case OpKind::ewise_add_v:
    case OpKind::ewise_mult_v:
      clamp_vec(s.u, s.dn, false);
      clamp_vec(s.v, s.dn, false);
      out_vn = s.dn;
      break;
    case OpKind::apply_m:
    case OpKind::select_m:
      clamp_mat(s.a, s.dm, s.dn, false);
      out_m = s.dm;
      out_n = s.dn;
      break;
    case OpKind::apply_v:
    case OpKind::select_v:
      clamp_vec(s.u, s.dn, false);
      out_vn = s.dn;
      break;
    case OpKind::reduce_m2v:
      clamp_mat(s.a, s.dm, s.dn, false);
      out_vn = s.ta ? s.dn : s.dm;
      break;
    case OpKind::reduce_m2s:
      clamp_mat(s.a, s.dm, s.dn, false);
      break;
    case OpKind::reduce_v2s:
      clamp_vec(s.u, s.dn, false);
      break;
    case OpKind::transpose_m:
      clamp_mat(s.a, s.dm, s.dn, false);
      out_m = s.ta ? s.dm : s.dn;
      out_n = s.ta ? s.dn : s.dm;
      break;
    case OpKind::kron:
      clamp_mat(s.a, s.dm, s.dn, false);
      clamp_mat(s.b, s.dk, s.dk, false);
      out_m = s.dm * s.dk;
      out_n = s.dn * s.dk;
      break;
    case OpKind::extract_v:
      clamp_vec(s.u, s.dn, false);
      clamp_list(s.rows, s.dn, false);
      out_vn = s.rows_all ? s.dn : static_cast<Index>(s.rows.size());
      break;
    case OpKind::extract_m: {
      clamp_mat(s.a, s.dm, s.dn, false);
      const Index sm = s.ta ? s.dn : s.dm;
      const Index sn = s.ta ? s.dm : s.dn;
      clamp_list(s.rows, sm, false);
      clamp_list(s.cols, sn, false);
      out_m = s.rows_all ? sm : static_cast<Index>(s.rows.size());
      out_n = s.cols_all ? sn : static_cast<Index>(s.cols.size());
      break;
    }
    case OpKind::extract_col:
      clamp_mat(s.a, s.dm, s.dn, false);
      s.col = s.col % (s.ta ? s.dm : s.dn);
      out_vn = s.ta ? s.dn : s.dm;
      break;
    case OpKind::assign_vv:
      clamp_list(s.rows, s.dn, false);
      clamp_vec(s.u,
                s.rows_all ? s.dn : static_cast<Index>(s.rows.size()), false);
      out_vn = s.dn;
      break;
    case OpKind::assign_vs:
      clamp_list(s.rows, s.dn, false);
      out_vn = s.dn;
      break;
    case OpKind::assign_ms:
      clamp_list(s.rows, s.dm, false);
      clamp_list(s.cols, s.dn, false);
      out_m = s.dm;
      out_n = s.dn;
      break;
    case OpKind::assign_mm:
      clamp_list(s.rows, s.dm, /*unique=*/true);
      clamp_list(s.cols, s.dn, /*unique=*/true);
      clamp_mat(s.a, s.rows_all ? s.dm : static_cast<Index>(s.rows.size()),
                s.cols_all ? s.dn : static_cast<Index>(s.cols.size()), false);
      out_m = s.dm;
      out_n = s.dn;
      break;
    case OpKind::dup_m:
    case OpKind::mutate_m:
      clamp_mat(s.a, s.dm, s.dn, keep);
      out_m = s.dm;
      out_n = s.dn;
      break;
    case OpKind::dup_v:
    case OpKind::mutate_v:
      clamp_vec(s.u, s.dn, keep);
      out_vn = s.dn;
      break;
    case OpKind::fused_mxv_apply:
      clamp_mat(s.a, s.ta ? s.dk : s.dm, s.ta ? s.dm : s.dk, false);
      clamp_vec(s.u, s.dk, false);
      clamp_vec(s.v, s.dm, false);  // stamp-copy companion's initial content
      out_vn = s.dm;
      break;
    case OpKind::fused_vxm_select:
      clamp_mat(s.a, s.ta ? s.dn : s.dk, s.ta ? s.dk : s.dn, false);
      clamp_vec(s.u, s.dk, false);
      out_vn = s.dn;
      break;
    case OpKind::kCount: break;
  }

  // Output initial content + mask share the output shape.
  if (t.mat_out) {
    clamp_mat(s.cinit, out_m, out_n, false);
    clamp_mat(s.mmask, s.has_mask ? out_m : 0, s.has_mask ? out_n : 0, false);
    s.winit = VecData{};
    s.vmask = VecData{};
  } else if (t.vec_out) {
    clamp_vec(s.winit, out_vn, false);
    clamp_vec(s.vmask, s.has_mask ? out_vn : 0, false);
    s.cinit = MatData{};
    s.mmask = MatData{};
  } else {
    s.cinit = MatData{};
    s.mmask = MatData{};
    s.winit = VecData{};
    s.vmask = VecData{};
  }
  if (!t.uses_a) s.a = MatData{};
  if (!t.uses_b) s.b = MatData{};
  if (!t.uses_u) s.u = VecData{};
  if (!t.uses_v) s.v = VecData{};

  // Mutation prologues live on the primary input only.
  s.b.muts.clear();
  s.v.muts.clear();
  s.cinit.muts.clear();
  s.mmask.muts.clear();
  s.winit.muts.clear();
  s.vmask.muts.clear();
}

// ---------------------------------------------------------------------------
// Result printing
// ---------------------------------------------------------------------------

std::string Result::to_string() const {
  std::ostringstream os;
  switch (kind) {
    case Kind::matrix:
      os << "matrix " << m << "x" << n << " nvals=" << mat.size() << "\n";
      for (const auto &[i, j, x] : mat) {
        os << "  (" << i << "," << j << ") = " << x << "\n";
      }
      break;
    case Kind::vector:
      os << "vector " << n << " nvals=" << vec.size() << "\n";
      for (const auto &[i, x] : vec) os << "  (" << i << ") = " << x << "\n";
      break;
    case Kind::scalar: os << "scalar " << scalar << "\n"; break;
  }
  if (!observed.empty()) {
    os << "  probes:";
    for (auto x : observed) os << " " << x;
    os << "\n";
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Serialization — line-based text, one key per line. Unknown keys are
// errors (a repro must mean exactly what it says).
// ---------------------------------------------------------------------------

namespace {

void write_muts(std::ostringstream &os, const char *name,
                const std::vector<Mutation> &muts) {
  if (muts.empty()) return;
  os << "muts " << name << " " << muts.size() << "\n";
  for (const auto &mu : muts) {
    os << (mu.del ? "del " : mu.add ? "add " : "set ") << mu.i << " " << mu.j
       << " " << mu.v << " probe=" << mu.probe << "\n";
  }
}

void write_mat(std::ostringstream &os, const char *name, const MatData &a) {
  os << "mat " << name << " " << a.m << " " << a.n << " "
     << kMatFmtNames[static_cast<int>(a.fmt)] << " " << a.ri.size() << "\n";
  for (std::size_t p = 0; p < a.ri.size(); ++p) {
    os << a.ri[p] << " " << a.ci[p] << " " << a.vv[p] << "\n";
  }
  write_muts(os, name, a.muts);
}

void write_vec(std::ostringstream &os, const char *name, const VecData &u) {
  os << "vec " << name << " " << u.n << " "
     << kVecFmtNames[static_cast<int>(u.fmt)] << " " << u.ix.size() << "\n";
  for (std::size_t p = 0; p < u.ix.size(); ++p) {
    os << u.ix[p] << " " << u.vv[p] << "\n";
  }
  write_muts(os, name, u.muts);
}

void write_list(std::ostringstream &os, const char *name, bool all,
                const std::vector<Index> &list) {
  os << name;
  if (all) {
    os << " all";
  } else {
    for (Index x : list) os << " " << x;
  }
  os << "\n";
}

}  // namespace

std::string serialize(const Scenario &s) {
  std::ostringstream os;
  os << "grb-repro v1\n";
  os << "seed " << s.seed << "\n";
  os << "op " << op_name(s.op) << "\n";
  os << "accum " << kAccumNames[static_cast<int>(s.accum)] << "\n";
  os << "sr " << kSrNames[static_cast<int>(s.sr)] << "\n";
  os << "monoid " << kMonoidNames[static_cast<int>(s.monoid)] << "\n";
  os << "binop " << kBinOpNames[static_cast<int>(s.binop)] << "\n";
  os << "unop " << kUnaryNames[static_cast<int>(s.unop)] << "\n";
  os << "sel " << kSelectNames[static_cast<int>(s.sel)] << "\n";
  os << "thunk " << s.thunk << "\n";
  os << "scalar " << s.scalar << "\n";
  os << "col " << s.col << "\n";
  // Append-only key (new parsers read old files; old parsers reject new
  // files loudly rather than silently dropping the pin). Written only when
  // pinned so pre-existing corpus bytes stay stable.
  if (s.force_index_width != 0) {
    os << "iwidth " << s.force_index_width << "\n";
  }
  if (s.u32_limit != 0) {
    os << "u32limit " << s.u32_limit << "\n";
  }
  os << "desc ta=" << s.ta << " tb=" << s.tb << " comp=" << s.comp
     << " struct=" << s.structural << " replace=" << s.replace
     << " mask=" << s.has_mask << "\n";
  os << "dims " << s.dm << " " << s.dk << " " << s.dn << "\n";
  write_list(os, "rows", s.rows_all, s.rows);
  write_list(os, "cols", s.cols_all, s.cols);
  write_mat(os, "a", s.a);
  write_mat(os, "b", s.b);
  write_mat(os, "cinit", s.cinit);
  write_mat(os, "mmask", s.mmask);
  write_vec(os, "u", s.u);
  write_vec(os, "v", s.v);
  write_vec(os, "winit", s.winit);
  write_vec(os, "vmask", s.vmask);
  os << "end\n";
  return os.str();
}

namespace {

struct Parser {
  std::istringstream in;
  std::string err;
  int lineno = 0;

  explicit Parser(const std::string &text) : in(text) {}

  bool next_line(std::string &line) {
    while (std::getline(in, line)) {
      ++lineno;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty() || line[0] == '#') continue;
      return true;
    }
    return false;
  }

  bool fail(const std::string &what) {
    err = "line " + std::to_string(lineno) + ": " + what;
    return false;
  }
};

bool parse_muts(Parser &p, std::istringstream &ls, std::vector<Mutation> &out) {
  std::size_t count = 0;
  std::string name;  // already consumed by caller
  ls >> count;
  for (std::size_t q = 0; q < count; ++q) {
    std::string line;
    if (!p.next_line(line)) return p.fail("truncated mutation list");
    std::istringstream ms(line);
    std::string kind, probe;
    Mutation mu;
    ms >> kind >> mu.i >> mu.j >> mu.v >> probe;
    if (kind != "set" && kind != "del" && kind != "add") {
      return p.fail("bad mutation kind");
    }
    mu.del = kind == "del";
    mu.add = kind == "add";
    if (probe.rfind("probe=", 0) != 0) return p.fail("bad mutation probe");
    mu.probe = std::atoi(probe.c_str() + 6);
    out.push_back(mu);
  }
  return true;
}

bool parse_mat(Parser &p, std::istringstream &ls, MatData &a) {
  std::string fmt;
  std::size_t nz = 0;
  ls >> a.m >> a.n >> fmt >> nz;
  auto f = from_name<MatFmt>(kMatFmtNames, fmt);
  if (!f) return p.fail("unknown matrix format: " + fmt);
  a.fmt = *f;
  a.ri.clear();
  a.ci.clear();
  a.vv.clear();
  for (std::size_t q = 0; q < nz; ++q) {
    std::string line;
    if (!p.next_line(line)) return p.fail("truncated matrix tuples");
    std::istringstream ts(line);
    Index i = 0, j = 0;
    std::int64_t v = 0;
    ts >> i >> j >> v;
    a.ri.push_back(i);
    a.ci.push_back(j);
    a.vv.push_back(v);
  }
  return true;
}

bool parse_vec(Parser &p, std::istringstream &ls, VecData &u) {
  std::string fmt;
  std::size_t nz = 0;
  ls >> u.n >> fmt >> nz;
  auto f = from_name<VecFmt>(kVecFmtNames, fmt);
  if (!f) return p.fail("unknown vector format: " + fmt);
  u.fmt = *f;
  u.ix.clear();
  u.vv.clear();
  for (std::size_t q = 0; q < nz; ++q) {
    std::string line;
    if (!p.next_line(line)) return p.fail("truncated vector tuples");
    std::istringstream ts(line);
    Index i = 0;
    std::int64_t v = 0;
    ts >> i >> v;
    u.ix.push_back(i);
    u.vv.push_back(v);
  }
  return true;
}

bool parse_list(std::istringstream &ls, bool &all, std::vector<Index> &list) {
  all = false;
  list.clear();
  std::string tok;
  while (ls >> tok) {
    if (tok == "all") {
      all = true;
      return true;
    }
    list.push_back(static_cast<Index>(std::stoull(tok)));
  }
  return true;
}

bool parse_flag(const std::string &tok, const char *key, bool &out) {
  const std::string prefix = std::string(key) + "=";
  if (tok.rfind(prefix, 0) != 0) return false;
  out = tok[prefix.size()] == '1';
  return true;
}

}  // namespace

std::optional<Scenario> parse(const std::string &text, std::string *error) {
  Parser p(text);
  Scenario s;
  std::string line;
  auto bail = [&](const std::string &what) -> std::optional<Scenario> {
    p.fail(what);
    if (error) *error = p.err;
    return std::nullopt;
  };
  if (!p.next_line(line) || line != "grb-repro v1") {
    return bail("missing 'grb-repro v1' header");
  }
  while (p.next_line(line)) {
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "end") {
      normalize(s);
      return s;
    } else if (key == "seed") {
      ls >> s.seed;
    } else if (key == "op") {
      std::string name;
      ls >> name;
      auto op = from_name<OpKind>(kOpNames, name);
      if (!op) return bail("unknown op: " + name);
      s.op = *op;
    } else if (key == "accum") {
      std::string name;
      ls >> name;
      auto v = from_name<AccumKind>(kAccumNames, name);
      if (!v) return bail("unknown accum: " + name);
      s.accum = *v;
    } else if (key == "sr") {
      std::string name;
      ls >> name;
      auto v = from_name<SemiringKind>(kSrNames, name);
      if (!v) return bail("unknown semiring: " + name);
      s.sr = *v;
    } else if (key == "monoid") {
      std::string name;
      ls >> name;
      auto v = from_name<MonoidKind>(kMonoidNames, name);
      if (!v) return bail("unknown monoid: " + name);
      s.monoid = *v;
    } else if (key == "binop") {
      std::string name;
      ls >> name;
      auto v = from_name<BinOpKind>(kBinOpNames, name);
      if (!v) return bail("unknown binop: " + name);
      s.binop = *v;
    } else if (key == "unop") {
      std::string name;
      ls >> name;
      auto v = from_name<UnaryKind>(kUnaryNames, name);
      if (!v) return bail("unknown unop: " + name);
      s.unop = *v;
    } else if (key == "sel") {
      std::string name;
      ls >> name;
      auto v = from_name<SelectKind>(kSelectNames, name);
      if (!v) return bail("unknown select op: " + name);
      s.sel = *v;
    } else if (key == "thunk") {
      ls >> s.thunk;
    } else if (key == "scalar") {
      ls >> s.scalar;
    } else if (key == "col") {
      ls >> s.col;
    } else if (key == "iwidth") {
      ls >> s.force_index_width;
      if (s.force_index_width < 0 || s.force_index_width > 2) {
        return bail("iwidth must be 0 (auto), 1 (u32), or 2 (u64)");
      }
    } else if (key == "u32limit") {
      ls >> s.u32_limit;
    } else if (key == "desc") {
      std::string tok;
      while (ls >> tok) {
        if (!parse_flag(tok, "ta", s.ta) && !parse_flag(tok, "tb", s.tb) &&
            !parse_flag(tok, "comp", s.comp) &&
            !parse_flag(tok, "struct", s.structural) &&
            !parse_flag(tok, "replace", s.replace) &&
            !parse_flag(tok, "mask", s.has_mask)) {
          return bail("unknown descriptor token: " + tok);
        }
      }
    } else if (key == "dims") {
      ls >> s.dm >> s.dk >> s.dn;
    } else if (key == "rows") {
      if (!parse_list(ls, s.rows_all, s.rows)) return bail("bad rows list");
    } else if (key == "cols") {
      if (!parse_list(ls, s.cols_all, s.cols)) return bail("bad cols list");
    } else if (key == "mat") {
      std::string name;
      ls >> name;
      MatData *target = name == "a"       ? &s.a
                        : name == "b"     ? &s.b
                        : name == "cinit" ? &s.cinit
                        : name == "mmask" ? &s.mmask
                                          : nullptr;
      if (target == nullptr) return bail("unknown matrix name: " + name);
      if (!parse_mat(p, ls, *target)) break;
    } else if (key == "vec") {
      std::string name;
      ls >> name;
      VecData *target = name == "u"       ? &s.u
                        : name == "v"     ? &s.v
                        : name == "winit" ? &s.winit
                        : name == "vmask" ? &s.vmask
                                          : nullptr;
      if (target == nullptr) return bail("unknown vector name: " + name);
      if (!parse_vec(p, ls, *target)) break;
    } else if (key == "muts") {
      std::string name;
      ls >> name;
      std::vector<Mutation> *target = name == "a"   ? &s.a.muts
                                      : name == "u" ? &s.u.muts
                                                    : nullptr;
      if (target == nullptr) return bail("mutations only allowed on a/u");
      if (!parse_muts(p, ls, *target)) break;
    } else {
      return bail("unknown key: " + key);
    }
  }
  if (error) *error = p.err.empty() ? "missing 'end'" : p.err;
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Seeded generation
// ---------------------------------------------------------------------------

namespace {

/// SplitMix64 — tiny, seedable, and good enough for fuzzing.
struct Rng {
  std::uint64_t state;

  explicit Rng(std::uint64_t seed) : state(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }
  bool chance(int pct) { return below(100) < static_cast<std::uint64_t>(pct); }
  std::int64_t value() {
    // Small signed values, with 0 well represented so valued masks and the
    // lor/land semiring see "present but false" entries.
    return static_cast<std::int64_t>(below(14)) - 4;
  }
};

enum class Shape : int { er_sparse, er_mid, er_dense, power_law, empty, full, diagonal };

Shape pick_shape(Rng &rng) {
  const std::uint64_t r = rng.below(16);
  if (r < 4) return Shape::er_sparse;
  if (r < 7) return Shape::er_mid;
  if (r < 9) return Shape::er_dense;
  if (r < 12) return Shape::power_law;
  if (r < 13) return Shape::empty;
  if (r < 15) return Shape::full;
  return Shape::diagonal;
}

void fill_mat(Rng &rng, MatData &a, Index m, Index n) {
  a = MatData{};
  a.m = m;
  a.n = n;
  a.fmt = static_cast<MatFmt>(rng.below(static_cast<int>(MatFmt::kCount)));
  const Shape shape = pick_shape(rng);
  auto push = [&](Index i, Index j) {
    a.ri.push_back(i);
    a.ci.push_back(j);
    a.vv.push_back(rng.value());
  };
  switch (shape) {
    case Shape::er_sparse:
    case Shape::er_mid:
    case Shape::er_dense: {
      const int pct = shape == Shape::er_sparse ? 8
                      : shape == Shape::er_mid ? 25
                                               : 60;
      for (Index i = 0; i < m; ++i) {
        for (Index j = 0; j < n; ++j) {
          if (rng.chance(pct)) push(i, j);
        }
      }
      break;
    }
    case Shape::power_law:
      // A few hub rows own most of the entries; the tail is near-empty.
      for (Index i = 0; i < m; ++i) {
        const bool hub = rng.chance(20);
        const int pct = hub ? 70 : 5;
        for (Index j = 0; j < n; ++j) {
          if (rng.chance(pct)) push(i, j);
        }
      }
      break;
    case Shape::empty: break;
    case Shape::full:
      for (Index i = 0; i < m; ++i) {
        for (Index j = 0; j < n; ++j) push(i, j);
      }
      break;
    case Shape::diagonal:
      for (Index i = 0; i < std::min(m, n); ++i) push(i, i);
      break;
  }
}

void fill_vec(Rng &rng, VecData &u, Index n) {
  u = VecData{};
  u.n = n;
  u.fmt = static_cast<VecFmt>(rng.below(static_cast<int>(VecFmt::kCount)));
  const std::uint64_t r = rng.below(8);
  int pct = 30;
  if (r == 0) pct = 0;          // empty
  else if (r == 1) pct = 100;   // full
  else if (r < 4) pct = 10;     // sparse
  for (Index i = 0; i < n; ++i) {
    if (rng.chance(pct)) {
      u.ix.push_back(i);
      u.vv.push_back(rng.value());
    }
  }
}

void fill_muts(Rng &rng, std::vector<Mutation> &muts, Index m, Index n,
               bool probes, int count) {
  // Mutations arrive in rounds separated by explicit flush boundaries
  // (probe 4) — the ingest write path's batch/publish cadence. A zombie
  // staged in round 1 must stay buried when round 2's merge lands on the
  // CSR that already absorbed it, so multi-flush interleavings cover the
  // pending/zombie state machine across merges, not just within one.
  const int rounds = 1 + static_cast<int>(rng.below(3));
  for (int r = 0; r < rounds; ++r) {
    for (int q = 0; q < count; ++q) {
      Mutation mu;
      const std::uint64_t k = rng.below(10);
      mu.del = k < 4;
      mu.add = !mu.del && k < 7;  // 30% upsert (accum_element)
      mu.i = rng.below(m);
      mu.j = n == 0 ? 0 : rng.below(n);
      mu.v = rng.value();
      mu.probe = probes && rng.chance(50) ? static_cast<int>(1 + rng.below(3))
                                          : 0;
      muts.push_back(mu);
    }
    if (r + 1 < rounds) {
      Mutation fb;  // flush boundary between rounds (applies its op too)
      fb.del = rng.chance(50);
      fb.i = rng.below(m);
      fb.j = n == 0 ? 0 : rng.below(n);
      fb.v = rng.value();
      fb.probe = 4;
      muts.push_back(fb);
    }
  }
}

void fill_list(Rng &rng, std::vector<Index> &list, bool &all, Index domain,
               bool allow_dups) {
  if (rng.chance(30)) {
    all = true;
    list.clear();
    return;
  }
  all = false;
  list.clear();
  const Index len = 1 + rng.below(domain);
  for (Index k = 0; k < len; ++k) {
    list.push_back(rng.below(domain));
  }
  if (!allow_dups) {
    std::vector<Index> uniq;
    std::unordered_set<Index> seen;
    for (Index x : list) {
      if (seen.insert(x).second) uniq.push_back(x);
    }
    list = std::move(uniq);
  }
}

}  // namespace

Scenario generate(std::uint64_t seed) {
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 0x9e3779b97f4a7c15ULL);
  Scenario s;
  s.seed = seed;
  s.op = static_cast<OpKind>(rng.below(static_cast<int>(OpKind::kCount)));
  const OpTraits t = traits(s.op);

  // Small dims (kron multiplies them, so keep those extra small).
  const Index lo = 1, hi = s.op == OpKind::kron ? 5 : 12;
  s.dm = lo + rng.below(hi);
  s.dk = lo + rng.below(hi);
  s.dn = lo + rng.below(hi);

  s.accum = static_cast<AccumKind>(rng.below(static_cast<int>(AccumKind::kCount)));
  s.sr = static_cast<SemiringKind>(rng.below(static_cast<int>(SemiringKind::kCount)));
  s.monoid = static_cast<MonoidKind>(rng.below(static_cast<int>(MonoidKind::kCount)));
  s.binop = static_cast<BinOpKind>(rng.below(static_cast<int>(BinOpKind::kCount)));
  s.unop = static_cast<UnaryKind>(rng.below(static_cast<int>(UnaryKind::kCount)));
  s.sel = static_cast<SelectKind>(rng.below(static_cast<int>(SelectKind::kCount)));
  s.thunk = static_cast<std::int64_t>(rng.below(9)) - 4;
  s.scalar = rng.value();
  s.ta = rng.chance(35);
  s.tb = rng.chance(35);
  s.has_mask = t.uses_mask && rng.chance(60);
  s.comp = rng.chance(25);
  s.structural = rng.chance(50);
  s.replace = rng.chance(35);
  // Occasionally pin the storage width so the fuzzer reaches u32/u64 paths
  // even on sweep points whose fold leaves width on auto.
  if (rng.chance(25)) s.force_index_width = 1 + rng.below(2);
  // Occasionally shrink the u32 limit so auto-selection and the u32 → u64
  // promotion path run on fuzz-sized containers. Never combined with a
  // forced-u32 pin: there the overflow is the spec'd error, not a promotion.
  if (s.force_index_width == 0 && rng.chance(15)) {
    s.u32_limit = 4 + rng.below(60);
  }

  // Index lists (domains fixed up by normalize; generate in a generous
  // domain so clamping keeps most entries).
  const Index dom = std::max({s.dm, s.dk, s.dn});
  fill_list(rng, s.rows, s.rows_all, dom, !t.rows_unique);
  fill_list(rng, s.cols, s.cols_all, dom, !t.cols_unique);
  s.col = rng.below(dom);

  // Containers, sized generously; normalize clamps to the derived dims.
  fill_mat(rng, s.a, s.dm, s.dn);
  fill_mat(rng, s.b, s.dn, s.dn);
  fill_mat(rng, s.cinit, s.dm, s.dn);
  fill_mat(rng, s.mmask, s.dm, s.dn);
  fill_vec(rng, s.u, dom);
  fill_vec(rng, s.v, dom);
  fill_vec(rng, s.winit, dom);
  fill_vec(rng, s.vmask, dom);

  // Resize the primary operands to their true shapes before adding the
  // mutation prologue (normalize would otherwise drop out-of-range muts).
  normalize(s);
  if (s.op == OpKind::mutate_m || s.op == OpKind::mutate_v || rng.chance(40)) {
    const int count = static_cast<int>(1 + rng.below(t.probes ? 10 : 5));
    if (t.uses_a && s.a.m > 0) {
      fill_muts(rng, s.a.muts, s.a.m, s.a.n, t.probes, count);
    } else if (t.uses_u && s.u.n > 0) {
      fill_muts(rng, s.u.muts, s.u.n, 0, t.probes, count);
    }
  }
  // dup_m / dup_v: inject duplicate tuples on purpose.
  if (t.keep_dup_tuples && !s.a.ri.empty() && s.op == OpKind::dup_m) {
    const int extra = static_cast<int>(1 + rng.below(5));
    for (int q = 0; q < extra; ++q) {
      const std::size_t p = rng.below(s.a.ri.size());
      s.a.ri.push_back(s.a.ri[p]);
      s.a.ci.push_back(s.a.ci[p]);
      s.a.vv.push_back(rng.value());
    }
  }
  if (t.keep_dup_tuples && !s.u.ix.empty() && s.op == OpKind::dup_v) {
    const int extra = static_cast<int>(1 + rng.below(5));
    for (int q = 0; q < extra; ++q) {
      const std::size_t p = rng.below(s.u.ix.size());
      s.u.ix.push_back(s.u.ix[p]);
      s.u.vv.push_back(rng.value());
    }
  }
  normalize(s);
  return s;
}

}  // namespace grb::testing
