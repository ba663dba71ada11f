// grb/testing/scenario.hpp — the fuzzer's op-instance description.
//
// A Scenario is pure data: one Table I operation, its descriptor/accumulator/
// semiring choices, every input container as (dims, tuples, storage format),
// an optional non-blocking mutation prologue (setElement/removeElement with
// interleaved probes that force pending-tuple and zombie flushes), and the
// index lists for extract/assign. Scenarios serialize to a line-based text
// format (.repro files) so a shrunk failure is a self-contained, committable
// artifact that `lagraph_cli fuzz --replay` and the conformance ctest suite
// replay byte-for-byte.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "grb/types.hpp"

namespace grb::testing {

// Enumerations are serialized by name (see scenario.cpp); append-only so old
// corpus files keep parsing.

enum class OpKind : int {
  mxm = 0,
  mxv,
  vxm,
  ewise_add_m,
  ewise_mult_m,
  ewise_add_v,
  ewise_mult_v,
  apply_m,
  apply_v,
  select_m,
  select_v,
  reduce_m2v,
  reduce_m2s,
  reduce_v2s,
  transpose_m,
  kron,
  extract_v,
  extract_m,
  extract_col,
  assign_vv,
  assign_vs,
  assign_ms,
  assign_mm,
  dup_m,
  dup_v,
  mutate_m,
  mutate_v,
  // Fused kernels (grb/mxv.hpp, grb/apply.hpp): the real side runs the fused
  // entry point, the oracle composes the unfused primitives — fusion must be
  // bit-invisible. The vector output plus the stamp / prune companions are
  // all folded into Result (companions appended to `observed`).
  fused_mxv_apply,
  fused_vxm_select,
  kCount
};

enum class AccumKind : int { none = 0, plus, min, max, second, kCount };

enum class SemiringKind : int {
  plus_times = 0,
  min_plus,
  plus_second,
  plus_pair,
  lor_land,
  max_first,
  any_secondi,
  kCount
};

enum class MonoidKind : int { plus = 0, min, max, kCount };

enum class BinOpKind : int {
  plus = 0,
  times,
  min,
  max,
  first,
  second,
  minus,
  kCount
};

enum class UnaryKind : int {
  identity = 0,
  ainv,
  abs_op,
  one,
  plus_thunk,   // bind-second: x + thunk (GrB_apply with a bound scalar)
  times_thunk,  // bind-second: x * thunk
  kCount
};

enum class SelectKind : int {
  tril = 0,
  triu,
  diag,
  offdiag,
  value_ne,
  value_le,
  row_lt,
  col_lt,
  kCount
};

/// Storage format requested for a matrix operand (full is reachable only via
/// the full_matrix constructor and is covered by the targeted unit tests).
enum class MatFmt : int { csr = 0, bitmap, kCount };
enum class VecFmt : int { sparse = 0, bitmap, kCount };

/// One step of a non-blocking mutation prologue. `probe` forces a read
/// between mutations: the real side must flush pending tuples / bury zombies
/// to answer it, and the answer itself is compared against the oracle.
/// Probe 4 is a pure flush boundary (wait() on the real side, no-op on the
/// oracle, records nothing): it splits the prologue into batches the way
/// the ingest write path does, so the fuzzer exercises multi-flush
/// interleavings — a zombie staged in batch 1 must stay buried after the
/// merge in batch 2 flushes on top of it.
struct Mutation {
  bool del = false;  // removeElement instead of setElement
  bool add = false;  // accum_element (upsert: add into value, or insert)
  Index i = 0;
  Index j = 0;       // unused for vector mutations
  std::int64_t v = 0;
  int probe = 0;     // 0 none, 1 nvals, 2 getElement(i,j), 3 reduce(plus),
                     // 4 flush boundary (wait(); nothing recorded)
};

struct MatData {
  Index m = 0;
  Index n = 0;
  std::vector<Index> ri, ci;
  std::vector<std::int64_t> vv;
  MatFmt fmt = MatFmt::csr;
  std::vector<Mutation> muts;  // applied after build, before the op
};

struct VecData {
  Index n = 0;
  std::vector<Index> ix;
  std::vector<std::int64_t> vv;
  VecFmt fmt = VecFmt::sparse;
  std::vector<Mutation> muts;
};

struct Scenario {
  std::uint64_t seed = 0;  // provenance: generate(seed) reproduces this
  OpKind op = OpKind::mxm;
  AccumKind accum = AccumKind::none;
  SemiringKind sr = SemiringKind::plus_times;
  MonoidKind monoid = MonoidKind::plus;
  BinOpKind binop = BinOpKind::plus;
  UnaryKind unop = UnaryKind::identity;
  SelectKind sel = SelectKind::tril;
  std::int64_t thunk = 0;
  std::int64_t scalar = 0;  // scalar assign value / scalar-reduce init
  Index col = 0;            // extract_col column

  // Descriptor.
  bool ta = false, tb = false, comp = false, structural = false,
       replace = false;
  bool has_mask = false;

  // Pinned storage width for the real side: 0 = follow the sweep's
  // Config::force_index_width, 1 = u32, 2 = u64. Serialized as `iwidth` —
  // an append-only .repro key, so old files parse unchanged (field stays 0).
  int force_index_width = 0;
  // Lowered Config::u32_index_limit for the real side (0 = default). Lets a
  // tiny corpus scenario sit exactly on the u32 → u64 promotion boundary:
  // containers under the limit store u32, a mutation batch pushing nvals
  // past it must promote. Serialized as `u32limit`, append-only like iwidth.
  Index u32_limit = 0;

  // Logical dimensions; container dims are derived from these (and the index
  // list lengths) by normalize(), so the minimizer can shrink coherently.
  Index dm = 1, dk = 1, dn = 1;

  MatData a, b, cinit, mmask;
  VecData u, v, winit, vmask;

  bool rows_all = true, cols_all = true;
  std::vector<Index> rows, cols;
};

/// The observable outcome of running a scenario (on either side): final
/// output container contents plus the probe log of the mutation prologue.
struct Result {
  enum class Kind : int { matrix = 0, vector, scalar };
  Kind kind = Kind::matrix;
  Index m = 0, n = 0;
  std::vector<std::tuple<Index, Index, std::int64_t>> mat;  // sorted (i, j)
  std::vector<std::pair<Index, std::int64_t>> vec;          // sorted i
  std::int64_t scalar = 0;
  std::vector<std::int64_t> observed;  // probe answers, in prologue order

  bool operator==(const Result &) const = default;
  [[nodiscard]] std::string to_string() const;
};

const char *op_name(OpKind op);

/// Re-derive container dims from the logical dims + index lists, clamp every
/// tuple/list/mutation into range, and enforce op-specific constraints
/// (unique assign lists, matching mutation shapes). Generation and every
/// minimizer edit funnel through this, so a Scenario in flight is always
/// executable on both sides.
void normalize(Scenario &s);

/// Deterministic scenario generation: same seed, same scenario.
Scenario generate(std::uint64_t seed);

/// Text (de)serialization — the .repro format.
std::string serialize(const Scenario &s);
std::optional<Scenario> parse(const std::string &text, std::string *error);

}  // namespace grb::testing
