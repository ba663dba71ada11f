// grb/plan.cpp — cost model, overrides, and memoization for the execution
// planner. See plan.hpp for the model; this file is the only place a
// push/pull threshold or format-switch constant lives.

#include "grb/plan.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace grb {
namespace plan {

namespace {

/// Constant-factor bias of a pull-side probe over a push-side sequential
/// scatter (random access vs streaming). Calibrated so the unified model
/// reproduces the BC backward threshold (pull iff 2·|next level| < |W|).
constexpr double kPullBias = 2.0;

/// Degree-distribution skew at which the TC presort pays for itself
/// (paper Alg. 6: mean > 4 × median).
constexpr double kTcSkew = 4.0;

/// GAP uses Δ = 2 on [1, 255]-weighted graphs; scale to the actual max.
constexpr double kDeltaDivisor = 128.0;

thread_local PlanCache *g_active_cache = nullptr;

/// log₂ shape bucket: 0 for empty, else bit_width. Two sizes in the same
/// bucket are within 2× of each other — close enough to share a decision.
std::uint64_t bucket(Index x) noexcept {
  return x == 0 ? 0 : std::bit_width(static_cast<std::uint64_t>(x));
}

struct KeyPacker {
  std::uint64_t key = 0;
  int used = 0;
  void pack(std::uint64_t v, int bits) noexcept {
    const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
    key |= (std::min(v, mask) & mask) << used;
    used += bits;
  }
};

double mean_degree(const OpDesc &d) noexcept {
  return d.a_rows > 0
             ? static_cast<double>(d.a_nvals) / static_cast<double>(d.a_rows)
             : 0.0;
}

/// Bytes-moved factor for an edge visit on operand width `w`. The model's
/// units are edge visits; a visit streams one column index plus one 8-byte
/// value, so u32 storage moves 12 bytes where u64 moves 16 — charge 0.75.
/// Both directions of the same operand share the factor, so push/pull
/// crossovers only shift where the constant call overhead matters.
double width_byte_factor(IndexWidth w) noexcept {
  return w == IndexWidth::u32 ? 0.75 : 1.0;
}

bool bitmap_allowed() noexcept {
  return config().bitmap_switch_density <= 1.0 &&
         config().force_format != ForceFormat::sparse;
}

/// Resolve the traversal direction: cost model first, then Config overrides,
/// then the caller hint (an Advanced-mode algorithm's structural
/// requirement, which always wins). A pull is only ever chosen when the
/// caller reported a pull path (cached transpose) exists.
///
/// Both directions carry kCallOverheadUnits (calibration bias #2): a
/// single-vertex frontier was ~6.8× under-estimated because dispatch and
/// write_result dominate when the edge scan is one row. The same constant on
/// both sides leaves large-frontier decisions untouched.
void decide_direction(const OpDesc &d, ExecPlan &p) {
  const double davg = mean_degree(d);
  const double bytes = width_byte_factor(d.a_width);
  p.cost_push =
      kCallOverheadUnits + static_cast<double>(d.u_nvals) * davg * bytes;
  double probe = davg;
  if (d.has_terminal && d.u_nvals > 0) {
    // Terminal monoid (`any`): a dot product stops at the first frontier
    // neighbour, ~out_size/frontier probes in on average.
    probe = std::min(davg, static_cast<double>(d.out_size) /
                               static_cast<double>(d.u_nvals));
  }
  p.cost_pull =
      kCallOverheadUnits +
      kPullBias * static_cast<double>(d.pull_candidates) * probe * bytes;

  const Direction model = (d.has_transpose && p.cost_pull < p.cost_push)
                              ? Direction::pull
                              : Direction::push;
  Direction dir = model;
  Chosen chosen = Chosen::cost_model;
  if (config().force_pull && d.has_transpose) {
    dir = Direction::pull;
    chosen = Chosen::config_override;
  } else if (config().force_push) {
    dir = Direction::push;
    chosen = Chosen::config_override;
  }
  if (d.hint == Direction::push) {
    dir = Direction::push;
    chosen = Chosen::caller_hint;
  } else if (d.hint == Direction::pull) {
    dir = d.has_transpose ? Direction::pull : Direction::push;
    chosen = Chosen::caller_hint;
  }
  if (chosen != Chosen::cost_model && dir != model) {
    stats().plans_overridden.fetch_add(1, std::memory_order_relaxed);
  }
  p.direction = dir;
  p.chosen = chosen;
  if (dir == Direction::pull) {
    stats().plan_pull_decisions.fetch_add(1, std::memory_order_relaxed);
    p.threads = team_size(static_cast<Index>(p.cost_pull));
  } else {
    stats().plan_push_decisions.fetch_add(1, std::memory_order_relaxed);
    p.threads = team_size(static_cast<Index>(p.cost_push));
  }
}

/// Vector format for the dot (pull) kernel's probed operand: bitmap gives
/// O(1) probes (§VI-A); the sparse fallback (binary search) is the format
/// ablation's reference path.
void decide_dot_operand(ExecPlan &p) {
  if (config().force_format == ForceFormat::bitmap) {
    p.u_format = VecFormat::bitmap;
    p.chosen = Chosen::config_override;
  } else if (config().force_format == ForceFormat::sparse) {
    p.u_format = VecFormat::sparse;
    p.chosen = Chosen::config_override;
  } else {
    p.u_format = bitmap_allowed() ? VecFormat::bitmap : VecFormat::sparse;
  }
}

void plan_mxv_vxm(const OpDesc &d, ExecPlan &p) {
  // Direction is structural here: (vxm, no transpose) and (mxv, transpose)
  // scatter — push; the other two run dot products — pull. The planner's
  // job is the probed operand's format and the team size. The fused kinds
  // wrap one of these products (fused_mxv_apply an mxv-shaped masked dot or
  // vxm-shaped scatter, fused_vxm_select an unmasked vxm) and inherit the
  // same direction rule.
  const bool vxm_like =
      d.op == OpKind::vxm || d.op == OpKind::fused_vxm_select;
  const bool push = vxm_like != d.transpose_a;
  const double davg = mean_degree(d);
  const double bytes = width_byte_factor(d.a_width);
  p.cost_push = kCallOverheadUnits +
                static_cast<double>(d.u_nvals) * std::max(1.0, davg) * bytes;
  // Early-exit-aware pull cost (calibration bias #1): a masked dot kernel
  // computes only the mask's candidate outputs, and a terminal additive
  // monoid stops each dot at its first frontier hit. The old model charged
  // the full matrix nnz — ~100× over what late BFS levels actually probe.
  double pull_units = static_cast<double>(d.a_nvals);
  if (d.masked) {
    const double candidates = static_cast<double>(
        d.mask_complement ? std::max<Index>(d.out_size - d.mask_nvals, 1)
                          : std::max<Index>(d.mask_nvals, 1));
    double probe = std::max(1.0, davg);
    if (d.has_terminal && d.u_nvals > 0) {
      probe = std::min(probe, static_cast<double>(d.out_size) /
                                  static_cast<double>(d.u_nvals));
    }
    pull_units = candidates * probe;
  }
  p.cost_pull = kCallOverheadUnits + pull_units * bytes;
  if (push) {
    p.direction = Direction::push;
    p.threads = team_size(static_cast<Index>(p.cost_push));
  } else {
    p.direction = Direction::pull;
    decide_dot_operand(p);
    p.threads = team_size(static_cast<Index>(pull_units));
  }
}

void plan_mxm(const OpDesc &d, ExecPlan &p) {
  p.use_dot = d.transpose_b && d.masked;
  const double cells = static_cast<double>(d.a_rows) *
                       static_cast<double>(d.a_cols);
  if (p.use_dot) {
    // A bitmap first operand turns each dot into O(|B row|) probes — worth
    // it when A is dense enough. Aliased operands (C⟨s(A)⟩ = A ⊕.⊗ Aᵀ)
    // must share one format, so the bitmap path is off.
    bool a_bitmap = !d.operands_aliased && bitmap_allowed() && cells > 0 &&
                    static_cast<double>(d.a_nvals) >
                        cells * std::max(0.125, config().bitmap_switch_density);
    if (config().force_format == ForceFormat::bitmap &&
        !d.operands_aliased) {
      a_bitmap = true;
      p.chosen = Chosen::config_override;
    } else if (config().force_format == ForceFormat::sparse) {
      a_bitmap = false;
      p.chosen = Chosen::config_override;
    }
    p.a_format = a_bitmap ? MatFormat::bitmap : MatFormat::csr;
    p.b_format = MatFormat::csr;
    p.direction = Direction::pull;
  } else {
    p.direction = Direction::push;  // Gustavson scatters row-at-a-time
  }
  if (d.masked) {
    // Dense or complemented masks are probed per candidate product: pay one
    // conversion for O(1) tests (the BC mask ¬s(P) grows dense).
    const bool dense_mask =
        cells > 0 && (d.mask_complement ||
                      static_cast<double>(d.mask_nvals) >
                          cells * config().bitmap_switch_density);
    if (config().force_format == ForceFormat::sparse) {
      p.mask_format = MatFormat::keep;
    } else if (dense_mask || config().force_format == ForceFormat::bitmap) {
      p.mask_format = MatFormat::bitmap;
    }
  }
  p.threads = team_size(d.a_nvals + d.b_nvals);
}

void plan_ewise(const OpDesc &d, ExecPlan &p) {
  // Vector formats are encoded as ints in the desc (sparse=0, bitmap=1,
  // -1 = matrix operands, nothing to decide).
  if (d.u_format >= 0) {
    const bool u_bitmap = d.u_format == 1;
    const bool v_bitmap = d.v_format == 1;
    if (config().force_format == ForceFormat::sparse) {
      p.u_format = VecFormat::sparse;
      p.v_format = VecFormat::sparse;
      if (u_bitmap || v_bitmap) p.chosen = Chosen::config_override;
    } else if (config().force_format == ForceFormat::bitmap) {
      p.u_format = VecFormat::bitmap;
      p.v_format = VecFormat::bitmap;
      if (!u_bitmap || !v_bitmap) p.chosen = Chosen::config_override;
    } else if (d.op == OpKind::ewise_add && (u_bitmap || v_bitmap)) {
      // Union over mixed formats has no fast path: promote both to bitmap
      // and take the dense walk. Intersection keeps mixed formats — the
      // sparse-probes-bitmap path is O(nnz(sparse)).
      p.u_format = VecFormat::bitmap;
      p.v_format = VecFormat::bitmap;
    }
  }
  p.direction = Direction::none;
  p.threads = team_size(d.u_nvals + d.v_nvals);
}

/// Global calibration-coefficient state. Coefficients are racy-update
/// atomics (they're statistics, not invariants); the source string and file
/// I/O take a mutex. Decisions never read these — they only translate model
/// units to nanoseconds for explain/trace output.
struct CalState {
  std::atomic<double> push_ns{0.0};
  std::atomic<double> pull_ns{0.0};
  std::atomic<std::uint64_t> samples{0};
  std::atomic<std::uint64_t> fitted_at{0};
  std::atomic<bool> loaded{false};
  std::mutex mu;       // guards source + lazy-load bookkeeping
  std::string source;
  std::string attempted_path;  // last Config::calibration_file we tried
};

CalState &cal() {
  static CalState c;
  return c;
}

/// Extract `"key": <number>` from a one-object JSON blob. Hand-rolled like
/// the bench/trace writers — no JSON library in the image.
bool json_number(const std::string &text, const char *key, double &out) {
  const std::string needle = std::string("\"") + key + "\"";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return false;
  std::size_t i = text.find(':', at + needle.size());
  if (i == std::string::npos) return false;
  ++i;
  while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
  char *end = nullptr;
  const double v = std::strtod(text.c_str() + i, &end);
  if (end == text.c_str() + i) return false;
  out = v;
  return true;
}

/// Lazily load Config::calibration_file the first time a plan is built
/// under it (or after the path changes). A failed attempt is remembered so
/// a missing file costs one stat, not one per plan.
void maybe_load_calibration() {
  const std::string &path = config().calibration_file;
  if (path.empty()) return;
  {
    std::lock_guard<std::mutex> lk(cal().mu);
    if (cal().attempted_path == path) return;
    cal().attempted_path = path;
  }
  load_calibration(path);
}

}  // namespace

bool load_calibration(const std::string &path) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  if (text.find("\"lagraph-calibration-v1\"") == std::string::npos)
    return false;
  double push_ns = 0.0, pull_ns = 0.0, samples = 0.0, fitted = 0.0;
  if (!json_number(text, "push_ns_per_unit", push_ns) ||
      !json_number(text, "pull_ns_per_unit", pull_ns))
    return false;
  if (push_ns < 0.0 || pull_ns < 0.0) return false;
  json_number(text, "samples", samples);
  json_number(text, "fitted_at_epoch_s", fitted);
  CalState &c = cal();
  c.push_ns.store(push_ns, std::memory_order_relaxed);
  c.pull_ns.store(pull_ns, std::memory_order_relaxed);
  c.samples.store(static_cast<std::uint64_t>(std::max(0.0, samples)),
                  std::memory_order_relaxed);
  c.fitted_at.store(static_cast<std::uint64_t>(std::max(0.0, fitted)),
                    std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(c.mu);
    c.source = path;
    c.attempted_path = path;
  }
  c.loaded.store(true, std::memory_order_release);
  return true;
}

bool save_calibration(const std::string &path) {
  const Calibration c = calibration_snapshot();
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\n"
                "  \"schema\": \"lagraph-calibration-v1\",\n"
                "  \"push_ns_per_unit\": %.6g,\n"
                "  \"pull_ns_per_unit\": %.6g,\n"
                "  \"samples\": %" PRIu64 ",\n"
                "  \"fitted_at_epoch_s\": %" PRIu64 "\n"
                "}\n",
                c.push_ns_per_unit, c.pull_ns_per_unit, c.samples,
                c.fitted_at_epoch_s);
  out << buf;
  return static_cast<bool>(out);
}

Calibration calibration_snapshot() noexcept {
  CalState &s = cal();
  Calibration c;
  c.push_ns_per_unit = s.push_ns.load(std::memory_order_relaxed);
  c.pull_ns_per_unit = s.pull_ns.load(std::memory_order_relaxed);
  c.samples = s.samples.load(std::memory_order_relaxed);
  c.fitted_at_epoch_s = s.fitted_at.load(std::memory_order_relaxed);
  c.loaded = s.loaded.load(std::memory_order_acquire);
  {
    std::lock_guard<std::mutex> lk(s.mu);
    c.source = s.source;
  }
  return c;
}

void set_calibration(const Calibration &c) noexcept {
  CalState &s = cal();
  s.push_ns.store(c.push_ns_per_unit, std::memory_order_relaxed);
  s.pull_ns.store(c.pull_ns_per_unit, std::memory_order_relaxed);
  s.samples.store(c.samples, std::memory_order_relaxed);
  s.fitted_at.store(c.fitted_at_epoch_s, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(s.mu);
    s.source = c.source;
  }
  s.loaded.store(true, std::memory_order_release);
}

void reset_calibration() noexcept {
  CalState &s = cal();
  s.push_ns.store(0.0, std::memory_order_relaxed);
  s.pull_ns.store(0.0, std::memory_order_relaxed);
  s.samples.store(0, std::memory_order_relaxed);
  s.fitted_at.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(s.mu);
    s.source.clear();
    s.attempted_path.clear();
  }
  s.loaded.store(false, std::memory_order_release);
}

const char *name(OpKind k) noexcept {
  switch (k) {
    case OpKind::mxv: return "mxv";
    case OpKind::vxm: return "vxm";
    case OpKind::mxm: return "mxm";
    case OpKind::ewise_add: return "ewise_add";
    case OpKind::ewise_mult: return "ewise_mult";
    case OpKind::apply: return "apply";
    case OpKind::reduce: return "reduce";
    case OpKind::traversal: return "traversal";
    case OpKind::fused_mxv_apply: return "fused_mxv_apply";
    case OpKind::fused_vxm_select: return "fused_vxm_select";
  }
  return "?";
}

const char *name(Direction d) noexcept {
  switch (d) {
    case Direction::none: return "n/a";
    case Direction::push: return "push";
    case Direction::pull: return "pull";
  }
  return "?";
}

const char *name(MatFormat f) noexcept {
  switch (f) {
    case MatFormat::keep: return "keep";
    case MatFormat::csr: return "csr";
    case MatFormat::bitmap: return "bitmap";
  }
  return "?";
}

const char *name(VecFormat f) noexcept {
  switch (f) {
    case VecFormat::keep: return "keep";
    case VecFormat::sparse: return "sparse";
    case VecFormat::bitmap: return "bitmap";
  }
  return "?";
}

const char *name(Chosen c) noexcept {
  switch (c) {
    case Chosen::cost_model: return "cost model";
    case Chosen::config_override: return "config override";
    case Chosen::caller_hint: return "caller hint";
    case Chosen::cached: return "cached";
  }
  return "?";
}

std::uint64_t cache_key(const OpDesc &d) noexcept {
  KeyPacker k;
  k.pack(static_cast<std::uint64_t>(d.op), 4);
  k.pack(bucket(d.a_nvals), 6);
  // 5-bit buckets clamp ≥ 2^30 — plenty for these inputs; the freed bits
  // carry the storage-width dimension below (the packer is budgeted at
  // exactly 64 bits).
  k.pack(bucket(d.u_nvals), 5);
  k.pack(bucket(d.pull_candidates), 5);
  k.pack(bucket(d.mask_nvals), 5);
  k.pack(bucket(d.out_size), 5);
  k.pack(bucket(d.v_nvals), 5);
  k.pack(bucket(d.b_nvals), 5);
  // Width is a plan dimension: a u32 snapshot and a u64 intermediate with
  // the same shape must not share a byte-cost decision.
  k.pack((d.a_width == IndexWidth::u32 ? 1u : 0u) |
             (d.b_width == IndexWidth::u32 ? 2u : 0u),
         2);
  k.pack((d.masked ? 1u : 0u) | (d.mask_complement ? 2u : 0u) |
             (d.mask_structural ? 4u : 0u) | (d.transpose_a ? 8u : 0u) |
             (d.transpose_b ? 16u : 0u) | (d.has_terminal ? 32u : 0u) |
             (d.operands_aliased ? 64u : 0u) | (d.has_transpose ? 128u : 0u),
         8);
  k.pack(static_cast<std::uint64_t>(d.hint), 2);
  // Config knobs are part of the key: a cached decision must never outlive
  // the overrides it was made under.
  k.pack((config().force_push ? 1u : 0u) | (config().force_pull ? 2u : 0u) |
             (bitmap_allowed() ? 4u : 0u),
         3);
  k.pack(static_cast<std::uint64_t>(config().force_format), 2);
  k.pack(static_cast<std::uint64_t>(config().force_index_width), 2);
  k.pack(static_cast<std::uint64_t>(d.u_format + 1), 2);
  k.pack(static_cast<std::uint64_t>(d.v_format + 1), 2);
  return k.key;
}

PlanCache *active_cache() noexcept { return g_active_cache; }

CacheScope::CacheScope(PlanCache *cache) noexcept : prev_(g_active_cache) {
  g_active_cache = cache;
}

CacheScope::~CacheScope() { g_active_cache = prev_; }

ExecPlan make_plan(const OpDesc &d) {
  PlanCache *cache = g_active_cache;
  std::uint64_t key = 0;
  if (cache != nullptr) {
    key = cache_key(d);
    ExecPlan hit;
    if (cache->lookup(key, hit)) {
      stats().plans_cached.fetch_add(1, std::memory_order_relaxed);
      hit.chosen = Chosen::cached;
      return hit;
    }
  }

  stats().plans_built.fetch_add(1, std::memory_order_relaxed);
  maybe_load_calibration();
  ExecPlan p;
  p.op = d.op;
  p.desc = d;
  switch (d.op) {
    case OpKind::mxv:
    case OpKind::vxm:
    case OpKind::fused_mxv_apply:
    case OpKind::fused_vxm_select:
      plan_mxv_vxm(d, p);
      break;
    case OpKind::mxm:
      plan_mxm(d, p);
      break;
    case OpKind::ewise_add:
    case OpKind::ewise_mult:
      plan_ewise(d, p);
      break;
    case OpKind::apply:
    case OpKind::reduce:
      p.threads = team_size(std::max(d.a_nvals, d.u_nvals));
      break;
    case OpKind::traversal:
      decide_direction(d, p);
      break;
  }
  if (cache != nullptr) cache->insert(key, p);
  return p;
}

VecFormat iterative_output_format(Index) noexcept {
  // Bitmap keeps per-round masked assigns O(|update|) instead of rebuilding
  // O(n) arrays (the BFS/SSSP hot loops); the sparse pin is the reference
  // path of the equivalence suite.
  return config().force_format == ForceFormat::sparse ? VecFormat::sparse
                                                      : VecFormat::bitmap;
}

bool tc_presort(double mean_deg, double median_deg) noexcept {
  return mean_deg > kTcSkew * median_deg;
}

double sssp_default_delta(double max_weight) noexcept {
  return std::max(1.0, max_weight / kDeltaDivisor);
}

std::string ExecPlan::explain_line() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s dir=%s (%s) A %" PRIu64 "x%" PRIu64 " nnz=%" PRIu64
                " %s u=%" PRIu64 " t=%d cost push=%.0f pull=%.0f",
                name(op), name(direction), name(chosen),
                static_cast<std::uint64_t>(desc.a_rows),
                static_cast<std::uint64_t>(desc.a_cols),
                static_cast<std::uint64_t>(desc.a_nvals),
                index_width_name(desc.a_width),
                static_cast<std::uint64_t>(desc.u_nvals), threads, cost_push,
                cost_pull);
  return buf;
}

std::string ExecPlan::explain() const {
  char buf[640];
  std::string out;
  std::snprintf(buf, sizeof(buf), "plan %s: direction=%s (%s)\n", name(op),
                name(direction), name(chosen));
  out += buf;
  std::snprintf(
      buf, sizeof(buf),
      "  inputs: A %" PRIu64 "x%" PRIu64 " nnz=%" PRIu64
      " (mean degree %.1f), frontier/u nnz=%" PRIu64 ", pull candidates=%"
      PRIu64 "\n",
      static_cast<std::uint64_t>(desc.a_rows),
      static_cast<std::uint64_t>(desc.a_cols),
      static_cast<std::uint64_t>(desc.a_nvals),
      desc.a_rows > 0 ? static_cast<double>(desc.a_nvals) /
                            static_cast<double>(desc.a_rows)
                      : 0.0,
      static_cast<std::uint64_t>(desc.u_nvals),
      static_cast<std::uint64_t>(desc.pull_candidates));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  storage: A index width=%s (%zu B/index, %.2fx edge-scan"
                " bytes)%s%s\n",
                index_width_name(desc.a_width),
                index_width_bytes(desc.a_width),
                width_byte_factor(desc.a_width),
                op == OpKind::mxm ? ", B index width=" : "",
                op == OpKind::mxm ? index_width_name(desc.b_width) : "");
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  mask: %s%s%s, add monoid %s, pull path %s, hint %s\n",
                desc.masked ? "yes" : "none",
                desc.mask_complement ? " complemented" : "",
                desc.mask_structural ? " structural" : "",
                desc.has_terminal ? "terminal (early exit)" : "non-terminal",
                desc.has_transpose ? "available" : "unavailable",
                name(desc.hint));
  out += buf;
  if (cost_push > 0.0 || cost_pull > 0.0) {
    std::snprintf(buf, sizeof(buf),
                  "  model: push cost=%.0f edge scans, pull cost=%.0f probes"
                  " (bias %.1fx, call overhead %.0f)\n",
                  cost_push, cost_pull, kPullBias, kCallOverheadUnits);
    out += buf;
    const Calibration c = calibration_snapshot();
    if (c.loaded && (c.push_ns_per_unit > 0.0 || c.pull_ns_per_unit > 0.0)) {
      const double ns = direction == Direction::pull
                            ? cost_pull * c.pull_ns_per_unit
                            : cost_push * c.push_ns_per_unit;
      std::snprintf(buf, sizeof(buf),
                    "  calibrated: ~%.1f us for the chosen path"
                    " (%.2f/%.2f ns per push/pull unit, %" PRIu64
                    " samples%s%s)\n",
                    ns / 1000.0, c.push_ns_per_unit, c.pull_ns_per_unit,
                    c.samples, c.source.empty() ? "" : ", from ",
                    c.source.c_str());
      out += buf;
    }
  }
  std::snprintf(buf, sizeof(buf),
                "  formats: A=%s B=%s mask=%s u=%s v=%s%s\n", name(a_format),
                name(b_format), name(mask_format), name(u_format),
                name(v_format), use_dot ? "  kernel=dot" : "");
  out += buf;
  std::snprintf(buf, sizeof(buf), "  threads: %d\n", threads);
  out += buf;
  return out;
}

}  // namespace plan
}  // namespace grb
