// perfbench/src/common.hpp — shared pieces of the benchmark program: the
// seeded RNG, raw-sample statistics, the metric report, the benchmark's own
// span recorder, and helpers that read the grb kernel trace.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "grb/grb.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::uint64_t ns_of(Clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}

/// splitmix64: every input the benchmark generates derives from --seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed * 0x9E3779B97F4A7C15ULL + 1) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double exponential(double mean) { return -mean * std::log1p(-uniform()); }

 private:
  std::uint64_t s_;
};

/// Raw samples; every percentile is computed from them, never from
/// bucketed histograms.
class Samples {
 public:
  void add(double x) { v_.push_back(x); }
  [[nodiscard]] std::size_t count() const { return v_.size(); }
  [[nodiscard]] bool empty() const { return v_.empty(); }
  [[nodiscard]] double sum() const {
    double s = 0;
    for (double x : v_) s += x;
    return s;
  }
  [[nodiscard]] double mean() const { return empty() ? 0.0 : sum() / count(); }
  /// Linear interpolation between closest ranks, p in [0, 100].
  [[nodiscard]] double percentile(double p) const {
    if (empty()) return 0.0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const double rank = p / 100.0 * static_cast<double>(s.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (s[hi] - s[lo]) * (rank - static_cast<double>(lo));
  }
  [[nodiscard]] double median() const { return percentile(50); }

 private:
  std::vector<double> v_;
};

/// The highest of the usual percentiles that leaves at least ten samples
/// above it; 50 when even p75 is unsupported.
inline double supported_percentile(std::size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0) return p;
  }
  return 50.0;
}

/// Ordered metric list plus the run verdict; prints a human table and the
/// one-line JSON result run.py reads.
class Report {
 public:
  void add(const std::string &name, double value, const char *unit,
           const std::string &note = "") {
    metrics_.push_back({name, value, unit, note});
  }
  void fail(const std::string &why) {
    correct_ = false;
    std::fprintf(stderr, "perfbench: WRONG: %s\n", why.c_str());
  }
  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  [[nodiscard]] bool correct() const { return correct_ && failed_ == 0; }

  void print(std::FILE *out) const {
    for (const auto &m : metrics_) {
      std::fprintf(out, "  %-34s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                   m.unit.c_str(), m.note.c_str());
    }
    std::fprintf(out,
                 "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                 "\"metrics\": {",
                 correct() ? "true" : "false",
                 static_cast<unsigned long long>(attempted_),
                 static_cast<unsigned long long>(failed_));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0;
      std::fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                   i == 0 ? "" : ", ", metrics_[i].name.c_str(), v,
                   metrics_[i].unit.c_str());
    }
    std::fprintf(out, "}}\n");
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Timing with its sample count and highest supported percentile, as the
/// note column of the report prints it.
inline std::string count_note(const Samples &s) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "n=%zu p%g=%.4f", s.count(),
                supported_percentile(s.count()),
                s.percentile(supported_percentile(s.count())));
  return buf;
}

/// Process peak resident set in MiB (ru_maxrss is KiB on Linux).
inline double peak_rss_mb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// -- the benchmark's own spans ---------------------------------------------

/// One span the benchmark records around a call into a module's public API.
/// Spans of one request share `request`; `parent` is 0 for a root.
struct BenchSpan {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::string name;
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
};

/// In-memory span store. Recording is a no-op when disabled, so the
/// untraced run pays one branch per call.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  [[nodiscard]] bool on() const { return on_; }
  std::uint64_t next_id() { return ++next_; }

  std::uint64_t record(std::uint64_t parent, std::uint64_t request,
                       const char *name, Clock::time_point t0,
                       Clock::time_point t1) {
    if (!on_) return 0;
    const std::uint64_t id = next_id();
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back({id, parent, request, name, ns_of(t0), ns_of(t1)});
    return id;
  }
  [[nodiscard]] std::vector<BenchSpan> spans() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
  }

  /// Chrome trace-event JSON holding the benchmark's spans (pid 1, args
  /// id/parent/request) and the grb kernel spans still in the rings (pid 2).
  void write(const std::string &path,
             const std::vector<grb::trace::Span> &grb_spans) const;

 private:
  bool on_;
  std::atomic<std::uint64_t> next_{0};
  mutable std::mutex mu_;
  std::vector<BenchSpan> spans_;
};

// -- grb kernel trace --------------------------------------------------------

inline constexpr grb::trace::SpanKind kKernelKinds[] = {
    grb::trace::SpanKind::mxv,
    grb::trace::SpanKind::vxm,
    grb::trace::SpanKind::mxm,
    grb::trace::SpanKind::mxm_reduce,
    grb::trace::SpanKind::ewise_add,
    grb::trace::SpanKind::ewise_mult,
    grb::trace::SpanKind::apply,
    grb::trace::SpanKind::select,
    grb::trace::SpanKind::reduce,
    grb::trace::SpanKind::transpose,
    grb::trace::SpanKind::build,
    grb::trace::SpanKind::fused_mxv_apply,
    grb::trace::SpanKind::fused_vxm_select,
};
inline constexpr int kNumKernelKinds =
    static_cast<int>(sizeof kKernelKinds / sizeof kKernelKinds[0]);

inline bool is_kernel(grb::trace::SpanKind k) {
  return k <= grb::trace::SpanKind::fused_vxm_select;
}

/// Kernel activity between two trace::reset() points, read from the
/// per-kind op histograms (exact totals even when a span ring wrapped)
/// and the span rings (for the nesting correction).
struct KernelTotals {
  std::uint64_t calls[kNumKernelKinds] = {};
  double ns[kNumKernelKinds] = {};
  std::uint64_t top_calls = 0;  // kernel spans with no kernel ancestor
  double top_ns = 0;            // their summed duration
  std::uint64_t iterations = 0;  // algorithm-iteration spans
  bool complete = true;          // rings held every kernel span

  KernelTotals &operator+=(const KernelTotals &o) {
    for (int k = 0; k < kNumKernelKinds; ++k) {
      calls[k] += o.calls[k];
      ns[k] += o.ns[k];
    }
    top_calls += o.top_calls;
    top_ns += o.top_ns;
    iterations += o.iterations;
    complete = complete && o.complete;
    return *this;
  }
};

/// Read the kernel totals accumulated since the last trace::reset(). The
/// histograms count every span; kernel time spent inside another kernel's
/// span is found from the rings and subtracted, so `top_ns` counts each
/// instant of kernel work once. If a ring wrapped, the nesting correction
/// covers the spans it kept and `complete` is false.
KernelTotals read_kernel_totals(std::vector<grb::trace::Span> *keep = nullptr);

/// grb::stats() counters the per-layer split reports, as per-interval deltas.
struct StatDelta {
  double plans_built = 0, plans_cached = 0, parallel_regions = 0,
         format_conversions = 0, row_sorts = 0, pending_flushes = 0,
         pull_decisions = 0, push_decisions = 0;
  StatDelta &operator+=(const StatDelta &o) {
    plans_built += o.plans_built;
    plans_cached += o.plans_cached;
    parallel_regions += o.parallel_regions;
    format_conversions += o.format_conversions;
    row_sorts += o.row_sorts;
    pending_flushes += o.pending_flushes;
    pull_decisions += o.pull_decisions;
    push_decisions += o.push_decisions;
    return *this;
  }
  static StatDelta between(const grb::StatsSnapshot &a,
                           const grb::StatsSnapshot &b) {
    auto d = [](std::uint64_t x, std::uint64_t y) {
      return static_cast<double>(y - x);
    };
    StatDelta s;
    s.plans_built = d(a.plans_built, b.plans_built);
    s.plans_cached = d(a.plans_cached, b.plans_cached);
    s.parallel_regions = d(a.parallel_regions, b.parallel_regions);
    s.format_conversions = d(a.format_conversions, b.format_conversions);
    s.row_sorts = d(a.row_sorts, b.row_sorts);
    s.pending_flushes = d(a.pending_flushes, b.pending_flushes);
    s.pull_decisions = d(a.plan_pull_decisions, b.plan_pull_decisions);
    s.push_decisions = d(a.plan_push_decisions, b.plan_push_decisions);
    return s;
  }
};

/// Per-layer grb metrics common to every workload's traced run: the
/// per-kind kernel calls and time, kernel self time, ns per kernel call,
/// and the per-operation stats deltas over `ops` operations.
void report_grb_layer(Report &rep, const KernelTotals &kt, const StatDelta &sd,
                      double ops, double bytes_per_edge);

/// Graph storage bytes per stored entry: CSR index arrays plus values, for
/// the adjacency and, when cached, its transpose.
template <typename G>
double bytes_per_edge(const G &g) {
  double bytes = static_cast<double>(g.a.index_bytes()) +
                 static_cast<double>(g.a.nvals()) * sizeof(double);
  if (g.at.has_value()) {
    bytes += static_cast<double>(g.at->index_bytes()) +
             static_cast<double>(g.at->nvals()) * sizeof(double);
  }
  return g.a.nvals() == 0 ? 0.0 : bytes / static_cast<double>(g.a.nvals());
}

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;  // where the traced run writes its span file
  bool capacity = false;  // serve_mixed: closed-loop capacity probe instead
};

int run_lib(const Options &opt, Report &rep);
int run_serve(const Options &opt, Report &rep);

}  // namespace pb
