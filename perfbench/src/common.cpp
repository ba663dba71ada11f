// perfbench/src/common.cpp — kernel-trace readers, the shared grb per-layer
// report, and the span file writer.
#include "common.hpp"

#include <fstream>

namespace pb {

KernelTotals read_kernel_totals(std::vector<grb::trace::Span> *keep) {
  namespace tr = grb::trace;
  KernelTotals kt;
  std::uint64_t all_calls = 0;
  double all_ns = 0;
  for (int k = 0; k < kNumKernelKinds; ++k) {
    const tr::Histogram &h = tr::op_histogram(kKernelKinds[k]);
    kt.calls[k] = h.count();
    kt.ns[k] = static_cast<double>(h.sum_ns());
    all_calls += kt.calls[k];
    all_ns += kt.ns[k];
  }
  for (int k = static_cast<int>(tr::SpanKind::bfs_level);
       k <= static_cast<int>(tr::SpanKind::msbfs_level); ++k) {
    kt.iterations += tr::op_histogram(static_cast<tr::SpanKind>(k)).count();
  }

  std::vector<tr::Span> spans = tr::collect();
  std::sort(spans.begin(), spans.end(), [](const tr::Span &a,
                                           const tr::Span &b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.t0_ns != b.t0_ns) return a.t0_ns < b.t0_ns;
    return a.dur_ns > b.dur_ns;
  });
  // Walk each thread's spans in start order with a stack of open spans; a
  // kernel span opened while another kernel span is open is nested.
  std::uint64_t kept_kernels = 0, nested_calls = 0;
  double nested_ns = 0;
  std::vector<const tr::Span *> open;
  std::uint32_t tid = ~0u;
  int open_kernels = 0;
  for (const tr::Span &s : spans) {
    if (s.tid != tid) {
      open.clear();
      open_kernels = 0;
      tid = s.tid;
    }
    while (!open.empty() && open.back()->t0_ns + open.back()->dur_ns <= s.t0_ns) {
      if (is_kernel(open.back()->kind)) --open_kernels;
      open.pop_back();
    }
    if (is_kernel(s.kind)) {
      ++kept_kernels;
      if (open_kernels > 0) {
        ++nested_calls;
        nested_ns += static_cast<double>(s.dur_ns);
      }
      ++open_kernels;
    }
    open.push_back(&s);
  }
  kt.complete = kept_kernels == all_calls;
  kt.top_calls = all_calls - nested_calls;
  kt.top_ns = all_ns - nested_ns;
  if (keep != nullptr) {
    keep->insert(keep->end(), spans.begin(), spans.end());
  }
  return kt;
}

void report_grb_layer(Report &rep, const KernelTotals &kt, const StatDelta &sd,
                      double ops, double bpe) {
  const double per = ops > 0 ? 1.0 / ops : 0.0;
  for (int k = 0; k < kNumKernelKinds; ++k) {
    const std::string base =
        std::string("grb.") + grb::trace::name(kKernelKinds[k]);
    rep.add(base + ".calls", static_cast<double>(kt.calls[k]) * per, "count",
            "per op");
    rep.add(base + ".ms", kt.ns[k] * 1e-6 * per, "ms", "per op");
  }
  rep.add("grb.kernel_ms", kt.top_ns * 1e-6 * per, "ms",
          kt.complete ? "per op, top-level spans"
                      : "per op, top-level spans (ring wrapped)");
  rep.add("grb.ns_per_call",
          kt.top_calls > 0 ? kt.top_ns / static_cast<double>(kt.top_calls)
                           : 0.0,
          "ns");
  rep.add("grb.plans_built", sd.plans_built * per, "count", "per op");
  rep.add("grb.plans_cached", sd.plans_cached * per, "count", "per op");
  rep.add("grb.parallel_regions", sd.parallel_regions * per, "count",
          "per op");
  rep.add("grb.format_conversions", sd.format_conversions * per, "count",
          "per op");
  rep.add("grb.row_sorts", sd.row_sorts * per, "count", "per op");
  rep.add("grb.pending_flushes", sd.pending_flushes * per, "count", "per op");
  const double decisions = sd.pull_decisions + sd.push_decisions;
  rep.add("grb.plan_pull_frac",
          decisions > 0 ? sd.pull_decisions / decisions : 0.0, "frac");
  rep.add("grb.bytes_per_edge", bpe, "B");
}

void Tracer::write(const std::string &path,
                   const std::vector<grb::trace::Span> &grb_spans) const {
  const std::vector<BenchSpan> mine = spans();
  std::uint64_t origin = ~std::uint64_t{0};
  for (const auto &s : mine) origin = std::min(origin, s.t0_ns);
  for (const auto &s : grb_spans) origin = std::min(origin, s.t0_ns);
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  os << "{\"traceEvents\": [\n";
  bool first = true;
  auto us = [&](std::uint64_t ns) {
    return static_cast<double>(ns - origin) * 1e-3;
  };
  char buf[512];
  for (const auto &s : mine) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
                  "%llu, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": "
                  "%llu, \"parent\": %llu, \"request\": %llu}}",
                  first ? "" : ",\n", s.name.c_str(),
                  static_cast<unsigned long long>(s.request), us(s.t0_ns),
                  static_cast<double>(s.t1_ns - s.t0_ns) * 1e-3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    os << buf;
    first = false;
  }
  for (const auto &s : grb_spans) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 2, \"tid\": "
                  "%u, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"request\": "
                  "%llu, \"in\": %llu, \"out\": %llu}}",
                  first ? "" : ",\n", grb::trace::name(s.kind), s.tid,
                  us(s.t0_ns), static_cast<double>(s.dur_ns) * 1e-3,
                  static_cast<unsigned long long>(s.request_id),
                  static_cast<unsigned long long>(s.in_nvals),
                  static_cast<unsigned long long>(s.out_nvals));
    os << buf;
    first = false;
  }
  os << "\n]}\n";
}

}  // namespace pb
