// grb::trace test suite (ctest labels "obs" and "concurrency").
//
// Pins the observability layer's contracts:
//   - ring-buffer wraparound keeps the newest kRingCapacity spans per thread;
//   - span nesting records per-thread depth;
//   - disabled tracing (the default) leases no ring and records nothing —
//     the zero-allocation contract, observable through ring_count();
//   - sampling keeps roughly 1/N of the spans;
//   - collect() runs concurrently with writers (the TSan target: build with
//     -DLAGRAPH_SANITIZE=thread and run ctest -L obs);
//   - histograms bucket by floor(log2), percentiles interpolate;
//   - calibration fits ns-per-cost and ranks mispredictions;
//   - Chrome trace JSON export is well-formed and carries the span args;
//   - Stats::snapshot() returns a plain copy readable without atomics.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "grb/grb.hpp"

namespace {

using grb::trace::Span;
using grb::trace::SpanKind;

// Enable tracing for one test, restore the disabled default after.
struct TraceGuard {
  explicit TraceGuard(std::uint32_t every) {
    grb::config().trace_sample_every = every;
    grb::trace::reset();
  }
  ~TraceGuard() {
    grb::config().trace_sample_every = 0;
    grb::trace::reset();
  }
};

std::vector<Span> spans_of(SpanKind k) {
  std::vector<Span> out;
  for (const Span &s : grb::trace::collect()) {
    if (s.kind == k) out.push_back(s);
  }
  return out;
}

TEST(Trace, DisabledModeLeasesNoRing) {
  ASSERT_EQ(grb::config().trace_sample_every, 0u);
  const std::size_t rings_before = grb::trace::ring_count();
  // A fresh thread leases a ring only on its first *recorded* span; with
  // tracing disabled it must never lease one, no matter how many spans run.
  std::thread t([] {
    for (int i = 0; i < 1000; ++i) {
      grb::trace::ScopedSpan sp(SpanKind::mxv);
      sp.set_in_nvals(1);
      sp.set_out_nvals(1);
    }
  });
  t.join();
  EXPECT_EQ(grb::trace::ring_count(), rings_before);
  EXPECT_TRUE(grb::trace::collect().empty());
  EXPECT_EQ(grb::trace::op_histogram(SpanKind::mxv).count(), 0u);
}

TEST(Trace, RecordsSpanFields) {
  TraceGuard guard(1);
  {
    grb::trace::ScopedSpan sp(SpanKind::bfs_level);
    sp.set_iter(7);
    sp.set_in_nvals(123);
    sp.set_out_nvals(456);
    sp.set_threads(3);
    sp.set_extra(2.5);
    sp.set_direction(grb::plan::Direction::pull);
  }
  auto got = spans_of(SpanKind::bfs_level);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].iter, 7);
  EXPECT_EQ(got[0].in_nvals, 123u);
  EXPECT_EQ(got[0].out_nvals, 456u);
  EXPECT_EQ(got[0].threads, 3);
  EXPECT_DOUBLE_EQ(got[0].extra, 2.5);
  EXPECT_EQ(got[0].direction,
            static_cast<std::uint8_t>(grb::plan::Direction::pull));
  EXPECT_EQ(grb::trace::op_histogram(SpanKind::bfs_level).count(), 1u);
}

TEST(Trace, RingWraparoundKeepsNewest) {
  TraceGuard guard(1);
  const int total = static_cast<int>(grb::trace::kRingCapacity) + 1000;
  for (int i = 0; i < total; ++i) {
    grb::trace::ScopedSpan sp(SpanKind::apply);
    sp.set_iter(i);
  }
  auto got = spans_of(SpanKind::apply);
  EXPECT_EQ(got.size(), grb::trace::kRingCapacity);
  std::int64_t min_iter = total;
  std::int64_t max_iter = -1;
  for (const Span &s : got) {
    min_iter = std::min(min_iter, s.iter);
    max_iter = std::max(max_iter, s.iter);
  }
  // The newest span survives; everything older than capacity was overwritten.
  EXPECT_EQ(max_iter, total - 1);
  EXPECT_EQ(min_iter, total - static_cast<std::int64_t>(
                                  grb::trace::kRingCapacity));
  // The histogram saw every span regardless of ring eviction.
  EXPECT_EQ(grb::trace::op_histogram(SpanKind::apply).count(),
            static_cast<std::uint64_t>(total));
}

TEST(Trace, NestedSpansRecordDepth) {
  TraceGuard guard(1);
  {
    grb::trace::ScopedSpan outer(SpanKind::bfs_level);
    outer.set_iter(1);
    {
      grb::trace::ScopedSpan inner(SpanKind::vxm);
      inner.set_in_nvals(9);
      grb::trace::ScopedSpan inner2(SpanKind::reduce);
    }
  }
  auto all = grb::trace::collect();
  ASSERT_EQ(all.size(), 3u);
  // collect() sorts parents before children: by start time, longer first.
  EXPECT_EQ(all[0].kind, SpanKind::bfs_level);
  EXPECT_EQ(all[0].depth, 0);
  for (const Span &s : all) {
    if (s.kind == SpanKind::vxm) {
      EXPECT_EQ(s.depth, 1);
    }
    if (s.kind == SpanKind::reduce) {
      EXPECT_EQ(s.depth, 2);
    }
  }
}

TEST(Trace, SamplingRecordsEveryNth) {
  TraceGuard guard(4);
  // The per-thread tick phase is unknown (other tests may have advanced
  // it), so run on a fresh thread where the count is exact.
  std::thread t([] {
    for (int i = 0; i < 400; ++i) {
      grb::trace::ScopedSpan sp(SpanKind::select);
      sp.set_iter(i);
    }
  });
  t.join();
  EXPECT_EQ(spans_of(SpanKind::select).size(), 100u);
}

TEST(Trace, ResetDiscardsSpansAndHistograms) {
  TraceGuard guard(1);
  for (int i = 0; i < 32; ++i) {
    grb::trace::ScopedSpan sp(SpanKind::transpose);
  }
  ASSERT_FALSE(grb::trace::collect().empty());
  grb::trace::reset();
  EXPECT_TRUE(grb::trace::collect().empty());
  EXPECT_EQ(grb::trace::op_histogram(SpanKind::transpose).count(), 0u);
  // Recording keeps working after a reset.
  { grb::trace::ScopedSpan sp(SpanKind::transpose); }
  EXPECT_EQ(grb::trace::collect().size(), 1u);
}

TEST(Trace, ConcurrentWritersAndCollector) {
  TraceGuard guard(1);
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 20000;
  std::atomic<bool> stop{false};
  std::atomic<int> done{0};

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        grb::trace::ScopedSpan sp(SpanKind::ewise_add);
        sp.set_iter(i);
        sp.set_in_nvals(static_cast<std::uint64_t>(w));
        grb::trace::ScopedSpan inner(SpanKind::ewise_mult);
        inner.set_out_nvals(static_cast<std::uint64_t>(i));
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }
  // Hammer collect() while the writers run: every returned span must be
  // internally consistent (never torn) even though rings are wrapping.
  std::thread collector([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const Span &s : grb::trace::collect()) {
        ASSERT_TRUE(s.kind == SpanKind::ewise_add ||
                    s.kind == SpanKind::ewise_mult);
        ASSERT_LT(s.in_nvals, static_cast<std::uint64_t>(kThreads));
        ASSERT_LT(s.iter, kSpansPerThread);
      }
    }
  });
  for (auto &w : writers) w.join();
  stop.store(true, std::memory_order_release);
  collector.join();

  EXPECT_EQ(done.load(), kThreads);
  // Histograms counted every span exactly once.
  EXPECT_EQ(grb::trace::op_histogram(SpanKind::ewise_add).count(),
            static_cast<std::uint64_t>(kThreads) * kSpansPerThread);
  EXPECT_EQ(grb::trace::op_histogram(SpanKind::ewise_mult).count(),
            static_cast<std::uint64_t>(kThreads) * kSpansPerThread);
}

TEST(Trace, HistogramBucketsAndPercentiles) {
  grb::trace::Histogram h;
  // Bucket b covers [2^b, 2^(b+1)): 1 → bucket 0, 2..3 → bucket 1,
  // 1024..2047 → bucket 10.
  h.record(1);
  h.record(2);
  h.record(3);
  h.record(1024);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum_ns(), 1030u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(10), 1u);
  // p100 lands in the top occupied bucket; p25 in the bottom one.
  EXPECT_LE(h.percentile_ns(25), 2.0);
  EXPECT_GE(h.percentile_ns(100), 1024.0);
  EXPECT_LE(h.percentile_ns(100),
            static_cast<double>(grb::trace::Histogram::bucket_upper_ns(10)) +
                1.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile_ns(50), 0.0);
}

TEST(Trace, CalibrationRanksMispredictions) {
  std::vector<Span> spans;
  const auto add = [&](SpanKind kind, grb::plan::Direction dir,
                       std::uint64_t dur_ns) {
    Span s;
    s.kind = kind;
    s.direction = static_cast<std::uint8_t>(dir);
    s.predicted_cost = 10.0;
    s.dur_ns = dur_ns;
    spans.push_back(s);
  };
  // Twelve push spans at 100 ns per cost unit, seven pull spans priced 3x
  // dearer (300 ns/unit), and one 8x push outlier.
  for (int i = 0; i < 12; ++i)
    add(SpanKind::mxv, grb::plan::Direction::push, 1000);
  for (int i = 0; i < 7; ++i)
    add(SpanKind::mxv, grb::plan::Direction::pull, 3000);
  add(SpanKind::vxm, grb::plan::Direction::push, 8000);
  spans.back().iter = 3;

  auto report = grb::trace::calibrate(spans, 5);
  EXPECT_EQ(report.samples, 20u);
  // The global fit is the median scale, set by the push majority.
  EXPECT_NEAR(report.ns_per_cost, 100.0, 1.0);
  // Per-direction medians: the outlier does not move push; pull keeps its
  // own 3x scale.
  EXPECT_NEAR(report.push_ns_per_cost, 100.0, 1.0);
  EXPECT_NEAR(report.pull_ns_per_cost, 300.0, 1.0);
  // Nearest-rank p95 of 20 |log2 ratio| values is the second largest: a
  // pull span off the global fit by 3x (the outlier alone is the max).
  EXPECT_NEAR(report.p95_abs_log2, std::log2(3.0), 1e-9);
  ASSERT_EQ(report.worst.size(), 5u);
  EXPECT_EQ(report.worst[0].kind, SpanKind::vxm);
  EXPECT_EQ(report.worst[0].iter, 3);
  EXPECT_NEAR(report.worst[0].ratio, 8.0, 0.1);
  EXPECT_EQ(report.worst[1].direction,
            static_cast<std::uint8_t>(grb::plan::Direction::pull));
  EXPECT_NEAR(report.worst[1].ratio, 3.0, 0.01);
  EXPECT_FALSE(report.text().empty());
}

TEST(Trace, ChromeTraceExport) {
  TraceGuard guard(1);
  {
    grb::trace::ScopedSpan sp(SpanKind::bfs_level);
    sp.set_iter(2);
    sp.set_in_nvals(77);
    sp.set_direction(grb::plan::Direction::pull);
  }
  {
    grb::trace::ScopedSpan sp(SpanKind::mxv);
    sp.set_in_nvals(5);
  }
  std::ostringstream os;
  grb::trace::write_chrome_trace(os, grb::trace::collect());
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"bfs_level\""), std::string::npos);
  EXPECT_NE(json.find("\"frontier\":77"), std::string::npos);
  EXPECT_NE(json.find("\"direction\":\"pull\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"mxv\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Balanced braces/brackets — cheap structural validity (the check.sh
  // smoke test parses the real file with Python's json module).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// Pin num_threads = 1 for the section under test: the stress/obs binary
// also runs under TSan, where libgomp is not instrumented.
struct ThreadGuard {
  explicit ThreadGuard(int n) { grb::config().num_threads = n; }
  ~ThreadGuard() { grb::config().num_threads = 0; }
};

TEST(Trace, KernelsRecordSpansWithPlans) {
  TraceGuard guard(1);
  ThreadGuard tg(1);
  const grb::Index n = 64;
  grb::Matrix<double> a(n, n);
  for (grb::Index i = 0; i < n; ++i) {
    a.set_element(i, (i + 1) % n, 1.0);
    a.set_element(i, (i + 7) % n, 1.0);
  }
  a.finalize();
  grb::trace::reset();  // drop the build/finalize spans

  grb::Vector<double> u(n);
  u.set_element(0, 1.0);
  grb::Vector<double> w(n);
  grb::vxm(w, grb::no_mask, grb::NoAccum{}, grb::PlusTimes<double>{}, u, a);

  auto got = spans_of(SpanKind::vxm);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].in_nvals, 1u);
  EXPECT_EQ(got[0].out_nvals, 2u);
  EXPECT_GT(got[0].dur_ns, 0u);
  EXPECT_GT(got[0].predicted_cost, 0.0);
}

TEST(StatsSnapshot, MatchesLiveCountersAndVisitsAll) {
  grb::Stats &st = grb::stats();
  const std::uint64_t before = st.push_calls.load();
  st.push_calls.fetch_add(3, std::memory_order_relaxed);
  grb::StatsSnapshot snap = st.snapshot();
  EXPECT_EQ(snap.push_calls, before + 3);

  int visited = 0;
  bool saw_push_calls = false;
  snap.for_each([&](const char *name, std::uint64_t v) {
    ++visited;
    if (std::string(name) == "push_calls") {
      saw_push_calls = true;
      EXPECT_EQ(v, before + 3);
    }
  });
  EXPECT_TRUE(saw_push_calls);
  // Every counter in grb::Stats must be visited; update for_each when
  // adding one.
  EXPECT_EQ(visited, 26);
  st.push_calls.fetch_sub(3, std::memory_order_relaxed);
}

TEST(Trace, RequestScopeStampsSpans) {
  TraceGuard guard(1);
  // Outside any scope, spans carry request id 0.
  { grb::trace::ScopedSpan sp(SpanKind::mxv); }
  {
    grb::trace::RequestScope scope(42, 3);
    EXPECT_EQ(grb::trace::current_request_id(), 42u);
    { grb::trace::ScopedSpan sp(SpanKind::bfs_level); }
    {
      // Nesting: the inner scope wins while open, the outer is restored.
      grb::trace::RequestScope inner(43);
      { grb::trace::ScopedSpan sp(SpanKind::vxm); }
      EXPECT_EQ(inner.spans_recorded(), 1u);
    }
    EXPECT_EQ(grb::trace::current_request_id(), 42u);
    { grb::trace::ScopedSpan sp(SpanKind::ewise_add); }
    EXPECT_EQ(scope.spans_recorded(), 3u);  // includes the nested span
  }
  EXPECT_EQ(grb::trace::current_request_id(), 0u);

  std::uint64_t id0 = 99, id42 = 0, id43 = 0;
  std::uint32_t members42 = 0;
  for (const Span &s : grb::trace::collect()) {
    if (s.kind == SpanKind::mxv) id0 = s.request_id;
    if (s.kind == SpanKind::bfs_level) {
      id42 = s.request_id;
      members42 = s.batch_members;
    }
    if (s.kind == SpanKind::vxm) id43 = s.request_id;
  }
  EXPECT_EQ(id0, 0u);
  EXPECT_EQ(id42, 42u);
  EXPECT_EQ(members42, 3u);
  EXPECT_EQ(id43, 43u);
}

// Format lint for the exposition helpers: one # HELP + # TYPE per family
// (in that order, before any sample), samples parse, label values escape.
TEST(Trace, PrometheusHistogramFormat) {
  grb::trace::Histogram h;
  h.record(100);
  h.record(2000);

  std::ostringstream os;
  grb::trace::write_prometheus_histogram(
      os, "demo_seconds", grb::trace::prometheus_label("kind", "bfs"), h,
      /*with_type_header=*/true, "Demo histogram.");
  grb::trace::write_prometheus_histogram(
      os, "demo_seconds", grb::trace::prometheus_label("kind", "sssp"), h,
      /*with_type_header=*/false);
  const std::string text = os.str();

  // Exactly one HELP and one TYPE for the family, HELP first.
  auto count_of = [&](const std::string &needle) {
    std::size_t n = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count_of("# HELP demo_seconds "), 1u);
  EXPECT_EQ(count_of("# TYPE demo_seconds histogram"), 1u);
  EXPECT_LT(text.find("# HELP demo_seconds"),
            text.find("# TYPE demo_seconds"));
  EXPECT_LT(text.find("# TYPE demo_seconds"),
            text.find("demo_seconds_bucket"));
  // Both label sets emitted samples; +Inf bucket and _count/_sum present.
  EXPECT_NE(text.find("kind=\"bfs\""), std::string::npos);
  EXPECT_NE(text.find("kind=\"sssp\""), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_EQ(count_of("demo_seconds_count"), 2u);
  EXPECT_EQ(count_of("demo_seconds_sum"), 2u);

  // Label escaping: backslash, quote, newline are the three specials.
  EXPECT_EQ(grb::trace::prometheus_escape_label("plain"), "plain");
  EXPECT_EQ(grb::trace::prometheus_escape_label("a\\b"), "a\\\\b");
  EXPECT_EQ(grb::trace::prometheus_escape_label("a\"b"), "a\\\"b");
  EXPECT_EQ(grb::trace::prometheus_escape_label("a\nb"), "a\\nb");
  EXPECT_EQ(grb::trace::prometheus_label("op", "x\"y"), "op=\"x\\\"y\"");
}

}  // namespace
