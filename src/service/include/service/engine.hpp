// service/engine.hpp — concurrent graph-query engine (the serving layer).
//
// An Engine owns a fixed-size worker pool and a request queue. Clients
// submit bfs / sssp / pagerank / tc queries with optional per-request
// deadlines and get std::futures back. Every request is bound at submit
// time to the snapshot then installed — install_snapshot() swaps graphs
// atomically under live traffic, and in-flight queries finish against the
// version they started with (snapshot isolation).
//
// The headline optimization is adaptive BFS batching: BFS requests that are
// queued together against the same snapshot are merged into one
// experimental msbfs sweep (the ns×n frontier trick the paper uses for BC,
// executed by the word-parallel MS-BFS kernel) and demuxed back into
// individual responses — k queued traversals for roughly the price of one
// sweep. A worker that pops a lone BFS may additionally linger for a short
// coalescing window (EngineConfig::batch_window) to let concurrent
// submitters catch up; the wait is adaptive — an EWMA of recent batch sizes
// decides whether lingering has been paying off, so a solo-query workload
// degrades to zero added latency.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "lagraph/lagraph.hpp"
#include "query/resultset.hpp"
#include "service/request_log.hpp"
#include "service/snapshot.hpp"

// Service-layer status codes, extending the lagraph convention (< 0 error).
inline constexpr int LAGRAPH_SERVICE_DEADLINE = -31;     // expired in queue
inline constexpr int LAGRAPH_SERVICE_STOPPED = -32;      // engine shut down
inline constexpr int LAGRAPH_SERVICE_QUEUE_FULL = -33;   // bounded queue hit
inline constexpr int LAGRAPH_SERVICE_NO_SNAPSHOT = -34;  // nothing installed

namespace lagraph {
namespace service {

enum class QueryKind : std::uint8_t { bfs, sssp, pagerank, tc, cypher };

const char *query_kind_name(QueryKind k);

struct Request {
  QueryKind kind = QueryKind::bfs;
  grb::Index source = 0;  ///< bfs / sssp start vertex
  double delta = 2.0;     ///< sssp bucket width
  double damping = 0.85;  ///< pagerank
  double tol = 1e-7;      ///< pagerank convergence threshold
  int itermax = 100;      ///< pagerank iteration cap
  std::string query;      ///< cypher: pattern-query source text
  /// Optional deadline; a request still queued past it is failed with
  /// LAGRAPH_SERVICE_DEADLINE instead of executed. Default (epoch) = none.
  std::chrono::steady_clock::time_point deadline{};
};

struct QueryResult {
  int status = LAGRAPH_OK;  ///< lagraph status (plus the service codes above)
  std::string error;        ///< message buffer contents when status < 0
  QueryKind kind = QueryKind::bfs;
  /// Monotonic id assigned at submit; every kernel span recorded while this
  /// request executed is stamped with it (batch members share the batch
  /// head's id — see RequestRecord::trace_id), and /requestz?id= replays
  /// the span breakdown.
  std::uint64_t request_id = 0;
  std::uint64_t snapshot_id = 0;  ///< which graph version answered
  bool batched = false;           ///< answered by a merged msbfs sweep
  std::uint32_t batch_size = 1;   ///< sweep width (1 = solo)
  double queue_seconds = 0;       ///< submit → execution start
  double exec_seconds = 0;        ///< execution only

  // One of these is populated according to `kind`.
  grb::Vector<std::int64_t> level;  ///< bfs
  grb::Vector<double> dist;         ///< sssp
  grb::Vector<double> ranks;        ///< pagerank
  std::uint64_t triangles = 0;      ///< tc
  int iterations = 0;               ///< pagerank iterations taken
  query::ResultSet table;           ///< cypher: columnar resultset
  std::string plan;                 ///< cypher: compiled-plan one-liner
};

struct EngineConfig {
  int threads = 2;  ///< worker pool size (clamped to >= 1)
  /// How long a worker holding a lone BFS lingers for companions. 0
  /// disables lingering (only already-queued requests are merged).
  std::chrono::microseconds batch_window{200};
  std::uint32_t max_batch = 64;  ///< max sources per msbfs sweep
  bool enable_batching = true;   ///< false = strictly one query at a time
  std::size_t max_queue = 0;     ///< queued-request cap; 0 = unbounded
  /// Slow-query threshold in milliseconds: a request whose total wall time
  /// (submit → completion) exceeds it — or that misses its deadline — emits
  /// one structured JSONL record to the slow-query log. 0 disables the
  /// threshold (deadline misses are always logged).
  double slow_query_ms = 0;
  /// JSONL sink for slow-query records ("" = in-memory tail only, served
  /// at /statusz).
  std::string slow_query_log;
  /// Embedded HTTP telemetry server: -1 disables it, 0 binds an ephemeral
  /// port (read back via Engine::telemetry()->port()), otherwise the port
  /// to listen on (127.0.0.1 only).
  int telemetry_port = -1;
  /// Completed-request roll-ups retained for /statusz and /requestz.
  std::size_t request_log_capacity = RequestLog::kDefaultCapacity;
};

/// One query kind's execution-latency distribution (from the engine's log₂
/// histograms; see grb::trace::Histogram). Milliseconds for readability.
struct KindLatency {
  QueryKind kind = QueryKind::bfs;
  std::uint64_t count = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double mean_ms = 0;
  // Queue-wait distribution (submit → execution start) for the same kind —
  // saturation shows up here, slow kernels in the exec percentiles above.
  double queue_p50_ms = 0;
  double queue_p95_ms = 0;
  double queue_p99_ms = 0;
  double queue_mean_ms = 0;
};

/// Monotonic totals since construction (snapshot under the engine lock).
struct EngineCounters {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;         // includes warnings
  std::uint64_t failed = 0;            // status < 0 (any reason)
  std::uint64_t deadline_expired = 0;  // subset of failed
  std::uint64_t queue_rejected = 0;    // subset of failed
  std::uint64_t bfs_sweeps = 0;        // msbfs calls issued
  std::uint64_t batched_bfs = 0;       // bfs answered in a sweep of >= 2
  std::uint64_t solo_queries = 0;      // everything else
  std::uint64_t snapshot_installs = 0;
  std::uint64_t slow_queries = 0;  // slow-query log records emitted
};

class TelemetryServer;

class Engine {
 public:
  explicit Engine(EngineConfig cfg = {});
  Engine(SnapshotPtr snapshot, EngineConfig cfg = {});
  ~Engine();  // stop()s

  Engine(const Engine &) = delete;
  Engine &operator=(const Engine &) = delete;

  /// Swap the serving graph. Queries already submitted (queued or running)
  /// keep the snapshot they were bound to.
  void install_snapshot(SnapshotPtr snapshot);

  /// The snapshot new submissions will be bound to (may be null).
  [[nodiscard]] SnapshotPtr snapshot() const;

  /// Enqueue a query. The future always becomes ready — check
  /// QueryResult::status, never expect a broken promise.
  std::future<QueryResult> submit(Request req);

  /// Block until every submitted request has completed.
  void drain();

  /// Drain, then join the workers. Subsequent submits fail with
  /// LAGRAPH_SERVICE_STOPPED. Idempotent.
  void stop();

  [[nodiscard]] const EngineConfig &config() const noexcept { return cfg_; }
  [[nodiscard]] EngineCounters counters() const;

  /// p50/p95/p99/mean execution latency per query kind, in submission
  /// order of QueryKind; kinds with no completed queries are omitted.
  [[nodiscard]] std::vector<KindLatency> latency_summary() const;

  /// Prometheus text exposition: the engine counters, per-query-kind
  /// execution/queue latency histograms (`lagraph_service_exec_seconds`,
  /// `lagraph_service_queue_seconds`), the global per-op-kind kernel
  /// histograms (`grb_op_seconds`), and every grb::Stats counter
  /// (`grb_stats`). Readable live with bounded skew.
  [[nodiscard]] std::string prometheus_text() const;

  /// Roll-ups of the last N completed requests (lock-free reads).
  [[nodiscard]] const RequestLog &request_log() const noexcept {
    return request_log_;
  }

  /// Slow-query records retained in memory (newest last).
  [[nodiscard]] std::vector<std::string> slow_query_tail() const {
    return slow_log_.tail();
  }

  // Live gauges for /metrics and /statusz.
  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] int inflight() const;        ///< popped but not completed
  [[nodiscard]] int active_workers() const;  ///< workers executing right now
  [[nodiscard]] double uptime_seconds() const;

  /// The embedded telemetry server, or nullptr when telemetry_port < 0.
  [[nodiscard]] TelemetryServer *telemetry() const noexcept {
    return telemetry_.get();
  }

 private:
  struct Pending {
    Request req;
    std::promise<QueryResult> promise;
    SnapshotPtr snap;
    std::chrono::steady_clock::time_point enqueued;
    std::uint64_t id = 0;  ///< request id, assigned at submit
  };

  void worker_loop();
  // Move every queued BFS bound to the same snapshot into `batch` (expired
  // ones are failed in place). Caller holds mu_.
  void scoop_bfs_locked(std::vector<Pending> &batch);
  void run_bfs_sweep(std::vector<Pending> batch);
  void run_solo(Pending p);
  void fail_locked(Pending &&p, int status, const char *what);
  // Feed the per-kind latency histograms; lock-free (relaxed counters).
  void observe(QueryKind k, double queue_s, double exec_s) noexcept;
  // Roll up one finished request into the request log, and route it to the
  // slow-query log when it blew the threshold or missed its deadline.
  void log_request(const Pending &p, const QueryResult &r,
                   std::chrono::steady_clock::time_point end,
                   std::uint64_t span_count, std::uint64_t trace_id,
                   const std::string &plan_summary);

  static constexpr int kNumQueryKinds = 5;
  // Indexed by QueryKind; recordable from any worker without the lock.
  grb::trace::Histogram exec_hist_[kNumQueryKinds];
  grb::trace::Histogram queue_hist_[kNumQueryKinds];

  EngineConfig cfg_;
  mutable std::mutex mu_;
  std::condition_variable cv_;       // queue activity / shutdown
  std::condition_variable cv_idle_;  // completion events (drain)
  std::deque<Pending> queue_;
  SnapshotPtr snap_;
  EngineCounters counters_;
  double ewma_batch_;  // recent sweep width; decides whether lingering pays
  int in_flight_ = 0;
  int busy_workers_ = 0;  // workers currently off the queue, executing
  bool stopping_ = false;
  bool stopped_ = false;
  std::vector<std::thread> workers_;

  std::atomic<std::uint64_t> next_request_id_{0};
  RequestLog request_log_;
  SlowQueryLog slow_log_;
  std::chrono::steady_clock::time_point started_;
  std::unique_ptr<TelemetryServer> telemetry_;
};

}  // namespace service
}  // namespace lagraph
