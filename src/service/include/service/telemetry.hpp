// service/telemetry.hpp — the embedded HTTP telemetry endpoint.
//
// A deliberately minimal HTTP/1.0 server: one dedicated thread blocks in
// poll() on the listening socket (plus a self-pipe for shutdown), accepts
// one connection at a time, answers, closes. A client that stalls mid-request
// loses the thread after ~2 s. No dependencies beyond POSIX
// sockets; no keep-alive, no TLS, no request bodies — it serves four
// read-only debug endpoints and nothing else:
//
//   /metrics       Prometheus text: Engine::prometheus_text() plus any
//                  extra gauges registered by the embedder (the CLI wires
//                  ingest writer backlog / publish latency here).
//   /healthz       "ok" — liveness.
//   /statusz       JSON: counters, gauges, per-kind latency summary,
//                  recent request roll-ups, slow-query tail.
//   /requestz?id=  one request's kernel-span breakdown as Chrome
//                  trace-event JSON (requires span tracing to be sampling).
//
// Binds 127.0.0.1 only — this is a debug endpoint, not a public API.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

namespace lagraph {
namespace service {

class Engine;

class TelemetryServer {
 public:
  /// Bind 127.0.0.1:`port` (0 = ephemeral) and start the serving thread.
  /// On bind failure the server is inert: port() returns -1 and no thread
  /// runs — the engine serves queries regardless.
  TelemetryServer(Engine &engine, int port);
  ~TelemetryServer();  // stop()s

  TelemetryServer(const TelemetryServer &) = delete;
  TelemetryServer &operator=(const TelemetryServer &) = delete;

  /// The bound port, or -1 when binding failed.
  [[nodiscard]] int port() const noexcept { return port_; }

  /// Extra Prometheus text appended to /metrics (gauges the engine can't
  /// see: ingest writer backlog, epoch publish latency, ...). The callback
  /// runs on the serving thread; keep it cheap and thread-safe.
  void set_extra_metrics(std::function<std::string()> fn);

  /// Join the serving thread and close the socket. Idempotent.
  void stop();

  /// One /statusz-style GET against a local telemetry server; returns the
  /// response body or "" on connection failure. Shared by the CLI `top`
  /// subcommand and the socket tests, so the client and server agree on
  /// one HTTP dialect.
  static std::string http_get(const std::string &host, int port,
                              const std::string &target);

 private:
  void serve_loop();
  void handle_connection(int fd);
  /// Route one request-target to (status line, content type, body).
  std::string respond(const std::string &target);

  Engine &engine_;
  int listen_fd_ = -1;
  int port_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::atomic<bool> stopping_{false};
  std::mutex extra_mu_;
  std::function<std::string()> extra_;
  std::thread thread_;
};

}  // namespace service
}  // namespace lagraph
