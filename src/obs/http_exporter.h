// Minimal embedded HTTP server for live run observation.
//
// A benchmark run is opaque while it executes: report.json lands only at
// the end, and attaching a profiler perturbs the measurement. This
// exporter serves the existing text artifacts over HTTP while the run is
// in flight — `GET /metrics` (Prometheus text exposition, scrapeable),
// `GET /report.json` (the snb-report document built from a live
// snapshot), `GET /profile?seconds=N` (an on-demand sampling-profiler
// capture window, see HandleDynamic), and a built-in `GET /healthz`
// liveness probe that bypasses every handler (no snapshot, no cache) —
// with no dependencies beyond POSIX sockets.
//
// Design: one background thread runs a blocking accept loop and serves
// cached routes sequentially; handlers are registered as content
// callbacks before Start(). Responses are cached per path and rebuilt at
// most once per refresh interval, so an aggressive scraper cannot turn
// MetricsRegistry::Snapshot() merges into measurable load on the run.
// Dynamic routes (HandleDynamic) opt out of the cache and see the raw
// query string — they choose their own status code and content type per
// request (the /profile 503-when-unavailable contract). Because a
// dynamic handler may run for seconds (/profile?seconds=N captures a
// whole window), it is served on its own worker thread: the accept loop
// hands the connection off and keeps answering /healthz and the cached
// routes throughout. One dynamic request runs at a time; a concurrent
// one is refused immediately with 503 + JSON error rather than queued.
// Serving is deliberately simple (HTTP/1.0-style close-after-response);
// the clients are curl, Prometheus, and the raw-socket tests. A request
// head gets one fixed deadline (2 s) and a 16 KB cap in total, and a
// response one fixed deadline (2 s) to be sent, so neither a client that
// drips bytes nor one that stops reading a large response can keep
// /healthz (or, on a dynamic route, the next capture) waiting behind it
// for longer than that (tests/http_fuzz_test.cc).
#ifndef SNB_OBS_HTTP_EXPORTER_H_
#define SNB_OBS_HTTP_EXPORTER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/status.h"

namespace snb::obs {

class HttpExporter {
 public:
  /// Builds the current response body for a path (called at most once per
  /// refresh interval; must be thread-safe with respect to the run).
  using ContentFn = std::function<std::string()>;

  HttpExporter() = default;
  HttpExporter(const HttpExporter&) = delete;
  HttpExporter& operator=(const HttpExporter&) = delete;
  ~HttpExporter() { Stop(); }

  /// Registers `fn` as the handler for exact path `path` (e.g.
  /// "/metrics"). Must be called before Start().
  void Handle(std::string path, std::string content_type, ContentFn fn);

  /// A full per-request response: dynamic routes pick status, type and
  /// body themselves (e.g. /profile answers 503 + JSON error while the
  /// profiler backend is no-op, folded text otherwise).
  struct HttpResponse {
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
  };

  /// Builds the response for one request; receives the raw query string
  /// (text after '?', without it; empty when absent). Never cached:
  /// every request re-invokes the handler. Runs on a dedicated worker
  /// thread (not the accept loop), so it may block for a capture
  /// window — but Stop() joins it, so a long-running handler should
  /// poll running() and bail out early once the exporter is stopping.
  using DynamicFn = std::function<HttpResponse(const std::string& query)>;

  /// Registers `fn` as an uncached dynamic handler for exact path
  /// `path`. Must be called before Start().
  void HandleDynamic(std::string path, DynamicFn fn);

  /// Cached responses younger than this are served without re-invoking
  /// their ContentFn. 0 rebuilds on every request. Default 250 ms.
  void set_refresh_interval_ms(int64_t ms) { refresh_interval_ms_ = ms; }

  /// Binds (port 0 picks an ephemeral port — see port()), listens, and
  /// starts the accept thread.
  util::Status Start(uint16_t port);

  /// Unblocks the accept loop and joins the thread. Idempotent.
  void Stop();

  /// The bound port (valid after a successful Start()).
  uint16_t port() const { return port_; }
  bool running() const {
    return listen_fd_.load(std::memory_order_acquire) >= 0;
  }

 private:
  struct Route {
    std::string path;
    std::string content_type;
    ContentFn build;
    DynamicFn build_dynamic;  // Non-null for HandleDynamic routes.
    // Response cache (accessed only from the serve thread after Start;
    // dynamic routes never populate it).
    std::string cached_body;
    std::chrono::steady_clock::time_point cached_at{};
    bool cache_valid = false;
  };

  void ServeLoop();
  /// Serves one connection; returns true when ownership of `fd` was
  /// handed to the dynamic worker thread (which sends and closes it).
  bool ServeConnection(int fd);

  std::vector<Route> routes_;
  int64_t refresh_interval_ms_ = 250;
  /// The listening socket; -1 when stopped. Atomic because Stop() retires
  /// it while the serve thread reads it between accepts.
  std::atomic<int> listen_fd_{-1};
  uint16_t port_ = 0;
  std::thread server_;
  /// The in-flight dynamic request, if any. `dynamic_busy_` is set by
  /// the serve thread when it hands a connection off and cleared by the
  /// worker as its last action; the serve thread reaps the finished
  /// worker before launching the next one, Stop() reaps the last.
  std::thread dynamic_worker_;
  std::atomic<bool> dynamic_busy_{false};
};

}  // namespace snb::obs

#endif  // SNB_OBS_HTTP_EXPORTER_H_
