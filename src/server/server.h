#ifndef WDSPARQL_SERVER_SERVER_H_
#define WDSPARQL_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "server/http.h"
#include "wdsparql/database.h"
#include "wdsparql/metrics.h"
#include "wdsparql/status.h"

/// \file
/// `wdsparql_serve`'s serving core: an HTTP front door over one
/// `Database`, built entirely on the public execution surface —
/// per-request `ExecOptions` (deadline / row limit / cancellation),
/// a pinned `Snapshot` per query so a streaming response never observes
/// concurrent commits, `WriteBatch` commits for ingestion, and the
/// engine's `MetricsRegistry` for observability.
///
/// Endpoints (docs/SERVING.md is the full reference):
///   POST /query     body = pattern text; chunked JSON rows streamed
///                   from the cursor as they are produced. Params:
///                   `limit`, `deadline_ms`, `stats=1`.
///   POST /contains  wdEVAL membership: line 1 = pattern, then one
///                   "?var value" binding per line; snapshot-bound.
///   POST /write     N-Triples body applied as ONE WriteBatch.
///   GET  /metrics   `Database::DumpMetrics` — JSON by default,
///                   Prometheus text exposition with `?format=prometheus`.
///   GET  /healthz   liveness + triple count + storage health.
///   GET  /debug/trace  the flight recorder's most recent complete
///                   traces as JSON (`?n=K`, default 16).
///
/// Request identity and tracing: every request gets a request id —
/// honoured from an `X-Request-Id` header or generated — echoed back in
/// the response headers. When the database's flight recorder is enabled
/// the server opens a root `request` span per request; query execution
/// (parse/plan/enumerate/subtree) and commits attach below it, and
/// `?trace=1` on /query additionally inlines the spans after the status
/// trailer. A structured access-log line per request (and a slow-query
/// log line with the captured EXPLAIN, when `slow_query_ms` is set)
/// goes to `log_stream`.
///
/// Robustness model:
///  * A fixed worker pool (`num_workers`) handles requests; accepted
///    connections wait in a bounded admission queue. When the queue is
///    full the acceptor itself answers `503` with `Retry-After` and
///    closes — overload sheds load in O(1) memory instead of queuing
///    unboundedly.
///  * Every query gets a hard deadline (`default_deadline_ms` unless
///    the request asks for less) and a fresh `CancelToken`. Between
///    streamed rows the worker probes the connection; a client that
///    disconnected mid-stream fires the token and the cursor is closed
///    immediately — no orphaned cursor keeps pinning a read view.
///  * `Stop()` drains gracefully: the listener closes first (new
///    connections are refused), queued and in-flight requests finish,
///    workers join. The caller then checkpoints and exits.
///
/// Thread-safety: `Start`/`Stop` from one controlling thread. Handlers
/// run on worker threads and use only thread-safe database surfaces;
/// mutations (`/write`) serialise on an internal writer mutex, honouring
/// the engine's single-writer contract.

namespace wdsparql {
namespace server {

struct ServerOptions {
  /// Bind address. The default binds loopback only; serving a network
  /// means explicitly asking for it ("0.0.0.0").
  std::string host = "127.0.0.1";

  /// TCP port; 0 picks an ephemeral port (see `Server::port()`).
  uint16_t port = 0;

  /// Worker threads executing requests.
  int num_workers = 4;

  /// Accepted connections allowed to wait for a worker. Above this the
  /// acceptor sheds with 503 + Retry-After.
  std::size_t queue_capacity = 64;

  /// Hard per-query deadline applied when the request sends none (or
  /// asks for more). 0 = unbounded queries allowed.
  uint64_t default_deadline_ms = 10'000;

  /// `Retry-After` seconds advertised on 503 responses.
  int retry_after_s = 1;

  /// Largest accepted request body (queries and /write batches).
  std::size_t max_body_bytes = 16 * 1024 * 1024;

  /// Socket send/receive timeout: a peer stalled longer than this
  /// forfeits its request (the worker moves on).
  int io_timeout_ms = 10'000;

  /// Rows streamed between connection-liveness probes on /query.
  uint32_t disconnect_probe_interval = 16;

  /// Adds `GET /block` (parks a worker until `UnblockTestRequests`) so
  /// tests can fill the pool and the admission queue deterministically.
  /// Never enable in production builds of the tool.
  bool enable_test_endpoints = false;

  /// Slow-query log threshold: a /query taking at least this many
  /// milliseconds end-to-end writes one JSON line (request id, pattern,
  /// outcome, duration, rows, and the EXPLAIN tree — `collect_stats` is
  /// forced on /query while enabled so the EXPLAIN is always captured).
  /// 0 logs every query; negative (the default) disables the log.
  int64_t slow_query_ms = -1;

  /// Suppresses the per-request access log (the slow-query log, if
  /// enabled, still writes).
  bool quiet = false;

  /// Destination of the access and slow-query logs; null means stderr.
  std::FILE* log_stream = nullptr;
};

/// Per-request state threaded through the handlers: the request id
/// (honoured from `X-Request-Id` or generated, echoed on every
/// response), the trace context writing into the database's flight
/// recorder, and the response facts the access log reports.
struct RequestContext {
  std::string request_id;
  TraceContext trace;      ///< Disabled (null recorder) when tracing is off.
  uint32_t root_span = 0;  ///< The root `request` span; 0 when disabled.
  int status = 0;          ///< HTTP status written; 0 = none (peer vanished).
  uint64_t rows = 0;       ///< Result rows streamed (/query only).
  uint64_t bytes = 0;      ///< Response payload bytes written.
};

/// The HTTP server. Construct over a database, `Start`, eventually
/// `Stop` (drain). One server per database; the database must outlive
/// the server.
class Server {
 public:
  Server(Database* db, const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the acceptor + worker threads. Fails
  /// with `kIoError` when the address cannot be bound.
  Status Start();

  /// Graceful drain: refuse new connections, finish every queued and
  /// in-flight request, join all threads. Idempotent.
  void Stop();

  /// The bound port (resolves port 0 after `Start`).
  uint16_t port() const { return port_; }

  /// True between a successful `Start` and `Stop`.
  bool running() const { return running_; }

  /// Releases every request parked on the test-only /block endpoint.
  void UnblockTestRequests();

 private:
  void AcceptLoop();
  void WorkerLoop();
  void HandleConnection(int fd);
  void Dispatch(int fd, const HttpRequest& request, RequestContext& ctx);
  void HandleQuery(int fd, const HttpRequest& request, RequestContext& ctx);
  void HandleContains(int fd, const HttpRequest& request, RequestContext& ctx);
  void HandleWrite(int fd, const HttpRequest& request, RequestContext& ctx);
  void HandleMetrics(int fd, const HttpRequest& request, RequestContext& ctx);
  void HandleDebugTrace(int fd, const HttpRequest& request,
                        RequestContext& ctx);
  void HandleHealth(int fd, RequestContext& ctx);
  void HandleBlock(int fd, RequestContext& ctx);

  /// Writes one whole response with the request id echoed and records
  /// the status / payload size on `ctx` for the access log.
  void WriteResponse(int fd, RequestContext& ctx, int status,
                     std::string_view content_type, std::string_view body,
                     std::map<std::string, std::string> extra_headers = {});

  /// Writes a `{"error": ...}` response and counts it. `ctx` may be null
  /// for errors raised before a request context exists (parse failures).
  void WriteError(int fd, RequestContext* ctx, int status,
                  const std::string& code, const std::string& message);

  /// Appends one line to the access / slow-query log (serialised).
  void LogLine(const std::string& line);

  Database* db_;
  ServerOptions options_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  bool running_ = false;

  std::thread acceptor_;
  std::vector<std::thread> workers_;

  // Bounded admission queue of accepted connection fds.
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<int> queue_;
  /// Set once by `Stop` (atomic: both condition variables consult it
  /// without nesting their mutexes).
  std::atomic<bool> stopping_{false};

  // Test-only /block latch.
  std::mutex block_mutex_;
  std::condition_variable block_cv_;
  bool unblocked_ = false;

  // The engine is single-writer: /write commits (and nothing else in
  // the server) serialise here.
  std::mutex write_mutex_;

  // Access / slow-query log sink (options_.log_stream or stderr) and the
  // mutex keeping concurrent workers' lines whole.
  std::mutex log_mutex_;
  std::FILE* log_stream_ = nullptr;

  // Fallback request-id generator for servers whose database runs with
  // the flight recorder disabled (seeded from the wall clock at Start so
  // ids stay distinct across restarts).
  std::atomic<uint64_t> request_seq_{1};

  // Cached instrument pointers (stable addresses for the registry's
  // lifetime; see wdsparql/metrics.h).
  Counter* requests_;
  Counter* queries_;
  Counter* writes_;
  Counter* rejected_;
  Counter* http_errors_;
  Counter* client_disconnects_;
  Counter* bytes_streamed_;
  Gauge* inflight_;
  Gauge* queue_depth_;
  Histogram* request_ns_;
};

}  // namespace server
}  // namespace wdsparql

#endif  // WDSPARQL_SERVER_SERVER_H_
