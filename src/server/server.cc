#include "server/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "util/json.h"
#include "util/timer.h"
#include "util/trace.h"
#include "wdsparql/cursor.h"
#include "wdsparql/exec_options.h"
#include "wdsparql/session.h"
#include "wdsparql/snapshot.h"
#include "wdsparql/write_batch.h"

namespace wdsparql {
namespace server {
namespace {

/// Applies the per-socket timeouts so one stalled peer cannot wedge a
/// worker, and disables Nagle so streamed rows leave promptly.
void ConfigureSocket(int fd, int io_timeout_ms) {
  struct timeval tv;
  tv.tv_sec = io_timeout_ms / 1000;
  tv.tv_usec = (io_timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool ParseUint(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size()) return false;
  *out = parsed;
  return true;
}

/// One query parameter as a non-negative integer; absent -> `fallback`,
/// unparseable -> false.
bool UintParam(const HttpRequest& request, const char* name, uint64_t fallback,
               uint64_t* out) {
  auto it = request.params.find(name);
  if (it == request.params.end()) {
    *out = fallback;
    return true;
  }
  return ParseUint(it->second, out);
}

std::string ErrorJson(const std::string& code, const std::string& message) {
  util::JsonWriter json;
  json.BeginObject();
  json.BeginObject("error");
  json.Field("code", code);
  json.Field("message", message);
  json.EndObject();
  json.EndObject();
  return std::move(json).str();
}

/// The structured-diagnostics payload of a 4xx on /query and /contains:
/// the prepared statement's full `QueryDiagnostics`, machine-branchable
/// by `code` exactly like the C++ surface.
std::string DiagnosticsJson(const QueryDiagnostics& diag) {
  util::JsonWriter json;
  json.BeginObject();
  json.BeginObject("error");
  json.Field("code", DiagnosticsCodeToString(diag.code));
  json.Field("message", diag.message);
  if (!diag.offending_variable.empty()) {
    json.Field("offending_variable", diag.offending_variable);
  }
  json.Field("parsed", diag.parsed ? "true" : "false");
  json.Field("well_designed", diag.well_designed ? "true" : "false");
  json.EndObject();
  json.EndObject();
  return std::move(json).str();
}

int DiagnosticsHttpStatus(QueryDiagnostics::Code code) {
  switch (code) {
    case QueryDiagnostics::Code::kParseError:
    case QueryDiagnostics::Code::kNotWellDesigned:
    case QueryDiagnostics::Code::kUnsupported:
    case QueryDiagnostics::Code::kInvalidProjection:
      return 400;
    default:
      return 500;
  }
}

/// The trailing "status" field of a streamed /query response.
const char* QueryOutcome(const Cursor& cursor) {
  switch (cursor.state()) {
    case Cursor::State::kExhausted: return "exhausted";
    case Cursor::State::kLimited: return "limited";
    case Cursor::State::kCancelled:
      return cursor.diagnostics().code == QueryDiagnostics::Code::kDeadlineExceeded
                 ? "deadline_exceeded"
                 : "cancelled";
    default: return "error";
  }
}

/// Milliseconds since the Unix epoch, for access-log timestamps.
uint64_t WallClockMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// One result row as a JSON array; unbound OPT columns render as null.
std::string RowJson(const Cursor& cursor) {
  std::string row = "[";
  for (std::size_t col = 0; col < cursor.width(); ++col) {
    if (col != 0) row += ',';
    if (cursor.IsBound(col)) {
      row += '"';
      row += util::JsonEscape(cursor.Value(col));
      row += '"';
    } else {
      row += "null";
    }
  }
  row += ']';
  return row;
}

}  // namespace

Server::Server(Database* db, const ServerOptions& options)
    : db_(db), options_(options) {
  log_stream_ = options_.log_stream != nullptr ? options_.log_stream : stderr;
  MetricsRegistry& metrics = db_->metrics();
  requests_ = &metrics.counter("server.requests");
  queries_ = &metrics.counter("server.queries");
  writes_ = &metrics.counter("server.writes");
  rejected_ = &metrics.counter("server.rejected");
  http_errors_ = &metrics.counter("server.http_errors");
  client_disconnects_ = &metrics.counter("server.client_disconnects");
  bytes_streamed_ = &metrics.counter("server.bytes_streamed");
  inflight_ = &metrics.gauge("server.inflight");
  queue_depth_ = &metrics.gauge("server.queue_depth");
  request_ns_ = &metrics.histogram("server.request_ns");
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (running_) return Status::FailedPrecondition("server already started");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("unparseable bind address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    Status status = Status::IoError("bind " + options_.host + ":" +
                                    std::to_string(options_.port) + ": " +
                                    std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);

  // Seed the fallback request-id generator from the wall clock so
  // generated ids stay distinct across server restarts even when the
  // flight recorder (whose trace-id counter otherwise supplies ids) is
  // disabled.
  request_seq_.store(WallClockMs() * 1'000'003 + 1,
                     std::memory_order_relaxed);

  stopping_ = false;
  running_ = true;
  acceptor_ = std::thread([this] { AcceptLoop(); });
  int workers = options_.num_workers < 1 ? 1 : options_.num_workers;
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void Server::Stop() {
  if (!running_) return;
  stopping_.store(true, std::memory_order_relaxed);
  { std::lock_guard<std::mutex> lock(queue_mutex_); }   // Pairs with waiters.
  { std::lock_guard<std::mutex> lock(block_mutex_); }
  // Shutting down the listening socket refuses new connections
  // immediately and unblocks the acceptor's accept(2) with EINVAL. The
  // close (and the fd reset) waits until the acceptor has joined: the
  // acceptor still reads `listen_fd_`, and an early close would both
  // race that read and let the fd number be reused under it.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  queue_cv_.notify_all();
  // Drain semantics: /block parkers count as in-flight work and must
  // finish, so the stop signal releases them.
  block_cv_.notify_all();
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  running_ = false;
}

void Server::UnblockTestRequests() {
  std::lock_guard<std::mutex> lock(block_mutex_);
  unblocked_ = true;
  block_cv_.notify_all();
}

void Server::AcceptLoop() {
  while (true) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // The listening socket was closed (Stop) or is unusable.
    }
    ConfigureSocket(fd, options_.io_timeout_ms);
    bool shed = false;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (stopping_.load(std::memory_order_relaxed) ||
          queue_.size() >= options_.queue_capacity) {
        shed = true;
      } else {
        queue_.push_back(fd);
        queue_depth_->Set(static_cast<int64_t>(queue_.size()));
      }
    }
    if (shed) {
      // Admission control: the acceptor itself answers — a full queue
      // costs one small write and one close, never more memory.
      rejected_->Add(1);
      WriteHttpResponse(
          fd, 503, "application/json",
          ErrorJson("Overloaded", "admission queue full; retry later"),
          {{"Retry-After", std::to_string(options_.retry_after_s)}});
      // Lingering close: the client's request bytes are still unread,
      // and close(2) with unread data resets the connection — an RST
      // racing (and often destroying) the 503 we just wrote. Signal
      // end-of-response, then drain until the client's FIN, briefly.
      ::shutdown(fd, SHUT_WR);
      struct timeval linger_tv;
      linger_tv.tv_sec = 0;
      linger_tv.tv_usec = 250 * 1000;  // Bounds the acceptor's stall.
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &linger_tv, sizeof(linger_tv));
      char drain[1024];
      while (::recv(fd, drain, sizeof(drain), 0) > 0) {
      }
      ::close(fd);
      continue;
    }
    queue_cv_.notify_one();
  }
}

void Server::WorkerLoop() {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_relaxed) || !queue_.empty();
      });
      if (queue_.empty()) return;  // Stopping and fully drained.
      fd = queue_.front();
      queue_.pop_front();
      queue_depth_->Set(static_cast<int64_t>(queue_.size()));
    }
    inflight_->Add(1);
    Timer request_timer;
    HandleConnection(fd);
    request_ns_->Observe(request_timer.ElapsedNanos());
    ::close(fd);
    inflight_->Add(-1);
  }
}

void Server::HandleConnection(int fd) {
  HttpRequest request;
  HttpParseResult parsed = ReadHttpRequest(fd, options_.max_body_bytes, &request);
  switch (parsed) {
    case HttpParseResult::kOk: break;
    case HttpParseResult::kClosed:
    case HttpParseResult::kTimeout:
      return;  // Nobody is listening for an error page.
    case HttpParseResult::kMalformed:
      WriteError(fd, nullptr, 400, "MalformedRequest",
                 "unparseable HTTP request");
      return;
    case HttpParseResult::kHeadersTooLarge:
      WriteError(fd, nullptr, 431, "HeadersTooLarge",
                 "request header block too large");
      return;
    case HttpParseResult::kBodyTooLarge:
      WriteError(fd, nullptr, 413, "BodyTooLarge",
                 "request body exceeds max_body_bytes (" +
                     std::to_string(options_.max_body_bytes) + ")");
      return;
    case HttpParseResult::kUnsupported:
      WriteError(fd, nullptr, 411, "LengthRequired",
                 "chunked request bodies are not supported; send Content-Length");
      return;
  }
  requests_->Add(1);

  // Request identity: honour a client-supplied X-Request-Id (hashed onto
  // a trace id when it is not already one), otherwise mint one. The id
  // is echoed on every response and keys the trace, the access-log line
  // and the slow-query log together.
  RequestContext ctx;
  TraceRecorder* recorder = db_->trace_recorder();
  uint64_t trace_id;
  auto id_header = request.headers.find("x-request-id");
  if (id_header != request.headers.end() && !id_header->second.empty()) {
    ctx.request_id = id_header->second;
    trace_id = util::TraceIdFromRequestId(ctx.request_id);
  } else {
    trace_id = recorder != nullptr
                   ? recorder->NewTraceId()
                   : request_seq_.fetch_add(1, std::memory_order_relaxed) | 1;
    ctx.request_id = util::FormatTraceId(trace_id);
  }
  if (recorder != nullptr) {
    ctx.trace = TraceContext(recorder, trace_id);
    ctx.root_span = ctx.trace.StartSpan("request");
    ctx.trace.Annotate(ctx.root_span, "method", request.method);
    ctx.trace.Annotate(ctx.root_span, "path", request.path);
  }

  Timer request_timer;
  Dispatch(fd, request, ctx);
  uint64_t duration_ns = request_timer.ElapsedNanos();

  if (ctx.root_span != 0) {
    ctx.trace.Annotate(ctx.root_span, "status",
                       static_cast<uint64_t>(ctx.status));
    ctx.trace.EndSpan(ctx.root_span);
  }
  ctx.trace.Flush();

  if (!options_.quiet) {
    // One structured access-log line per parsed request; status 0 means
    // the peer disappeared before (or while) a response was written.
    util::JsonWriter line;
    line.BeginObject();
    line.Field("ts_ms", WallClockMs());
    line.Field("request_id", ctx.request_id);
    line.Field("method", request.method);
    line.Field("path", request.path);
    line.Field("status", static_cast<int64_t>(ctx.status));
    line.Field("duration_ms",
               static_cast<double>(duration_ns) / 1e6);
    line.Field("rows", ctx.rows);
    line.Field("bytes", ctx.bytes);
    line.EndObject();
    LogLine(std::move(line).str());
  }
}

void Server::Dispatch(int fd, const HttpRequest& request, RequestContext& ctx) {
  if (request.path == "/query") {
    if (request.method != "POST") {
      WriteError(fd, &ctx, 405, "MethodNotAllowed", "/query takes POST");
      return;
    }
    HandleQuery(fd, request, ctx);
  } else if (request.path == "/contains") {
    if (request.method != "POST") {
      WriteError(fd, &ctx, 405, "MethodNotAllowed", "/contains takes POST");
      return;
    }
    HandleContains(fd, request, ctx);
  } else if (request.path == "/write") {
    if (request.method != "POST") {
      WriteError(fd, &ctx, 405, "MethodNotAllowed", "/write takes POST");
      return;
    }
    HandleWrite(fd, request, ctx);
  } else if (request.path == "/metrics") {
    if (request.method != "GET") {
      WriteError(fd, &ctx, 405, "MethodNotAllowed", "/metrics takes GET");
      return;
    }
    HandleMetrics(fd, request, ctx);
  } else if (request.path == "/debug/trace") {
    if (request.method != "GET") {
      WriteError(fd, &ctx, 405, "MethodNotAllowed", "/debug/trace takes GET");
      return;
    }
    HandleDebugTrace(fd, request, ctx);
  } else if (request.path == "/healthz") {
    if (request.method != "GET") {
      WriteError(fd, &ctx, 405, "MethodNotAllowed", "/healthz takes GET");
      return;
    }
    HandleHealth(fd, ctx);
  } else if (request.path == "/block" && options_.enable_test_endpoints) {
    HandleBlock(fd, ctx);
  } else {
    WriteError(fd, &ctx, 404, "NotFound", "no such endpoint: " + request.path);
  }
}

void Server::HandleQuery(int fd, const HttpRequest& request,
                         RequestContext& ctx) {
  queries_->Add(1);
  Timer query_timer;
  uint64_t limit = 0;
  uint64_t deadline_ms = 0;
  if (!UintParam(request, "limit", 0, &limit) ||
      !UintParam(request, "deadline_ms", options_.default_deadline_ms,
                 &deadline_ms)) {
    WriteError(fd, &ctx, 400, "InvalidParameter",
               "limit and deadline_ms must be non-negative integers");
    return;
  }
  // The server default is a *hard* ceiling: a request may tighten its
  // deadline, never escape it (unless the server runs unbounded).
  if (options_.default_deadline_ms != 0 &&
      (deadline_ms == 0 || deadline_ms > options_.default_deadline_ms)) {
    deadline_ms = options_.default_deadline_ms;
  }
  bool want_stats = false;
  {
    auto it = request.params.find("stats");
    want_stats = it != request.params.end() && it->second == "1";
  }
  bool want_trace = false;
  {
    auto it = request.params.find("trace");
    want_trace = it != request.params.end() && it->second == "1";
  }
  // The slow-query log captures the EXPLAIN tree, so while the log is
  // armed every query collects stats whether or not it asked to.
  const bool slow_log = options_.slow_query_ms >= 0;

  // `?optimize=0` bypasses the cost-based planner for this query (A/B
  // comparisons, plan-regression triage); anything else keeps it on.
  bool optimize = true;
  {
    auto it = request.params.find("optimize");
    optimize = it == request.params.end() || it->second != "0";
  }

  ExecOptions exec;
  exec.row_limit = limit;
  exec.optimize = optimize;
  exec.cancel = MakeCancelToken();
  exec.collect_stats = want_stats || slow_log;
  if (ctx.trace.enabled()) {
    exec.trace = &ctx.trace;
    exec.trace_parent = ctx.root_span;
  }
  if (deadline_ms != 0) {
    exec.WithTimeout(std::chrono::milliseconds(deadline_ms));
  }

  // Pin the published state once: however long this response streams and
  // whatever /write commits meanwhile, every row comes from one
  // generation. The pin is released with the cursor, below.
  Snapshot snapshot = db_->GetSnapshot();
  Session session = db_->OpenSession();
  Statement stmt = session.Prepare(request.body);
  if (!stmt.ok()) {
    const QueryDiagnostics& diag = stmt.diagnostics();
    http_errors_->Add(1);
    WriteResponse(fd, ctx, DiagnosticsHttpStatus(diag.code),
                  "application/json", DiagnosticsJson(diag));
    return;
  }
  Cursor cursor = stmt.Execute(snapshot, exec);

  // Pull the first row before committing to a 200: an execution that
  // fails outright (library bug, refused snapshot) still gets a clean
  // error status.
  bool has_row = cursor.Next();
  if (!has_row && cursor.state() == Cursor::State::kFailed) {
    const QueryDiagnostics& diag = cursor.diagnostics();
    http_errors_->Add(1);
    WriteResponse(fd, ctx, DiagnosticsHttpStatus(diag.code),
                  "application/json", DiagnosticsJson(diag));
    return;
  }

  std::string head = "{\"vars\":[";
  const std::vector<std::string>& vars = stmt.variables();
  for (std::size_t i = 0; i < vars.size(); ++i) {
    if (i != 0) head += ',';
    head += '"';
    head += util::JsonEscape(vars[i]);
    head += '"';
  }
  head += "],\"rows\":[";

  // One JSON line per offending query while the slow-query log is armed:
  // everything an operator needs to act on the query from the log alone —
  // the request id (keys the access log and /debug/trace), the pattern,
  // how it ended, and the captured EXPLAIN tree.
  auto maybe_log_slow = [&](const char* outcome) {
    if (!slow_log) return;
    uint64_t elapsed_ns = query_timer.ElapsedNanos();
    if (elapsed_ns / 1'000'000 <
        static_cast<uint64_t>(options_.slow_query_ms)) {
      return;
    }
    std::string line = "{\"slow_query\":true,\"request_id\":\"";
    line += util::JsonEscape(ctx.request_id);
    line += "\",\"pattern\":\"";
    line += util::JsonEscape(std::string_view(request.body).substr(0, 512));
    line += "\",\"outcome\":\"";
    line += outcome;
    line += "\",\"duration_ms\":";
    line += std::to_string(static_cast<double>(elapsed_ns) / 1e6);
    line += ",\"rows\":" + std::to_string(cursor.rows());
    if (cursor.stats() != nullptr) {
      line += ",\"explain\":" + cursor.stats()->ToJson();
    }
    line += "}";
    LogLine(line);
  };

  ChunkedWriter writer(fd);
  bool alive = writer.Begin(200, "application/json",
                            {{"X-Request-Id", ctx.request_id}}) &&
               writer.Write(head);
  ctx.status = 200;
  uint64_t streamed = 0;
  uint32_t probe_every = options_.disconnect_probe_interval == 0
                             ? 1
                             : options_.disconnect_probe_interval;
  while (alive && has_row) {
    std::string row = streamed == 0 ? RowJson(cursor) : ("," + RowJson(cursor));
    alive = writer.Write(row);
    ++streamed;
    // Liveness probe between rows: a mid-stream disconnect must stop
    // the enumeration promptly, not at the end of the answer set.
    if (alive && streamed % probe_every == 0 && PeerClosed(fd)) alive = false;
    if (alive) has_row = cursor.Next();
  }
  ctx.rows = streamed;

  if (!alive) {
    // The client went away mid-stream. Fire the request's token (the
    // enumerator stops mid-tree at its next check) and close the
    // cursor NOW: its pinned read view must not outlive the connection.
    exec.cancel->store(true, std::memory_order_relaxed);
    cursor.Close();
    client_disconnects_->Add(1);
    bytes_streamed_->Add(writer.bytes_written());
    ctx.bytes += writer.bytes_written();
    ctx.status = 0;  // Nobody received the response.
    maybe_log_slow("client_disconnect");
    return;
  }

  std::string tail = "],\"status\":\"";
  tail += QueryOutcome(cursor);
  tail += "\",\"row_count\":" + std::to_string(cursor.rows());
  tail += ",\"generation\":" + std::to_string(snapshot.generation());
  if (want_stats && cursor.stats() != nullptr) {
    // Trailing stats object, Trident-style: results first, the
    // execution's own account of itself alongside.
    tail += ",\"stats\":" + cursor.stats()->ToJson();
  }
  if (want_trace && ctx.trace.enabled()) {
    // Inline spans after the status trailer. The root `request` span is
    // still open here (the response itself is part of it) and renders
    // with its duration so far.
    tail += ",\"trace\":{\"trace_id\":\"";
    tail += util::FormatTraceId(ctx.trace.trace_id());
    tail += "\",\"spans\":" + ctx.trace.SpansJson() + "}";
  }
  tail += "}";
  if (writer.Write(tail)) writer.End();
  bytes_streamed_->Add(writer.bytes_written());
  ctx.bytes += writer.bytes_written();
  maybe_log_slow(QueryOutcome(cursor));
}

void Server::HandleContains(int fd, const HttpRequest& request,
                            RequestContext& ctx) {
  queries_->Add(1);
  // Body: line 1 = pattern text, then one "?var value" binding per line.
  std::string_view body = request.body;
  std::size_t eol = body.find('\n');
  std::string_view pattern = body.substr(0, eol);
  Snapshot snapshot = db_->GetSnapshot();
  Session session = db_->OpenSession();
  Statement stmt = session.Prepare(pattern);
  if (!stmt.ok()) {
    const QueryDiagnostics& diag = stmt.diagnostics();
    http_errors_->Add(1);
    WriteResponse(fd, ctx, DiagnosticsHttpStatus(diag.code),
                  "application/json", DiagnosticsJson(diag));
    return;
  }

  TermPool& pool = db_->pool();
  Mapping mu;
  bool definitely_absent = false;
  std::string_view rest = eol == std::string_view::npos ? std::string_view()
                                                        : body.substr(eol + 1);
  while (!rest.empty()) {
    std::size_t line_end = rest.find('\n');
    std::string_view line = rest.substr(0, line_end);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    rest = line_end == std::string_view::npos ? std::string_view()
                                              : rest.substr(line_end + 1);
    while (!line.empty() && line.front() == ' ') line.remove_prefix(1);
    if (line.empty()) continue;
    std::size_t space = line.find(' ');
    if (space == std::string_view::npos) {
      WriteError(fd, &ctx, 400, "InvalidBinding",
                 "binding lines are \"?var value\": " + std::string(line));
      return;
    }
    std::string_view var_name = line.substr(0, space);
    std::string_view value = line.substr(space + 1);
    while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
    if (var_name.empty() || var_name.front() != '?' || value.empty()) {
      WriteError(fd, &ctx, 400, "InvalidBinding",
                 "binding lines are \"?var value\": " + std::string(line));
      return;
    }
    const std::vector<std::string>& vars = stmt.variables();
    if (std::find(vars.begin(), vars.end(), std::string(var_name)) == vars.end()) {
      WriteError(fd, &ctx, 400, "InvalidBinding",
                 "variable " + std::string(var_name) + " is not in the pattern");
      return;
    }
    // Accept both the pool's bare spelling and N-Triples-style <...>
    // (the pool interns IRIs without the angle brackets).
    if (value.size() >= 2 && value.front() == '<' && value.back() == '>') {
      value = value.substr(1, value.size() - 2);
    }
    std::optional<TermId> var = pool.FindVariable(var_name.substr(1));
    std::optional<TermId> iri = pool.FindIri(value);
    if (!var.has_value()) {
      WriteError(fd, &ctx, 500, "Internal",
                 "statement variable missing from pool");
      return;
    }
    if (!iri.has_value()) {
      // A spelling the database never interned cannot appear in any
      // answer; the membership test is decided without running it.
      definitely_absent = true;
      continue;
    }
    if (!mu.Bind(*var, *iri)) {
      WriteError(fd, &ctx, 400, "InvalidBinding",
                 "conflicting bindings for " + std::string(var_name));
      return;
    }
  }

  bool contains = !definitely_absent && stmt.Contains(mu, snapshot);
  std::string body_json = std::string("{\"contains\":") +
                          (contains ? "true" : "false") +
                          ",\"generation\":" +
                          std::to_string(snapshot.generation()) + "}";
  WriteResponse(fd, ctx, 200, "application/json", body_json);
}

void Server::HandleWrite(int fd, const HttpRequest& request,
                         RequestContext& ctx) {
  writes_->Add(1);
  WriteBatch batch;
  Status parsed = batch.LoadNTriples(request.body);
  if (!parsed.ok()) {
    WriteError(fd, &ctx, 400, StatusCodeToString(parsed.code()),
               parsed.message());
    return;
  }
  ApplyResult result;
  Status applied;
  {
    // The engine is single-writer: concurrent /write requests commit
    // one after another. Readers (and open /query streams) never wait —
    // they hold pinned views.
    std::lock_guard<std::mutex> lock(write_mutex_);
    applied = db_->Apply(std::move(batch), &result,
                         ctx.trace.enabled() ? &ctx.trace : nullptr);
  }
  if (!applied.ok()) {
    WriteError(fd, &ctx, 500, StatusCodeToString(applied.code()),
               applied.message());
    return;
  }
  util::JsonWriter json;
  json.BeginObject();
  json.Field("added", static_cast<uint64_t>(result.added));
  json.Field("removed", static_cast<uint64_t>(result.removed));
  json.Field("wal_bytes", result.wal_bytes);
  json.Field("wal_groups", result.wal_groups);
  json.Field("publishes", result.publishes);
  json.Field("generation", db_->generation());
  json.EndObject();
  WriteResponse(fd, ctx, 200, "application/json", std::move(json).str());
}

void Server::HandleMetrics(int fd, const HttpRequest& request,
                           RequestContext& ctx) {
  auto it = request.params.find("format");
  std::string format = it == request.params.end() ? "json" : it->second;
  if (format == "prometheus") {
    WriteResponse(fd, ctx, 200, "text/plain; version=0.0.4; charset=utf-8",
                  db_->DumpMetrics(MetricsFormat::kPrometheus));
  } else if (format == "text") {
    WriteResponse(fd, ctx, 200, "text/plain; charset=utf-8",
                  db_->DumpMetrics(MetricsFormat::kText));
  } else if (format == "json") {
    WriteResponse(fd, ctx, 200, "application/json",
                  db_->DumpMetrics(MetricsFormat::kJson));
  } else {
    WriteError(fd, &ctx, 400, "InvalidParameter",
               "format must be json, text or prometheus");
  }
}

void Server::HandleDebugTrace(int fd, const HttpRequest& request,
                              RequestContext& ctx) {
  uint64_t n = 0;
  if (!UintParam(request, "n", 16, &n) || n == 0) {
    WriteError(fd, &ctx, 400, "InvalidParameter",
               "n must be a positive integer");
    return;
  }
  // The recorder holds a bounded window anyway; clamping keeps one
  // debug poll from building an arbitrarily large response.
  if (n > 256) n = 256;
  WriteResponse(fd, ctx, 200, "application/json", db_->DumpTraces(n));
}

void Server::HandleHealth(int fd, RequestContext& ctx) {
  Status storage = db_->storage_status();
  if (storage.ok()) {
    std::string body = "{\"status\":\"ok\",\"triples\":" +
                       std::to_string(db_->size()) +
                       ",\"generation\":" + std::to_string(db_->generation()) +
                       "}";
    WriteResponse(fd, ctx, 200, "application/json", body);
  } else {
    WriteResponse(fd, ctx, 503, "application/json",
                  ErrorJson(StatusCodeToString(storage.code()),
                            storage.message()));
  }
}

void Server::HandleBlock(int fd, RequestContext& ctx) {
  // Test-only: park this worker until the test (or a drain) releases
  // it. Gives tests a deterministic way to fill the pool and the
  // admission queue.
  {
    std::unique_lock<std::mutex> lock(block_mutex_);
    block_cv_.wait(lock, [this] {
      return unblocked_ || stopping_.load(std::memory_order_relaxed);
    });
  }
  WriteResponse(fd, ctx, 200, "application/json", "{\"status\":\"unblocked\"}");
}

void Server::WriteResponse(int fd, RequestContext& ctx, int status,
                           std::string_view content_type,
                           std::string_view body,
                           std::map<std::string, std::string> extra_headers) {
  extra_headers["X-Request-Id"] = ctx.request_id;
  uint64_t bytes = 0;
  WriteHttpResponse(fd, status, content_type, body, extra_headers, &bytes);
  ctx.status = status;
  ctx.bytes += bytes;
}

void Server::WriteError(int fd, RequestContext* ctx, int status,
                        const std::string& code, const std::string& message) {
  if (status >= 400) http_errors_->Add(1);
  if (ctx != nullptr) {
    WriteResponse(fd, *ctx, status, "application/json",
                  ErrorJson(code, message));
  } else {
    WriteHttpResponse(fd, status, "application/json", ErrorJson(code, message));
  }
}

void Server::LogLine(const std::string& line) {
  std::lock_guard<std::mutex> lock(log_mutex_);
  std::fwrite(line.data(), 1, line.size(), log_stream_);
  std::fputc('\n', log_stream_);
  std::fflush(log_stream_);
}

}  // namespace server
}  // namespace wdsparql
