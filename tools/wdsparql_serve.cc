/// \file
/// wdsparql_serve: the HTTP serving front door over one database.
///
///   wdsparql_serve [--db <path.snap>] [--wal] [--host H] [--port N]
///                  [--workers N] [--queue N] [--deadline-ms N]
///                  [--slow-query-ms N] [--trace-capacity N] [--quiet]
///
/// Serves the endpoints documented in docs/SERVING.md (POST /query with
/// chunked row streaming, POST /contains, POST /write, GET /metrics,
/// GET /healthz) from a fixed worker pool with a bounded admission
/// queue — overload answers 503 + Retry-After instead of queueing
/// unboundedly, and every query runs under a hard deadline.
///
/// Storage modes:
///   * --db <path.snap>         opens (or with --wal creates) the
///     single-file snapshot; --wal additionally write-ahead-logs every
///     /write commit so a crash loses nothing that was acknowledged.
///   * no --db                  an ephemeral in-memory database (demos
///     and tests; nothing survives exit).
///
/// Shutdown: SIGTERM / SIGINT trigger a graceful drain — the listener
/// closes first, queued and in-flight requests (including mid-stream
/// query responses) finish, then a database opened from --db is
/// checkpointed and the process exits 0. A second signal while draining
/// exits immediately.
///
/// Exit status: 0 on clean drain, 1 on bad flags / open / bind /
/// checkpoint errors.

#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "server/server.h"
#include "wdsparql/wdsparql.h"

using namespace wdsparql;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: wdsparql_serve [--db <path.snap>] [--wal] [--host H] "
               "[--port N]\n"
               "                      [--workers N] [--queue N] "
               "[--deadline-ms N]\n"
               "                      [--slow-query-ms N] [--trace-capacity N] "
               "[--quiet]\n"
               "\n"
               "  --db <path.snap>  open this snapshot (with --wal: create if "
               "missing,\n"
               "                    WAL-log writes, checkpoint on drain)\n"
               "  --host H          bind address (default 127.0.0.1)\n"
               "  --port N          TCP port, 0 = ephemeral (default 8080)\n"
               "  --workers N       worker threads (default 4)\n"
               "  --queue N         admission queue capacity (default 64)\n"
               "  --deadline-ms N   hard per-query deadline ceiling, 0 = "
               "unbounded\n"
               "                    (default 10000)\n"
               "  --slow-query-ms N log queries taking >= N ms as one JSON "
               "line with\n"
               "                    the captured EXPLAIN (0 logs every query; "
               "default off)\n"
               "  --trace-capacity N  flight-recorder span ring capacity "
               "(default 4096,\n"
               "                    0 disables request tracing)\n"
               "  --quiet           suppress the per-request access log\n");
  return 1;
}

// Self-pipe: the signal handler performs exactly one async-signal-safe
// write; the main thread blocks on the read end and runs the drain.
int g_signal_pipe[2] = {-1, -1};

void OnSignal(int) {
  char byte = 0;
  // A full pipe just means a signal is already pending; nothing to do.
  [[maybe_unused]] ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

/// Strict numeric flag value: the whole argument must parse.
bool ParseUint(const char* text, unsigned long* out) {
  char* end = nullptr;
  errno = 0;
  unsigned long value = std::strtoul(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0') return false;
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const char* db_path = nullptr;
  bool use_wal = false;
  unsigned long trace_capacity = TraceRecorder::kDefaultCapacity;
  server::ServerOptions options;
  options.port = 8080;
  for (int i = 1; i < argc; ++i) {
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    unsigned long parsed = 0;
    if (std::strcmp(argv[i], "--db") == 0) {
      if ((db_path = value("--db")) == nullptr) return Usage();
    } else if (std::strcmp(argv[i], "--wal") == 0) {
      use_wal = true;
    } else if (std::strcmp(argv[i], "--host") == 0) {
      const char* host = value("--host");
      if (host == nullptr) return Usage();
      options.host = host;
    } else if (std::strcmp(argv[i], "--port") == 0) {
      const char* text = value("--port");
      if (text == nullptr || !ParseUint(text, &parsed) || parsed > 65535) {
        std::fprintf(stderr, "error: bad --port value\n");
        return Usage();
      }
      options.port = static_cast<uint16_t>(parsed);
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      const char* text = value("--workers");
      if (text == nullptr || !ParseUint(text, &parsed) || parsed < 1 ||
          parsed > 1024) {
        std::fprintf(stderr, "error: bad --workers value\n");
        return Usage();
      }
      options.num_workers = static_cast<int>(parsed);
    } else if (std::strcmp(argv[i], "--queue") == 0) {
      const char* text = value("--queue");
      if (text == nullptr || !ParseUint(text, &parsed) || parsed < 1) {
        std::fprintf(stderr, "error: bad --queue value\n");
        return Usage();
      }
      options.queue_capacity = parsed;
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
      const char* text = value("--deadline-ms");
      if (text == nullptr || !ParseUint(text, &parsed)) {
        std::fprintf(stderr, "error: bad --deadline-ms value\n");
        return Usage();
      }
      options.default_deadline_ms = parsed;
    } else if (std::strcmp(argv[i], "--slow-query-ms") == 0) {
      const char* text = value("--slow-query-ms");
      if (text == nullptr || !ParseUint(text, &parsed)) {
        std::fprintf(stderr, "error: bad --slow-query-ms value\n");
        return Usage();
      }
      options.slow_query_ms = static_cast<int64_t>(parsed);
    } else if (std::strcmp(argv[i], "--trace-capacity") == 0) {
      const char* text = value("--trace-capacity");
      if (text == nullptr || !ParseUint(text, &parsed)) {
        std::fprintf(stderr, "error: bad --trace-capacity value\n");
        return Usage();
      }
      trace_capacity = parsed;
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      options.quiet = true;
    } else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", argv[i]);
      return Usage();
    }
  }
  if (use_wal && db_path == nullptr) {
    std::fprintf(stderr, "error: --wal requires --db\n");
    return Usage();
  }

  DatabaseOptions db_options;
  db_options.trace_capacity = trace_capacity;
  Database db(db_options);
  if (db_path != nullptr) {
    OpenOptions open_options;
    open_options.trace_capacity = trace_capacity;
    if (use_wal) {
      open_options.durability = Durability::kWal;
      open_options.create_if_missing = true;
    }
    Result<Database> opened = Database::Open(db_path, open_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "error: %s: %s\n", db_path,
                   opened.status().ToString().c_str());
      return 1;
    }
    db = std::move(opened).value();
    std::fprintf(stderr, "wdsparql_serve: opened %s (%zu triple(s)%s)\n",
                 db_path, db.size(), use_wal ? ", wal" : "");
  } else {
    std::fprintf(stderr, "wdsparql_serve: ephemeral in-memory database\n");
  }

  // Install the drain signals before Start so an immediate SIGTERM (a
  // supervisor racing the bind) still drains instead of killing us.
  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "error: pipe: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = OnSignal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);

  server::Server httpd(&db, options);
  Status started = httpd.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "wdsparql_serve: listening on %s:%u\n",
               options.host.c_str(), httpd.port());

  // Block until a drain signal arrives (EINTR restarts the wait).
  char byte;
  while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }

  std::fprintf(stderr, "wdsparql_serve: draining...\n");
  httpd.Stop();
  if (db_path != nullptr) {
    // Fold the WAL (or just persist the in-memory state the snapshot
    // mode accumulated) so a restart reopens exactly what was served.
    Status persisted = use_wal ? db.Checkpoint() : db.Save(db_path);
    if (!persisted.ok()) {
      std::fprintf(stderr, "error: checkpoint: %s\n",
                   persisted.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wdsparql_serve: checkpointed %s (%zu triple(s))\n",
                 db_path, db.size());
  }
  std::fprintf(stderr, "wdsparql_serve: clean exit\n");
  return 0;
}
