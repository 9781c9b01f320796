#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "server/http_client.h"
#include "server/server.h"
#include "support/testlib.h"
#include "wdsparql/wdsparql.h"

/// \file
/// The HTTP serving front door, tested in-process: a `server::Server`
/// on an ephemeral port driven by the bundled `HttpClient` (and, for
/// the disconnect scenarios, raw sockets). Runs under ThreadSanitizer
/// in CI alongside the other concurrency suites — the server's worker
/// pool, the admission queue, /write commits racing streamed /query
/// responses, and the drain path are all genuinely multi-threaded here.

namespace wdsparql {
namespace server {
namespace {

/// A small fixed corpus: 60 triples over 3 predicates.
void Populate(Database* db) {
  for (int i = 0; i < 60; ++i) {
    db->AddTriple("http://t/s" + std::to_string(i % 10),
                  "http://t/p" + std::to_string(i % 3),
                  "http://t/o" + std::to_string(i));
  }
}

/// Starts a server over `db` with test endpoints enabled.
std::unique_ptr<Server> StartServer(Database* db, ServerOptions options = {}) {
  options.port = 0;  // Ephemeral.
  options.enable_test_endpoints = true;
  auto server = std::make_unique<Server>(db, options);
  Status started = server->Start();
  EXPECT_TRUE(started.ok()) << started.ToString();
  return server;
}

HttpClient ClientFor(const Server& server) {
  return HttpClient("127.0.0.1", server.port());
}

/// Polls a predicate for up to ~15 s (metrics written by worker threads
/// land shortly after the response; never assert them race-sharp — and
/// under TSan on a loaded CI machine, scheduling can stall for seconds).
template <typename Predicate>
bool Eventually(Predicate&& predicate) {
  for (int i = 0; i < 3000; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

// ---------------------------------------------------------------------
// Query round trips
// ---------------------------------------------------------------------

TEST(ServeQueryTest, StreamsRowsAndReportsExhaustion) {
  Database db;
  Populate(&db);
  auto server = StartServer(&db);
  HttpClient client = ClientFor(*server);

  HttpResponse response;
  ASSERT_TRUE(client.Post("/query", "(?s <http://t/p1> ?o)", &response).ok());
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.headers["transfer-encoding"], "chunked");
  EXPECT_NE(response.body.find("\"vars\":[\"?s\",\"?o\"]"), std::string::npos);
  EXPECT_NE(response.body.find("\"status\":\"exhausted\""), std::string::npos);
  EXPECT_NE(response.body.find("\"row_count\":20"), std::string::npos);
  // 20 rows, each ["s","o"].
  EXPECT_NE(response.body.find("[\"http://t/s1\",\"http://t/o1\"]"),
            std::string::npos);
  server->Stop();
}

TEST(ServeQueryTest, LimitTruncatesAndSaysSo) {
  Database db;
  Populate(&db);
  auto server = StartServer(&db);
  HttpClient client = ClientFor(*server);

  HttpResponse response;
  ASSERT_TRUE(client.Post("/query?limit=3", "(?s ?p ?o)", &response).ok());
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"status\":\"limited\""), std::string::npos);
  EXPECT_NE(response.body.find("\"row_count\":3"), std::string::npos);
  EXPECT_TRUE(Eventually(
      [&] { return db.metrics().counter("query.limited").value() >= 1; }));
  server->Stop();
}

TEST(ServeQueryTest, StatsParamAppendsExecStats) {
  Database db;
  Populate(&db);
  auto server = StartServer(&db);
  HttpClient client = ClientFor(*server);

  HttpResponse response;
  ASSERT_TRUE(client.Post("/query?stats=1", "(?s <http://t/p0> ?o)",
                          &response).ok());
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"stats\":{"), std::string::npos);
  EXPECT_NE(response.body.find("rows_emitted"), std::string::npos);

  // Without the param the tail carries no stats object.
  ASSERT_TRUE(client.Post("/query", "(?s <http://t/p0> ?o)", &response).ok());
  EXPECT_EQ(response.body.find("\"stats\":{"), std::string::npos);
  server->Stop();
}

TEST(ServeQueryTest, ServerDeadlineIsAHardCeiling) {
  Database db;
  // A cross-join explosion: enough rows that 1 ms cannot finish.
  // (One batched load — per-triple commits would dominate the test
  // under TSan.)
  std::string corpus;
  for (int i = 0; i < 400; ++i) {
    corpus += "<http://t/a" + std::to_string(i) + "> <http://t/p> <http://t/x> .\n";
    corpus += "<http://t/x> <http://t/q> <http://t/b" + std::to_string(i) + "> .\n";
  }
  ASSERT_TRUE(db.LoadNTriples(corpus).ok());
  ServerOptions options;
  options.default_deadline_ms = 1;
  auto server = StartServer(&db, options);
  HttpClient client = ClientFor(*server);

  HttpResponse response;
  // The request asks for a *longer* deadline; the server ceiling wins.
  ASSERT_TRUE(client.Post("/query?deadline_ms=60000",
                          "(?a <http://t/p> ?x) AND (?x <http://t/q> ?b)",
                          &response).ok());
  EXPECT_EQ(response.status, 200);  // Streaming had begun; tail reports it.
  EXPECT_NE(response.body.find("\"status\":\"deadline_exceeded\""),
            std::string::npos)
      << response.body;
  EXPECT_TRUE(Eventually([&] {
    return db.metrics().counter("query.deadline_exceeded").value() >= 1;
  }));
  server->Stop();
}

TEST(ServeQueryTest, MalformedQueryGetsStructured400) {
  Database db;
  Populate(&db);
  auto server = StartServer(&db);
  HttpClient client = ClientFor(*server);

  HttpResponse response;
  ASSERT_TRUE(client.Post("/query", "((( nonsense", &response).ok());
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("\"code\":\"ParseError\""), std::string::npos);
  EXPECT_NE(response.body.find("\"message\""), std::string::npos);

  // Bad parameter values are 400 too, before any execution.
  ASSERT_TRUE(client.Post("/query?limit=banana", "(?s ?p ?o)", &response).ok());
  EXPECT_EQ(response.status, 400);
  server->Stop();
}

TEST(ServeHttpTest, RoutesAndMethodsAreEnforced) {
  Database db;
  Populate(&db);
  auto server = StartServer(&db);
  HttpClient client = ClientFor(*server);

  HttpResponse response;
  ASSERT_TRUE(client.Get("/nope", &response).ok());
  EXPECT_EQ(response.status, 404);
  ASSERT_TRUE(client.Get("/query", &response).ok());
  EXPECT_EQ(response.status, 405);
  ASSERT_TRUE(client.Post("/metrics", "x", &response).ok());
  EXPECT_EQ(response.status, 405);

  ASSERT_TRUE(client.Get("/healthz", &response).ok());
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(response.body.find("\"triples\":60"), std::string::npos);

  ASSERT_TRUE(client.Get("/metrics", &response).ok());
  EXPECT_EQ(response.status, 200);
  // Verbatim DumpMetrics(kJson): instrument names present.
  EXPECT_NE(response.body.find("server.requests"), std::string::npos);
  server->Stop();
}

// ---------------------------------------------------------------------
// Writes
// ---------------------------------------------------------------------

TEST(ServeWriteTest, NTriplesBodyCommitsAsOneBatch) {
  Database db;
  Populate(&db);
  auto server = StartServer(&db);
  HttpClient client = ClientFor(*server);

  uint64_t generation_before = db.generation();
  HttpResponse response;
  ASSERT_TRUE(client.Post("/write",
                          "<http://t/new1> <http://t/p9> <http://t/oX> .\n"
                          "<http://t/new2> <http://t/p9> <http://t/oX> .\n",
                          &response).ok());
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"added\":2"), std::string::npos);
  EXPECT_EQ(db.size(), 62u);
  // ONE WriteBatch: exactly one publish for the two triples.
  EXPECT_EQ(db.generation(), generation_before + 1);

  ASSERT_TRUE(client.Post("/write", "not n-triples at all", &response).ok());
  EXPECT_EQ(response.status, 400);
  EXPECT_EQ(db.size(), 62u);
  server->Stop();
}

TEST(ServeWriteTest, QueryStreamsPinOneGenerationAcrossConcurrentWrites) {
  Database db;
  Populate(&db);
  auto server = StartServer(&db);
  HttpClient client = ClientFor(*server);

  // Hammer /query and /write concurrently; every query response must be
  // internally consistent (its row_count matches its rows) and each
  // write must apply atomically. TSan watches the rest.
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 20; ++i) {
        HttpResponse response;
        Status status = client.Post("/query", "(?s <http://t/p1> ?o)", &response);
        if (!status.ok() || response.status != 200 ||
            response.body.find("\"status\":\"exhausted\"") == std::string::npos) {
          failed = true;
        }
        (void)t;
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 20; ++i) {
      HttpResponse response;
      std::string body = "<http://t/w" + std::to_string(i) +
                         "> <http://t/pw> <http://t/ow> .\n";
      Status status = client.Post("/write", body, &response);
      if (!status.ok() || response.status != 200) failed = true;
    }
  });
  for (std::thread& thread : threads) thread.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(db.size(), 80u);
  server->Stop();
}

// ---------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------

TEST(ServeOverloadTest, FullQueueShedsWith503AndRetryAfter) {
  Database db;
  Populate(&db);
  ServerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 1;
  auto server = StartServer(&db, options);
  HttpClient client = ClientFor(*server);

  // Park the one worker on /block, then fill the queue: connection 2
  // waits, connection 3 must be shed by the acceptor. No ASSERT while
  // the helper thread is joinable — a failed assertion would leave it
  // running and std::terminate the whole binary.
  std::thread blocked([&] {
    HttpResponse response;
    (void)client.Get("/block", &response);
  });
  bool worker_parked = Eventually(
      [&] { return db.metrics().gauge("server.inflight").value() == 1; });

  // Occupy the single queue slot with a connection that just waits.
  int parked_fd = DialTcp("127.0.0.1", server->port(), 2000);
  bool queue_full =
      worker_parked && parked_fd >= 0 &&
      Eventually(
          [&] { return db.metrics().gauge("server.queue_depth").value() == 1; });

  HttpResponse shed;
  bool shed_fetched = queue_full && client.Get("/healthz", &shed).ok();

  server->UnblockTestRequests();
  blocked.join();
  if (parked_fd >= 0) ::close(parked_fd);
  server->Stop();

  EXPECT_TRUE(worker_parked);
  EXPECT_TRUE(queue_full) << "parked_fd=" << parked_fd
      << " depth=" << db.metrics().gauge("server.queue_depth").value()
      << " inflight=" << db.metrics().gauge("server.inflight").value()
      << " rejected=" << db.metrics().counter("server.rejected").value()
      << " requests=" << db.metrics().counter("server.requests").value();
  ASSERT_TRUE(shed_fetched);
  EXPECT_EQ(shed.status, 503);
  EXPECT_EQ(shed.headers["retry-after"], "1");
  EXPECT_GE(db.metrics().counter("server.rejected").value(), 1u);
}

// ---------------------------------------------------------------------
// Client disconnect mid-stream
// ---------------------------------------------------------------------

TEST(ServeDisconnectTest, EarlyCloseCancelsTheCursorAndReleasesItsView) {
  Database db;
  // Enough cross-join answers that the stream far outlives the client.
  std::string corpus;
  for (int i = 0; i < 300; ++i) {
    corpus += "<http://t/a" + std::to_string(i) + "> <http://t/p> <http://t/x> .\n";
    corpus += "<http://t/x> <http://t/q> <http://t/b" + std::to_string(i) + "> .\n";
  }
  ASSERT_TRUE(db.LoadNTriples(corpus).ok());
  ServerOptions options;
  options.disconnect_probe_interval = 4;
  options.default_deadline_ms = 60'000;  // The probe, not the deadline, ends it.
  auto server = StartServer(&db, options);

  int64_t views_baseline = db.metrics().gauge("views.live").value();
  uint64_t closed_early_before =
      db.metrics().counter("query.closed_early").value();

  // Raw socket: send the request, read a little of the stream, vanish.
  // Generous socket timeout: under TSan on a loaded machine the first
  // streamed row can take seconds to arrive.
  int fd = DialTcp("127.0.0.1", server->port(), 30'000);
  ASSERT_GE(fd, 0);
  std::string body = "(?a <http://t/p> ?x) AND (?x <http://t/q> ?b)";
  std::string request =
      "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  char sink[1024];
  ASSERT_GT(::recv(fd, sink, sizeof(sink), 0), 0);  // Stream is flowing.
  ::close(fd);  // Walk away mid-stream.

  // The server must notice, fire the token, close the cursor and drop
  // the pinned view — no orphaned cursor keeps the snapshot alive.
  EXPECT_TRUE(Eventually([&] {
    return db.metrics().counter("server.client_disconnects").value() >= 1;
  }));
  EXPECT_TRUE(Eventually([&] {
    return db.metrics().gauge("views.live").value() <= views_baseline;
  }));
  EXPECT_TRUE(Eventually([&] {
    return db.metrics().counter("query.closed_early").value() >
           closed_early_before;
  }));
  server->Stop();
}

// ---------------------------------------------------------------------
// Graceful drain
// ---------------------------------------------------------------------

TEST(ServeDrainTest, StopFinishesInFlightRequestsBeforeReturning) {
  Database db;
  Populate(&db);
  ServerOptions options;
  options.num_workers = 2;
  auto server = StartServer(&db, options);
  HttpClient client = ClientFor(*server);
  uint16_t port = server->port();

  // One request parks on /block (in flight when Stop begins).
  std::atomic<int> blocked_status{0};
  std::thread in_flight([&] {
    HttpResponse response;
    Status status = client.Get("/block", &response);
    blocked_status = status.ok() ? response.status : -1;
  });
  bool parked = Eventually(
      [&] { return db.metrics().gauge("server.inflight").value() >= 1; });

  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server->UnblockTestRequests();  // Drain releases the parked request.
  });
  server->Stop();  // Must not return before the in-flight request finished.
  stopper.join();
  in_flight.join();
  EXPECT_TRUE(parked);
  EXPECT_EQ(blocked_status.load(), 200);

  // Drained means drained: new connections are refused.
  HttpResponse after;
  EXPECT_FALSE(HttpClient("127.0.0.1", port, 500).Get("/healthz", &after).ok());
}

// ---------------------------------------------------------------------
// Snapshot-bound membership (/contains and the API under it)
// ---------------------------------------------------------------------

TEST(SnapshotContainsTest, DecidesAgainstThePinnedStateNotTheLiveOne) {
  Database db;
  db.AddTriple("http://t/a", "http://t/knows", "http://t/b");
  Session session = db.OpenSession();
  Statement stmt = session.Prepare("(?x <http://t/knows> ?y)");
  ASSERT_TRUE(stmt.ok());

  Snapshot before = db.GetSnapshot();
  db.AddTriple("http://t/c", "http://t/knows", "http://t/d");
  Snapshot after = db.GetSnapshot();

  TermPool& pool = db.pool();
  Mapping old_pair;
  old_pair.Bind(pool.InternVariable("x"), pool.InternIri("http://t/a"));
  old_pair.Bind(pool.InternVariable("y"), pool.InternIri("http://t/b"));
  Mapping new_pair;
  new_pair.Bind(pool.InternVariable("x"), pool.InternIri("http://t/c"));
  new_pair.Bind(pool.InternVariable("y"), pool.InternIri("http://t/d"));

  EXPECT_TRUE(stmt.Contains(old_pair, before));
  EXPECT_FALSE(stmt.Contains(new_pair, before));  // Not in the old state.
  EXPECT_TRUE(stmt.Contains(new_pair, after));
  EXPECT_TRUE(stmt.Contains(new_pair));  // Live overload sees it too.

  // Refusals collapse to false: invalid snapshot, foreign snapshot.
  EXPECT_FALSE(stmt.Contains(old_pair, Snapshot()));
  Database other;
  other.AddTriple("http://t/a", "http://t/knows", "http://t/b");
  EXPECT_FALSE(stmt.Contains(old_pair, other.GetSnapshot()));

  // The naive oracle reads the same pinned view.
  SessionOptions naive;
  naive.backend = Backend::kNaiveHash;
  Statement naive_stmt = db.OpenSession(naive).Prepare("(?x <http://t/knows> ?y)");
  ASSERT_TRUE(naive_stmt.ok());
  EXPECT_TRUE(naive_stmt.Contains(old_pair, before));
  EXPECT_FALSE(naive_stmt.Contains(new_pair, before));
  EXPECT_TRUE(naive_stmt.Contains(new_pair, after));
}

TEST(ServeContainsTest, EndpointAnswersMembershipOverThePinnedSnapshot) {
  Database db;
  Populate(&db);
  auto server = StartServer(&db);
  HttpClient client = ClientFor(*server);

  HttpResponse response;
  // s1 -p1-> o1 exists (i = 1).
  ASSERT_TRUE(client.Post("/contains",
                          "(?s <http://t/p1> ?o)\n"
                          "?s <http://t/s1>\n?o <http://t/o1>\n",
                          &response).ok());
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"contains\":true"), std::string::npos);

  // Interned terms, but not a triple.
  ASSERT_TRUE(client.Post("/contains",
                          "(?s <http://t/p1> ?o)\n"
                          "?s <http://t/s1>\n?o <http://t/o2>\n",
                          &response).ok());
  EXPECT_NE(response.body.find("\"contains\":false"), std::string::npos);

  // A spelling the pool never saw: decided absent without running.
  ASSERT_TRUE(client.Post("/contains",
                          "(?s <http://t/p1> ?o)\n?s <http://t/mars>\n",
                          &response).ok());
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"contains\":false"), std::string::npos);

  // A variable the pattern does not bind: 400.
  ASSERT_TRUE(client.Post("/contains",
                          "(?s <http://t/p1> ?o)\n?z <http://t/s1>\n",
                          &response).ok());
  EXPECT_EQ(response.status, 400);
  server->Stop();
}

// ---------------------------------------------------------------------
// Request identity, tracing, logs, Prometheus
// ---------------------------------------------------------------------

TEST(ServeTraceTest, GeneratesAndEchoesRequestId) {
  Database db;
  Populate(&db);
  auto server = StartServer(&db, [] {
    ServerOptions options;
    options.quiet = true;
    return options;
  }());
  HttpClient client = ClientFor(*server);

  HttpResponse response;
  ASSERT_TRUE(client.Post("/query", "(?s <http://t/p1> ?o)", &response).ok());
  ASSERT_EQ(response.status, 200);
  std::string generated = response.headers["x-request-id"];
  ASSERT_EQ(generated.size(), 16u);
  EXPECT_EQ(generated.find_first_not_of("0123456789abcdef"),
            std::string::npos);

  // A client-supplied id is echoed verbatim — on every endpoint.
  ASSERT_TRUE(client.Fetch("GET", "/healthz", "", &response,
                           {{"X-Request-Id", "my-custom-id-42"}})
                  .ok());
  EXPECT_EQ(response.headers["x-request-id"], "my-custom-id-42");
  server->Stop();
}

TEST(ServeTraceTest, DebugTraceRoundTripByRequestId) {
  Database db;
  Populate(&db);
  auto server = StartServer(&db, [] {
    ServerOptions options;
    options.quiet = true;
    return options;
  }());
  HttpClient client = ClientFor(*server);

  // A hex request id maps directly onto the trace id, so the trace of
  // THIS request is findable in /debug/trace by the id alone.
  HttpResponse response;
  ASSERT_TRUE(client.Fetch("POST", "/query", "(?s <http://t/p1> ?o)",
                           &response, {{"X-Request-Id", "cafe1234"}})
                  .ok());
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(response.headers["x-request-id"], "cafe1234");

  // The trace flushes right after the response bytes; poll briefly.
  HttpResponse dump;
  ASSERT_TRUE(Eventually([&] {
    if (!client.Get("/debug/trace?n=8", &dump).ok()) return false;
    return dump.body.find("00000000cafe1234") != std::string::npos;
  }));
  EXPECT_EQ(dump.status, 200);
  EXPECT_NE(dump.body.find("\"name\":\"request\""), std::string::npos);
  EXPECT_NE(dump.body.find("\"name\":\"enumerate\""), std::string::npos);
  EXPECT_NE(dump.body.find("\"name\":\"subtree\""), std::string::npos);
  server->Stop();
}

TEST(ServeTraceTest, ParallelTraceNestsSubtreesUnderWorkers) {
  Database db;
  Populate(&db);
  auto server = StartServer(&db, [] {
    ServerOptions options;
    options.quiet = true;
    return options;
  }());
  HttpClient client = ClientFor(*server);

  HttpResponse response;
  ASSERT_TRUE(client.Fetch("POST", "/query?parallelism=4", "(?s <http://t/p1> ?o)",
                           &response, {{"X-Request-Id", "cafe5678"}})
                  .ok());
  ASSERT_EQ(response.status, 200);
  HttpResponse dump;
  ASSERT_TRUE(Eventually([&] {
    if (!client.Get("/debug/trace?n=8", &dump).ok()) return false;
    return dump.body.find("00000000cafe5678") != std::string::npos;
  }));

  // This request's spans only: from its trace id to the next trace.
  std::size_t begin = dump.body.find("00000000cafe5678");
  std::size_t end = dump.body.find("\"trace_id\"", begin);
  std::string trace = dump.body.substr(begin, end == std::string::npos
                                                  ? std::string::npos
                                                  : end - begin);
  std::map<uint64_t, std::pair<uint64_t, std::string>> spans;  // id -> parent, name
  std::regex span_re("\\{\"id\":(\\d+),\"parent\":(\\d+),\"name\":\"([^\"]*)\"");
  for (std::sregex_iterator it(trace.begin(), trace.end(), span_re), last; it != last;
       ++it) {
    spans[std::stoull((*it)[1])] = {std::stoull((*it)[2]), (*it)[3]};
  }
  auto name_of = [&spans](uint64_t id) {
    auto it = spans.find(id);
    return it == spans.end() ? std::string() : it->second.second;
  };
  auto parent_of = [&spans](uint64_t id) { return spans.at(id).first; };

  // request -> ... -> enumerate -> worker -> subtree, like a serial
  // trace with the worker level in between.
  int workers = 0;
  int subtrees = 0;
  for (const auto& [id, span] : spans) {
    if (span.second == "worker") {
      ++workers;
      EXPECT_EQ(name_of(span.first), "enumerate");
      uint64_t up = span.first;
      while (up != 0 && name_of(up) != "request") up = parent_of(up);
      EXPECT_NE(up, 0u) << "enumerate is not under the request span";
    } else if (span.second == "subtree") {
      ++subtrees;
      EXPECT_EQ(name_of(span.first), "worker") << "subtree span " << id;
    }
  }
  EXPECT_EQ(workers, 4);
  EXPECT_EQ(subtrees, 4);  // One tree, one subtree, walked by every worker.
  server->Stop();
}

TEST(ServeTraceTest, TraceParamInlinesSpans) {
  Database db;
  Populate(&db);
  auto server = StartServer(&db, [] {
    ServerOptions options;
    options.quiet = true;
    return options;
  }());
  HttpClient client = ClientFor(*server);

  HttpResponse response;
  ASSERT_TRUE(
      client.Post("/query?trace=1", "(?s <http://t/p1> ?o)", &response).ok());
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"trace\":{"), std::string::npos);
  EXPECT_NE(response.body.find("\"spans\":["), std::string::npos);
  EXPECT_NE(response.body.find("\"name\":\"enumerate\""), std::string::npos);
  // The inline trace id matches the echoed request id.
  EXPECT_NE(response.body.find("\"trace_id\":\"" +
                               response.headers["x-request-id"] + "\""),
            std::string::npos);

  // Without the param the tail carries no trace object.
  ASSERT_TRUE(client.Post("/query", "(?s <http://t/p1> ?o)", &response).ok());
  EXPECT_EQ(response.body.find("\"trace\":{"), std::string::npos);
  server->Stop();
}

TEST(ServeTraceTest, TracingDisabledServesEverythingStill) {
  DatabaseOptions db_options;
  db_options.trace_capacity = 0;  // Flight recorder off.
  Database db(db_options);
  Populate(&db);
  auto server = StartServer(&db, [] {
    ServerOptions options;
    options.quiet = true;
    return options;
  }());
  HttpClient client = ClientFor(*server);

  HttpResponse response;
  ASSERT_TRUE(
      client.Post("/query?trace=1", "(?s <http://t/p1> ?o)", &response).ok());
  EXPECT_EQ(response.status, 200);
  // Requests still get ids; there are just no spans behind them.
  EXPECT_FALSE(response.headers["x-request-id"].empty());
  EXPECT_EQ(response.body.find("\"trace\":{"), std::string::npos);
  ASSERT_TRUE(client.Get("/debug/trace", &response).ok());
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "{\"traces\":[]}");
  server->Stop();
}

TEST(ServeLogTest, AccessLogOneLinePerRequestAndQuietSuppresses) {
  Database db;
  Populate(&db);
  std::FILE* log = std::tmpfile();
  ASSERT_NE(log, nullptr);
  {
    ServerOptions options;
    options.log_stream = log;
    auto server = StartServer(&db, options);
    HttpClient client = ClientFor(*server);
    HttpResponse response;
    ASSERT_TRUE(client.Fetch("POST", "/query", "(?s <http://t/p1> ?o)",
                             &response, {{"X-Request-Id", "log-test-id"}})
                    .ok());
    ASSERT_TRUE(client.Get("/healthz", &response).ok());
    server->Stop();  // Drain: every access-log line is flushed.
  }
  std::rewind(log);
  std::string contents;
  char buffer[4096];
  std::size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), log)) > 0) {
    contents.append(buffer, n);
  }
  std::fclose(log);
  EXPECT_NE(contents.find("\"request_id\":\"log-test-id\""),
            std::string::npos);
  EXPECT_NE(contents.find("\"path\":\"/query\""), std::string::npos);
  EXPECT_NE(contents.find("\"path\":\"/healthz\""), std::string::npos);
  EXPECT_NE(contents.find("\"status\":200"), std::string::npos);
  EXPECT_NE(contents.find("\"rows\":20"), std::string::npos);

  // --quiet: same traffic, silent log.
  std::FILE* quiet_log = std::tmpfile();
  ASSERT_NE(quiet_log, nullptr);
  {
    ServerOptions options;
    options.log_stream = quiet_log;
    options.quiet = true;
    auto server = StartServer(&db, options);
    HttpClient client = ClientFor(*server);
    HttpResponse response;
    ASSERT_TRUE(client.Get("/healthz", &response).ok());
    server->Stop();
  }
  std::rewind(quiet_log);
  EXPECT_EQ(std::fread(buffer, 1, sizeof(buffer), quiet_log), 0u);
  std::fclose(quiet_log);
}

TEST(ServeLogTest, SlowQueryLogCapturesExplain) {
  Database db;
  Populate(&db);
  std::FILE* log = std::tmpfile();
  ASSERT_NE(log, nullptr);
  {
    ServerOptions options;
    options.log_stream = log;
    options.quiet = true;          // Isolate the slow-query lines.
    options.slow_query_ms = 0;     // Every query is "slow".
    auto server = StartServer(&db, options);
    HttpClient client = ClientFor(*server);
    HttpResponse response;
    ASSERT_TRUE(client.Fetch("POST", "/query", "(?s <http://t/p1> ?o)",
                             &response, {{"X-Request-Id", "slow-one"}})
                    .ok());
    ASSERT_EQ(response.status, 200);
    // The forced collect_stats stays server-side: the response tail has
    // no stats object unless the client asked.
    EXPECT_EQ(response.body.find("\"stats\":{"), std::string::npos);
    server->Stop();
  }
  std::rewind(log);
  std::string contents;
  char buffer[8192];
  std::size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), log)) > 0) {
    contents.append(buffer, n);
  }
  std::fclose(log);
  EXPECT_NE(contents.find("\"slow_query\":true"), std::string::npos);
  EXPECT_NE(contents.find("\"request_id\":\"slow-one\""), std::string::npos);
  EXPECT_NE(contents.find("\"pattern\":\"(?s <http://t/p1> ?o)\""),
            std::string::npos);
  EXPECT_NE(contents.find("\"outcome\":\"exhausted\""), std::string::npos);
  EXPECT_NE(contents.find("\"rows\":20"), std::string::npos);
  // The captured EXPLAIN tree: the ExecStats JSON, subpatterns included.
  EXPECT_NE(contents.find("\"explain\":{"), std::string::npos);
  EXPECT_NE(contents.find("rows_emitted"), std::string::npos);
  EXPECT_NE(contents.find("subpatterns"), std::string::npos);
}

TEST(ServeMetricsTest, PrometheusFormatExposition) {
  Database db;
  Populate(&db);
  auto server = StartServer(&db, [] {
    ServerOptions options;
    options.quiet = true;
    return options;
  }());
  HttpClient client = ClientFor(*server);

  // One query first so the request histogram has observations.
  HttpResponse response;
  ASSERT_TRUE(client.Post("/query", "(?s <http://t/p1> ?o)", &response).ok());

  ASSERT_TRUE(client.Get("/metrics?format=prometheus", &response).ok());
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.headers["content-type"].find("text/plain"),
            std::string::npos);
  EXPECT_NE(response.body.find("# TYPE server_requests counter"),
            std::string::npos);
  EXPECT_NE(response.body.find("# TYPE server_inflight gauge"),
            std::string::npos);
  EXPECT_NE(response.body.find("# TYPE server_request_ns histogram"),
            std::string::npos);
  EXPECT_NE(response.body.find("_bucket{le=\"+Inf\"}"), std::string::npos);
  EXPECT_NE(response.body.find("server_request_ns_sum"), std::string::npos);
  EXPECT_NE(response.body.find("server_request_ns_count"), std::string::npos);

  // The default stays JSON; an unknown format is a 400.
  ASSERT_TRUE(client.Get("/metrics", &response).ok());
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.headers["content-type"].find("application/json"),
            std::string::npos);
  ASSERT_TRUE(client.Get("/metrics?format=xml", &response).ok());
  EXPECT_EQ(response.status, 400);
  server->Stop();
}

}  // namespace
}  // namespace server
}  // namespace wdsparql
