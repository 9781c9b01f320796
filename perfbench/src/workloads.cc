#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "json.h"
#include "server/http_client.h"
#include "server/server.h"
#include "util/json.h"
#include "wdsparql/wdsparql.h"

namespace wdperf {

using wdsparql::Cursor;
using wdsparql::Database;
using wdsparql::ExecOptions;
using wdsparql::ExecStats;
using wdsparql::Session;
using wdsparql::Statement;

namespace {

// Set-up repetitions per run; setup_s and storage.open_ms are their medians.
constexpr int kSetupReps = 5;
// /write batches of the closed-loop workloads, posted back to back after
// the query window (98k triples).
constexpr std::size_t kClosedLoopWriteBatches = 24;
// serve_mixed: the fixed open-loop read rate (about half the saturation
// measured when the benchmark was defined; see README.md) and the fixed
// write total, in batches per second of the run.
constexpr double kServeReadRate = 300;
constexpr double kServeWriteBatchesPerSecond = 2.4;
constexpr int kServeReaders = 2;
constexpr int kServerWorkers = 2;
// Correctness errors kept for the report (the first ones say enough).
constexpr std::size_t kMaxErrors = 20;
// Traced requests whose spans are written to the trace file.
constexpr std::size_t kKeptTraces = 16;
// serve_mixed traced runs replay this many reads in process to time the
// public calls the server makes.
constexpr std::size_t kReplayQueries = 256;

const char* kFlushPolicy =
    "Durability::kWal + WalSyncMode::kEveryRecord (one fsync per /write batch)";

std::string SnapshotPath(const std::string& dir) { return dir + "/graph.snap"; }
std::string DigestPath(const std::string& dir, Workload workload) {
  return dir + "/digests-" + WorkloadName(workload) + ".tsv";
}

using DigestTable = std::map<std::string, Digest>;  // constant -> digest

bool LoadDigests(const std::string& dir, Workload workload, DigestTable* out) {
  std::ifstream in(DigestPath(dir, workload));
  std::string constant;
  Digest d;
  while (in >> constant >> d.rows >> d.sum) (*out)[constant] = d;
  return !out->empty();
}

wdsparql::OpenOptions DurableOptions() {
  wdsparql::OpenOptions options;
  options.durability = wdsparql::Durability::kWal;
  options.wal_sync = wdsparql::WalSyncMode::kEveryRecord;
  return options;
}

// ---------------------------------------------------------------------
// Per-layer accumulation
// ---------------------------------------------------------------------

// What ExecStats says, summed over the traced queries.
struct StatTotals {
  Samples parse_us, check_us, plan_us, optimize_us, qerror;
  uint64_t queries = 0;
  double candidates = 0, base_scanned = 0, delta_scanned = 0, values_probed = 0,
         ranges_scanned = 0, maximality_tests = 0, non_maximal = 0,
         dedup_rejected = 0, rows = 0, dict_decodes = 0;

  void Add(const ExecStats& s) {
    ++queries;
    parse_us.Add(s.parse_ns / 1e3);
    check_us.Add(s.check_ns / 1e3);
    plan_us.Add(s.plan_ns / 1e3);
    optimize_us.Add(s.optimize_ns / 1e3);
    candidates += s.candidates;
    base_scanned += s.base_triples_scanned;
    delta_scanned += s.delta_triples_scanned;
    values_probed += s.values_probed;
    ranges_scanned += s.ranges_scanned;
    maximality_tests += s.maximality_tests;
    non_maximal += s.non_maximal;
    dedup_rejected += s.dedup_rejected;
    rows += s.rows_emitted;
    dict_decodes += s.dict_decodes;
    // q-error of the worst planned subpattern, max(est/actual, actual/est)
    // (Moerkotte, Neumann & Steidl, VLDB 2009); counts floored at 1.
    double worst = 0;
    for (const ExecStats::Subpattern& sub : s.subpatterns) {
      if (sub.est_rows < 0) continue;
      double est = std::max(sub.est_rows, 1.0);
      double act = std::max(static_cast<double>(sub.candidates), 1.0);
      worst = std::max(worst, std::max(est / act, act / est));
    }
    if (worst > 0) qerror.Add(worst);
  }
};

// Per-query self time of the public calls and the engine spans under them.
struct CallTimes {
  Samples prepare_us, execute_us, open_us, next_us, subtree_us, decode_us;

  void Add(const std::map<std::string, uint64_t>& self) {
    auto us = [&](const char* name) {
      auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second / 1e3;
    };
    prepare_us.Add(us("prepare"));
    execute_us.Add(us("execute"));
    open_us.Add(us("cursor.open"));
    next_us.Add(us("next") + us("enumerate"));
    subtree_us.Add(us("subtree") + us("worker"));
    decode_us.Add(us("decode"));
  }
};

// The ExecStats fields the benchmark reads, from a `?stats=1` trailer.
ExecStats StatsFromJson(const JsonValue& j) {
  ExecStats s;
  if (const JsonValue* phases = j.Find("phases_ns")) {
    s.parse_ns = static_cast<uint64_t>(phases->Number("parse"));
    s.check_ns = static_cast<uint64_t>(phases->Number("check"));
    s.plan_ns = static_cast<uint64_t>(phases->Number("plan"));
    s.optimize_ns = static_cast<uint64_t>(phases->Number("optimize"));
  }
  s.rows_emitted = static_cast<uint64_t>(j.Number("rows_emitted"));
  s.candidates = static_cast<uint64_t>(j.Number("candidates"));
  s.dedup_rejected = static_cast<uint64_t>(j.Number("dedup_rejected"));
  s.non_maximal = static_cast<uint64_t>(j.Number("non_maximal"));
  s.maximality_tests = static_cast<uint64_t>(j.Number("maximality_tests"));
  s.ranges_scanned = static_cast<uint64_t>(j.Number("ranges_scanned"));
  s.values_probed = static_cast<uint64_t>(j.Number("values_probed"));
  s.base_triples_scanned = static_cast<uint64_t>(j.Number("base_triples_scanned"));
  s.delta_triples_scanned = static_cast<uint64_t>(j.Number("delta_triples_scanned"));
  s.dict_decodes = static_cast<uint64_t>(j.Number("dict_decodes"));
  if (const JsonValue* subs = j.Find("subpatterns")) {
    for (const JsonValue& sj : subs->array) {
      ExecStats::Subpattern sub;
      sub.candidates = static_cast<uint64_t>(sj.Number("candidates"));
      sub.est_rows = sj.Number("est_rows", -1);
      s.subpatterns.push_back(sub);
    }
  }
  return s;
}

// ---------------------------------------------------------------------
// Shared run state
// ---------------------------------------------------------------------

// One opened database with its in-process server (the database's
// address must stay fixed while the server runs).
struct Instance {
  std::unique_ptr<Database> db;
  std::unique_ptr<wdsparql::server::Server> server;
};

struct Context {
  const RunConfig& config;
  RunResult* result;
  std::mutex mutex;  // Guards `result`, `stats` and `kept_traces` from client threads.
  DigestTable expected;
  std::vector<std::string> pool;
  Instance instance;
  std::atomic<int64_t> views_live_max{0};
  StatTotals stats;
  CallTimes calls;
  Samples traced_ms, untraced_ms;  // Query latency with tracing on / off.
  std::vector<std::vector<Span>> kept_traces;

  Context(const RunConfig& c, RunResult* r) : config(c), result(r) {}

  void Fail(const std::string& why) {
    std::lock_guard<std::mutex> lock(mutex);
    if (result->errors.size() < kMaxErrors) result->errors.push_back(why);
    result->correct = false;
  }

  void SampleViews() {
    int64_t live = instance.db->metrics().gauge("views.live").value();
    int64_t seen = views_live_max.load(std::memory_order_relaxed);
    while (live > seen && !views_live_max.compare_exchange_weak(seen, live)) {
    }
  }

  void Check(const std::string& constant, const Digest& got) {
    auto it = expected.find(constant);
    if (it == expected.end()) {
      Fail("no reference digest for " + constant);
    } else if (it->second != got) {
      Fail("wrong answer for " + constant + ": " + std::to_string(got.rows) +
           " rows, expected " + std::to_string(it->second.rows));
    }
  }
};

Metric M(double value, const char* unit, uint64_t samples) {
  return Metric{value, unit, samples};
}

// Opens the database and starts the server `kSetupReps` times, keeping
// the last instance; records setup_s and storage.open_ms.
bool SetUp(Context* ctx, const std::string& db_path) {
  Samples setup_s, open_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ctx->instance = Instance();  // Stop and close the previous rep first.
    Clock::time_point t0 = Clock::now();
    wdsparql::Result<Database> opened = Database::Open(db_path, DurableOptions());
    if (!opened.ok()) {
      ctx->Fail("open: " + opened.status().ToString());
      return false;
    }
    open_ms.Add(SecondsSince(t0) * 1e3);
    Instance inst;
    inst.db = std::make_unique<Database>(std::move(opened).value());
    wdsparql::server::ServerOptions options;
    options.num_workers = kServerWorkers;
    options.quiet = true;
    inst.server = std::make_unique<wdsparql::server::Server>(inst.db.get(), options);
    wdsparql::Status started = inst.server->Start();
    if (!started.ok()) {
      ctx->Fail("server start: " + started.ToString());
      return false;
    }
    Statement first =
        inst.db->OpenSession().Prepare(QueryText(ctx->config.workload, ctx->pool[0]));
    if (!first.ok()) {
      ctx->Fail("prepare: " + first.diagnostics().ToString());
      return false;
    }
    setup_s.Add(SecondsSince(t0));
    ctx->instance = std::move(inst);
  }
  MetricMap& m = ctx->result->metrics;
  m["setup_s"] = M(setup_s.Median(), "s", setup_s.size());
  m["storage.open_ms"] = M(open_ms.Median(), "ms", open_ms.size());
  return true;
}

// One in-process query with the benchmark's spans around every public
// call, the engine's spans (ExecOptions::trace) and ExecStats, recorded
// into `calls` and `stats`. Sets `exhausted` iff the cursor delivered its
// whole answer.
Digest TracedQuery(Context* ctx, const Session& session, const std::string& text,
                   CallTimes* calls, StatTotals* stats, bool* exhausted) {
  Database& db = *ctx->instance.db;
  wdsparql::TraceRecorder* recorder = db.trace_recorder();
  wdsparql::TraceContext trace(recorder);
  std::vector<Span> spans;
  auto now = [&] { return recorder->NowNs(); };
  const uint64_t begin = now();
  uint64_t t = begin;
  Statement stmt = session.Prepare(text);
  spans.push_back({"prepare", t, now()});
  ExecOptions options;
  options.collect_stats = true;
  options.trace = &trace;
  t = now();
  Cursor cursor = stmt.Execute(options);
  spans.push_back({"execute", t, now()});
  t = now();
  cursor.Open();
  spans.push_back({"cursor.open", t, now()});
  Digest digest;
  while (true) {
    t = now();
    bool more = cursor.Next();
    spans.push_back({"next", t, now()});
    if (!more) break;
    t = now();
    DigestRow(cursor, &digest);
    spans.push_back({"decode", t, now()});
  }
  const uint64_t end = now();
  spans.push_back({"query", begin, end});
  AppendEngineSpans(trace, end, &spans);
  calls->Add(SelfTimes(spans));
  if (cursor.stats() != nullptr) stats->Add(*cursor.stats());
  *exhausted = cursor.state() == Cursor::State::kExhausted;
  if (ctx->kept_traces.size() < kKeptTraces) ctx->kept_traces.push_back(std::move(spans));
  trace.Flush();
  return digest;
}

// ---------------------------------------------------------------------
// Writes (every workload): fixed total of 4096-triple /write batches
// ---------------------------------------------------------------------

struct WriteStream {
  std::vector<std::string> bodies;
  Samples latency_ms;
  uint64_t acked_triples = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double busy_s = 0;  // Summed latency: the stream's time waiting on /write.
};

// Posts every batch, one at a time. With `spread_s > 0` batch i is not
// sent before i * spread_s / batches, so the fixed total spans the read
// window evenly instead of contending with only its first part.
void PostWrites(Context* ctx, const wdsparql::server::HttpClient& client, double spread_s,
                WriteStream* w, Samples* client_send_us) {
  Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < w->bodies.size(); ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
                    spread_s * static_cast<double>(i) / static_cast<double>(w->bodies.size()))));
    ++w->attempted;
    Clock::time_point t0 = Clock::now();
    wdsparql::server::HttpResponse response;
    wdsparql::Status status = client.Post("/write", w->bodies[i], &response);
    double seconds = SecondsSince(t0);
    w->busy_s += seconds;
    ctx->SampleViews();
    JsonValue ack;
    if (!status.ok() || response.status != 200 || !ParseJson(response.body, &ack)) {
      ++w->failed;
      continue;
    }
    w->latency_ms.Add(seconds * 1e3);
    client_send_us->Add(seconds * 1e6);
    uint64_t added = static_cast<uint64_t>(ack.Number("added"));
    if (added != kWriteBatchTriples) {
      ctx->Fail("write acknowledged " + std::to_string(added) + " new triples, expected " +
                std::to_string(kWriteBatchTriples));
    }
    w->acked_triples += added;
  }
}

// ---------------------------------------------------------------------
// Closed-loop query workloads (opt_chain, union_join)
// ---------------------------------------------------------------------

void RunClosedLoop(Context* ctx) {
  const RunConfig& config = ctx->config;
  Session session = ctx->instance.db->OpenSession();
  std::vector<std::string> texts;
  for (const std::string& c : ctx->pool) texts.push_back(QueryText(config.workload, c));
  QueryStream stream(config.seed, 0, ctx->pool.size());
  uint64_t issued = 0, failed = 0;
  Clock::time_point start = Clock::now();
  Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));
  while (Clock::now() < deadline) {
    std::size_t index = stream.Next();
    // The traced run alternates traced and untraced queries, so the
    // tracing overhead is measured on the same stream at the same time.
    bool traced = config.trace && issued % 2 == 1;
    ++issued;
    Clock::time_point t0 = Clock::now();
    Digest digest;
    bool exhausted = false;
    if (traced) {
      digest = TracedQuery(ctx, session, texts[index], &ctx->calls, &ctx->stats, &exhausted);
    } else {
      Statement stmt = session.Prepare(texts[index]);
      Cursor cursor = stmt.Execute();
      digest = DrainCursor(&cursor);
      exhausted = cursor.state() == Cursor::State::kExhausted;
    }
    if (!exhausted) {
      ++failed;
      continue;
    }
    (traced ? ctx->traced_ms : ctx->untraced_ms).Add(SecondsSince(t0) * 1e3);
    ctx->Check(ctx->pool[index], digest);
  }
  double elapsed = SecondsSince(start);
  ctx->SampleViews();
  ctx->result->attempted += issued;
  ctx->result->failed += failed;
  MetricMap& m = ctx->result->metrics;
  m["queries_per_s"] = M((issued - failed) / elapsed, "1/s", issued - failed);
}

// ---------------------------------------------------------------------
// serve_mixed: open-loop HTTP reads beside closed-loop HTTP writes
// ---------------------------------------------------------------------

struct ReaderResult {
  uint64_t completed = 0;
  Samples traced_ms, untraced_ms;  // From the scheduled arrival.
  Samples send_lag_ms;    // How late the generator sent.
  Samples from_send_us;   // Client-observed time from send to last byte.
  Samples bytes_per_row;
  uint64_t attempted = 0, failed = 0;
};

// Digest of an exhausted /query response body; false (with `why`) when
// the body is not a well-formed answer.
bool DigestResponse(const JsonValue& body, Digest* digest, std::string* why) {
  const JsonValue* vars = body.Find("vars");
  const JsonValue* rows = body.Find("rows");
  if (vars == nullptr || rows == nullptr) {
    *why = "malformed /query response";
    return false;
  }
  Digest::RowBuilder row;
  for (const JsonValue& r : rows->array) {
    if (r.array.size() != vars->array.size()) {
      *why = "/query row width differs from its header";
      return false;
    }
    for (std::size_t col = 0; col < r.array.size(); ++col) {
      bool bound = r.array[col].kind == JsonValue::Kind::kString;
      row.Add(vars->array[col].string, bound, r.array[col].string);
    }
    digest->AddRow(&row);
  }
  return true;
}

void RunReader(Context* ctx, const wdsparql::server::HttpClient& client, int reader,
               Clock::time_point start, ReaderResult* out) {
  const RunConfig& config = ctx->config;
  QueryStream stream(config.seed, 1 + reader, ctx->pool.size());
  const double interval_s = kServeReaders / kServeReadRate;
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));
  for (uint64_t k = 0;; ++k) {
    double due_s = (static_cast<double>(k) +
                    static_cast<double>(reader) / kServeReaders) * interval_s;
    Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(due_s));
    // A generator running behind stops at the end of the window too; its
    // lateness is already in the latency of the requests it did send.
    if (due >= end || Clock::now() >= end) break;
    std::this_thread::sleep_until(due);
    const std::string& constant = ctx->pool[stream.Next()];
    bool traced = config.trace && k % 2 == 1;
    ++out->attempted;
    Clock::time_point sent = Clock::now();
    wdsparql::server::HttpResponse response;
    wdsparql::Status status =
        client.Post(traced ? "/query?stats=1&trace=1" : "/query",
                    QueryText(config.workload, constant), &response);
    Clock::time_point done = Clock::now();
    ctx->SampleViews();
    JsonValue body;
    const JsonValue* outcome = nullptr;
    if (status.ok() && response.status == 200 && ParseJson(response.body, &body)) {
      outcome = body.Find("status");
    }
    // Refused, shed, timed out or cut short: a failed operation.
    if (outcome == nullptr || outcome->string != "exhausted") {
      ++out->failed;
      continue;
    }
    Digest digest;
    std::string why;
    if (!DigestResponse(body, &digest, &why)) {
      ctx->Fail(why);
      continue;
    }
    ctx->Check(constant, digest);
    double ms = std::chrono::duration<double, std::milli>(done - due).count();
    ++out->completed;
    (traced ? out->traced_ms : out->untraced_ms).Add(ms);
    out->send_lag_ms.Add(std::chrono::duration<double, std::milli>(sent - due).count());
    out->from_send_us.Add(std::chrono::duration<double, std::micro>(done - sent).count());
    if (!traced) {
      if (digest.rows > 0) {
        out->bytes_per_row.Add(static_cast<double>(response.body.size()) / digest.rows);
      }
      continue;
    }
    std::lock_guard<std::mutex> lock(ctx->mutex);
    if (const JsonValue* stats = body.Find("stats")) ctx->stats.Add(StatsFromJson(*stats));
    const JsonValue* trace = body.Find("trace");
    const JsonValue* spans = trace != nullptr ? trace->Find("spans") : nullptr;
    if (spans != nullptr && ctx->kept_traces.size() < kKeptTraces) {
      std::vector<Span> kept;
      for (const JsonValue& s : spans->array) {
        const JsonValue* name = s.Find("name");
        uint64_t begin = static_cast<uint64_t>(s.Number("start_ns"));
        kept.push_back({name != nullptr ? name->string : "?", begin,
                        begin + static_cast<uint64_t>(s.Number("duration_ns"))});
      }
      ctx->kept_traces.push_back(std::move(kept));
    }
  }
}

void RunServeMixed(Context* ctx, WriteStream* writes, Samples* client_send_us,
                   Samples* send_lag_ms) {
  const RunConfig& config = ctx->config;
  wdsparql::server::HttpClient client("127.0.0.1", ctx->instance.server->port(),
                                      /*timeout_ms=*/30'000);
  std::vector<ReaderResult> readers(kServeReaders);
  std::vector<std::thread> threads;
  Clock::time_point start = Clock::now();
  for (int r = 0; r < kServeReaders; ++r) {
    threads.emplace_back([ctx, &client, r, start, &readers] {
      RunReader(ctx, client, r, start, &readers[r]);
    });
  }
  threads.emplace_back([ctx, &client, writes, client_send_us] {
    Samples writer_send_us;
    PostWrites(ctx, client, ctx->config.seconds, writes, &writer_send_us);
    std::lock_guard<std::mutex> lock(ctx->mutex);
    client_send_us->Merge(writer_send_us);
  });
  for (std::thread& t : threads) t.join();

  Samples bytes_per_row;
  uint64_t completed = 0;
  for (const ReaderResult& r : readers) {
    ctx->traced_ms.Merge(r.traced_ms);
    ctx->untraced_ms.Merge(r.untraced_ms);
    send_lag_ms->Merge(r.send_lag_ms);
    client_send_us->Merge(r.from_send_us);
    bytes_per_row.Merge(r.bytes_per_row);
    completed += r.completed;
    ctx->result->attempted += r.attempted;
    ctx->result->failed += r.failed;
  }
  MetricMap& m = ctx->result->metrics;
  // Only the untraced reads count towards the end-to-end latency (in
  // the untraced run that is every read).
  m["query_p50_ms"] = M(ctx->untraced_ms.Median(), "ms", ctx->untraced_ms.size());
  m["query_p99_ms"] = M(ctx->untraced_ms.Quantile(0.99), "ms", ctx->untraced_ms.size());
  m["queries_per_s"] = M(completed / config.seconds, "1/s", completed);
  m["server.bytes_per_row"] = M(bytes_per_row.Mean(), "bytes", bytes_per_row.size());
}

// ---------------------------------------------------------------------
// Spans out
// ---------------------------------------------------------------------

void WriteTraceFile(const std::string& path, const std::vector<std::vector<Span>>& traces) {
  wdsparql::util::JsonWriter w;
  w.BeginObject();
  w.BeginArray("traces");
  for (const std::vector<Span>& spans : traces) {
    uint64_t origin = UINT64_MAX;
    for (const Span& s : spans) origin = std::min(origin, s.start_ns);
    w.BeginObject();
    w.BeginArray("spans");
    for (const Span& s : spans) {
      w.BeginObject();
      w.Field("name", s.name);
      w.Field("start_ns", s.start_ns - origin);
      w.Field("duration_ns", s.end_ns - s.start_ns);
      w.EndObject();
    }
    w.EndArray();
    w.BeginObject("self_ns");
    for (const auto& [name, ns] : SelfTimes(spans)) w.Field(name, ns);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  std::ofstream(path) << std::move(w).str() << "\n";
}

}  // namespace

// ---------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------

const std::vector<std::string>& EndToEndMetricNames() {
  static const std::vector<std::string> names = {
      "setup_s",       "query_p50_ms",         "query_p99_ms", "queries_per_s",
      "ingest_triples_per_s", "write_p50_ms",  "peak_rss_mb",  "success_rate"};
  return names;
}

const std::vector<std::string>& PerLayerMetricNames() {
  static const std::vector<std::string> names = {
      "sparql.prepare_us",        "sparql.parse_us",
      "sparql.check_us",          "ptree.plan_us",
      "optimizer.optimize_us",    "optimizer.qerror_max",
      "engine.candidates",        "engine.base_triples_scanned",
      "engine.values_probed",     "engine.ranges_scanned",
      "engine.scanned_per_candidate",
      "wd.maximality_tests",      "wd.non_maximal",
      "wd.subtree_us",            "engine.next_us",
      "wd.dedup_rejected",        "wd.rows_per_candidate",
      "engine.open_us",           "engine.execute_us",
      "engine.decode_us",         "engine.dict_decodes",
      "engine.delta_triples_scanned", "engine.views_live_max",
      "server.request_us",        "server.wait_us",
      "server.rejected",
      "storage.wal_append_us",    "storage.wal_fsync_us",
      "storage.wal_bytes_per_user_byte",
      "engine.delta_build_ms",    "engine.compaction_ms",
      "engine.compactions",       "rdf.parse_us_per_1k_triples",
      "storage.open_ms",          "storage.snapshot_bytes_per_triple",
      "trace.overhead_p50_ms",    "trace.overhead_p50_pct"};
  return names;
}

bool Prepare(uint64_t seed, Workload workload, const std::string& dir) {
  const bool have_snapshot = std::filesystem::exists(SnapshotPath(dir));
  if (have_snapshot && std::filesystem::exists(DigestPath(dir, workload))) return true;
  Clock::time_point start = Clock::now();
  Database db;
  wdsparql::WriteBatch batch;
  BuildGraph(seed, &batch);
  wdsparql::Status applied = db.Apply(std::move(batch));
  if (!applied.ok()) {
    std::fprintf(stderr, "prepare: apply: %s\n", applied.ToString().c_str());
    return false;
  }
  if (!have_snapshot) {
    // Save folds the delta, so the snapshot carries complete statistics.
    wdsparql::Status saved = db.Save(SnapshotPath(dir));
    if (!saved.ok()) {
      std::fprintf(stderr, "prepare: save: %s\n", saved.ToString().c_str());
      return false;
    }
  }
  std::fprintf(stderr, "prepare: graph of %zu triples in %.2f s\n", db.size(),
               SecondsSince(start));

  // Reference answers from the naive backend (hash graph + CSP solver):
  // a different algorithm than the indexed engine under test. It is
  // slow, so the pool is split over a few threads (naive reads are safe
  // concurrently while nothing writes).
  start = Clock::now();
  wdsparql::SessionOptions naive_options;
  naive_options.backend = wdsparql::Backend::kNaiveHash;
  const Session naive = db.OpenSession(naive_options);
  const std::vector<std::string> pool = ConstantPool(workload, seed);
  std::vector<Digest> digests(pool.size());
  std::atomic<std::size_t> next{0};
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < std::clamp(std::thread::hardware_concurrency(), 1u, 4u); ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < pool.size(); i = next++) {
        Statement stmt = naive.Prepare(QueryText(workload, pool[i]));
        Cursor cursor = stmt.Execute();
        digests[i] = DrainCursor(&cursor);
        if (cursor.state() != Cursor::State::kExhausted) ok = false;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (!ok) {
    std::fprintf(stderr, "prepare: a reference query did not finish\n");
    return false;
  }
  std::string tmp = DigestPath(dir, workload) + ".tmp";
  {
    std::ofstream out(tmp);
    for (std::size_t i = 0; i < pool.size(); ++i) {
      out << pool[i] << ' ' << digests[i].rows << ' ' << digests[i].sum << '\n';
    }
    if (!out) return false;
  }
  std::filesystem::rename(tmp, DigestPath(dir, workload));
  std::fprintf(stderr, "prepare: %zu %s reference digests in %.2f s\n", pool.size(),
               WorkloadName(workload), SecondsSince(start));
  return true;
}

RunResult Run(const RunConfig& config) {
  RunResult result;
  result.flush_policy = kFlushPolicy;
  Context ctx(config, &result);
  ctx.pool = ConstantPool(config.workload, config.seed);
  if (!LoadDigests(config.prepared_dir, config.workload, &ctx.expected)) {
    ctx.Fail("no reference digests in " + config.prepared_dir);
    return result;
  }
  // Every run mutates a private copy of the prepared snapshot.
  std::filesystem::create_directories(config.work_dir);
  const std::string db_path = config.work_dir + "/db.snap";
  std::filesystem::remove(db_path + ".wal");
  std::filesystem::copy_file(SnapshotPath(config.prepared_dir), db_path,
                             std::filesystem::copy_options::overwrite_existing);
  const double snapshot_bytes = static_cast<double>(std::filesystem::file_size(db_path));

  // Write bodies are generated, and (traced run) parsed once by the rdf
  // layer's N-Triples reader, before anything is timed.
  const bool serve = config.workload == Workload::kServeMixed;
  WriteStream writes;
  std::size_t batches =
      serve ? static_cast<std::size_t>(std::max(1.0, kServeWriteBatchesPerSecond * config.seconds))
            : kClosedLoopWriteBatches;
  Samples parse_us_per_1k;
  uint64_t user_bytes = 0;
  for (std::size_t i = 0; i < batches; ++i) {
    writes.bodies.push_back(WriteBatchBody(config.seed, i));
    user_bytes += writes.bodies.back().size();
    if (config.trace) {
      wdsparql::WriteBatch parsed;
      Clock::time_point t0 = Clock::now();
      wdsparql::Status st = parsed.LoadNTriples(writes.bodies.back());
      parse_us_per_1k.Add(SecondsSince(t0) * 1e6 / (parsed.size() / 1000.0));
      if (!st.ok()) ctx.Fail("write body does not parse: " + st.ToString());
    }
  }

  if (!SetUp(&ctx, db_path)) return result;
  Database& db = *ctx.instance.db;
  result.base_triples = db.size();

  Samples client_send_us, send_lag_ms;
  MetricMap& m = result.metrics;
  if (serve) {
    result.read_rate = kServeReadRate;
    RunServeMixed(&ctx, &writes, &client_send_us, &send_lag_ms);
    m["client.send_lag_p99_ms"] = M(send_lag_ms.Quantile(0.99), "ms", send_lag_ms.size());
  } else {
    RunClosedLoop(&ctx);
    m["query_p50_ms"] = M(ctx.untraced_ms.Median(), "ms", ctx.untraced_ms.size());
    m["query_p99_ms"] = M(ctx.untraced_ms.Quantile(0.99), "ms", ctx.untraced_ms.size());
    wdsparql::server::HttpClient client("127.0.0.1", ctx.instance.server->port(), 30'000);
    PostWrites(&ctx, client, 0, &writes, &client_send_us);
  }
  result.attempted += writes.attempted;
  result.failed += writes.failed;
  m["ingest_triples_per_s"] =
      M(writes.busy_s > 0 ? writes.acked_triples / writes.busy_s : 0, "triples/s",
        writes.acked_triples);
  m["write_p50_ms"] = M(writes.latency_ms.Median(), "ms", writes.latency_ms.size());

  // Server-side counters, read from the registry GET /metrics exports.
  ctx.instance.server->Stop();
  wdsparql::MetricsRegistry& reg = db.metrics();
  const wdsparql::Histogram& request_ns = reg.histogram("server.request_ns");
  double server_us = request_ns.count() ? request_ns.sum() / 1e3 / request_ns.count() : 0;
  m["server.request_us"] = M(server_us, "us", request_ns.count());
  m["server.wait_us"] = M(client_send_us.Mean() - server_us, "us", client_send_us.size());
  m["server.rejected"] = M(reg.counter("server.rejected").value(), "count", 1);
  // Mean of a nanosecond histogram, in `unit` (1e3 ns or 1e6 ns).
  auto mean_of = [&](const char* name, double ns_per_unit, const char* unit) {
    const wdsparql::Histogram& h = reg.histogram(name);
    return M(h.count() ? h.sum() / ns_per_unit / h.count() : 0, unit, h.count());
  };
  m["storage.wal_append_us"] = mean_of("write.wal_append_ns", 1e3, "us");
  m["storage.wal_fsync_us"] = mean_of("write.wal_fsync_ns", 1e3, "us");
  m["engine.delta_build_ms"] = mean_of("write.delta_build_ns", 1e6, "ms");
  m["engine.compaction_ms"] = mean_of("store.compaction_ns", 1e6, "ms");
  m["engine.compactions"] = M(reg.counter("store.compactions").value(), "count", 1);
  m["storage.wal_bytes_per_user_byte"] =
      M(user_bytes ? static_cast<double>(reg.counter("write.wal_bytes").value()) / user_bytes : 0,
        "ratio", writes.bodies.size());
  m["rdf.parse_us_per_1k_triples"] =
      M(parse_us_per_1k.Median(), "us", parse_us_per_1k.size());
  m["storage.snapshot_bytes_per_triple"] =
      M(snapshot_bytes / std::max<uint64_t>(result.base_triples, 1), "bytes", 1);

  // serve_mixed makes its public calls inside the server; the traced run
  // times them by replaying reads in process once the load has drained
  // (ExecStats stay those of the HTTP reads under load).
  if (serve && config.trace) {
    Session session = db.OpenSession();
    QueryStream replay(config.seed, 99, ctx.pool.size());
    StatTotals replay_stats;
    for (std::size_t i = 0; i < kReplayQueries; ++i) {
      const std::string& c = ctx.pool[replay.Next()];
      bool exhausted = false;
      ctx.Check(c, TracedQuery(&ctx, session, QueryText(config.workload, c), &ctx.calls,
                               &replay_stats, &exhausted));
      if (!exhausted) ctx.Fail("replayed query for " + c + " did not finish");
    }
  }

  // Durability check: checkpoint, reopen, and count every acknowledged
  // triple.
  ctx.instance.server.reset();
  wdsparql::Status checkpointed = db.Checkpoint();
  if (!checkpointed.ok()) ctx.Fail("checkpoint: " + checkpointed.ToString());
  ctx.instance.db.reset();
  wdsparql::Result<Database> reopened = Database::Open(db_path);
  if (!reopened.ok()) {
    ctx.Fail("reopen: " + reopened.status().ToString());
  } else if (reopened->size() != result.base_triples + writes.acked_triples) {
    ctx.Fail("reopened size " + std::to_string(reopened->size()) + " != " +
             std::to_string(result.base_triples) + " base + " +
             std::to_string(writes.acked_triples) + " acknowledged");
  }

  result.attempted = std::max<uint64_t>(result.attempted, 1);
  m["success_rate"] =
      M(1.0 - static_cast<double>(result.failed) / result.attempted, "ratio", result.attempted);
  m["peak_rss_mb"] = M(PeakRssMb(), "MB", 1);
  if (!config.trace) return result;

  // Per-layer figures of the traced run.
  const StatTotals& stats = ctx.stats;
  const CallTimes& calls = ctx.calls;
  double queries = std::max<double>(stats.queries, 1);
  double cands = std::max(stats.candidates, 1.0);
  m["sparql.prepare_us"] = M(calls.prepare_us.Median(), "us", calls.prepare_us.size());
  m["sparql.parse_us"] = M(stats.parse_us.Median(), "us", stats.parse_us.size());
  m["sparql.check_us"] = M(stats.check_us.Median(), "us", stats.check_us.size());
  m["ptree.plan_us"] = M(stats.plan_us.Median(), "us", stats.plan_us.size());
  m["optimizer.optimize_us"] = M(stats.optimize_us.Median(), "us", stats.optimize_us.size());
  m["optimizer.qerror_max"] = M(stats.qerror.Median(), "ratio", stats.qerror.size());
  m["engine.candidates"] = M(stats.candidates / queries, "count", stats.queries);
  m["engine.base_triples_scanned"] = M(stats.base_scanned / queries, "count", stats.queries);
  m["engine.delta_triples_scanned"] = M(stats.delta_scanned / queries, "count", stats.queries);
  m["engine.values_probed"] = M(stats.values_probed / queries, "count", stats.queries);
  m["engine.ranges_scanned"] = M(stats.ranges_scanned / queries, "count", stats.queries);
  m["engine.scanned_per_candidate"] =
      M((stats.base_scanned + stats.delta_scanned) / cands, "ratio", stats.queries);
  m["engine.dict_decodes"] = M(stats.dict_decodes / queries, "count", stats.queries);
  m["wd.maximality_tests"] = M(stats.maximality_tests / queries, "count", stats.queries);
  m["wd.non_maximal"] = M(stats.non_maximal / queries, "count", stats.queries);
  m["wd.dedup_rejected"] = M(stats.dedup_rejected / queries, "count", stats.queries);
  m["wd.rows_per_candidate"] = M(stats.rows / cands, "ratio", stats.queries);
  m["wd.subtree_us"] = M(calls.subtree_us.Median(), "us", calls.subtree_us.size());
  m["engine.next_us"] = M(calls.next_us.Median(), "us", calls.next_us.size());
  m["engine.open_us"] = M(calls.open_us.Median(), "us", calls.open_us.size());
  m["engine.execute_us"] = M(calls.execute_us.Median(), "us", calls.execute_us.size());
  m["engine.decode_us"] = M(calls.decode_us.Median(), "us", calls.decode_us.size());
  m["engine.views_live_max"] = M(ctx.views_live_max.load(), "count", 1);
  double traced_p50 = ctx.traced_ms.Median();
  double untraced_p50 = ctx.untraced_ms.Median();
  m["trace.overhead_p50_ms"] = M(traced_p50 - untraced_p50, "ms", ctx.traced_ms.size());
  m["trace.overhead_p50_pct"] =
      M(untraced_p50 > 0 ? (traced_p50 - untraced_p50) / untraced_p50 * 100 : 0, "%",
        ctx.traced_ms.size());
  if (!config.trace_file.empty()) WriteTraceFile(config.trace_file, ctx.kept_traces);
  return result;
}

}  // namespace wdperf
