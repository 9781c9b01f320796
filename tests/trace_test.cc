#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "wdsparql/wdsparql.h"

/// \file
/// Tests of the request-scoped tracing subsystem (wdsparql/trace.h): the
/// flight recorder's wraparound/completeness contract (only traces that
/// survived intact are ever reported), span parentage forming a tree
/// rooted at the request span across the full parse/plan/enumerate/
/// subtree stack, commit and checkpoint traces, the null disabled path,
/// and — under the TSan CI job — many concurrent traced cursors against
/// a live writer with a polling reader.

namespace wdsparql {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "wdsparql_trace_" + name;
}

std::string FreshPath(const std::string& name) {
  std::string path = TempPath(name);
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  return path;
}

Database MakeSmallDatabase(std::size_t trace_capacity = 4096) {
  DatabaseOptions options;
  options.trace_capacity = trace_capacity;
  Database db(options);
  db.AddTriple("alice", "knows", "bob");
  db.AddTriple("bob", "knows", "carol");
  db.AddTriple("bob", "email", "bob-at-example");
  return db;
}

/// Publishes one synthetic complete trace of `spans` spans.
void PublishTrace(TraceRecorder& recorder, uint64_t trace_id,
                  std::size_t spans) {
  TraceContext ctx(&recorder, trace_id);
  uint32_t root = ctx.StartSpan("request");
  for (std::size_t i = 1; i < spans; ++i) {
    ctx.EndSpan(ctx.StartSpan("child", root));
  }
  ctx.EndSpan(root);
  ctx.Flush();
}

/// The structural invariants every reported trace must satisfy: a root
/// (span 1, no parent) whose stamped span count matches, distinct span
/// ids, and every parent naming an earlier span of the same trace.
void ExpectWellFormed(const std::vector<TraceSpan>& trace) {
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.front().span_id, 1u);
  EXPECT_EQ(trace.front().parent_id, 0u);
  EXPECT_EQ(trace.front().trace_spans, trace.size());
  std::set<uint32_t> ids;
  for (const TraceSpan& span : trace) {
    EXPECT_EQ(span.trace_id, trace.front().trace_id);
    EXPECT_TRUE(ids.insert(span.span_id).second);
    if (span.span_id != 1) {
      EXPECT_NE(span.parent_id, 0u);
      EXPECT_LT(span.parent_id, span.span_id);
      EXPECT_TRUE(ids.count(span.parent_id)) << "dangling parent";
    }
    EXPECT_NE(span.duration_ns, TraceSpan::kOpenDuration)
        << "open span escaped a flush";
  }
}

const TraceSpan* FindSpan(const std::vector<TraceSpan>& trace,
                          const std::string& name) {
  for (const TraceSpan& span : trace) {
    if (span.name == name) return &span;
  }
  return nullptr;
}

// ---------------------------------------------------------------------
// Recorder: wraparound and completeness
// ---------------------------------------------------------------------

TEST(TraceRecorderTest, ReportsOnlyCompleteTraces) {
  TraceRecorder recorder(16);
  ASSERT_EQ(recorder.capacity(), 16u);
  // 10 traces of 4 spans: 40 spans through a 16-slot ring. At most the
  // newest 4 can be intact; everything reported must be whole.
  for (int i = 0; i < 10; ++i) {
    PublishTrace(recorder, recorder.NewTraceId(), 4);
  }
  std::vector<std::vector<TraceSpan>> traces = recorder.CollectTraces(16);
  ASSERT_FALSE(traces.empty());
  EXPECT_LE(traces.size(), 4u);
  for (const auto& trace : traces) {
    ExpectWellFormed(trace);
    EXPECT_EQ(trace.size(), 4u);
  }
  // Newest first: the last published trace id leads.
  EXPECT_GT(traces.front().front().trace_id,
            traces.back().front().trace_id);
}

TEST(TraceRecorderTest, PartiallyOverwrittenTraceIsDropped) {
  TraceRecorder recorder(16);
  uint64_t old_id = recorder.NewTraceId();
  PublishTrace(recorder, old_id, 8);
  // 12 more spans wrap the 16-slot ring into the old trace's slots.
  PublishTrace(recorder, recorder.NewTraceId(), 12);
  for (const auto& trace : recorder.CollectTraces(16)) {
    EXPECT_NE(trace.front().trace_id, old_id)
        << "a clobbered trace must never be reported";
    ExpectWellFormed(trace);
  }
}

TEST(TraceRecorderTest, TraceLargerThanRingIsDiscardedCleanly) {
  TraceRecorder recorder(16);
  PublishTrace(recorder, recorder.NewTraceId(), 32);  // Twice the ring.
  // The root span (id 1) is in the dropped prefix, so nothing reports.
  EXPECT_TRUE(recorder.CollectTraces(16).empty());
  // The ring still works for the next, normal-sized trace.
  PublishTrace(recorder, recorder.NewTraceId(), 4);
  ASSERT_EQ(recorder.CollectTraces(16).size(), 1u);
}

TEST(TraceRecorderTest, CollectHonoursMaxTraces) {
  TraceRecorder recorder(64);
  for (int i = 0; i < 6; ++i) {
    PublishTrace(recorder, recorder.NewTraceId(), 2);
  }
  EXPECT_EQ(recorder.CollectTraces(3).size(), 3u);
}

// ---------------------------------------------------------------------
// Context: disabled path, annotations, caps
// ---------------------------------------------------------------------

TEST(TraceContextTest, DisabledContextRecordsNothing) {
  TraceContext ctx;  // No recorder.
  EXPECT_FALSE(ctx.enabled());
  uint32_t span = ctx.StartSpan("request");
  EXPECT_EQ(span, 0u);
  ctx.Annotate(span, "key", std::uint64_t{7});
  ctx.EndSpan(span);
  ctx.Flush();
  EXPECT_TRUE(ctx.spans().empty());
}

TEST(TraceContextTest, DisabledDatabaseHasNoRecorder) {
  DatabaseOptions options;
  options.trace_capacity = 0;
  Database db(options);
  db.AddTriple("a", "b", "c");
  EXPECT_EQ(db.trace_recorder(), nullptr);
  EXPECT_EQ(db.DumpTraces(), "{\"traces\":[]}");

  // The full execution stack runs untraced without complaint.
  Statement stmt = db.OpenSession().Prepare("(?x b ?y)");
  ASSERT_TRUE(stmt.ok());
  Cursor cursor = stmt.Execute();
  while (cursor.Next()) {
  }
  EXPECT_EQ(cursor.state(), Cursor::State::kExhausted);
}

TEST(TraceContextTest, AnnotationsAndNamesAreBounded) {
  TraceRecorder recorder(16);
  TraceContext ctx(&recorder);
  uint32_t root = ctx.StartSpan("a-name-much-longer-than-twenty-chars");
  ctx.Annotate(root, "key", "value");
  ctx.Annotate(root, "k2", std::uint64_t{42});
  ctx.Annotate(root, "k3", "v3");
  ctx.Annotate(root, "k4", "v4");
  ctx.Annotate(root, "overflow", "dropped");  // Fifth: silently dropped.
  ctx.EndSpan(root);
  ctx.Flush();
  auto traces = recorder.CollectTraces(1);
  ASSERT_EQ(traces.size(), 1u);
  const TraceSpan& span = traces[0][0];
  EXPECT_EQ(span.annotation_count, TraceSpan::kMaxAnnotations);
  EXPECT_EQ(std::string(span.annotations[1].key), "k2");
  EXPECT_EQ(std::string(span.annotations[1].value), "42");
  // Truncated, NUL-terminated name.
  EXPECT_EQ(std::string(span.name).size(), sizeof(span.name) - 1);
}

TEST(TraceContextTest, FlushEndsOpenSpansAndIsIdempotent) {
  TraceRecorder recorder(16);
  TraceContext ctx(&recorder);
  ctx.StartSpan("request");          // Left open deliberately.
  ctx.StartSpan("child", 1);         // Also open.
  ctx.Flush();
  ctx.Flush();
  auto traces = recorder.CollectTraces(4);
  ASSERT_EQ(traces.size(), 1u);
  ExpectWellFormed(traces[0]);
  EXPECT_EQ(traces[0].size(), 2u);
}

// ---------------------------------------------------------------------
// End-to-end: query spans form a tree under the request span
// ---------------------------------------------------------------------

TEST(TraceEndToEndTest, QuerySpansFormTreeRootedAtRequest) {
  Database db = MakeSmallDatabase();
  TraceRecorder* recorder = db.trace_recorder();
  ASSERT_NE(recorder, nullptr);

  TraceContext ctx(recorder);
  uint32_t root = ctx.StartSpan("request");
  {
    ExecOptions exec;
    exec.trace = &ctx;
    exec.trace_parent = root;
    Statement stmt = db.OpenSession().Prepare("(?x knows ?y) OPT (?y email ?e)");
    ASSERT_TRUE(stmt.ok());
    Cursor cursor = stmt.Execute(exec);
    std::size_t rows = 0;
    while (cursor.Next()) ++rows;
    EXPECT_GT(rows, 0u);
  }
  ctx.EndSpan(root);
  ctx.Flush();

  auto traces = recorder->CollectTraces(1);
  ASSERT_EQ(traces.size(), 1u);
  const std::vector<TraceSpan>& trace = traces[0];
  ExpectWellFormed(trace);
  EXPECT_EQ(trace[0].trace_id, ctx.trace_id());
  ASSERT_STREQ(trace[0].name, "request");

  const TraceSpan* plan = FindSpan(trace, "plan");
  const TraceSpan* enumerate = FindSpan(trace, "enumerate");
  const TraceSpan* subtree = FindSpan(trace, "subtree");
  ASSERT_NE(plan, nullptr);
  ASSERT_NE(enumerate, nullptr);
  ASSERT_NE(subtree, nullptr);
  EXPECT_EQ(plan->parent_id, 1u);
  EXPECT_EQ(enumerate->parent_id, 1u);
  // Every subtree span hangs off the enumerate span.
  for (const TraceSpan& span : trace) {
    if (std::string(span.name) == "subtree") {
      EXPECT_EQ(span.parent_id, enumerate->span_id);
    }
  }
  // The enumerate span carries the outcome annotations.
  bool saw_rows = false, saw_outcome = false;
  for (std::size_t i = 0; i < enumerate->annotation_count; ++i) {
    std::string key = enumerate->annotations[i].key;
    if (key == "rows") saw_rows = true;
    if (key == "outcome") {
      saw_outcome = true;
      EXPECT_EQ(std::string(enumerate->annotations[i].value), "exhausted");
    }
  }
  EXPECT_TRUE(saw_rows);
  EXPECT_TRUE(saw_outcome);
}

TEST(TraceEndToEndTest, EarlyCloseEndsTheOpenSubtreeSpan) {
  Database db = MakeSmallDatabase();
  TraceContext ctx(db.trace_recorder());
  uint32_t root = ctx.StartSpan("request");
  ExecOptions exec;
  exec.trace = &ctx;
  exec.trace_parent = root;
  Statement stmt = db.OpenSession().Prepare("(?x knows ?y) OPT (?y email ?e)");
  ASSERT_TRUE(stmt.ok());
  Cursor cursor = stmt.Execute(exec);
  ASSERT_TRUE(cursor.Next());
  cursor.Close();

  // Before any flush: closing mid-tree ended every span the cursor
  // opened, and the open tree walk's span got its candidate count.
  int subtrees = 0;
  for (const TraceSpan& span : ctx.spans()) {
    if (span.span_id == root) continue;
    EXPECT_NE(span.duration_ns, TraceSpan::kOpenDuration) << span.name;
    if (std::string(span.name) != "subtree") continue;
    ++subtrees;
    ASSERT_EQ(span.annotation_count, 3u);
    EXPECT_STREQ(span.annotations[0].key, "tree");
    EXPECT_STREQ(span.annotations[1].key, "nodes");
    EXPECT_STREQ(span.annotations[2].key, "candidates");
  }
  EXPECT_GE(subtrees, 1);
  const TraceSpan* enumerate = FindSpan(ctx.spans(), "enumerate");
  ASSERT_NE(enumerate, nullptr);
  ASSERT_EQ(enumerate->annotation_count, 3u);
  EXPECT_STREQ(enumerate->annotations[2].value, "closed");
}

TEST(TraceEndToEndTest, CommitPublishesSelfRootedTrace) {
  Database db = MakeSmallDatabase();
  WriteBatch batch;
  batch.Add("carol", "knows", "dave");
  batch.Add("dave", "email", "dave-at-example");
  ASSERT_TRUE(db.Apply(std::move(batch)).ok());

  auto traces = db.trace_recorder()->CollectTraces(16);
  const std::vector<TraceSpan>* commit_trace = nullptr;
  for (const auto& trace : traces) {
    if (std::string(trace[0].name) == "commit") {
      commit_trace = &trace;
      break;
    }
  }
  ASSERT_NE(commit_trace, nullptr);
  ExpectWellFormed(*commit_trace);
  const TraceSpan* build = FindSpan(*commit_trace, "delta_build");
  ASSERT_NE(build, nullptr);
  EXPECT_EQ(build->parent_id, 1u);
  EXPECT_TRUE(FindSpan(*commit_trace, "publish") != nullptr ||
              FindSpan(*commit_trace, "compact") != nullptr);
}

TEST(TraceEndToEndTest, CallerContextOwnsCommitSpans) {
  Database db = MakeSmallDatabase();
  TraceContext ctx(db.trace_recorder());
  uint32_t root = ctx.StartSpan("request");
  WriteBatch batch;
  batch.Add("erin", "knows", "frank");
  ASSERT_TRUE(db.Apply(std::move(batch), nullptr, &ctx).ok());
  ctx.EndSpan(root);
  ctx.Flush();

  auto traces = db.trace_recorder()->CollectTraces(1);
  ASSERT_EQ(traces.size(), 1u);
  ASSERT_STREQ(traces[0][0].name, "request");
  const TraceSpan* commit = FindSpan(traces[0], "commit");
  ASSERT_NE(commit, nullptr);
  EXPECT_EQ(commit->parent_id, 1u);
  const TraceSpan* build = FindSpan(traces[0], "delta_build");
  ASSERT_NE(build, nullptr);
  EXPECT_EQ(build->parent_id, commit->span_id);
}

TEST(TraceEndToEndTest, WalAndCheckpointSpans) {
  std::string path = FreshPath("wal_spans.snap");
  OpenOptions open_options;
  open_options.durability = Durability::kWal;
  open_options.create_if_missing = true;
  Result<Database> opened = Database::Open(path, open_options);
  ASSERT_TRUE(opened.ok());
  Database db = std::move(opened).value();

  WriteBatch batch;
  batch.Add("alice", "knows", "bob");
  ASSERT_TRUE(db.Apply(std::move(batch)).ok());

  // The WAL-ed commit trace carries the append span under the commit.
  bool saw_wal_append = false;
  for (const auto& trace : db.trace_recorder()->CollectTraces(16)) {
    if (std::string(trace[0].name) != "commit") continue;
    const TraceSpan* append = FindSpan(trace, "wal.append");
    if (append != nullptr) {
      saw_wal_append = true;
      EXPECT_EQ(append->parent_id, FindSpan(trace, "commit")->span_id);
    }
  }
  EXPECT_TRUE(saw_wal_append);

  ASSERT_TRUE(db.Checkpoint().ok());
  bool saw_checkpoint = false;
  for (const auto& trace : db.trace_recorder()->CollectTraces(16)) {
    if (std::string(trace[0].name) != "checkpoint") continue;
    saw_checkpoint = true;
    ExpectWellFormed(trace);
    const TraceSpan* snap = FindSpan(trace, "write_snapshot");
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->parent_id, 1u);
    EXPECT_NE(FindSpan(trace, "wal.truncate"), nullptr);
  }
  EXPECT_TRUE(saw_checkpoint);

  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

TEST(TraceEndToEndTest, DumpJsonIsWellFormedEnough) {
  Database db = MakeSmallDatabase();
  TraceContext ctx(db.trace_recorder());
  uint32_t root = ctx.StartSpan("request");
  ctx.Annotate(root, "path", "/query");
  ctx.EndSpan(root);
  ctx.Flush();
  std::string json = db.DumpTraces(4);
  EXPECT_NE(json.find("\"traces\":["), std::string::npos);
  EXPECT_NE(json.find("\"spans\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"request\""), std::string::npos);
  EXPECT_NE(json.find("\"path\":\"/query\""), std::string::npos);
  // Balanced braces/brackets (cheap structural sanity without a parser).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// ---------------------------------------------------------------------
// Concurrency (the TSan CI job runs this test under
// -fsanitize=thread; see .github/workflows/ci.yml)
// ---------------------------------------------------------------------

TEST(TraceConcurrencyTest, TracedCursorsVsLiveWriterVsReader) {
  // Small ring on purpose: constant wraparound maximises writer/reader
  // overlap on the same slots.
  Database db = MakeSmallDatabase(/*trace_capacity=*/64);
  TraceRecorder* recorder = db.trace_recorder();
  ASSERT_NE(recorder, nullptr);

  constexpr int kReaders = 4;
  constexpr int kQueriesPerReader = 25;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  // A live writer: commits keep publishing commit traces (and new
  // generations) underneath the traced readers.
  std::thread writer([&] {
    int n = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      WriteBatch batch;
      std::string subject = "writer" + std::to_string(n++);
      batch.Add(subject, "knows", "bob");
      if (!db.Apply(std::move(batch)).ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  // A polling reader: continuously reconstructs traces from the live
  // ring; every trace it sees must be whole.
  std::thread poller([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const auto& trace : recorder->CollectTraces(8)) {
        if (trace.empty() || trace.front().span_id != 1 ||
            trace.front().trace_spans != trace.size()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&db, &failures] {
      for (int q = 0; q < kQueriesPerReader; ++q) {
        TraceContext ctx(db.trace_recorder());
        uint32_t root = ctx.StartSpan("request");
        ExecOptions exec;
        exec.trace = &ctx;
        exec.trace_parent = root;
        Statement stmt = db.OpenSession().Prepare("(?x knows ?y)");
        if (!stmt.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        Cursor cursor = stmt.Execute(exec);
        while (cursor.Next()) {
        }
        ctx.EndSpan(root);
        ctx.Flush();
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  poller.join();
  EXPECT_EQ(failures.load(), 0);

  // The final quiescent ring still yields only well-formed traces.
  for (const auto& trace : recorder->CollectTraces(16)) {
    ExpectWellFormed(trace);
  }
}

}  // namespace
}  // namespace wdsparql
