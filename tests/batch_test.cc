#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "rdf/generator.h"
#include "support/testlib.h"
#include "util/rng.h"
#include "wdsparql/wdsparql.h"

/// \file
/// Tests of the transactional execution surface: `WriteBatch` /
/// `Database::Apply` (net-effect semantics, single-publish commits,
/// no-op batches, WAL group atomicity under kill-and-reopen), user-held
/// `Snapshot`s (repeatable reads across interleaved batches), and
/// `ExecOptions` (row limits, deadlines, cancellation — observed
/// mid-enumeration, including from another thread under TSan).

namespace wdsparql {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "wdsparql_batch_" + name;
}

/// Starts every test from a clean slate: stale snapshot/WAL files from
/// a previous run must not leak state across runs.
std::string FreshPath(const std::string& name) {
  std::string path = TempPath(name);
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  return path;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good()) << path;
}

Database MustOpen(const std::string& path, const OpenOptions& options = {}) {
  Result<Database> opened = Database::Open(path, options);
  if (!opened.ok()) {
    ADD_FAILURE() << "MustOpen(" << path << "): " << opened.status().ToString();
  }
  WDSPARQL_CHECK(opened.ok());
  return std::move(opened).value();
}

/// A deterministic mutation stream over the p0..p2 vocabulary: triples
/// the query corpus below can see.
std::vector<Triple> WorkloadTriples(TermPool* pool, int count, uint64_t seed) {
  Rng rng(seed);
  RdfGraph staged(pool);
  testlib::SmallWorkloadGraph(&rng, std::max(6, count / 6), count, 3, &staged);
  return staged.triples().triples();
}

const char* const kQueries[] = {
    "(?x p0 ?y)",
    "((?x p0 ?y) AND (?y p1 ?z)) OPT (?z p2 ?w)",
    "(?x p1 ?y) OPT ((?y p2 ?z) OPT (?z p0 ?w))",
};

std::vector<std::string> SortedAnswers(const Database& db, const std::string& pattern,
                                       Backend backend) {
  SessionOptions options;
  options.backend = backend;
  Statement stmt = db.OpenSession(options).Prepare(pattern);
  EXPECT_TRUE(stmt.ok()) << stmt.diagnostics().ToString();
  std::vector<std::string> out;
  for (const Mapping& mu : stmt.Solutions()) out.push_back(mu.ToString(db.pool()));
  std::sort(out.begin(), out.end());
  return out;
}

void ExpectSameAnswers(const Database& a, const Database& b) {
  for (const char* query : kQueries) {
    EXPECT_EQ(SortedAnswers(a, query, Backend::kIndexed),
              SortedAnswers(b, query, Backend::kIndexed))
        << "indexed backend diverged on " << query;
    EXPECT_EQ(SortedAnswers(a, query, Backend::kNaiveHash),
              SortedAnswers(b, query, Backend::kNaiveHash))
        << "naive backend diverged on " << query;
    EXPECT_EQ(SortedAnswers(a, query, Backend::kIndexed),
              SortedAnswers(b, query, Backend::kNaiveHash))
        << "backends diverged on " << query;
  }
}

/// Sorted spellings of one snapshot-bound (or live) execution.
std::vector<std::string> DrainSorted(Cursor cursor, const TermPool& pool) {
  std::vector<std::string> out;
  while (cursor.Next()) out.push_back(cursor.Row().ToString(pool));
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------
// WriteBatch semantics
// ---------------------------------------------------------------------

TEST(WriteBatchTest, BatchVsLoopDifferentialBothBackends) {
  // The same interleaved add/remove stream applied as one batch and as
  // a per-triple loop must produce byte-identical answers on both
  // backends (the loop is the old surface; the batch the new one).
  TermPool pool_batch;
  TermPool pool_loop;
  Database batched(&pool_batch);
  Database looped(&pool_loop);

  // The stream is generated over the loop database's pool; the batch
  // carries spellings, so the batched database interns independently —
  // exactly like a batch shipped from another process would.
  std::vector<Triple> base = WorkloadTriples(&pool_loop, 300, 7);
  // Mutation stream: every base triple added; every third removed again
  // later in the same stream (so the batch nets it out).
  WriteBatch batch;
  for (const Triple& t : base) {
    ASSERT_TRUE(batch.Add(pool_loop, t));
    looped.AddTriple(t);
  }
  for (std::size_t i = 0; i < base.size(); i += 3) {
    ASSERT_TRUE(batch.Remove(pool_loop, base[i]));
  }
  ApplyResult result;
  ASSERT_TRUE(batched.Apply(std::move(batch), &result).ok());
  EXPECT_TRUE(batch.empty()) << "Apply consumes the batch";

  for (std::size_t i = 0; i < base.size(); i += 3) {
    looped.RemoveTriple(base[i]);
  }
  EXPECT_EQ(batched.size(), looped.size());
  EXPECT_EQ(result.added, batched.size());
  ExpectSameAnswers(batched, looped);
}

TEST(WriteBatchTest, SinglePublishPerBatch) {
  Database db;
  std::vector<Triple> triples = WorkloadTriples(&db.pool(), 200, 11);
  WriteBatch batch;
  for (const Triple& t : triples) batch.Add(db.pool(), t);
  uint64_t before = db.generation();
  ASSERT_TRUE(db.Apply(std::move(batch)).ok());
  // One merged delta build, ONE view publish — not one per triple.
  // (A merge, had the batch spent the copy budget, would fold inside
  // that same publish.)
  EXPECT_EQ(db.generation(), before + 1);
  EXPECT_EQ(db.size(), triples.size());
}

TEST(WriteBatchTest, EmptyBatchIsNoOp) {
  Database db;
  db.AddTriple("a", "p0", "b");
  uint64_t before = db.generation();
  ApplyResult result;
  ASSERT_TRUE(db.Apply(WriteBatch(), &result).ok());
  EXPECT_TRUE(result.no_op());
  EXPECT_EQ(db.generation(), before) << "no publish for an empty batch";
  EXPECT_EQ(db.size(), 1u);
}

TEST(WriteBatchTest, CancellingBatchIsNoOp) {
  Database db;
  db.AddTriple("a", "p0", "b");
  uint64_t before = db.generation();

  ApplyResult result;
  WriteBatch batch;
  batch.Add("x", "p1", "y");     // New triple...
  batch.Remove("x", "p1", "y");  // ...cancelled within the batch.
  batch.Remove("a", "p0", "b");  // Present triple removed...
  batch.Add("a", "p0", "b");     // ...and restored: matches current state.
  batch.Add("a", "p0", "b");     // Duplicate of current state outright.
  batch.Remove("never", "was", "here");  // Absent: nothing to do.
  ASSERT_TRUE(db.Apply(std::move(batch), &result).ok());

  EXPECT_TRUE(result.no_op());
  EXPECT_EQ(db.generation(), before)
      << "a fully-cancelling batch must not publish or bump the generation";
  EXPECT_EQ(db.size(), 1u);
  EXPECT_TRUE(db.Contains(Triple(db.pool().InternIri("a"), db.pool().InternIri("p0"),
                                 db.pool().InternIri("b"))));
}

TEST(WriteBatchTest, NoOpBatchWritesNoWalRecord) {
  std::string path = FreshPath("noop.snap");
  OpenOptions options;
  options.durability = Durability::kWal;
  options.create_if_missing = true;
  Database db = MustOpen(path, options);
  db.AddTriple("a", "p0", "b");
  std::size_t wal_bytes = ReadFileBytes(path + ".wal").size();

  WriteBatch batch;
  batch.Add("a", "p0", "b");             // Already present.
  batch.Add("x", "p1", "y");
  batch.Remove("x", "p1", "y");          // Cancels in-batch.
  ASSERT_TRUE(db.Apply(std::move(batch)).ok());
  EXPECT_EQ(ReadFileBytes(path + ".wal").size(), wal_bytes)
      << "a no-op batch must not append a WAL record";
}

TEST(WriteBatchTest, NetEffectLogsOneGroupAndReplays) {
  std::string path = FreshPath("group.snap");
  OpenOptions options;
  options.durability = Durability::kWal;
  options.create_if_missing = true;
  uint64_t mirror_size;
  {
    Database db = MustOpen(path, options);
    WriteBatch batch;
    ASSERT_TRUE(batch.LoadNTriples("a p0 b .\n"
                                   "b p1 c .\n"
                                   "c p2 d .\n")
                    .ok());
    batch.Remove("b", "p1", "c");  // Nets out within the batch.
    ASSERT_TRUE(db.Apply(std::move(batch)).ok());
    // A second, removing batch against the committed state.
    WriteBatch second;
    second.Remove("a", "p0", "b");
    second.Add("d", "p0", "e");
    ASSERT_TRUE(db.Apply(std::move(second)).ok());
    mirror_size = db.size();
    // No Checkpoint: reopen must reconstruct purely from group replay.
  }
  Database reopened = MustOpen(path, options);
  EXPECT_EQ(reopened.size(), mirror_size);
  TermPool& pool = reopened.pool();
  EXPECT_TRUE(reopened.Contains(Triple(pool.InternIri("c"), pool.InternIri("p2"),
                                       pool.InternIri("d"))));
  EXPECT_TRUE(reopened.Contains(Triple(pool.InternIri("d"), pool.InternIri("p0"),
                                       pool.InternIri("e"))));
  EXPECT_FALSE(reopened.Contains(Triple(pool.InternIri("a"), pool.InternIri("p0"),
                                        pool.InternIri("b"))));
  EXPECT_FALSE(reopened.Contains(Triple(pool.InternIri("b"), pool.InternIri("p1"),
                                        pool.InternIri("c"))));
}

TEST(WriteBatchTest, KillAndReopenReplaysGroupsAllOrNothing) {
  std::string path = FreshPath("atomic.snap");
  OpenOptions options;
  options.durability = Durability::kWal;
  options.create_if_missing = true;

  // Commit two batches, remembering the WAL bytes between them.
  std::string wal_after_first;
  {
    Database db = MustOpen(path, options);
    WriteBatch first;
    for (int i = 0; i < 16; ++i) {
      first.Add("s" + std::to_string(i), "p0", "o" + std::to_string(i));
    }
    ASSERT_TRUE(db.Apply(std::move(first)).ok());
    wal_after_first = ReadFileBytes(path + ".wal");
    WriteBatch second;
    for (int i = 16; i < 32; ++i) {
      second.Add("s" + std::to_string(i), "p0", "o" + std::to_string(i));
    }
    ASSERT_TRUE(db.Apply(std::move(second)).ok());
  }
  std::string full_wal = ReadFileBytes(path + ".wal");
  ASSERT_GT(full_wal.size(), wal_after_first.size());

  // Intact log: both groups replay.
  {
    Database db = MustOpen(path, options);
    EXPECT_EQ(db.size(), 32u);
  }
  // "Kill" inside the second group: chop bytes so the frame is torn.
  // However little is missing, the WHOLE group must vanish — never a
  // prefix of it.
  for (std::size_t cut : {std::size_t(1), (full_wal.size() - wal_after_first.size()) / 2}) {
    WriteFileBytes(path + ".wal", full_wal.substr(0, full_wal.size() - cut));
    Database db = MustOpen(path, options);
    EXPECT_EQ(db.size(), 16u) << "torn group (cut " << cut
                              << " bytes) must be discarded in full";
    TermPool& pool = db.pool();
    for (int i = 0; i < 16; ++i) {
      EXPECT_TRUE(db.Contains(Triple(pool.InternIri("s" + std::to_string(i)),
                                     pool.InternIri("p0"),
                                     pool.InternIri("o" + std::to_string(i)))));
    }
    // The open truncated the torn tail; restore the full log for the
    // next round.
  }
}

TEST(WriteBatchTest, OldWalHeaderUpgradedBeforeGroupFrames) {
  // A version-1 log must replay under this reader — and be re-stamped
  // to the current version before any group frame lands in it, so an
  // old reader meeting the new frames fails loudly (kCorruption on the
  // version check) instead of silently truncating them as a torn tail.
  std::string path = FreshPath("upgrade.snap");
  OpenOptions options;
  options.durability = Durability::kWal;
  options.create_if_missing = true;
  {
    Database db = MustOpen(path, options);
    db.AddTriple("a", "p0", "b");  // One single-record frame.
  }
  // Backdate the header to version 1 (u32 at offset 8, little-endian).
  std::string wal = ReadFileBytes(path + ".wal");
  ASSERT_GE(wal.size(), 16u);
  wal[8] = 1;
  wal[9] = wal[10] = wal[11] = 0;
  WriteFileBytes(path + ".wal", wal);
  {
    Database db = MustOpen(path, options);
    EXPECT_EQ(db.size(), 1u) << "the version-1 record must replay";
    WriteBatch batch;
    batch.Add("c", "p0", "d");
    batch.Add("e", "p0", "f");
    ASSERT_TRUE(db.Apply(std::move(batch)).ok());  // A group frame.
  }
  EXPECT_EQ(static_cast<unsigned char>(ReadFileBytes(path + ".wal")[8]),
            storage_format::kWalVersion)
      << "the on-disk header must carry the current version once group "
         "frames may follow";
  Database reopened = MustOpen(path, options);
  EXPECT_EQ(reopened.size(), 3u);
}

TEST(WriteBatchTest, LoadNTriplesIsAtomicOnParseErrors) {
  WriteBatch batch;
  batch.Add("keep", "p0", "me");
  Status status = batch.LoadNTriples("a p0 b .\nthis is ?not a triple !!\n");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(batch.size(), 1u) << "a failed load must leave the batch untouched";

  Database db;
  EXPECT_FALSE(db.LoadNTriples("a p0 b .\n<unclosed iri p q .").ok());
  EXPECT_EQ(db.size(), 0u) << "a failed load must leave the database untouched";
  EXPECT_EQ(db.generation(), Database().generation());
}

TEST(WriteBatchTest, StreamedFileLoadMatchesAtomicLoad) {
  std::string nt_path = TempPath("stream.nt");
  {
    std::ofstream out(nt_path, std::ios::trunc);
    for (int i = 0; i < 100; ++i) {
      out << "s" << i % 17 << " p" << i % 3 << " o" << i % 11 << " .\n";
    }
  }
  Database atomic_db;
  ASSERT_TRUE(atomic_db.LoadNTriplesFile(nt_path).ok());
  Database streamed_db;
  ASSERT_TRUE(streamed_db.LoadNTriplesFile(nt_path, /*batch_size=*/7).ok());
  EXPECT_EQ(atomic_db.size(), streamed_db.size());
  ExpectSameAnswers(atomic_db, streamed_db);
  std::remove(nt_path.c_str());
}

// ---------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------

TEST(SnapshotTest, RepeatableReadAcrossInterleavedBatches) {
  Database db;
  ASSERT_TRUE(db.LoadNTriples("a p0 b .\nb p1 c .\nb p0 c .\n").ok());
  Statement stmt = db.OpenSession().Prepare("(?x p0 ?y) OPT (?y p1 ?z)");
  ASSERT_TRUE(stmt.ok());

  Snapshot snap = db.GetSnapshot();
  ASSERT_TRUE(snap.valid());
  EXPECT_EQ(snap.generation(), db.generation());
  EXPECT_EQ(snap.size(), 3u);
  std::vector<std::string> before = DrainSorted(stmt.Execute(snap), db.pool());

  // Interleave two committed batches: one growing, one shrinking.
  WriteBatch grow;
  grow.Add("c", "p0", "d");
  grow.Add("d", "p1", "e");
  ASSERT_TRUE(db.Apply(std::move(grow)).ok());
  std::vector<std::string> mid = DrainSorted(stmt.Execute(snap), db.pool());
  WriteBatch shrink;
  shrink.Remove("a", "p0", "b");
  ASSERT_TRUE(db.Apply(std::move(shrink)).ok());
  std::vector<std::string> after = DrainSorted(stmt.Execute(snap), db.pool());

  // Snapshot-bound executions are identical before, between and after
  // the commits; a live execution sees the new state.
  EXPECT_EQ(before, mid);
  EXPECT_EQ(before, after);
  EXPECT_NE(before, DrainSorted(stmt.Execute(), db.pool()));
  EXPECT_EQ(snap.size(), 3u) << "the pinned state never changes";
  EXPECT_LT(snap.generation(), db.generation());

  // The snapshot survives a compaction too (pinned runs stay alive).
  db.Compact();
  EXPECT_EQ(before, DrainSorted(stmt.Execute(snap), db.pool()));
}

TEST(SnapshotTest, ManyCursorsOneSnapshot) {
  Database db;
  ASSERT_TRUE(db.LoadNTriples("a p0 b .\nb p0 c .\nc p0 d .\n").ok());
  Statement stmt = db.OpenSession().Prepare("(?x p0 ?y)");
  ASSERT_TRUE(stmt.ok());
  Snapshot snap = db.GetSnapshot();

  // Open several cursors against the snapshot, advance them unevenly,
  // and mutate in between: every cursor still enumerates the pinned
  // state (that is the repeatable-read point — one consistent state
  // across MANY cursors, not one).
  Cursor c1 = stmt.Execute(snap);
  ASSERT_TRUE(c1.Next());
  WriteBatch batch;
  batch.Add("z", "p0", "zz");
  ASSERT_TRUE(db.Apply(std::move(batch)).ok());
  Cursor c2 = stmt.Execute(snap);
  std::vector<std::string> rows2 = DrainSorted(std::move(c2), db.pool());
  EXPECT_EQ(rows2.size(), 3u);
  uint64_t c1_rows = 1;
  while (c1.Next()) ++c1_rows;
  EXPECT_EQ(c1_rows, 3u);
  EXPECT_EQ(c1.generation(), snap.generation());
}

TEST(SnapshotTest, NaiveBackendReadsPinnedState) {
  // The naive oracle accepts a snapshot and reads its pinned view in
  // place: it must see exactly the snapshot state — not the live one —
  // however the writer churns after the pin (this is what lets differential tests compare both
  // backends against one frozen state under a live writer).
  Database db;
  ASSERT_TRUE(db.LoadNTriples("a p0 b .\nb p0 c .\n").ok());
  SessionOptions options;
  options.backend = Backend::kNaiveHash;
  Statement stmt = db.OpenSession(options).Prepare("(?x p0 ?y)");
  ASSERT_TRUE(stmt.ok());
  Snapshot snap = db.GetSnapshot();
  std::vector<std::string> before = DrainSorted(stmt.Execute(snap), db.pool());
  EXPECT_EQ(before.size(), 2u);

  WriteBatch batch;
  batch.Add("z", "p0", "zz");
  batch.Remove("a", "p0", "b");
  ASSERT_TRUE(db.Apply(std::move(batch)).ok());

  // Snapshot-bound run still sees the pinned state; a live run sees the
  // mutated one. Mutating mid-enumeration must not invalidate the
  // snapshot-bound cursor (it reads the pinned view, not live state).
  EXPECT_EQ(before, DrainSorted(stmt.Execute(snap), db.pool()));
  Cursor mid = stmt.Execute(snap);
  ASSERT_TRUE(mid.Next());
  WriteBatch more;
  more.Add("zz", "p0", "zzz");
  ASSERT_TRUE(db.Apply(std::move(more)).ok());
  uint64_t rows = 1;
  while (mid.Next()) ++rows;
  EXPECT_EQ(mid.state(), Cursor::State::kExhausted);
  EXPECT_EQ(rows, 2u);
  EXPECT_EQ(DrainSorted(stmt.Execute(), db.pool()).size(), 3u);
}

TEST(SnapshotTest, InvalidAndForeignSnapshotsFailLoudly) {
  Database db;
  ASSERT_TRUE(db.LoadNTriples("a p0 b .\n").ok());
  Statement stmt = db.OpenSession().Prepare("(?x p0 ?y)");
  ASSERT_TRUE(stmt.ok());

  Cursor invalid = stmt.Execute(Snapshot());
  EXPECT_EQ(invalid.state(), Cursor::State::kFailed);
  EXPECT_FALSE(invalid.Next());

  Database other;
  ASSERT_TRUE(other.LoadNTriples("a p0 b .\n").ok());
  Cursor foreign = stmt.Execute(other.GetSnapshot());
  EXPECT_EQ(foreign.state(), Cursor::State::kFailed);
  EXPECT_FALSE(foreign.Next());
  EXPECT_NE(foreign.diagnostics().message.find("different database"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// ExecOptions
// ---------------------------------------------------------------------

TEST(ExecOptionsTest, RowLimitDeliversExactPrefixThenParks) {
  Database db;
  for (int i = 0; i < 50; ++i) {
    db.AddTriple("s" + std::to_string(i), "p0", "o");
  }
  Statement stmt = db.OpenSession().Prepare("(?x p0 ?y)");
  ASSERT_TRUE(stmt.ok());

  ExecOptions options;
  options.row_limit = 7;
  Cursor cursor = stmt.Execute(options);
  uint64_t delivered = 0;
  while (cursor.Next()) ++delivered;
  EXPECT_EQ(delivered, 7u);
  EXPECT_EQ(cursor.state(), Cursor::State::kLimited);
  EXPECT_TRUE(cursor.diagnostics().ok()) << "a row limit is not an error";
  EXPECT_FALSE(cursor.Next()) << "parked cursors stay parked";

  // A limit wider than the answer set exhausts normally.
  ExecOptions wide;
  wide.row_limit = 500;
  Cursor all = stmt.Execute(wide);
  delivered = 0;
  while (all.Next()) ++delivered;
  EXPECT_EQ(delivered, 50u);
  EXPECT_EQ(all.state(), Cursor::State::kExhausted);
}

TEST(ExecOptionsTest, ExpiredDeadlineStopsMidEnumeration) {
  Database db;
  for (int i = 0; i < 200; ++i) {
    db.AddTriple("s" + std::to_string(i), "p0", "o" + std::to_string(i % 5));
  }
  for (Backend backend : {Backend::kNaiveHash, Backend::kIndexed}) {
    SessionOptions session_options;
    session_options.backend = backend;
    Statement stmt =
        db.OpenSession(session_options).Prepare("(?x p0 ?y) OPT (?y p0 ?z)");
    ASSERT_TRUE(stmt.ok());

    ExecOptions options;
    options.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
    options.check_interval = 1;  // Probe at every step: deterministic stop.
    Cursor cursor = stmt.Execute(options);
    EXPECT_FALSE(cursor.Next()) << BackendToString(backend);
    EXPECT_EQ(cursor.state(), Cursor::State::kCancelled);
    EXPECT_EQ(cursor.diagnostics().code, QueryDiagnostics::Code::kDeadlineExceeded);
  }

  // The naive oracle materialises each subtree's candidates up front,
  // and every materialised candidate is a step: the first probe (step
  // 100) lands inside the root subtree's 200-candidate batch, so the
  // partial batch is dropped and no row is delivered.
  SessionOptions naive;
  naive.backend = Backend::kNaiveHash;
  Statement stmt = db.OpenSession(naive).Prepare("(?x p0 ?y) OPT (?y p0 ?z)");
  ASSERT_TRUE(stmt.ok());
  ExecOptions options;
  options.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  options.check_interval = 100;
  Cursor cursor = stmt.Execute(options);
  EXPECT_FALSE(cursor.Next());
  EXPECT_EQ(cursor.rows(), 0u);
  EXPECT_EQ(cursor.diagnostics().code, QueryDiagnostics::Code::kDeadlineExceeded);
}

TEST(ExecOptionsTest, CancelTokenStopsBetweenRows) {
  Database db;
  for (int i = 0; i < 100; ++i) {
    db.AddTriple("s" + std::to_string(i), "p0", "o");
  }
  Statement stmt = db.OpenSession().Prepare("(?x p0 ?y)");
  ASSERT_TRUE(stmt.ok());

  ExecOptions options;
  options.cancel = MakeCancelToken();
  options.check_interval = 1;
  Cursor cursor = stmt.Execute(options);
  ASSERT_TRUE(cursor.Next()) << "unfired token: rows flow";
  options.cancel->store(true);
  EXPECT_FALSE(cursor.Next());
  EXPECT_EQ(cursor.state(), Cursor::State::kCancelled);
  EXPECT_EQ(cursor.diagnostics().code, QueryDiagnostics::Code::kCancelled);
  EXPECT_EQ(cursor.rows(), 1u);
}

TEST(ExecOptionsTest, CancelTokenFiredFromAnotherThread) {
  // The cross-thread contract (and the TSan subject): a token flipped
  // by another thread stops the enumeration at its next check. The
  // token fires while the consumer drains, so the cursor ends either
  // cancelled (token seen mid-run) or exhausted (small tail lost the
  // race) — both are valid; what must never happen is a crash, a race
  // report, or rows after a false Next.
  Database db;
  for (int i = 0; i < 2000; ++i) {
    db.AddTriple("s" + std::to_string(i), "p0", "o" + std::to_string(i % 7));
  }
  Statement stmt = db.OpenSession().Prepare("(?x p0 ?y) OPT (?y p0 ?z)");
  ASSERT_TRUE(stmt.ok());

  ExecOptions options;
  options.cancel = MakeCancelToken();
  options.check_interval = 1;
  Cursor cursor = stmt.Execute(options);
  ASSERT_TRUE(cursor.Next());

  std::thread canceller([token = options.cancel]() { token->store(true); });
  uint64_t rows = 1;
  while (cursor.Next()) ++rows;
  canceller.join();
  EXPECT_LE(rows, 2000u);
  EXPECT_TRUE(cursor.state() == Cursor::State::kCancelled ||
              cursor.state() == Cursor::State::kExhausted)
      << CursorStateToString(cursor.state());
  if (cursor.state() == Cursor::State::kCancelled) {
    EXPECT_EQ(cursor.diagnostics().code, QueryDiagnostics::Code::kCancelled);
  }
  EXPECT_FALSE(cursor.Next());
}

TEST(ExecOptionsTest, BoundsComposeWithSnapshotsAndProjection) {
  Database db;
  ASSERT_TRUE(db.LoadNTriples("a p0 b .\nb p0 c .\nc p0 d .\nd p0 e .\n").ok());
  Statement stmt = db.OpenSession().Prepare("(?x p0 ?y)");
  ASSERT_TRUE(stmt.ok());
  Snapshot snap = db.GetSnapshot();
  WriteBatch batch;
  batch.Add("x", "p0", "y");
  ASSERT_TRUE(db.Apply(std::move(batch)).ok());

  ExecOptions options;
  options.row_limit = 2;
  Cursor cursor = stmt.Execute({"?x"}, snap, options);
  uint64_t rows = 0;
  while (cursor.Next()) {
    EXPECT_EQ(cursor.width(), 1u);
    ++rows;
  }
  EXPECT_EQ(rows, 2u);
  EXPECT_EQ(cursor.state(), Cursor::State::kLimited);
  EXPECT_EQ(cursor.generation(), snap.generation());
}

}  // namespace
}  // namespace wdsparql
