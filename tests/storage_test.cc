#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "engine/api_internal.h"
#include "rdf/generator.h"
#include "storage/crc32.h"
#include "storage/format.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "support/testlib.h"
#include "util/rng.h"
#include "wdsparql/wdsparql.h"

/// \file
/// Tests of the persistent storage subsystem: snapshot round trips
/// (differential against the in-memory database, both backends), WAL
/// replay and kill-and-reopen recovery with a torn tail, checkpointing,
/// and corruption hardening — every damaged-file shape must surface as
/// a structured Status, never a crash.

namespace wdsparql {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "wdsparql_storage_" + name;
}

/// Starts every test from a clean slate: stale snapshot/WAL files from
/// a previous run must not leak state across runs.
std::string FreshPath(const std::string& name) {
  std::string path = TempPath(name);
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  return path;
}

void FillRandom(Database* db, int num_triples, uint64_t seed) {
  Rng rng(seed);
  RdfGraph staged(&db->pool());
  testlib::SmallWorkloadGraph(&rng, std::max(6, num_triples / 6), num_triples, 3,
                              &staged);
  for (const Triple& t : staged.triples()) db->AddTriple(t);
}

/// All solutions of `pattern` over `db` under `backend`, rendered and
/// sorted — the byte-comparable answer set of the acceptance criteria.
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

const char* const kQueries[] = {
    "(?x p0 ?y)",
    "((?x p0 ?y) AND (?y p1 ?z)) OPT (?z p2 ?w)",
    "(?x p1 ?y) OPT ((?y p2 ?z) OPT (?z p0 ?w))",
};

/// Byte-identical sorted output between two databases, both backends,
/// across the query corpus.
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

/// Opens `path` or aborts the test binary: the mutating tests need a
/// plain `Database` (Result only exposes const access to its value).
Database MustOpen(const std::string& path, const OpenOptions& options = {}) {
  Result<Database> opened = Database::Open(path, options);
  if (!opened.ok()) {
    ADD_FAILURE() << "MustOpen(" << path << "): " << opened.status().ToString();
  }
  WDSPARQL_CHECK(opened.ok());
  return std::move(opened).value();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good()) << path;
}

// ---------------------------------------------------------------------
// Snapshot round trips
// ---------------------------------------------------------------------

TEST(SnapshotTest, EmptyDatabaseRoundTrips) {
  std::string path = FreshPath("empty.snap");
  Database db;
  ASSERT_TRUE(db.Save(path).ok());
  Result<Database> reopened = Database::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->size(), 0u);
  EXPECT_TRUE(reopened->empty());
}

TEST(SnapshotTest, RoundTripDifferentialBothBackends) {
  for (int num_triples : {12, 96, 400}) {
    std::string path = FreshPath("roundtrip.snap");
    Database db;
    FillRandom(&db, num_triples, 0xC0FFEE + num_triples);
    ASSERT_TRUE(db.Save(path).ok());

    Result<Database> reopened = Database::Open(path);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(reopened->size(), db.size());
    ExpectSameAnswers(db, *reopened);
  }
}

TEST(SnapshotTest, OpenConsumesRunsInPlaceUntilFirstMerge) {
  std::string path = FreshPath("inplace.snap");
  Database db;
  FillRandom(&db, 64, 7);
  ASSERT_TRUE(db.Save(path).ok());

  Database reopened = MustOpen(path);
  // The permutation runs are borrowed straight from the mapped file...
  EXPECT_TRUE(reopened.store().borrows_snapshot());
  // ...until a compaction migrates them into owned storage.
  EXPECT_TRUE(reopened.AddTriple("fresh-s", "fresh-p", "fresh-o"));
  reopened.Compact();
  EXPECT_FALSE(reopened.store().borrows_snapshot());
  EXPECT_TRUE(reopened.Contains(Triple(reopened.pool().InternIri("fresh-s"),
                                       reopened.pool().InternIri("fresh-p"),
                                       reopened.pool().InternIri("fresh-o"))));
}

TEST(SnapshotTest, BufferedFallbackMatchesMmap) {
  std::string path = FreshPath("nommap.snap");
  Database db;
  FillRandom(&db, 80, 11);
  ASSERT_TRUE(db.Save(path).ok());

  OpenOptions buffered;
  buffered.use_mmap = false;
  Result<Database> via_buffer = Database::Open(path, buffered);
  Result<Database> via_mmap = Database::Open(path);
  ASSERT_TRUE(via_buffer.ok()) << via_buffer.status().ToString();
  ASSERT_TRUE(via_mmap.ok()) << via_mmap.status().ToString();
  ExpectSameAnswers(*via_buffer, *via_mmap);
}

TEST(SnapshotTest, MutationsOnReopenedDatabaseMatchInMemory) {
  std::string path = FreshPath("mutate.snap");
  Database in_memory;
  FillRandom(&in_memory, 60, 21);
  ASSERT_TRUE(in_memory.Save(path).ok());
  Database reopened = MustOpen(path);

  // Interleave adds and removes identically on both sides; the reopened
  // database starts from borrowed runs and must behave identically.
  std::vector<Triple> victims;
  in_memory.store().ScanPattern(Triple(kAnyTerm, kAnyTerm, kAnyTerm),
                                [&victims](const Triple& t) {
                                  victims.push_back(t);
                                  return true;
                                });
  for (std::size_t i = 0; i < victims.size(); i += 3) {
    std::string s = std::string(in_memory.pool().Spelling(victims[i].subject));
    std::string p = std::string(in_memory.pool().Spelling(victims[i].predicate));
    std::string o = std::string(in_memory.pool().Spelling(victims[i].object));
    EXPECT_TRUE(in_memory.RemoveTriple(s, p, o));
    EXPECT_TRUE(reopened.RemoveTriple(s, p, o));
  }
  for (int i = 0; i < 20; ++i) {
    std::string node = "extra" + std::to_string(i);
    EXPECT_TRUE(in_memory.AddTriple(node, "p0", "extra" + std::to_string(i + 1)));
    EXPECT_TRUE(reopened.AddTriple(node, "p0", "extra" + std::to_string(i + 1)));
  }
  EXPECT_EQ(in_memory.size(), reopened.size());
  ExpectSameAnswers(in_memory, reopened);
}

TEST(SnapshotTest, SaveWithPendingDeltaCompactsFirst) {
  std::string path = FreshPath("delta.snap");
  DatabaseOptions options;
  options.merge_threshold = 0;  // Never auto-merge: force a live delta.
  Database db(options);
  FillRandom(&db, 50, 31);
  ASSERT_GT(db.pending_delta(), 0u);
  ASSERT_TRUE(db.Save(path).ok());
  EXPECT_EQ(db.pending_delta(), 0u);
  Result<Database> reopened = Database::Open(path);
  ASSERT_TRUE(reopened.ok());
  ExpectSameAnswers(db, *reopened);
}

TEST(SnapshotTest, MissingFileIsNotFound) {
  Result<Database> missing = Database::Open(FreshPath("nonexistent.snap"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------
// Corruption hardening: structured errors, never crashes
// ---------------------------------------------------------------------

class CorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = FreshPath("corrupt.snap");
    Database db;
    FillRandom(&db, 120, 41);
    ASSERT_TRUE(db.Save(path_).ok());
    pristine_ = ReadFile(path_);
    ASSERT_GE(pristine_.size(), sizeof(storage::SnapshotHeader));
  }

  /// Opens the file with `bytes` substituted in; expects kCorruption.
  void ExpectCorrupt(std::string bytes, const std::string& what) {
    WriteFile(path_, bytes);
    Result<Database> opened = Database::Open(path_);
    ASSERT_FALSE(opened.ok()) << what << ": corrupt file unexpectedly opened";
    EXPECT_EQ(opened.status().code(), StatusCode::kCorruption)
        << what << ": " << opened.status().ToString();
    EXPECT_FALSE(opened.status().message().empty()) << what;
  }

  std::string path_;
  std::string pristine_;
};

TEST_F(CorruptionTest, BadMagic) {
  std::string bytes = pristine_;
  bytes[0] = 'X';
  ExpectCorrupt(bytes, "bad magic");
}

TEST_F(CorruptionTest, UnsupportedVersion) {
  std::string bytes = pristine_;
  bytes[8] = 99;  // version field (see SnapshotHeader layout)
  ExpectCorrupt(bytes, "bad version");
}

TEST_F(CorruptionTest, FlippedHeaderByte) {
  std::string bytes = pristine_;
  bytes[20] ^= 0xFF;  // Inside file_size: caught by the header CRC.
  ExpectCorrupt(bytes, "flipped header byte");
}

TEST_F(CorruptionTest, FlippedDirectoryByte) {
  std::string bytes = pristine_;
  bytes[sizeof(storage::SnapshotHeader) + 9] ^= 0x40;
  ExpectCorrupt(bytes, "flipped directory byte");
}

TEST_F(CorruptionTest, FlippedByteInEachSection) {
  storage::SnapshotHeader header;
  std::memcpy(&header, pristine_.data(), sizeof(header));
  for (uint32_t i = 0; i < header.section_count; ++i) {
    storage::SectionEntry entry;
    std::memcpy(&entry,
                pristine_.data() + sizeof(header) + i * sizeof(storage::SectionEntry),
                sizeof(entry));
    ASSERT_GT(entry.length, 0u) << "section " << entry.id;
    std::string bytes = pristine_;
    bytes[entry.offset + entry.length / 2] ^= 0x01;
    ExpectCorrupt(bytes, "flipped byte in section " + std::to_string(entry.id));
  }
}

TEST_F(CorruptionTest, TruncatedAtManyLengths) {
  // Mid-header, mid-directory, mid-section, one byte short: every
  // truncation must fail structurally (header CRC, size check, bounds).
  for (std::size_t keep :
       {std::size_t{10}, sizeof(storage::SnapshotHeader) + 8, pristine_.size() / 2,
        pristine_.size() - 1}) {
    ExpectCorrupt(pristine_.substr(0, keep),
                  "truncated to " + std::to_string(keep) + " bytes");
  }
}

TEST_F(CorruptionTest, AppendedGarbage) {
  ExpectCorrupt(pristine_ + "garbage-after-the-snapshot", "appended garbage");
}

TEST_F(CorruptionTest, OutOfRangeDataIdWithRecomputedChecksums) {
  // Semantic corruption with internally consistent CRCs: an SPO entry
  // referencing a DataId past the dictionary must still be rejected
  // (otherwise it aborts later inside Dictionary::Decode — a crash, not
  // a structured error).
  std::string bytes = pristine_;
  storage::SnapshotHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  char* directory = bytes.data() + sizeof(header);
  const uint64_t directory_bytes = header.section_count * sizeof(storage::SectionEntry);
  for (uint32_t i = 0; i < header.section_count; ++i) {
    storage::SectionEntry entry;
    std::memcpy(&entry, directory + i * sizeof(entry), sizeof(entry));
    if (entry.id != storage::kSectionSpo) continue;
    uint32_t huge = 0x7FFFFFFEu;
    std::memcpy(bytes.data() + entry.offset, &huge, sizeof(huge));
    entry.crc = storage::Crc32(bytes.data() + entry.offset, entry.length);
    std::memcpy(directory + i * sizeof(entry), &entry, sizeof(entry));
  }
  header.directory_crc = storage::Crc32(directory, directory_bytes);
  header.header_crc = 0;
  header.header_crc = storage::Crc32(&header, sizeof(header));
  std::memcpy(bytes.data(), &header, sizeof(header));
  ExpectCorrupt(bytes, "out-of-range DataId");
}

// ---------------------------------------------------------------------
// Write-ahead log
// ---------------------------------------------------------------------

OpenOptions WalOptions(bool create_if_missing = true) {
  OpenOptions options;
  options.durability = Durability::kWal;
  options.create_if_missing = create_if_missing;
  return options;
}

TEST(WalTest, CreateIfMissingStartsEmptyAndRecovers) {
  std::string path = FreshPath("fresh.snap");
  {
    Database db = MustOpen(path, WalOptions());
    EXPECT_TRUE(db.empty());
    EXPECT_TRUE(db.AddTriple("a", "p", "b"));
    EXPECT_TRUE(db.AddTriple("b", "p", "c"));
    EXPECT_TRUE(db.RemoveTriple("a", "p", "b"));
    // Dropped without Checkpoint: the log is the only durable copy.
  }
  Result<Database> recovered = Database::Open(path, WalOptions());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->size(), 1u);
  EXPECT_TRUE(recovered->Contains(Triple(recovered->pool().InternIri("b"),
                                         recovered->pool().InternIri("p"),
                                         recovered->pool().InternIri("c"))));
  EXPECT_FALSE(recovered->Contains(Triple(recovered->pool().InternIri("a"),
                                          recovered->pool().InternIri("p"),
                                          recovered->pool().InternIri("b"))));
}

TEST(WalTest, ReplayMatchesDirectMutationBothBackends) {
  std::string path = FreshPath("equiv.snap");
  Database direct;

  // Interleaved add/remove stream applied to a WAL database (with a
  // kill-and-reopen in the middle) and to a plain in-memory database.
  Rng rng(0xAB);
  std::vector<std::pair<bool, Triple>> stream;
  {
    Database wal_db = MustOpen(path, WalOptions());
    for (int i = 0; i < 300; ++i) {
      std::string s = "n" + std::to_string(rng.NextBounded(24));
      std::string p = "p" + std::to_string(rng.NextBounded(3));
      std::string o = "n" + std::to_string(rng.NextBounded(24));
      if (rng.NextBounded(4) == 0) {
        EXPECT_EQ(wal_db.RemoveTriple(s, p, o), direct.RemoveTriple(s, p, o));
      } else {
        EXPECT_EQ(wal_db.AddTriple(s, p, o), direct.AddTriple(s, p, o));
      }
      if (i == 150) {
        // Kill and reopen mid-stream: replay must reconstruct exactly.
        // The old handle must drop first — its flock (correctly) blocks
        // a second writer on the same log.
        wal_db = Database();
        wal_db = MustOpen(path, WalOptions());
      }
    }
    EXPECT_EQ(wal_db.size(), direct.size());
    ExpectSameAnswers(direct, wal_db);
  }
  Database final_reopen = MustOpen(path, WalOptions());
  EXPECT_EQ(final_reopen.size(), direct.size());
  ExpectSameAnswers(direct, final_reopen);
}

TEST(WalTest, TornTailDiscardedEarlierFramesIntact) {
  std::string path = FreshPath("torn.snap");
  {
    Database db = MustOpen(path, WalOptions());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(db.AddTriple("s" + std::to_string(i), "p", "o"));
    }
  }
  // Tear the final frame: chop three bytes off the log, as a crash
  // mid-append would.
  std::string wal_path = path + ".wal";
  std::string log = ReadFile(wal_path);
  WriteFile(wal_path, log.substr(0, log.size() - 3));

  Database recovered = MustOpen(path, WalOptions());
  EXPECT_EQ(recovered.size(), 7u);  // s7 torn away, s0..s6 intact.
  for (int i = 0; i < 7; ++i) {
    EXPECT_TRUE(recovered.Contains(
        Triple(recovered.pool().InternIri("s" + std::to_string(i)),
               recovered.pool().InternIri("p"), recovered.pool().InternIri("o"))));
  }
  // The torn tail was truncated on open, so appends go to a clean log:
  // another kill-and-reopen still sees 7 + the new one. (The first
  // handle must drop before the next writer — the WAL is flock'd.)
  ASSERT_TRUE(recovered.AddTriple("s-after-tear", "p", "o"));
  recovered = Database();
  Database again = MustOpen(path, WalOptions());
  EXPECT_EQ(again.size(), 8u);
}

TEST(WalTest, GarbageTailDiscarded) {
  std::string path = FreshPath("garbagetail.snap");
  {
    Database db = MustOpen(path, WalOptions());
    ASSERT_TRUE(db.AddTriple("a", "p", "b"));
  }
  std::string wal_path = path + ".wal";
  WriteFile(wal_path, ReadFile(wal_path) + std::string(64, '\xEE'));
  Database recovered = MustOpen(path, WalOptions());
  EXPECT_EQ(recovered.size(), 1u);
}

TEST(WalTest, SecondWriterOnSameLogIsRefused) {
  std::string path = FreshPath("locked.snap");
  Database first = MustOpen(path, WalOptions());
  ASSERT_TRUE(first.AddTriple("a", "p", "b"));
  Result<Database> second = Database::Open(path, WalOptions());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
  // Dropping the first writer releases the lock.
  first = Database();
  Database reopened = MustOpen(path, WalOptions());
  EXPECT_EQ(reopened.size(), 1u);
}

TEST(WalTest, SubHeaderLogReinitialisesAsFresh) {
  // A crash between WAL creation and header durability leaves a file
  // shorter than the header. No frame can have been acknowledged
  // against it, so it must reinitialise instead of bricking Open.
  std::string path = FreshPath("shortwal.snap");
  {
    Database db = MustOpen(path, WalOptions());
    ASSERT_TRUE(db.AddTriple("a", "p", "b"));
  }
  WriteFile(path + ".wal", std::string("WDSQ"));  // 4 of 16 header bytes.
  Database recovered = MustOpen(path, WalOptions());
  EXPECT_EQ(recovered.size(), 0u);  // The torn log held no records.
  EXPECT_TRUE(recovered.AddTriple("c", "p", "d"));
  recovered = Database();  // Release the flock before the next writer.
  Database again = MustOpen(path, WalOptions());
  EXPECT_EQ(again.size(), 1u);
}

TEST(WalTest, DamagedHeaderIsCorruption) {
  std::string path = FreshPath("badwal.snap");
  {
    Database db = MustOpen(path, WalOptions());
    ASSERT_TRUE(db.AddTriple("a", "p", "b"));
  }
  std::string wal_path = path + ".wal";
  std::string log = ReadFile(wal_path);
  log[0] = 'X';
  WriteFile(wal_path, log);
  Result<Database> opened = Database::Open(path, WalOptions());
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
}

TEST(WalTest, CheckpointFoldsLogIntoSnapshot) {
  std::string path = FreshPath("checkpoint.snap");
  {
    Database db = MustOpen(path, WalOptions());
    FillRandom(&db, 90, 51);
    ASSERT_GT(ReadFile(path + ".wal").size(), sizeof(storage::WalHeader));
    ASSERT_TRUE(db.Checkpoint().ok());
    // The snapshot now carries everything; the log is back to a bare
    // header.
    EXPECT_EQ(ReadFile(path + ".wal").size(), sizeof(storage::WalHeader));
    ASSERT_TRUE(db.AddTriple("post", "p0", "checkpoint"));
  }
  // Snapshot + the one post-checkpoint frame replay to the full state.
  Database recovered = MustOpen(path, WalOptions());
  EXPECT_TRUE(recovered.Contains(Triple(recovered.pool().InternIri("post"),
                                        recovered.pool().InternIri("p0"),
                                        recovered.pool().InternIri("checkpoint"))));
  // A read-only open (no WAL) sees exactly the checkpointed prefix.
  Database snapshot_only = MustOpen(path);
  EXPECT_EQ(snapshot_only.size() + 1, recovered.size());
}

TEST(WalTest, CheckpointRequiresOpenedDatabase) {
  Database db;
  db.AddTriple("a", "p", "b");
  Status status = db.Checkpoint();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(WalTest, MissingSnapshotWithoutCreateIsNotFound) {
  Result<Database> opened =
      Database::Open(FreshPath("nocreate.snap"), WalOptions(/*create_if_missing=*/false));
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------
// Storage-layer plumbing
// ---------------------------------------------------------------------

TEST(StoragePlumbingTest, HealthyDatabaseReportsOkStorageStatus) {
  std::string path = FreshPath("healthy.snap");
  Database db = MustOpen(path, WalOptions());
  EXPECT_TRUE(db.storage_status().ok());
  EXPECT_TRUE(db.AddTriple("a", "p", "b"));
  EXPECT_TRUE(db.storage_status().ok());
}

TEST(StoragePlumbingTest, WriteAheadLogRecordBytesTrackAppends) {
  std::string path = FreshPath("bytes.wal");
  std::remove(path.c_str());
  std::vector<storage::WalRecord> replayed;
  Result<storage::WriteAheadLog> wal =
      storage::WriteAheadLog::Open(path, WalSyncMode::kNone, &replayed);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(wal.value().record_bytes(), 0u);
  storage::WalRecord record;
  record.type = storage::WalRecordType::kAddTriple;
  record.subject = "s";
  record.predicate = "p";
  record.object = "o";
  storage::WriteAheadLog live = std::move(wal).value();
  ASSERT_TRUE(live.Append(record).ok());
  EXPECT_GT(live.record_bytes(), 0u);
  ASSERT_TRUE(live.Truncate().ok());
  EXPECT_EQ(live.record_bytes(), 0u);
}

}  // namespace
}  // namespace wdsparql
