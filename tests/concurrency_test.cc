#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include "engine/api_internal.h"
#include "support/testlib.h"
#include "util/rng.h"
#include "wdsparql/wdsparql.h"

/// \file
/// Tests of the single-writer / many-readers contract (docs/CONCURRENCY.md):
/// reader threads running prepared statements and cursors over pinned
/// `ReadView`s while one writer mutates, merges and compacts. The suite
/// is meant to run under ThreadSanitizer (the CI `tsan` job does) as
/// well as plain: assertions are differential — concurrent results must
/// equal some single-threaded snapshot's results — rather than timing
/// based.

namespace wdsparql {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "wdsparql_concurrency_" + name;
}

std::string FreshPath(const std::string& name) {
  std::string path = TempPath(name);
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  return path;
}

/// Sorted rendered solutions of `stmt` via a cursor — one consistent
/// snapshot's answers, comparable across executions.
std::vector<std::string> SortedRows(const Database& db, const Statement& stmt) {
  std::vector<std::string> out;
  Cursor cursor = stmt.Execute();
  while (cursor.Next()) out.push_back(cursor.Row().ToString(db.pool()));
  EXPECT_EQ(cursor.state(), Cursor::State::kExhausted);
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------
// Pinned views vs a live writer
// ---------------------------------------------------------------------

TEST(PinnedViewTest, OpenCursorSurvivesHeavyMutationAndDeliversItsSnapshot) {
  DatabaseOptions options;
  options.merge_threshold = 8;  // Merge churn while the cursor is live.
  Database db(options);
  for (int i = 0; i < 64; ++i) {
    db.AddTriple("a" + std::to_string(i), "knows", "b" + std::to_string(i));
  }
  Statement stmt = db.OpenSession().Prepare("(?x knows ?y)");
  ASSERT_TRUE(stmt.ok());

  std::vector<std::string> expected = SortedRows(db, stmt);
  ASSERT_EQ(expected.size(), 64u);

  Cursor cursor = stmt.Execute();
  ASSERT_TRUE(cursor.Next());
  std::vector<std::string> got = {cursor.Row().ToString(db.pool())};

  // Mutate everything underneath the open cursor: new rows, removal of
  // rows it has not reached, merges, a compaction, even a removal of a
  // row it already delivered.
  const Counter& compactions = db.metrics().counter("store.compactions");
  const uint64_t compactions_before = compactions.value();
  for (int i = 0; i < 64; ++i) {
    db.AddTriple("c" + std::to_string(i), "knows", "d" + std::to_string(i));
  }
  EXPECT_GE(compactions.value(), compactions_before + 1);  // Merged mid-cursor.
  for (int i = 0; i < 64; i += 2) {
    db.RemoveTriple("a" + std::to_string(i), "knows", "b" + std::to_string(i));
  }
  db.Compact();

  while (cursor.Next()) got.push_back(cursor.Row().ToString(db.pool()));
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);  // Exactly the pinned snapshot.
  EXPECT_EQ(cursor.state(), Cursor::State::kExhausted);

  // A fresh cursor sees the post-mutation world.
  EXPECT_EQ(stmt.Count(), 64u + 32u);
}

TEST(PinnedViewTest, ConcurrentReadersObserveMonotonicConsistentSnapshots) {
  // One writer inserts rows in a fixed order; reader threads repeatedly
  // execute the statement. Each execution pins one view, so its count
  // must be (a) a value the writer actually published and (b) monotonic
  // non-decreasing per reader — a torn delta or a lost publish would
  // break one of the two.
  constexpr int kReaders = 4;
  constexpr int kRows = 600;
  DatabaseOptions options;
  options.merge_threshold = 64;  // Plenty of merges mid-flight.
  Database db(options);
  db.AddTriple("seed", "p", "seed2");  // Non-empty: statements see the predicate.

  std::atomic<bool> done{false};
  std::atomic<uint64_t> write_failures{0};
  std::thread writer([&] {
    for (int i = 0; i < kRows; ++i) {
      if (!db.AddTriple("s" + std::to_string(i), "p", "o" + std::to_string(i))) {
        write_failures.fetch_add(1);
      }
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  std::atomic<uint64_t> reader_failures{0};
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Session session = db.OpenSession();
      Statement stmt = session.Prepare("(?x p ?y)");
      if (!stmt.ok()) {
        reader_failures.fetch_add(1);
        return;
      }
      uint64_t last = 0;
      // Keep reading until the writer finished, then one final pass.
      bool final_pass = false;
      while (true) {
        if (done.load()) final_pass = true;
        uint64_t count = 0;
        Cursor cursor = stmt.Execute();
        while (cursor.Next()) ++count;
        if (cursor.state() != Cursor::State::kExhausted) {
          reader_failures.fetch_add(1);
          return;
        }
        if (count < last) {  // Snapshots must never go backwards.
          reader_failures.fetch_add(1);
          return;
        }
        last = count;
        (void)r;
        if (final_pass) break;
      }
      if (last != kRows + 1) reader_failures.fetch_add(1);
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(write_failures.load(), 0u);
  EXPECT_EQ(reader_failures.load(), 0u);
  EXPECT_EQ(db.size(), static_cast<std::size_t>(kRows) + 1);
  EXPECT_GE(db.metrics().counter("store.compactions").value(), 1u);
}

TEST(PinnedViewTest, ReadersMidCursorWhileWriterRemovesAndCompacts) {
  // Readers hold cursors *open* (pull a few rows, yield, pull more)
  // while the writer removes rows and compacts: every cursor must still
  // deliver exactly the snapshot it pinned.
  DatabaseOptions options;
  options.merge_threshold = 32;
  Database db(options);
  constexpr int kRows = 400;
  for (int i = 0; i < kRows; ++i) {
    db.AddTriple("s" + std::to_string(i), "p", "o" + std::to_string(i));
  }

  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      Session session = db.OpenSession();
      Statement stmt = session.Prepare("(?x p ?y)");
      for (int round = 0; round < 8; ++round) {
        Cursor cursor = stmt.Execute();
        uint64_t count = 0;
        while (cursor.Next()) {
          ++count;
          if (count % 64 == 0) std::this_thread::yield();
        }
        uint64_t pinned_size = count;
        // Any published size is legal; what is illegal is a torn count
        // larger than everything ever inserted or an enumerator crash.
        if (cursor.state() != Cursor::State::kExhausted ||
            pinned_size > kRows) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  std::thread writer([&] {
    for (int i = 0; i < kRows; i += 2) {
      db.RemoveTriple("s" + std::to_string(i), "p", "o" + std::to_string(i));
      if (i % 64 == 0) db.Compact();
    }
    db.Compact();
  });
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(db.size(), static_cast<std::size_t>(kRows) / 2);
}

// ---------------------------------------------------------------------
// Differential: concurrent execution equals single-threaded execution
// ---------------------------------------------------------------------

TEST(ConcurrentDifferentialTest, ManyThreadsMatchSingleThreadedAnswers) {
  // A static database: every concurrent execution (indexed backend,
  // many threads at once, including OPT patterns and projections) must
  // produce byte-identical answers to the single-threaded run.
  Rng rng(77);
  TermPool pool;
  Database db(&pool);
  {
    RdfGraph staged(&pool);
    testlib::SmallWorkloadGraph(&rng, 24, 400, 3, &staged);
    for (const Triple& t : staged.triples()) db.AddTriple(t);
  }
  const std::vector<std::string> patterns = {
      "(?x p0 ?y)",
      "(?x p0 ?y) AND (?y p1 ?z)",
      "(?x p0 ?y) OPT (?y p1 ?z)",
      "((?x p0 ?y) OPT (?y p1 ?z)) OPT (?x p2 ?w)",
  };
  Session session = db.OpenSession();
  std::vector<std::vector<std::string>> expected;
  for (const std::string& p : patterns) {
    Statement stmt = session.Prepare(p);
    ASSERT_TRUE(stmt.ok()) << stmt.diagnostics().ToString();
    expected.push_back(SortedRows(db, stmt));
  }

  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      // Every thread prepares its own statements (exercising concurrent
      // interning in the shared pool) and runs each pattern twice.
      Session s = db.OpenSession();
      for (int round = 0; round < 2; ++round) {
        for (std::size_t i = 0; i < patterns.size(); ++i) {
          Statement stmt = s.Prepare(patterns[(i + t) % patterns.size()]);
          if (!stmt.ok()) {
            mismatches.fetch_add(1);
            continue;
          }
          std::vector<std::string> got = SortedRows(db, stmt);
          if (got != expected[(i + t) % patterns.size()]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(ConcurrentDifferentialTest, ReadersUnderWriterMatchSomePublishedSnapshot) {
  // With a writer interleaved, each execution's answer set must equal
  // the single-threaded answers at *some* prefix of the write sequence:
  // the writer only ever appends rows of a recognisable shape, so a
  // consistent snapshot is exactly "the first k rows" for some k.
  Database db;
  db.AddTriple("s0", "p", "o0");
  std::atomic<bool> done{false};
  constexpr int kRows = 300;
  std::thread writer([&] {
    for (int i = 1; i < kRows; ++i) {
      db.AddTriple("s" + std::to_string(i), "p", "o" + std::to_string(i));
    }
    done.store(true);
  });
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      Session session = db.OpenSession();
      Statement stmt = session.Prepare("(?x p ?y)");
      if (!stmt.ok()) {
        failures.fetch_add(1);
        return;
      }
      while (!done.load()) {
        Cursor cursor = stmt.Execute();
        std::vector<std::string> rows;
        while (cursor.Next()) rows.push_back(cursor.Value(0));
        // A consistent prefix snapshot contains s0..s(k-1) exactly.
        std::sort(rows.begin(), rows.end());
        std::vector<std::string> prefix;
        for (std::size_t i = 0; i < rows.size(); ++i) {
          prefix.push_back("s" + std::to_string(i));
        }
        std::sort(prefix.begin(), prefix.end());
        if (rows != prefix) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0u);
}

// ---------------------------------------------------------------------
// Shared pool: concurrent Prepare + Value while the writer interns
// ---------------------------------------------------------------------

TEST(TermPoolConcurrencyTest, SpellingReadsRaceInterningSafely) {
  // The writer interns thousands of fresh spellings (forcing the
  // spelling table to grow chunk directories) while readers prepare
  // statements (interning query variables) and render row values.
  Database db;
  for (int i = 0; i < 100; ++i) {
    db.AddTriple("base" + std::to_string(i), "p", "base" + std::to_string(i + 1));
  }
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < 4000; ++i) {
      db.AddTriple("fresh-subject-" + std::to_string(i), "p",
                   "fresh-object-with-a-longer-spelling-" + std::to_string(i));
    }
    done.store(true);
  });
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      int round = 0;
      while (!done.load() || round == 0) {
        ++round;
        Session session = db.OpenSession();
        // Fresh variable names per round: concurrent interning.
        std::string var = "v" + std::to_string(r) + "_" + std::to_string(round);
        Statement stmt = session.Prepare("(?" + var + " p ?w" + var + ")");
        if (!stmt.ok()) {
          failures.fetch_add(1);
          return;
        }
        Cursor cursor = stmt.Execute();
        uint64_t rows = 0;
        while (cursor.Next() && rows < 50) {
          // Value() resolves spellings lock-free against the growing pool.
          if (cursor.Value(0).empty() || cursor.Value(1).empty()) {
            failures.fetch_add(1);
            return;
          }
          ++rows;
        }
        cursor.Close();
        if (cursor.state() != Cursor::State::kClosed &&
            cursor.state() != Cursor::State::kExhausted) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0u);
}

// ---------------------------------------------------------------------
// Membership + health polling under mutation
// ---------------------------------------------------------------------

TEST(ConcurrencyMiscTest, ContainsAndStatusPollsRaceTheWriter) {
  Database db;
  for (int i = 0; i < 200; ++i) {
    db.AddTriple("s" + std::to_string(i), "p", "o" + std::to_string(i));
  }
  TermId p = db.pool().InternIri("p");
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 200; i < 1200; ++i) {
      db.AddTriple("s" + std::to_string(i), "p", "o" + std::to_string(i));
    }
    done.store(true);
  });
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> pollers;
  for (int r = 0; r < 3; ++r) {
    pollers.emplace_back([&] {
      TermId s0 = db.pool().InternIri("s0");
      TermId o0 = db.pool().InternIri("o0");
      while (!done.load()) {
        if (!db.Contains(Triple(s0, p, o0))) failures.fetch_add(1);
        if (!db.storage_status().ok()) failures.fetch_add(1);
        if (db.size() < 200) failures.fetch_add(1);
        (void)db.pending_delta();
        (void)db.generation();
      }
    });
  }
  writer.join();
  for (std::thread& t : pollers) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(db.size(), 1200u);
}

// ---------------------------------------------------------------------
// Snapshot open: naive readers on borrowed runs, pinned mapping release
// ---------------------------------------------------------------------

TEST(SnapshotConcurrencyTest, NaiveReadersOnBorrowedViewsRaceAWriter) {
  std::string path = FreshPath("naive_borrowed.snap");
  {
    Database db;
    for (int i = 0; i < 300; ++i) {
      db.AddTriple("n" + std::to_string(i), "p0", "n" + std::to_string(i + 1));
    }
    ASSERT_TRUE(db.Save(path).ok());
  }
  Result<Database> reopened = Database::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  Database db = std::move(reopened).value();
  ASSERT_TRUE(DatabaseImpl::Get(db).store.borrows_snapshot());

  // The naive oracle reads the same pinned views as the indexed engine
  // (here: runs borrowed straight out of the mapping), so it is safe
  // alongside a writer: every execution counts exactly the state it
  // pinned.
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 6; ++r) {
    readers.emplace_back([&] {
      SessionOptions naive;
      naive.backend = Backend::kNaiveHash;
      Statement stmt = db.OpenSession(naive).Prepare("(?x p0 ?y)");
      if (!stmt.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int round = 0; round < 4; ++round) {
        Snapshot snap = db.GetSnapshot();
        Cursor cursor = stmt.Execute(snap);
        uint64_t rows = 0;
        while (cursor.Next()) ++rows;
        if (rows != snap.size() || rows < 300u) failures.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < 100; ++i) {
    db.AddTriple("w" + std::to_string(i), "p0", "w" + std::to_string(i + 1));
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0u);
  SessionOptions naive;
  naive.backend = Backend::kNaiveHash;
  EXPECT_EQ(db.OpenSession(naive).Prepare("(?x p0 ?y)").Count(), 400u);
}

TEST(SnapshotConcurrencyTest, PinnedViewKeepsMappedSnapshotAliveAcrossMerge) {
  std::string path = FreshPath("pinned_mapping.snap");
  {
    Database db;
    for (int i = 0; i < 200; ++i) {
      db.AddTriple("m" + std::to_string(i), "p0", "m" + std::to_string(i + 1));
    }
    ASSERT_TRUE(db.Save(path).ok());
  }
  OpenOptions open_options;
  open_options.merge_threshold = 4;
  Result<Database> reopened = Database::Open(path, open_options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  Database db = std::move(reopened).value();
  ASSERT_TRUE(DatabaseImpl::Get(db).store.borrows_snapshot());

  // Pin a cursor into the mapped base runs, then force a merge that
  // migrates the store to owned storage. The cursor's view must keep the
  // mapping alive and valid until it is released. Single adds build
  // deltas of 1, 2, ..., 20, whose sum (210) is the first to reach the
  // copy budget of base + threshold = 204.
  Statement stmt = db.OpenSession().Prepare("(?x p0 ?y)");
  ASSERT_TRUE(stmt.ok());
  Cursor cursor = stmt.Execute();
  ASSERT_TRUE(cursor.Next());
  for (int i = 0; i < 20; ++i) {
    db.AddTriple("extra" + std::to_string(i), "p0", "extra" + std::to_string(i + 1));
  }
  EXPECT_GE(db.metrics().counter("store.compactions").value(), 1u);
  EXPECT_FALSE(DatabaseImpl::Get(db).store.borrows_snapshot());  // Store migrated.
  uint64_t rows = 1;
  while (cursor.Next()) ++rows;
  EXPECT_EQ(rows, 200u);  // Full pre-mutation snapshot, read off the mapping.
  EXPECT_EQ(cursor.state(), Cursor::State::kExhausted);
  EXPECT_EQ(stmt.Count(), 220u);
}

}  // namespace
}  // namespace wdsparql
