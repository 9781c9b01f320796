/// \file
/// wdsparql query tool: evaluate a well-designed pattern over an RDF
/// graph file from the command line, through the public
/// Database/Session/Cursor API.
///
///   query_tool <graph.nt> '<pattern>' [--plan] [--count] [--promise K]
///              [--backend naive|indexed] [--select ?x,?y] [--table]
///              [--save <snapshot>] [--batch-size N] [--stats] [--metrics]
///              [--limit N] [--deadline-ms N] [--cancel-after-ms N]
///              [--parallelism N]
///   query_tool --db <snapshot> '<pattern>' [same flags] [--wal]
///
///   <graph.nt>   N-Triples-like file (see rdf/ntriples.h)
///   <pattern>    e.g. '(?x knows ?y) OPT (?y email ?e)'
///   --db         open a single-file snapshot (Database::Open — mmap,
///                no re-parse) instead of parsing N-Triples
///   --wal        with --db: open with write-ahead-log durability and
///                replay the sibling <snapshot>.wal (the snapshot file
///                may not exist yet — a WAL-only database opens empty
///                and serves exactly the committed batches)
///   --batch-size without --db: stream the file in WriteBatch commits
///                of N triples instead of one atomic batch
///   --save       after loading, serialize the database to a snapshot
///                (parse once with --save, then query many times with
///                --db)
///   --plan       print wdpf(P) (the pattern forest) and the width report
///   --explain-plan
///                execute once with statistics collection, suppress the
///                rows, and print the EXPLAIN tree — including, per wdpf
///                subtree, the cost-based optimizer's chosen variable
///                order / scan permutations and estimated vs actual
///                cardinalities (indexed backend; needs compacted or
///                snapshot-loaded statistics)
///   --no-optimize
///                disable the cost-based planner for this execution
///                (ExecOptions::optimize = false): the historic
///                most-constrained-first heuristic order runs instead
///   --count      print |JPKG| only
///   --promise K  verify every answer with PebbleWdEval at promise K
///   --backend    storage/execution backend (default: indexed — the
///                dictionary-encoded permutation store; naive keeps the
///                paper-faithful hash path)
///   --select     SELECT-style projection: print only the named
///                variables, duplicate rows eliminated
///   --table      render results as an aligned columnar table
///   --stats      execute with ExecStats collection and print the
///                EXPLAIN-style tree (wdsparql/stats.h) to stderr after
///                the results (ignored with --table, whose execution
///                path does not take ExecOptions)
///   --metrics    print the engine's MetricsRegistry as one line of
///                JSON on stdout, last, on every successful exit — pipe
///                `... --metrics | tail -n 1 | python3 -m json.tool`
///                for a pretty-printed dump
///   --limit N    stop enumeration after N rows (ExecOptions::row_limit;
///                the tool reports whether the answer set was truncated)
///   --deadline-ms N
///                give the execution a hard deadline of N milliseconds
///   --cancel-after-ms N
///                fire the execution's CancelToken from a second thread
///                after N milliseconds — a command-line demonstration of
///                cooperative cross-thread cancellation
///   --parallelism N
///                enumerate with N worker threads over one pinned view
///                (ExecOptions::parallelism; indexed backend only). The
///                answer set matches a serial run; row order does not.
///
/// Top-level FILTER conditions are peeled by Session::Prepare and
/// post-applied over the enumerated bindings, so FILTER queries honour
/// the configured backend. Patterns the engine cannot run (not well
/// designed, FILTER below AND/OPT) fall back to the compositional set
/// semantics with a note.
///
/// Exit status: 0 on success, 1 on user error, 2 on internal disagreement
/// (which would indicate a library bug).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "engine/api_internal.h"
#include "rdf/graph.h"
#include "sparql/parser.h"
#include "sparql/semantics.h"
#include "wd/branch_width.h"
#include "wd/domination.h"
#include "wd/eval.h"
#include "wd/local_tractability.h"
#include "wdsparql/wdsparql.h"

using namespace wdsparql;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: query_tool <graph.nt> '<pattern>' [--plan] [--count] "
               "[--promise K] [--backend naive|indexed] [--select ?x,?y] "
               "[--table] [--save <snapshot>] [--batch-size N] [--stats] "
               "[--explain-plan] [--no-optimize] [--metrics] [--limit N] "
               "[--deadline-ms N] [--cancel-after-ms N] [--parallelism N]\n"
               "       query_tool --db <snapshot> '<pattern>' [same flags] "
               "[--wal]\n");
  return 1;
}

std::vector<std::string> SplitSelect(const char* arg) {
  std::vector<std::string> out;
  std::string current;
  for (const char* p = arg; *p != '\0'; ++p) {
    if (*p == ',') {
      if (!current.empty()) out.push_back(current);
      current.clear();
    } else if (*p != ' ') {
      current += *p;
    }
  }
  if (!current.empty()) out.push_back(current);
  return out;
}

void PrintPlan(const StatementImpl& stmt, TermPool* pool) {
  const PatternForest& forest = stmt.forest;
  std::printf("wdpf(P): %zu tree(s)\n", forest.trees.size());
  for (std::size_t i = 0; i < forest.trees.size(); ++i) {
    std::printf("--- tree %zu\n%s", i, forest.trees[i].ToString(*pool).c_str());
  }
  if (stmt.diagnostics.post_filters > 0) {
    std::printf("post-filters: %zu top-level FILTER condition(s)\n",
                stmt.diagnostics.post_filters);
  }
  std::printf("local width: %d\n", LocalWidth(forest));
  if (forest.trees.size() == 1) {
    std::printf("branch treewidth: %d\n", BranchTreewidth(forest.trees[0]));
  }
  DominationOptions budget;
  budget.max_subtrees = 1u << 12;
  budget.max_assignments_per_subtree = 1u << 12;
  Result<int> dw = DominationWidth(forest, pool, budget);
  if (dw.ok()) {
    std::printf("domination width: %d (promise k for PebbleWdEval)\n", dw.value());
  } else {
    std::printf("domination width: %s\n", dw.status().ToString().c_str());
  }
}

/// The database's content as a plain graph, for the paper's oracles
/// (set semantics, PebbleWdEval), which take one directly.
RdfGraph GraphOf(const Database& db) {
  RdfGraph graph(&db.pool());
  db.store().ScanPattern(Triple(kAnyTerm, kAnyTerm, kAnyTerm), [&graph](const Triple& t) {
    graph.Insert(t);
    return true;
  });
  return graph;
}

}  // namespace

int main(int argc, char** argv) {
  bool show_plan = false;
  bool count_only = false;
  bool as_table = false;
  bool open_wal = false;
  bool show_stats = false;
  bool explain_plan = false;
  bool no_optimize = false;
  bool show_metrics = false;
  int promise = 0;
  long limit = 0;
  long deadline_ms = 0;
  long cancel_after_ms = 0;
  long parallelism = 0;
  std::size_t batch_size = 0;  // 0 = one atomic batch.
  const char* db_path = nullptr;
  const char* save_path = nullptr;
  std::vector<const char*> positional;
  std::vector<std::string> projection;
  SessionOptions options;
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] != '-') {
      positional.push_back(argv[i]);
    } else if (std::strcmp(argv[i], "--db") == 0 && i + 1 < argc) {
      db_path = argv[++i];
    } else if (std::strcmp(argv[i], "--save") == 0 && i + 1 < argc) {
      save_path = argv[++i];
    } else if (std::strcmp(argv[i], "--wal") == 0) {
      open_wal = true;
    } else if (std::strcmp(argv[i], "--batch-size") == 0 && i + 1 < argc) {
      long parsed = std::atol(argv[++i]);
      if (parsed < 1) return Usage();
      batch_size = static_cast<std::size_t>(parsed);
    } else if (std::strcmp(argv[i], "--plan") == 0) {
      show_plan = true;
    } else if (std::strcmp(argv[i], "--count") == 0) {
      count_only = true;
    } else if (std::strcmp(argv[i], "--table") == 0) {
      as_table = true;
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      show_stats = true;
    } else if (std::strcmp(argv[i], "--explain-plan") == 0) {
      explain_plan = true;
    } else if (std::strcmp(argv[i], "--no-optimize") == 0) {
      no_optimize = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      show_metrics = true;
    } else if (std::strcmp(argv[i], "--promise") == 0 && i + 1 < argc) {
      promise = std::atoi(argv[++i]);
      if (promise < 1) return Usage();
    } else if (std::strcmp(argv[i], "--limit") == 0 && i + 1 < argc) {
      limit = std::atol(argv[++i]);
      if (limit < 1) return Usage();
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0 && i + 1 < argc) {
      deadline_ms = std::atol(argv[++i]);
      if (deadline_ms < 1) return Usage();
    } else if (std::strcmp(argv[i], "--cancel-after-ms") == 0 && i + 1 < argc) {
      cancel_after_ms = std::atol(argv[++i]);
      if (cancel_after_ms < 1) return Usage();
    } else if (std::strcmp(argv[i], "--parallelism") == 0 && i + 1 < argc) {
      parallelism = std::atol(argv[++i]);
      if (parallelism < 1) return Usage();
    } else if (std::strcmp(argv[i], "--select") == 0 && i + 1 < argc) {
      projection = SplitSelect(argv[++i]);
      if (projection.empty()) return Usage();
    } else if (std::strcmp(argv[i], "--backend") == 0 && i + 1 < argc) {
      const char* name = argv[++i];
      if (std::strcmp(name, "naive") == 0) {
        options.backend = Backend::kNaiveHash;
      } else if (std::strcmp(name, "indexed") == 0) {
        options.backend = Backend::kIndexed;
      } else {
        return Usage();
      }
    } else {
      return Usage();
    }
  }
  // With --db the one positional argument is the pattern; otherwise the
  // classic <graph.nt> '<pattern>' pair.
  if (positional.size() != (db_path != nullptr ? 1u : 2u)) return Usage();
  const char* pattern_text = positional.back();

  Database db;
  if (db_path != nullptr) {
    OpenOptions open_options;
    if (open_wal) {
      open_options.durability = Durability::kWal;
      open_options.create_if_missing = true;
    }
    Result<Database> opened = Database::Open(db_path, open_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "error opening %s: %s\n", db_path,
                   opened.status().ToString().c_str());
      return 1;
    }
    db = std::move(opened).value();
  } else {
    const char* graph_path = positional[0];
    Status load = db.LoadNTriplesFile(graph_path, batch_size);
    if (!load.ok()) {
      std::fprintf(stderr, "error loading %s: %s\n", graph_path,
                   load.ToString().c_str());
      return 1;
    }
  }
  if (save_path != nullptr) {
    Status saved = db.Save(save_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "error saving %s: %s\n", save_path,
                   saved.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "saved %zu triple(s) to %s\n", db.size(), save_path);
  }
  TermPool& pool = db.pool();

  // The registry dump is the tool's last stdout line on every successful
  // exit, one line of JSON (see --metrics above).
  auto dump_metrics = [&db, show_metrics]() {
    if (show_metrics) {
      std::printf("%s\n", db.DumpMetrics(MetricsFormat::kJson).c_str());
    }
  };
  ExecOptions exec;
  exec.collect_stats = show_stats || explain_plan;
  exec.optimize = !no_optimize;
  if (limit > 0) exec.row_limit = static_cast<uint64_t>(limit);
  if (parallelism > 0) exec.parallelism = static_cast<uint32_t>(parallelism);
  if (deadline_ms > 0) exec.WithTimeout(std::chrono::milliseconds(deadline_ms));
  if (cancel_after_ms > 0) {
    // Cross-thread cancellation, demonstrated for real: the token is
    // fired from a detached second thread while the main thread
    // enumerates (the token is shared, so the thread may outlive the
    // enumeration safely).
    exec.cancel = MakeCancelToken();
    CancelToken token = exec.cancel;
    std::thread([token, cancel_after_ms] {
      std::this_thread::sleep_for(std::chrono::milliseconds(cancel_after_ms));
      token->store(true, std::memory_order_relaxed);
    }).detach();
  }
  // A bounded execution may end early; say how it ended so truncated
  // output is never mistaken for the full answer set.
  auto report_outcome = [](const Cursor& cursor) {
    if (cursor.state() == Cursor::State::kLimited) {
      std::fprintf(stderr, "note: row limit reached; answer set truncated\n");
    } else if (cursor.state() == Cursor::State::kCancelled) {
      std::fprintf(stderr, "note: %s\n",
                   cursor.diagnostics().message.c_str());
    }
  };

  if (explain_plan && options.backend == Backend::kIndexed) {
    // Cardinality statistics are gathered at delta merge; an in-memory
    // load below the merge threshold has none yet. One Compact makes the
    // EXPLAIN show real plans instead of "no statistics".
    db.Compact();
  }

  Session session = db.OpenSession(options);
  Statement stmt = session.Prepare(pattern_text);

  if (!stmt.ok()) {
    const QueryDiagnostics& diag = stmt.diagnostics();
    if (diag.code == QueryDiagnostics::Code::kParseError) {
      std::fprintf(stderr, "parse error: %s\n", diag.message.c_str());
      return 1;
    }
    // Patterns outside the engine's pipeline (not well designed, or
    // FILTER below AND/OPT, which the wdpf translation does not cover)
    // are still valid queries: evaluate them with the compositional set
    // semantics only, as before the engine existed.
    std::fprintf(stderr, "note: %s\n", diag.ToString().c_str());
    std::fprintf(stderr, "evaluating with the set semantics only.\n");
    if (show_plan) {
      std::printf("plan unavailable: %s\n\n", diag.ToString().c_str());
    }
    auto parsed = ParsePattern(pattern_text, &pool);
    if (!parsed.ok()) {
      std::fprintf(stderr, "parse error: %s\n", parsed.status().ToString().c_str());
      return 1;
    }
    std::vector<Mapping> answers = Evaluate(*parsed.value(), GraphOf(db));
    if (show_stats) {
      std::fprintf(stderr,
                   "note: --stats needs the engine pipeline; the set-semantics "
                   "fallback collects none\n");
    }
    if (count_only) {
      std::printf("%zu\n", answers.size());
      dump_metrics();
      return 0;
    }
    for (const Mapping& mu : answers) {
      std::printf("%s\n", mu.ToString(pool).c_str());
    }
    std::fprintf(stderr, "%zu answer(s), graph: %zu triple(s)\n", answers.size(),
                 db.size());
    if (promise > 0) {
      // Pebble verification needs the wdpf forest, which this pattern
      // has none of — surface that instead of silently skipping it.
      std::fprintf(stderr, "cannot verify: %s\n", diag.ToString().c_str());
      return 1;
    }
    dump_metrics();
    return 0;
  }

  if (show_plan) {
    PrintPlan(*stmt.impl(), &pool);
    std::printf("\n");
  }

  if (count_only) {
    Cursor counting = stmt.Execute(projection, exec);
    uint64_t count = 0;
    while (counting.Next()) ++count;
    if (counting.state() == Cursor::State::kFailed) {
      std::fprintf(stderr, "error: %s\n", counting.diagnostics().ToString().c_str());
      return 1;
    }
    report_outcome(counting);
    std::printf("%llu\n", static_cast<unsigned long long>(count));
    if (explain_plan && counting.stats() != nullptr) {
      std::printf("%s", counting.stats()->ToText().c_str());
    } else if (show_stats && counting.stats() != nullptr) {
      std::fprintf(stderr, "%s", counting.stats()->ToText().c_str());
    }
    dump_metrics();
    return 0;
  }

  if (as_table) {
    if (show_stats) {
      std::fprintf(stderr, "note: --stats is ignored with --table\n");
    }
    BindingTable table = stmt.ExecuteTable(projection);
    std::printf("%s", table.ToString().c_str());
    std::fprintf(stderr, "%zu row(s), graph: %zu triple(s), backend: %s\n",
                 table.NumRows(), db.size(), BackendToString(options.backend));
    dump_metrics();
    return 0;
  }

  Cursor cursor = stmt.Execute(projection, exec);
  std::vector<Mapping> answers;
  while (cursor.Next()) {
    answers.push_back(cursor.Row());
  }
  if (cursor.state() == Cursor::State::kFailed) {
    std::fprintf(stderr, "error: %s\n", cursor.diagnostics().ToString().c_str());
    return 1;
  }
  report_outcome(cursor);
  // Deterministic output: cursor arrival order is backend-dependent, so
  // the printed answer list is sorted (both backends byte-identical).
  std::sort(answers.begin(), answers.end());
  if (!explain_plan) {
    for (const Mapping& mu : answers) {
      std::printf("%s\n", mu.ToString(pool).c_str());
    }
  }
  std::fprintf(stderr, "%zu answer(s), graph: %zu triple(s), backend: %s\n",
               answers.size(), db.size(), BackendToString(options.backend));
  if (explain_plan && cursor.stats() != nullptr) {
    // The plan report IS the output in this mode: one execution served
    // both the enumeration (for actual cardinalities) and the EXPLAIN —
    // the query is never run twice.
    std::printf("%s", cursor.stats()->ToText().c_str());
  } else if (show_stats && cursor.stats() != nullptr) {
    // The cursor is exhausted, so these are the execution's final
    // numbers (scan and dictionary counters folded in at finish).
    std::fprintf(stderr, "%s", cursor.stats()->ToText().c_str());
  }

  if (promise > 0) {
    const PatternForest& forest = stmt.impl()->forest;
    if (!projection.empty()) {
      std::fprintf(stderr, "cannot verify projected rows; drop --select\n");
      return 1;
    }
    const RdfGraph graph = GraphOf(db);
    for (const Mapping& mu : answers) {
      if (!PebbleWdEval(forest, graph, mu, promise)) {
        std::fprintf(stderr,
                     "DISAGREEMENT: pebble algorithm (k=%d) rejects %s — promise "
                     "too small or library bug\n",
                     promise, mu.ToString(pool).c_str());
        return 2;
      }
    }
    std::fprintf(stderr, "all answers verified by PebbleWdEval(k=%d)\n", promise);
  }
  dump_metrics();
  return 0;
}
