#include <algorithm>
#include <fstream>
#include <unordered_set>

#include "engine/api_internal.h"
#include "storage/file.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "util/timer.h"
#include "wdsparql/database.h"

/// \file
/// Database-level persistence: `Open`, `Save`, `Checkpoint`. This is
/// the storage layer's one crossing into the engine pimpl — the
/// snapshot/WAL machinery itself (snapshot.cc, wal.cc) stays ignorant
/// of `Database`.

namespace wdsparql {
namespace {

/// Records the on-disk size of the freshly written snapshot (a gauge:
/// the current footprint, not a running total). Best-effort — a stat
/// failure just leaves the gauge where it was.
void RecordSnapshotBytes(MetricsRegistry* metrics, const std::string& path) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  if (!file) return;
  metrics->gauge("storage.snapshot_bytes").Set(static_cast<int64_t>(file.tellg()));
}

}  // namespace

Result<Database> Database::Open(const std::string& path, const OpenOptions& options) {
  DatabaseOptions db_options;
  db_options.merge_threshold = options.merge_threshold;
  db_options.trace_capacity = options.trace_capacity;
  Database db(db_options);
  DatabaseImpl* impl = &DatabaseImpl::Get(db);

  if (!storage::FileExists(path)) {
    if (options.durability != Durability::kWal || !options.create_if_missing) {
      return Status::NotFound("no snapshot at " + path);
    }
    // Starting empty: the WAL carries everything until the first
    // Checkpoint materialises the snapshot.
  } else {
    Result<storage::SnapshotView> opened = storage::SnapshotView::Open(path, options);
    if (!opened.ok()) return opened.status();
    auto view = std::make_shared<const storage::SnapshotView>(std::move(opened).value());

    // Term pool: IRI ids are intern order, so re-interning the persisted
    // heap in id order reproduces every id exactly. O(term bytes), the
    // only per-term work on the open path.
    TermPool& pool = *impl->pool;
    for (uint64_t i = 0; i < view->iri_count(); ++i) {
      TermId id = pool.InternIri(view->IriSpelling(i));
      if (id != static_cast<TermId>(i)) {
        return Status::Corruption(path + ": term heap contains duplicate spellings");
      }
    }
    // Dictionary: every DataId must decode to a persisted IRI, and the
    // Build prefix must be strictly ascending for its binary search.
    std::vector<TermId> terms(view->dict_terms(),
                              view->dict_terms() + view->term_count());
    for (std::size_t i = 0; i < terms.size(); ++i) {
      if (!IsIri(terms[i]) || terms[i] >= view->iri_count()) {
        return Status::Corruption(path + ": dictionary references an unknown term");
      }
      if (i > 0 && i < view->dict_sorted_limit() && terms[i - 1] >= terms[i]) {
        return Status::Corruption(path + ": dictionary prefix out of order");
      }
    }
    // A TermId listed twice (e.g. once in the prefix, once appended)
    // would make Encode and the stored runs disagree about its DataId —
    // silently wrong answers, so it must be structural corruption. The
    // prefix is already strictly ascending (duplicate-free), so only the
    // appended suffix needs probing — O(appended), not a full sort on
    // the cold-open path.
    {
      auto prefix_end =
          terms.begin() + static_cast<std::ptrdiff_t>(view->dict_sorted_limit());
      std::unordered_set<TermId> appended_seen;
      for (std::size_t i = view->dict_sorted_limit(); i < terms.size(); ++i) {
        if (std::binary_search(terms.begin(), prefix_end, terms[i]) ||
            !appended_seen.insert(terms[i]).second) {
          return Status::Corruption(path + ": dictionary lists a term twice");
        }
      }
    }
    // The permutation runs are consumed in place: the store borrows the
    // mapped sections, and the shared view travels inside the published
    // base runs as a keepalive — the mapping stays alive exactly as long
    // as the last `ReadView` (pinned cursor included) that borrows it.
    impl->store.AdoptFrom(IndexedStore::FromSnapshot(
        Dictionary::FromParts(std::move(terms),
                              static_cast<std::size_t>(view->dict_sorted_limit())),
        view->run(Permutation::kSpo), view->run(Permutation::kPos),
        view->run(Permutation::kOsp), static_cast<std::size_t>(view->triple_count()),
        view, view->BorrowStats(view)));
  }
  impl->snapshot_path = path;

  if (options.durability == Durability::kWal) {
    std::vector<storage::WalRecord> replayed;
    storage::WalReplayInfo replay_info;
    Result<storage::WriteAheadLog> wal = storage::WriteAheadLog::Open(
        path + ".wal", options.wal_sync, &replayed, &replay_info);
    if (!wal.ok()) return wal.status();
    impl->metrics->counter("storage.wal_replay_records").Add(replay_info.records);
    if (replay_info.torn_tail) {
      impl->metrics->counter("storage.wal_torn_tails").Add(1);
    }
    // Replay the tail into the in-memory delta as ONE batch: the net
    // effect of a record sequence equals its sequential application, so
    // one delta build and one publish reconstruct what used to take a
    // copy-on-write publish per record. Group frames arrive flattened —
    // their atomicity was already enforced at decode time (a torn group
    // never reaches this vector). The WAL is not attached yet, so
    // replayed mutations are not re-logged; records are already durable
    // where they sit.
    WriteBatch replay;
    for (storage::WalRecord& record : replayed) {
      if (record.type == storage::WalRecordType::kAddTriple) {
        replay.Add(record.subject, record.predicate, record.object);
      } else {
        replay.Remove(record.subject, record.predicate, record.object);
      }
    }
    WDSPARQL_RETURN_IF_ERROR(db.Apply(std::move(replay)));
    impl->wal = std::make_unique<storage::WriteAheadLog>(std::move(wal).value());
    impl->wal->set_metrics(impl->metrics);
  }
  return db;
}

Status Database::Save(const std::string& path) {
  // Unconditional: an empty-delta Compact is a no-op unless the base
  // lacks cardinality statistics (legacy snapshot), in which case it
  // rebuilds them so the file written below carries the stats sections.
  Compact();
  WDSPARQL_RETURN_IF_ERROR(storage::WriteSnapshot(path, *impl_->pool, impl_->store));
  RecordSnapshotBytes(impl_->metrics.get(), path);
  return Status::OK();
}

Status Database::Checkpoint() {
  if (impl_->snapshot_path.empty()) {
    return Status::FailedPrecondition(
        "Checkpoint requires a database opened with Database::Open");
  }
  Timer checkpoint_timer;
  // Checkpoints are rare, writer-side events: give each one its own
  // self-rooted trace so /debug/trace answers "what did that latency
  // spike pay for" after the fact.
  TraceContext trace(impl_->trace.get());
  const uint32_t checkpoint_span = trace.StartSpan("checkpoint");
  {
    ScopedTraceSpan span(&trace, "compact", checkpoint_span);
    // Unconditional for the same reason as Save: a stats-less base
    // (legacy snapshot) gets its statistics rebuilt here.
    Compact();
  }
  {
    ScopedTraceSpan span(&trace, "write_snapshot", checkpoint_span);
    WDSPARQL_RETURN_IF_ERROR(storage::WriteSnapshot(
        impl_->snapshot_path, *impl_->pool, impl_->store));
  }
  // Only after the snapshot rename is durable may the log forget its
  // records; the reverse order could lose acknowledged mutations.
  if (impl_->wal != nullptr) {
    ScopedTraceSpan span(&trace, "wal.truncate", checkpoint_span);
    WDSPARQL_RETURN_IF_ERROR(impl_->wal->Truncate());
  }
  trace.EndSpan(checkpoint_span);
  // The snapshot now carries every applied mutation and the log is
  // empty, so a previously latched append failure no longer describes
  // the database: mutations may resume.
  impl_->ClearStorageError();
  impl_->metrics->histogram("storage.checkpoint_ns")
      .Observe(checkpoint_timer.ElapsedNanos());
  RecordSnapshotBytes(impl_->metrics.get(), impl_->snapshot_path);
  return Status::OK();
}

}  // namespace wdsparql
