#ifndef WDSPARQL_PUBLIC_STORAGE_H_
#define WDSPARQL_PUBLIC_STORAGE_H_

#include <cstddef>
#include <cstdint>

/// \file
/// Persistence options for `Database::Open` / `Save` / `Checkpoint`.
///
/// A database persists as a versioned, checksummed **single-file
/// snapshot** (the term-pool string heap, the term dictionary, and the
/// three sorted SPO/POS/OSP permutation runs laid out as page-aligned
/// sections behind a section directory — see docs/FILE_FORMAT.md) plus,
/// when opened with `Durability::kWal`, a **write-ahead log** sitting
/// next to it (`<snapshot>.wal`). Opening a snapshot memory-maps it and
/// consumes the term heap and index runs in place, so reopen cost is
/// O(header + directory + checksum verification), not O(re-parse +
/// re-sort); mutations are framed and CRC-protected in the log before
/// they touch the in-memory delta, and `Database::Checkpoint` folds
/// base + delta into a fresh snapshot (atomic rename) and truncates the
/// log. A torn final log frame — the signature of a crash mid-append —
/// is discarded on open; every earlier acknowledged mutation replays.
///
/// Thread-safety: `Open`, `Save` and `Checkpoint` are writer-side
/// operations (one thread, not concurrent with mutations). Readers on
/// other threads are unaffected throughout: a mapped snapshot stays
/// alive for exactly as long as some pinned read view still borrows
/// from it, even across the checkpoint that supersedes it. The options
/// structs here are plain values.

namespace wdsparql {

/// What `Database::Open` promises about mutations.
enum class Durability {
  /// Read-mostly: mutations live only in memory until an explicit
  /// `Save`/`Checkpoint`. Open never creates or appends files.
  kNone = 0,
  /// Every acknowledged mutation is framed into `<snapshot>.wal` before
  /// the in-memory indexes change, and the log tail is replayed on open.
  kWal = 1,
};

/// When the write-ahead log is flushed to stable storage.
enum class WalSyncMode {
  /// Let the OS schedule writeback (survives process crashes, not power
  /// loss). The default: appends run at memory speed.
  kNone = 0,
  /// fsync after every appended frame (survives power loss; each
  /// mutation pays a device flush).
  kEveryRecord = 1,
};

/// Options for `Database::Open`.
struct OpenOptions {
  /// Mutation durability (see `Durability`).
  Durability durability = Durability::kNone;

  /// WAL flush policy; only consulted when `durability == kWal`.
  WalSyncMode wal_sync = WalSyncMode::kNone;

  /// With `kWal`: start from an empty database when the snapshot file
  /// does not exist yet (the first `Checkpoint` creates it). Without it,
  /// opening a missing snapshot is `kNotFound`.
  bool create_if_missing = false;

  /// Memory-map the snapshot (the fast path). When false — or when
  /// mapping fails — the file is read into an anonymous buffer instead,
  /// which behaves identically but pays the copy up front.
  bool use_mmap = true;

  /// Slack of the automatic merge's copy budget, as
  /// `DatabaseOptions::merge_threshold`.
  std::size_t merge_threshold = 4096;

  /// Flight-recorder span capacity, as `DatabaseOptions::trace_capacity`
  /// (0 disables tracing).
  std::size_t trace_capacity = 4096;
};

namespace storage_format {

/// Snapshot format version written by this library; `Open` rejects
/// newer-versioned files with `kCorruption` rather than misreading them.
/// Version 2 added the six optional cardinality-statistics sections
/// (the optimizer's aggregated counts); version-1 files still open —
/// the statistics are rebuilt lazily on the first Compact.
inline constexpr uint32_t kSnapshotVersion = 2;

/// WAL format version. Version 2 added group frames (one CRC-framed
/// record carrying a whole `WriteBatch`, replayed all-or-nothing);
/// version-1 logs still open and replay, while a version-2 log is
/// rejected loudly by version-1 readers instead of being silently
/// truncated at its first group frame.
inline constexpr uint32_t kWalVersion = 2;

}  // namespace storage_format

}  // namespace wdsparql

#endif  // WDSPARQL_PUBLIC_STORAGE_H_
