#ifndef WDSPARQL_STORAGE_WAL_H_
#define WDSPARQL_STORAGE_WAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <memory>

#include "storage/format.h"
#include "wdsparql/metrics.h"
#include "wdsparql/status.h"
#include "wdsparql/storage.h"
#include "wdsparql/trace.h"

/// \file
/// The write-ahead log.
///
/// One append-only file of CRC-framed mutation records sitting next to
/// the snapshot. Records carry term *spellings*, not ids: ids are an
/// artifact of intern order, and the log must replay into a pool whose
/// tail diverged from the snapshot's. `Open` replays every intact frame
/// through a callback, then truncates the file after the last intact
/// frame — a torn tail (crash mid-append) is discarded exactly once and
/// never corrupts later appends.
///
/// Two frame shapes exist: single records (one mutation each) and
/// *group* records (format version 2): a whole `WriteBatch` commit in
/// one frame under one CRC, written with one contiguous pwrite and one
/// optional fsync. Replay flattens groups into the record stream; the
/// shared CRC makes each group atomic — a crash mid-group discards the
/// whole group, never a prefix of it.

namespace wdsparql {
namespace storage {

/// A decoded log record (single mutation; groups flatten into these on
/// replay).
struct WalRecord {
  WalRecordType type;
  std::string subject;
  std::string predicate;
  std::string object;
};

/// One mutation of a group append, viewing the caller's spellings (they
/// must stay alive for the duration of the `AppendGroup` call).
struct WalOp {
  WalRecordType type;  ///< kAddTriple or kRemoveTriple.
  std::string_view subject;
  std::string_view predicate;
  std::string_view object;
};

/// What `Open` found in the existing log: how many intact mutation
/// records replayed and whether a torn tail (crash mid-append) was
/// discarded. Feeds the storage metrics.
struct WalReplayInfo {
  uint64_t records = 0;   ///< Mutations replayed (groups flattened).
  bool torn_tail = false; ///< A damaged tail frame was truncated away.
};

/// An open, appendable write-ahead log. Move-only (owns the fd).
class WriteAheadLog {
 public:
  WriteAheadLog() = default;
  ~WriteAheadLog();
  WriteAheadLog(WriteAheadLog&& other) noexcept;
  WriteAheadLog& operator=(WriteAheadLog&& other) noexcept;
  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Opens (creating if absent) the log at `path`, validates the header,
  /// decodes every intact frame into `*replayed`, truncates the torn
  /// tail if any, and leaves the log positioned for appends. The file is
  /// exclusively locked (flock) for the log's lifetime: a second writer
  /// on the same path gets `kFailedPrecondition` instead of the two
  /// silently overwriting each other's frames. A log whose header is
  /// damaged is `kCorruption` (the caller decides whether to discard
  /// it); OS failures are `kIoError`.
  static Result<WriteAheadLog> Open(const std::string& path, WalSyncMode sync,
                                    std::vector<WalRecord>* replayed,
                                    WalReplayInfo* replay_info = nullptr);

  /// Attaches the engine-wide metrics registry: appends then time the
  /// frame write and the fsync separately (`write.wal_append_ns`,
  /// `write.wal_fsync_ns` histograms) and count frames and bytes
  /// (`write.wal_groups`, `write.wal_bytes`). Null detaches. Instrument
  /// pointers are cached so the append path skips the name lookup.
  void set_metrics(std::shared_ptr<MetricsRegistry> metrics);

  /// Installs a request-scoped trace sink for the duration of a commit:
  /// subsequent appends emit `wal.append` / `wal.fsync` spans into `ctx`
  /// under `parent`. Null detaches. Writer-side only (the WAL has a
  /// single writer); the caller detaches before `ctx` dies.
  void set_trace(TraceContext* ctx, uint32_t parent) {
    trace_ = ctx;
    trace_parent_ = parent;
  }

  /// Appends one framed record; with `WalSyncMode::kEveryRecord` the
  /// frame is fsynced before returning. The record is durable (per the
  /// sync mode) when this returns OK — callers must not mutate the
  /// in-memory state on error.
  Status Append(const WalRecord& record);

  /// Zero-copy append: serialises straight from the views into a
  /// reusable scratch buffer (the mutation hot path — no per-record
  /// string or vector allocations once the buffer is warm).
  Status Append(WalRecordType type, std::string_view subject,
                std::string_view predicate, std::string_view object);

  /// Appends `ops` as ONE group frame: one contiguous pwrite, one CRC,
  /// one fsync (per the sync mode). The group is durable atomically —
  /// replay applies all of it or none of it. `kInvalidArgument` if the
  /// group would exceed the maximum frame size (the caller splits its
  /// batch); nothing is written in that case.
  Status AppendGroup(const std::vector<WalOp>& ops);

  /// Discards every record: truncates the log back to its header and
  /// syncs. Used by `Database::Checkpoint` after the snapshot rename.
  Status Truncate();

  /// Bytes of record data currently in the log (excludes the header).
  uint64_t record_bytes() const { return append_offset_ - sizeof(WalHeader); }

  const std::string& path() const { return path_; }

 private:
  /// CRCs, frames and writes the payload staged in `scratch_` (which
  /// starts with `sizeof(WalFrameHeader)` reserved bytes) as one
  /// contiguous pwrite + optional fsync.
  Status WriteScratchFrame();

  std::string path_;
  int fd_ = -1;
  WalSyncMode sync_ = WalSyncMode::kNone;
  uint64_t append_offset_ = sizeof(WalHeader);
  std::vector<uint8_t> scratch_;  // Reused frame buffer for appends.

  // Metrics (null when detached); see set_metrics.
  std::shared_ptr<MetricsRegistry> metrics_;
  Histogram* append_ns_metric_ = nullptr;
  Histogram* fsync_ns_metric_ = nullptr;
  Counter* bytes_metric_ = nullptr;
  Counter* groups_metric_ = nullptr;

  // Commit-scoped trace sink (null when detached); see set_trace.
  TraceContext* trace_ = nullptr;
  uint32_t trace_parent_ = 0;
};

}  // namespace storage
}  // namespace wdsparql

#endif  // WDSPARQL_STORAGE_WAL_H_
