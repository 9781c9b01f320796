#ifndef WDSPARQL_STORAGE_FILE_H_
#define WDSPARQL_STORAGE_FILE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "wdsparql/status.h"

/// \file
/// File access primitives for the persistence layer.
///
/// `FileBuffer` presents an immutable byte view of a whole file, backed
/// by `mmap` when available (the instant-reopen path: the snapshot's
/// term heap and index runs are consumed straight out of the page
/// cache) with a portable read()-into-buffer fallback that behaves
/// identically. `WriteFileAtomic` is the crash-safe publish primitive:
/// write to a temporary sibling, fsync, rename over the target — a
/// reader sees either the old file or the new one, never a torn mix.

namespace wdsparql {
namespace storage {

/// An immutable, contiguous view of a file's bytes. Move-only; unmaps
/// or frees on destruction.
class FileBuffer {
 public:
  FileBuffer() = default;
  ~FileBuffer();
  FileBuffer(FileBuffer&& other) noexcept;
  FileBuffer& operator=(FileBuffer&& other) noexcept;
  FileBuffer(const FileBuffer&) = delete;
  FileBuffer& operator=(const FileBuffer&) = delete;

  /// Loads the file at `path`. With `prefer_mmap` the file is mapped
  /// read-only (falling back to a heap buffer if mapping fails); without
  /// it the bytes are read into a heap buffer. Missing file: kNotFound;
  /// other OS failures: kIoError.
  static Result<FileBuffer> Load(const std::string& path, bool prefer_mmap);

  const uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }
  /// True when the view is a live memory mapping (diagnostics only).
  bool mapped() const { return mapped_; }

 private:
  void Release();

  const uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;             // data_ came from mmap.
  std::vector<uint8_t> heap_;       // Fallback storage when !mapped_.
};

/// Writes `bytes` to `path` atomically: temporary sibling + fsync +
/// rename, then a best-effort fsync of the containing directory so the
/// rename itself is durable.
Status WriteFileAtomic(const std::string& path, const void* bytes, std::size_t size);

/// Incrementally builds `path` via a temporary sibling: positioned
/// writes (gaps read back as zeros), then `Commit` fsyncs and renames.
/// Destruction without Commit abandons the temporary. Lets the snapshot
/// writer stream sections straight from the live store instead of
/// materialising the whole file in memory first.
class AtomicFileWriter {
 public:
  AtomicFileWriter() = default;
  ~AtomicFileWriter();
  AtomicFileWriter(AtomicFileWriter&& other) noexcept;
  AtomicFileWriter& operator=(AtomicFileWriter&& other) noexcept;
  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  /// Opens `<path>.tmp` for writing (truncating any stale leftover).
  static Result<AtomicFileWriter> Create(const std::string& path);

  /// Writes `n` bytes at absolute `offset`.
  Status WriteAt(uint64_t offset, const void* bytes, std::size_t n);

  /// Extends (or trims) the staged file to exactly `size` bytes; the
  /// extension reads back as zeros. Pins the file length when the final
  /// section ends before the laid-out file size.
  Status SetLength(uint64_t size);

  /// fsync + rename over the target + best-effort directory sync.
  Status Commit();

 private:
  std::string path_;  // Final target; temp is path_ + ".tmp".
  int fd_ = -1;
  bool committed_ = false;
};

/// Best-effort fsync of the directory containing `path` (makes a
/// create/rename of `path` itself durable; no-op where unsupported).
void SyncParentDir(const std::string& path);

/// True iff a file (or directory) exists at `path`.
bool FileExists(const std::string& path);

}  // namespace storage
}  // namespace wdsparql

#endif  // WDSPARQL_STORAGE_FILE_H_
