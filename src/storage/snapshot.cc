#include "storage/snapshot.h"

#include <cstring>
#include <string_view>
#include <vector>

#include "storage/crc32.h"

namespace wdsparql {
namespace storage {
namespace {

static_assert(sizeof(EncTriple) == 12, "EncTriple is the on-disk run element");
static_assert(sizeof(TermId) == 4, "TermId is the on-disk dictionary element");

uint64_t AlignUp(uint64_t offset) {
  return (offset + kSectionAlignment - 1) & ~(kSectionAlignment - 1);
}

Status Corrupt(const std::string& path, const std::string& what) {
  return Status::Corruption(path + ": " + what);
}

/// memcpy with an empty-range guard (memcpy from nullptr is UB even for
/// zero bytes; empty stores legitimately have zero-length sections).
void CopyBytes(void* dst, const void* src, uint64_t n) {
  if (n > 0) std::memcpy(dst, src, n);
}

/// The one place the snapshot header is assembled — the streaming and
/// materialised write paths must stay byte-identical.
SnapshotHeader BuildHeader(const std::vector<SectionEntry>& entries,
                           uint32_t version, uint64_t file_size,
                           uint64_t triple_count, uint64_t iri_count,
                           uint64_t term_count, uint64_t dict_sorted_limit) {
  SnapshotHeader header{};
  std::memcpy(header.magic, kSnapshotMagic, sizeof(kSnapshotMagic));
  header.version = version;
  header.endian = kEndianTag;
  header.file_size = file_size;
  header.triple_count = triple_count;
  header.iri_count = iri_count;
  header.term_count = term_count;
  header.dict_sorted_limit = dict_sorted_limit;
  header.section_count = static_cast<uint32_t>(entries.size());
  header.directory_crc = Crc32(entries.data(), entries.size() * sizeof(SectionEntry));
  header.header_crc = 0;
  header.header_crc = Crc32(&header, sizeof(header));
  return header;
}

}  // namespace

Result<SnapshotView> SnapshotView::Open(const std::string& path,
                                        const OpenOptions& options) {
  Result<FileBuffer> loaded = FileBuffer::Load(path, options.use_mmap);
  if (!loaded.ok()) return loaded.status();
  SnapshotView view;
  view.buffer_ = std::move(loaded).value();
  const uint8_t* base = view.buffer_.data();
  const uint64_t size = view.buffer_.size();

  if (size < sizeof(SnapshotHeader)) return Corrupt(path, "truncated header");
  SnapshotHeader header;
  std::memcpy(&header, base, sizeof(header));
  if (std::memcmp(header.magic, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Corrupt(path, "bad magic (not a wdsparql snapshot)");
  }
  if (header.endian != kEndianTag) return Corrupt(path, "endianness mismatch");
  if (header.version == 0 || header.version > storage_format::kSnapshotVersion) {
    return Corrupt(path, "unsupported format version " + std::to_string(header.version));
  }
  SnapshotHeader crc_copy = header;
  crc_copy.header_crc = 0;
  if (Crc32(&crc_copy, sizeof(crc_copy)) != header.header_crc) {
    return Corrupt(path, "header checksum mismatch");
  }
  if (header.file_size != size) {
    return Corrupt(path, "file size mismatch (truncated or appended)");
  }
  if (header.section_count < 5 || header.section_count > kMaxSections) {
    return Corrupt(path, "implausible section count");
  }
  const uint64_t directory_bytes =
      static_cast<uint64_t>(header.section_count) * sizeof(SectionEntry);
  if (sizeof(SnapshotHeader) + directory_bytes > size) {
    return Corrupt(path, "truncated section directory");
  }
  const uint8_t* directory = base + sizeof(SnapshotHeader);
  if (Crc32(directory, directory_bytes) != header.directory_crc) {
    return Corrupt(path, "directory checksum mismatch");
  }
  if (header.term_count >= kNoDataId || header.dict_sorted_limit > header.term_count) {
    return Corrupt(path, "implausible dictionary metadata");
  }
  // Counts are bounded by the file size (every IRI needs 8 offset-table
  // bytes, every dictionary entry 4, every triple 36 across the runs),
  // so this also keeps the count * element-size arithmetic below from
  // overflowing uint64 on hostile headers.
  if (header.iri_count > size || header.term_count > size ||
      header.triple_count > size) {
    return Corrupt(path, "implausible entity counts");
  }

  view.triple_count_ = header.triple_count;
  view.iri_count_ = header.iri_count;
  view.term_count_ = header.term_count;
  view.dict_sorted_limit_ = header.dict_sorted_limit;

  bool seen[12] = {};
  for (uint32_t i = 0; i < header.section_count; ++i) {
    SectionEntry entry;
    std::memcpy(&entry, directory + i * sizeof(SectionEntry), sizeof(entry));
    if (entry.offset % kSectionAlignment != 0) {
      return Corrupt(path, "misaligned section " + std::to_string(entry.id));
    }
    if (entry.offset > size || entry.length > size - entry.offset) {
      return Corrupt(path, "section " + std::to_string(entry.id) + " out of bounds");
    }
    const uint8_t* payload = base + entry.offset;
    if (Crc32(payload, entry.length) != entry.crc) {
      return Corrupt(path, "section " + std::to_string(entry.id) + " checksum mismatch");
    }
    switch (entry.id) {
      case kSectionTerms: {
        const uint64_t table_bytes = (view.iri_count_ + 1) * sizeof(uint64_t);
        if (entry.length < table_bytes) return Corrupt(path, "terms section too short");
        view.term_offsets_ = reinterpret_cast<const uint64_t*>(payload);
        view.term_blob_ = payload + table_bytes;
        const uint64_t blob_bytes = entry.length - table_bytes;
        // Monotonic offsets within the blob: every spelling decodes to an
        // in-bounds, non-negative-length range.
        for (uint64_t t = 0; t < view.iri_count_; ++t) {
          if (view.term_offsets_[t] > view.term_offsets_[t + 1] ||
              view.term_offsets_[t + 1] > blob_bytes) {
            return Corrupt(path, "terms section offset table out of order");
          }
        }
        break;
      }
      case kSectionDict:
        if (entry.length != view.term_count_ * sizeof(TermId)) {
          return Corrupt(path, "dictionary section length mismatch");
        }
        view.dict_ = reinterpret_cast<const TermId*>(payload);
        break;
      case kSectionSpo:
      case kSectionPos:
      case kSectionOsp: {
        if (entry.length != view.triple_count_ * sizeof(EncTriple)) {
          return Corrupt(path, "permutation run length mismatch");
        }
        const EncTriple* run_data = reinterpret_cast<const EncTriple*>(payload);
        // Every DataId must decode: an out-of-range id would otherwise
        // surface later as a fatal CHECK inside Dictionary::Decode (a
        // crash, not a structured error) or as fabricated solutions.
        // A file whose CRCs match can still carry such ids (a writer bug
        // checksums faithfully), so the check stands on its own.
        for (uint64_t t = 0; t < view.triple_count_; ++t) {
          if (run_data[t].s >= view.term_count_ || run_data[t].p >= view.term_count_ ||
              run_data[t].o >= view.term_count_) {
            return Corrupt(path, "permutation run references an unknown term");
          }
        }
        int run = entry.id == kSectionSpo ? 0 : (entry.id == kSectionPos ? 1 : 2);
        view.runs_[run] = run_data;
        break;
      }
      case kSectionStatsS:
      case kSectionStatsP:
      case kSectionStatsO: {
        // Single-value counts: sorted, in-dictionary keys whose counts
        // sum to the triple count. Unconditional like the run checks —
        // a corrupt census must fail structurally, never surface as a
        // silently wrong plan.
        if (entry.length % sizeof(ValueCount) != 0) {
          return Corrupt(path, "stats section " + std::to_string(entry.id) +
                                   " length mismatch");
        }
        const uint64_t n = entry.length / sizeof(ValueCount);
        const ValueCount* data = reinterpret_cast<const ValueCount*>(payload);
        uint64_t sum = 0;
        for (uint64_t t = 0; t < n; ++t) {
          if (data[t].id >= view.term_count_ ||
              (t > 0 && data[t].id <= data[t - 1].id)) {
            return Corrupt(path, "stats section " + std::to_string(entry.id) +
                                     " keys out of order");
          }
          sum += data[t].count;
        }
        if (sum != view.triple_count_) {
          return Corrupt(path, "stats section " + std::to_string(entry.id) +
                                   " count sum mismatch");
        }
        int slot = static_cast<int>(entry.id) - kSectionStatsS;
        view.stats_single_[slot] = data;
        view.stats_single_count_[slot] = n;
        break;
      }
      case kSectionStatsSp:
      case kSectionStatsPo:
      case kSectionStatsOs: {
        if (entry.length % sizeof(PairCount) != 0) {
          return Corrupt(path, "stats section " + std::to_string(entry.id) +
                                   " length mismatch");
        }
        const uint64_t n = entry.length / sizeof(PairCount);
        const PairCount* data = reinterpret_cast<const PairCount*>(payload);
        uint64_t sum = 0;
        for (uint64_t t = 0; t < n; ++t) {
          if (data[t].a >= view.term_count_ || data[t].b >= view.term_count_ ||
              (t > 0 && !(data[t - 1].a < data[t].a ||
                          (data[t - 1].a == data[t].a && data[t - 1].b < data[t].b)))) {
            return Corrupt(path, "stats section " + std::to_string(entry.id) +
                                     " keys out of order");
          }
          sum += data[t].count;
        }
        if (sum != view.triple_count_) {
          return Corrupt(path, "stats section " + std::to_string(entry.id) +
                                   " count sum mismatch");
        }
        int slot = static_cast<int>(entry.id) - kSectionStatsSp;
        view.stats_pair_[slot] = data;
        view.stats_pair_count_[slot] = n;
        break;
      }
      default:
        // Unknown sections from a newer minor revision are skippable by
        // construction; their CRC was still verified above.
        continue;
    }
    if (entry.id < 12) {
      if (seen[entry.id]) return Corrupt(path, "duplicate section " + std::to_string(entry.id));
      seen[entry.id] = true;
    }
  }
  for (uint32_t id = kSectionTerms; id <= kSectionOsp; ++id) {
    if (!seen[id]) return Corrupt(path, "missing section " + std::to_string(id));
  }
  // The statistics sections travel as a group: all six or none. A file
  // carrying only some is a torn/corrupt write, not a legacy snapshot.
  int stats_sections = 0;
  for (int slot = 0; slot < 3; ++slot) {
    if (view.stats_single_[slot] != nullptr) ++stats_sections;
    if (view.stats_pair_[slot] != nullptr) ++stats_sections;
  }
  if (stats_sections == 6) {
    view.has_stats_ = true;
  } else if (stats_sections != 0) {
    return Corrupt(path, "incomplete statistics sections");
  }
  return view;
}

std::shared_ptr<const CardinalityStats> SnapshotView::BorrowStats(
    std::shared_ptr<const void> keepalive) const {
  if (!has_stats_) return nullptr;
  return CardinalityStats::Borrow(
      stats_single_[0], stats_single_count_[0], stats_single_[1],
      stats_single_count_[1], stats_single_[2], stats_single_count_[2],
      stats_pair_[0], stats_pair_count_[0], stats_pair_[1], stats_pair_count_[1],
      stats_pair_[2], stats_pair_count_[2], triple_count_, std::move(keepalive));
}

Status WriteSnapshot(const std::string& path, const TermPool& pool,
                     const IndexedStore& store, bool include_stats) {
  if (store.delta_size() != 0) {
    return Status::FailedPrecondition(
        "snapshot requires a merged store (call MergeDelta/Compact first)");
  }
  const Dictionary& dict = store.dictionary();
  const uint64_t iri_count = pool.NumIris();
  const uint64_t term_count = dict.size();
  const uint64_t triple_count = store.base_size();
  // A store without built statistics (possible via direct WriteSnapshot
  // calls; Save/Checkpoint always compact first, which builds them)
  // degrades to a version-1 file rather than inventing empty sections.
  const CardinalityStats* stats = include_stats ? store.stats().get() : nullptr;
  const uint32_t version = stats != nullptr ? storage_format::kSnapshotVersion : 1;

  // The terms offset table is the only piece not already contiguous in
  // memory; everything else streams straight from the live structures.
  std::vector<uint64_t> term_offsets(iri_count + 1);
  uint64_t blob_bytes = 0;
  for (uint64_t i = 0; i < iri_count; ++i) {
    term_offsets[i] = blob_bytes;
    blob_bytes += pool.Spelling(static_cast<TermId>(i)).size();
  }
  term_offsets[iri_count] = blob_bytes;
  const uint64_t terms_table_bytes = term_offsets.size() * sizeof(uint64_t);

  // The section manifest. Index 0 (terms) is assembled by streaming and
  // carries no flat payload pointer; everything else is one contiguous
  // array in the live structures.
  struct FlatSection {
    uint32_t id;
    const void* data;
    uint64_t length;
  };
  std::vector<FlatSection> sections;
  sections.push_back({kSectionTerms, nullptr, terms_table_bytes + blob_bytes});
  sections.push_back({kSectionDict, dict.terms_data(), term_count * sizeof(TermId)});
  sections.push_back({kSectionSpo, store.base_data(Permutation::kSpo),
                      triple_count * sizeof(EncTriple)});
  sections.push_back({kSectionPos, store.base_data(Permutation::kPos),
                      triple_count * sizeof(EncTriple)});
  sections.push_back({kSectionOsp, store.base_data(Permutation::kOsp),
                      triple_count * sizeof(EncTriple)});
  if (stats != nullptr) {
    for (int pos = 0; pos < 3; ++pos) {
      sections.push_back({static_cast<uint32_t>(kSectionStatsS + pos),
                          stats->single_data(pos),
                          stats->single_size(pos) * sizeof(ValueCount)});
    }
    for (int kind = 0; kind < 3; ++kind) {
      sections.push_back({static_cast<uint32_t>(kSectionStatsSp + kind),
                          stats->pair_data(static_cast<PairKind>(kind)),
                          stats->pair_size(static_cast<PairKind>(kind)) *
                              sizeof(PairCount)});
    }
  }

  // Lay the file out: header, directory, aligned payloads.
  uint64_t cursor =
      sizeof(SnapshotHeader) + sections.size() * sizeof(SectionEntry);
  std::vector<SectionEntry> entries(sections.size());
  for (std::size_t i = 0; i < sections.size(); ++i) {
    cursor = AlignUp(cursor);
    entries[i].id = sections[i].id;
    entries[i].reserved = 0;
    entries[i].offset = cursor;
    entries[i].length = sections[i].length;
    entries[i].crc = 0;
    entries[i].pad = 0;
    cursor += sections[i].length;
  }
  const uint64_t directory_bytes = entries.size() * sizeof(SectionEntry);

  Result<AtomicFileWriter> created = AtomicFileWriter::Create(path);
  if (!created.ok() && created.status().code() != StatusCode::kInternal) {
    return created.status();
  }
  if (created.ok()) {
    // Streaming path: sections go to disk straight from the live store
    // (CRCs chained along the way), so peak extra memory is one staging
    // chunk — Save/Checkpoint and the bulk loader never materialise the
    // file.
    AtomicFileWriter writer = std::move(created).value();
    WDSPARQL_RETURN_IF_ERROR(writer.WriteAt(entries[0].offset, term_offsets.data(),
                                            terms_table_bytes));
    uint32_t terms_crc = Crc32(term_offsets.data(), terms_table_bytes);
    {
      std::vector<uint8_t> chunk;
      chunk.reserve(1u << 20);
      uint64_t flushed = 0;
      uint64_t blob_base = entries[0].offset + terms_table_bytes;
      for (uint64_t i = 0; i < iri_count; ++i) {
        std::string_view spelling = pool.Spelling(static_cast<TermId>(i));
        chunk.insert(chunk.end(), spelling.begin(), spelling.end());
        if (chunk.size() >= (1u << 20) || i + 1 == iri_count) {
          if (!chunk.empty()) {
            WDSPARQL_RETURN_IF_ERROR(
                writer.WriteAt(blob_base + flushed, chunk.data(), chunk.size()));
            terms_crc = Crc32(chunk.data(), chunk.size(), terms_crc);
            flushed += chunk.size();
            chunk.clear();
          }
        }
      }
    }
    entries[0].crc = terms_crc;
    for (std::size_t i = 1; i < sections.size(); ++i) {
      if (entries[i].length > 0) {
        WDSPARQL_RETURN_IF_ERROR(
            writer.WriteAt(entries[i].offset, sections[i].data, entries[i].length));
      }
      entries[i].crc = Crc32(sections[i].data, entries[i].length);
    }
    // Pin the declared file size (the last section may be empty, ending
    // the writes before the laid-out end; the gap reads back as zeros).
    WDSPARQL_RETURN_IF_ERROR(writer.SetLength(cursor));

    SnapshotHeader header = BuildHeader(entries, version, cursor, triple_count,
                                        iri_count, term_count, dict.sorted_limit());
    WDSPARQL_RETURN_IF_ERROR(writer.WriteAt(0, &header, sizeof(header)));
    WDSPARQL_RETURN_IF_ERROR(
        writer.WriteAt(sizeof(SnapshotHeader), entries.data(), directory_bytes));
    return writer.Commit();
  }

  // Fallback for platforms without streaming writes: materialise the
  // whole file and publish it in one atomic write.
  std::vector<uint8_t> file(cursor, 0);
  {
    uint8_t* payload = file.data() + entries[0].offset;
    CopyBytes(payload, term_offsets.data(), terms_table_bytes);
    uint8_t* blob = payload + terms_table_bytes;
    for (uint64_t i = 0; i < iri_count; ++i) {
      std::string_view spelling = pool.Spelling(static_cast<TermId>(i));
      CopyBytes(blob + term_offsets[i], spelling.data(), spelling.size());
    }
  }
  for (std::size_t i = 1; i < sections.size(); ++i) {
    CopyBytes(file.data() + entries[i].offset, sections[i].data, entries[i].length);
  }
  for (SectionEntry& entry : entries) {
    entry.crc = Crc32(file.data() + entry.offset, entry.length);
  }
  std::memcpy(file.data() + sizeof(SnapshotHeader), entries.data(), directory_bytes);

  SnapshotHeader header = BuildHeader(entries, version, file.size(), triple_count,
                                      iri_count, term_count, dict.sorted_limit());
  std::memcpy(file.data(), &header, sizeof(header));

  return WriteFileAtomic(path, file.data(), file.size());
}

}  // namespace storage
}  // namespace wdsparql
