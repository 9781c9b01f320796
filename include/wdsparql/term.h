#ifndef WDSPARQL_PUBLIC_TERM_H_
#define WDSPARQL_PUBLIC_TERM_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "wdsparql/check.h"

/// \file
/// Interned RDF terms.
///
/// Following the paper's formalisation, a term is either an IRI from the
/// countable set I or a variable from the disjoint countable set V. All
/// algorithms in the library operate on dense 32-bit `TermId`s; the string
/// spelling lives only in the `TermPool`. Variables are distinguished from
/// IRIs by the top bit of the id so that hot loops never consult the pool.

namespace wdsparql {

/// Interned identifier of an IRI or variable.
using TermId = uint32_t;

/// Bit flag marking variable ids (set) versus IRI ids (clear).
inline constexpr TermId kVariableBit = 0x80000000u;

/// True iff `t` is a variable id.
inline bool IsVariable(TermId t) { return (t & kVariableBit) != 0; }

/// True iff `t` is an IRI id.
inline bool IsIri(TermId t) { return (t & kVariableBit) == 0; }

/// Dense index of a term within its kind (strips the variable bit).
inline uint32_t TermIndex(TermId t) { return t & ~kVariableBit; }

/// Intern table mapping IRI/variable spellings to `TermId`s and back.
///
/// A single pool is shared by an RDF graph, the queries evaluated over
/// it, and all derived t-graphs, so that equal spellings compare equal by
/// id. The pool can mint fresh variables (guaranteed distinct from every
/// interned spelling), which the domination-width machinery uses for the
/// variable renamings `rho_Delta`.
///
/// Thread-safety: fully internally synchronised, tuned for the serving
/// path. Interning (`InternIri`, `InternVariable`, `FreshVariable`) and
/// map lookups (`FindIri`, `FindVariable`) take a short mutex; spelling
/// reads (`Spelling`, `ToDisplayString`, …) are lock-free — two acquire
/// loads (the table's size and its chunk directory), no mutex, no
/// reference count and no write to shared memory — so cursor `Value()`
/// calls on many reader threads never contend. The storage
/// behind a spelling is append-only and address-stable: a returned
/// `string_view` stays valid for the pool's whole lifetime. A reader may
/// resolve any `TermId` it legitimately obtained (i.e. that reached it
/// through a published read view, a prepared statement, or its own
/// intern call); ids guessed ahead of publication are a logic error.
class TermPool {
 public:
  TermPool() = default;

  // The pool is referenced by id from many structures; accidental copies
  // would silently fork the intern table.
  TermPool(const TermPool&) = delete;
  TermPool& operator=(const TermPool&) = delete;

  /// Interns an IRI spelling (without angle brackets) and returns its id.
  TermId InternIri(std::string_view spelling);

  /// Interns a variable by name (without the leading '?').
  TermId InternVariable(std::string_view name);

  /// Looks an IRI spelling up WITHOUT interning it: nullopt if never
  /// interned. Use on probe/delete paths so misses do not grow the pool.
  std::optional<TermId> FindIri(std::string_view spelling) const;

  /// Looks a variable name up WITHOUT interning it.
  std::optional<TermId> FindVariable(std::string_view name) const;

  /// Mints a variable guaranteed distinct from all interned spellings,
  /// named "<hint>#<counter>". Used for renaming to fresh variables.
  TermId FreshVariable(std::string_view hint);

  /// Returns the spelling of `t` (no '?' prefix, no angle brackets).
  /// Lock-free; the view stays valid for the pool's lifetime.
  std::string_view Spelling(TermId t) const;

  /// Renders `t` for display: variables as "?name", IRIs verbatim.
  std::string ToDisplayString(TermId t) const;

  /// Renders `t` so the pattern parser can read it back: variables as
  /// "?name", IRIs bare when identifier-shaped and '<'-quoted otherwise.
  std::string ToParsableString(TermId t) const;

  /// Number of interned IRIs.
  std::size_t NumIris() const { return iri_spellings_.size(); }
  /// Number of interned variables (including fresh ones).
  std::size_t NumVariables() const { return var_spellings_.size(); }

 private:
  /// Interns a variable; the caller holds `mutex_`.
  TermId InternVariableLocked(std::string&& name);

  /// Append-only spelling storage with lock-free reads. Spellings live
  /// in fixed-size chunks whose element addresses never change. Readers
  /// find a chunk through a directory published by one atomic pointer
  /// (an acquire load, no lock and no reference count); when the
  /// directory fills, the writer publishes a copy twice its size and
  /// keeps the superseded one alive, since a reader may still hold it.
  /// The sizes double, so all directories together hold fewer than four
  /// pointers per chunk. `At(i)` is safe on any thread for any `i` that
  /// was appended before the reader learned of it through a
  /// release/acquire edge (the table's own size counter provides one:
  /// the writer stores it with release after constructing the slot).
  class SpellingTable {
   public:
    /// Appends a spelling; single writer (callers hold the pool mutex).
    /// Returns the new index.
    uint32_t Append(std::string_view s) {
      std::size_t n = size_.load(std::memory_order_relaxed);
      std::size_t chunk_index = n >> kChunkShift;
      if (chunk_index == chunks_.size()) {
        chunks_.push_back(std::make_unique<Chunk>(kChunkMask + 1));
        if (directories_.empty() || chunk_index == directories_.back()->size()) {
          auto grown = std::make_unique<Directory>(
              directories_.empty() ? 1 : 2 * directories_.back()->size(), nullptr);
          if (!directories_.empty()) {
            std::copy(directories_.back()->begin(), directories_.back()->end(),
                      grown->begin());
          }
          directories_.push_back(std::move(grown));
          directory_.store(directories_.back().get(), std::memory_order_release);
        }
        // Readers reach this slot only after the size store below.
        (*directories_.back())[chunk_index] = chunks_.back().get();
      }
      // Construct the slot fully before publishing the new size.
      (*chunks_[chunk_index])[n & kChunkMask].assign(s.data(), s.size());
      size_.store(n + 1, std::memory_order_release);
      return static_cast<uint32_t>(n);
    }

    /// Lock-free read; fatal on out-of-range indexes.
    std::string_view At(uint32_t index) const {
      WDSPARQL_CHECK(index < size_.load(std::memory_order_acquire));
      const Directory& dir = *directory_.load(std::memory_order_acquire);
      return (*dir[index >> kChunkShift])[index & kChunkMask];
    }

    std::size_t size() const { return size_.load(std::memory_order_acquire); }

   private:
    static constexpr std::size_t kChunkShift = 10;  // 1024 spellings/chunk.
    static constexpr std::size_t kChunkMask = (1u << kChunkShift) - 1;
    using Chunk = std::vector<std::string>;  // Sized once, never resized.
    using Directory = std::vector<Chunk*>;   // Sized once; slots filled in order.

    // Writer side (under the pool mutex): the chunks, and every
    // directory ever published, the current one last.
    std::vector<std::unique_ptr<Chunk>> chunks_;
    std::vector<std::unique_ptr<Directory>> directories_;
    std::atomic<const Directory*> directory_{nullptr};  // Readers' entry point.
    std::atomic<std::size_t> size_{0};
  };

  std::unordered_map<std::string, TermId> iri_ids_;
  std::unordered_map<std::string, TermId> var_ids_;
  SpellingTable iri_spellings_;
  SpellingTable var_spellings_;
  uint64_t fresh_counter_ = 0;
  mutable std::mutex mutex_;  // Guards the maps and fresh_counter_.
};

}  // namespace wdsparql

#endif  // WDSPARQL_PUBLIC_TERM_H_
