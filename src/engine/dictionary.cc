#include "engine/dictionary.h"

#include <algorithm>
#include <iterator>

namespace wdsparql {
namespace {

using AppendedEntry = std::pair<TermId, DataId>;

/// The shared lookup algorithm of Dictionary and DictView: binary search
/// the TermId-sorted prefix, then the folded appended run, then scan the
/// bounded appended tail.
DataId EncodeIn(TermId t, const std::vector<TermId>* terms, std::size_t sorted_limit,
                const std::vector<AppendedEntry>* folded,
                const std::vector<AppendedEntry>* tail, std::size_t tail_size) {
  if (terms != nullptr) {
    auto prefix_end = terms->begin() + static_cast<std::ptrdiff_t>(sorted_limit);
    auto it = std::lower_bound(terms->begin(), prefix_end, t);
    if (it != prefix_end && *it == t) return static_cast<DataId>(it - terms->begin());
  }
  if (folded != nullptr) {
    auto it = std::lower_bound(
        folded->begin(), folded->end(), t,
        [](const AppendedEntry& e, TermId term) { return e.first < term; });
    if (it != folded->end() && it->first == t) return it->second;
  }
  if (tail != nullptr) {
    for (std::size_t i = 0; i < tail_size; ++i) {
      if ((*tail)[i].first == t) return (*tail)[i].second;
    }
  }
  return kNoDataId;
}

}  // namespace

// ---------------------------------------------------------------------
// DictView
// ---------------------------------------------------------------------

DataId DictView::Encode(TermId t) const {
  return EncodeIn(t, terms_.get(), sorted_limit_, folded_.get(), tail_.get(),
                  tail_size_);
}

// ---------------------------------------------------------------------
// Dictionary
// ---------------------------------------------------------------------

Dictionary& Dictionary::operator=(const Dictionary& other) {
  if (this == &other) return *this;
  terms_ = other.terms_ == nullptr
               ? nullptr
               : std::make_shared<std::vector<TermId>>(*other.terms_);
  size_ = other.size_;
  sorted_limit_ = other.sorted_limit_;
  folded_ = other.folded_;  // Immutable once published: safe to share.
  tail_ = other.tail_ == nullptr
              ? nullptr
              : std::make_shared<std::vector<AppendedEntry>>(*other.tail_);
  tail_size_ = other.tail_size_;
  return *this;
}

Dictionary& Dictionary::operator=(Dictionary&& other) noexcept {
  if (this == &other) return *this;
  terms_ = std::move(other.terms_);
  size_ = other.size_;
  sorted_limit_ = other.sorted_limit_;
  folded_ = std::move(other.folded_);
  tail_ = std::move(other.tail_);
  tail_size_ = other.tail_size_;
  other.size_ = 0;
  other.sorted_limit_ = 0;
  other.tail_size_ = 0;
  return *this;
}

Dictionary Dictionary::FromParts(std::vector<TermId> terms, std::size_t sorted_limit) {
  Dictionary dict;
  WDSPARQL_CHECK(sorted_limit <= terms.size() && terms.size() < kNoDataId);
  dict.size_ = terms.size();
  dict.terms_ = std::make_shared<std::vector<TermId>>(std::move(terms));
  dict.sorted_limit_ = sorted_limit;
  if (dict.size_ > sorted_limit) {
    auto folded = std::make_shared<std::vector<AppendedEntry>>();
    folded->reserve(dict.size_ - sorted_limit);
    for (std::size_t i = sorted_limit; i < dict.size_; ++i) {
      folded->push_back({(*dict.terms_)[i], static_cast<DataId>(i)});
    }
    std::sort(folded->begin(), folded->end());
    dict.folded_ = std::move(folded);
  }
  return dict;
}

DataId Dictionary::Encode(TermId t) const {
  return EncodeIn(t, terms_.get(), sorted_limit_, folded_.get(), tail_.get(),
                  tail_size_);
}

void Dictionary::AppendTerm(TermId t, DataId id) {
  // Grow by swapping in a fresh doubled buffer: a published view may
  // still index the old one, so it must never be reallocated in place.
  if (terms_ == nullptr || size_ == terms_->size()) {
    auto grown = std::make_shared<std::vector<TermId>>();
    grown->resize(std::max<std::size_t>(64, 2 * size_));
    if (terms_ != nullptr) std::copy_n(terms_->begin(), size_, grown->begin());
    terms_ = std::move(grown);
  }
  (*terms_)[size_] = t;
  ++size_;

  if (tail_ == nullptr || tail_size_ == tail_->size()) {
    auto grown = std::make_shared<std::vector<AppendedEntry>>();
    grown->resize(kFoldLimit);
    if (tail_ != nullptr) std::copy_n(tail_->begin(), tail_size_, grown->begin());
    tail_ = std::move(grown);
  }
  (*tail_)[tail_size_] = {t, id};
  ++tail_size_;

  if (tail_size_ < kFoldLimit) return;
  FoldTail({});
}

void Dictionary::FoldTail(std::vector<AppendedEntry> entries) {
  // Sort only the newcomers and the bounded tail, then fold them into a
  // fresh run with one linear merge: O(F + k log k) for F folded terms,
  // where re-sorting the whole run would be O(F log F) per fold. The
  // old run stays alive for any view that still references it.
  if (tail_ != nullptr) {
    entries.insert(entries.end(), tail_->begin(), tail_->begin() + tail_size_);
  }
  std::sort(entries.begin(), entries.end());
  auto folded = std::make_shared<std::vector<AppendedEntry>>();
  if (folded_ == nullptr) {
    *folded = std::move(entries);
  } else {
    folded->reserve(folded_->size() + entries.size());
    std::merge(folded_->begin(), folded_->end(), entries.begin(), entries.end(),
               std::back_inserter(*folded));
  }
  folded_ = std::move(folded);
  tail_ = nullptr;
  tail_size_ = 0;
}

DataId Dictionary::GetOrAdd(TermId t) {
  DataId existing = Encode(t);
  if (existing != kNoDataId) return existing;
  WDSPARQL_CHECK(size_ + 1 < kNoDataId);
  DataId id = static_cast<DataId>(size_);
  AppendTerm(t, id);
  return id;
}

void Dictionary::EnsureTerms(const std::vector<TermId>& terms) {
  std::vector<TermId> unknown;
  for (TermId t : terms) {
    if (Encode(t) == kNoDataId) unknown.push_back(t);
  }
  std::sort(unknown.begin(), unknown.end());
  unknown.erase(std::unique(unknown.begin(), unknown.end()), unknown.end());
  if (unknown.empty()) return;
  WDSPARQL_CHECK(size_ + unknown.size() < kNoDataId);
  if (unknown.size() < kFoldLimit) {
    // Too few newcomers to justify rebuilding the folded run: take the
    // bounded-tail append path (its fold amortises these fine). The
    // eager single fold below is for genuinely bulk batches, where
    // per-kFoldLimit refolds would go quadratic.
    for (TermId t : unknown) AppendTerm(t, static_cast<DataId>(size_));
    return;
  }

  // One growth of the term array (swap-in-fresh, never reallocating
  // under a published view), then consecutive ids for the newcomers.
  if (terms_ == nullptr || size_ + unknown.size() > terms_->size()) {
    auto grown = std::make_shared<std::vector<TermId>>();
    grown->resize(std::max<std::size_t>(
        64, std::max(2 * size_, size_ + unknown.size())));
    if (terms_ != nullptr) std::copy_n(terms_->begin(), size_, grown->begin());
    terms_ = std::move(grown);
  }
  std::vector<AppendedEntry> entries;
  entries.reserve(unknown.size());
  for (TermId t : unknown) {
    (*terms_)[size_] = t;
    entries.push_back({t, static_cast<DataId>(size_)});
    ++size_;
  }

  // ONE fold: the new sorted run absorbs the old run, the pending tail
  // and every newcomer.
  FoldTail(std::move(entries));
}

DictView Dictionary::view() const {
  DictView v;
  v.terms_ = terms_;
  v.size_ = size_;
  v.sorted_limit_ = sorted_limit_;
  v.folded_ = folded_;
  v.tail_ = tail_;
  v.tail_size_ = tail_size_;
  return v;
}

}  // namespace wdsparql
