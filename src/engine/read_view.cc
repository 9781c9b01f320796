#include "engine/read_view.h"

#include <algorithm>

namespace wdsparql {

using enc_order::OrderOf;
using enc_order::PermLess;

namespace {

/// The permutation whose sort prefix covers the bound-position mask
/// (bit 0 = subject, bit 1 = predicate, bit 2 = object). Every mask is a
/// prefix of one cyclic permutation; full and empty masks default to SPO.
constexpr Permutation kPermForMask[8] = {
    Permutation::kSpo,  // ---
    Permutation::kSpo,  // S--
    Permutation::kPos,  // -P-
    Permutation::kSpo,  // SP-
    Permutation::kOsp,  // --O
    Permutation::kOsp,  // S-O  (OSP prefix: O, S)
    Permutation::kPos,  // -PO  (POS prefix: P, O)
    Permutation::kSpo,  // SPO
};

/// Three-way comparison of `t` against the pattern's bound values on
/// the first `prefix` positions of `order`: negative, zero or positive.
int ComparePrefix(const EncTriple& t, const EncPattern& p, const int* order,
                  int prefix) {
  for (int i = 0; i < prefix; ++i) {
    int pos = order[i];
    if (t[pos] != p[pos]) return t[pos] < p[pos] ? -1 : 1;
  }
  return 0;
}

/// The first triple of `[begin, end)` not below the pattern's prefix.
const EncTriple* PrefixLowerBound(const EncTriple* begin, const EncTriple* end,
                                  const EncPattern& pattern, const int* order,
                                  int prefix) {
  return std::lower_bound(begin, end, pattern,
                          [&](const EncTriple& t, const EncPattern& p) {
                            return ComparePrefix(t, p, order, prefix) < 0;
                          });
}

/// The contiguous [lo, hi) range of `[begin, end)` whose first `prefix`
/// positions (in permutation order) equal the pattern's bound values.
std::pair<const EncTriple*, const EncTriple*> PrefixRange(
    const EncTriple* begin, const EncTriple* end, const EncPattern& pattern,
    const int* order, int prefix) {
  const EncTriple* lo = PrefixLowerBound(begin, end, pattern, order, prefix);
  const EncTriple* hi = std::upper_bound(
      lo, end, pattern, [&](const EncPattern& p, const EncTriple& t) {
        return ComparePrefix(t, p, order, prefix) > 0;
      });
  return {lo, hi};
}

/// Where a pattern's matches live: the permutation whose sort prefix
/// covers its bound positions, the prefix length, and that
/// permutation's base and delta runs.
struct PatternRuns {
  Permutation perm;
  int prefix;
  const EncRun* base;
  const std::vector<EncTriple>* delta;
};

PatternRuns RunsFor(const BaseRuns& base, const DeltaRuns& delta,
                    const EncPattern& pattern) {
  int mask = (pattern.s != kNoDataId ? 1 : 0) | (pattern.p != kNoDataId ? 2 : 0) |
             (pattern.o != kNoDataId ? 4 : 0);
  PatternRuns runs;
  runs.perm = kPermForMask[mask];
  runs.prefix = (mask & 1) + ((mask >> 1) & 1) + ((mask >> 2) & 1);
  switch (runs.perm) {
    case Permutation::kSpo: runs.base = &base.spo; runs.delta = &delta.dspo; break;
    case Permutation::kPos: runs.base = &base.pos; runs.delta = &delta.dpos; break;
    default: runs.base = &base.osp; runs.delta = &delta.dosp; break;
  }
  return runs;
}

const std::shared_ptr<const BaseRuns>& EmptyBaseRuns() {
  static const std::shared_ptr<const BaseRuns> empty = std::make_shared<BaseRuns>();
  return empty;
}

const std::shared_ptr<const DeltaRuns>& EmptyDeltaRuns() {
  static const std::shared_ptr<const DeltaRuns> empty = std::make_shared<DeltaRuns>();
  return empty;
}

}  // namespace

// ---------------------------------------------------------------------
// MergedScan
// ---------------------------------------------------------------------

MergedScan::MergedScan(const EncTriple* base_begin, const EncTriple* base_end,
                       const EncTriple* delta_begin, const EncTriple* delta_end,
                       const Tombstones* dead, Permutation perm)
    : base_begin_(base_begin),
      base_end_(base_end),
      delta_begin_(delta_begin),
      delta_end_(delta_end),
      dead_(dead),
      perm_(perm) {}

MergedScan::Iterator::Iterator(const EncTriple* base, const EncTriple* base_end,
                               const EncTriple* delta, const EncTriple* delta_end,
                               const Tombstones* dead, const int* order)
    : base_(base),
      base_end_(base_end),
      delta_(delta),
      delta_end_(delta_end),
      dead_(dead),
      order_(order) {
  Settle();
}

void MergedScan::Iterator::Settle() {
  const PermLess spo_less{OrderOf(Permutation::kSpo)};
  while (base_ != base_end_ && !dead_->empty() &&
         std::binary_search(dead_->begin(), dead_->end(), *base_, spo_less)) {
    ++base_;
  }
  if (base_ == base_end_) {
    on_delta_ = true;
    return;
  }
  on_delta_ = delta_ != delta_end_ && PermLess{order_}(*delta_, *base_);
}

MergedScan::Iterator& MergedScan::Iterator::operator++() {
  if (on_delta_) {
    ++delta_;
  } else {
    ++base_;
  }
  Settle();
  return *this;
}

MergedScan::Iterator MergedScan::begin() const {
  return Iterator(base_begin_, base_end_, delta_begin_, delta_end_, dead_,
                  OrderOf(perm_));
}

MergedScan::Iterator MergedScan::end() const {
  return Iterator(base_end_, base_end_, delta_end_, delta_end_, dead_, OrderOf(perm_));
}

std::size_t MergedScan::size() const {
  std::size_t n = 0;
  for (auto it = begin(); it != end(); ++it) ++n;
  return n;
}

// ---------------------------------------------------------------------
// ReadView
// ---------------------------------------------------------------------

ReadView::ReadView() : base_(EmptyBaseRuns()), delta_(EmptyDeltaRuns()) {}

ReadView::ReadView(DictView dict, std::shared_ptr<const BaseRuns> base,
                   std::shared_ptr<const DeltaRuns> delta, uint64_t generation,
                   std::shared_ptr<const void> lifetime_token)
    : dict_(std::move(dict)),
      base_(base != nullptr ? std::move(base) : EmptyBaseRuns()),
      delta_(delta != nullptr ? std::move(delta) : EmptyDeltaRuns()),
      generation_(generation),
      lifetime_token_(std::move(lifetime_token)) {}

bool ReadView::EncodeScanPattern(const Triple& pattern, EncPattern* out) const {
  *out = EncPattern{};
  for (int pos = 0; pos < 3; ++pos) {
    TermId term = pattern[pos];
    if (term == kAnyTerm) continue;
    std::optional<DataId> id = dict_.TryResolve(term);
    if (!id.has_value()) return false;  // Term absent: nothing can match.
    (pos == 0 ? out->s : (pos == 1 ? out->p : out->o)) = *id;
  }
  return true;
}

MergedScan ReadView::Scan(const EncPattern& pattern) const {
  const PatternRuns runs = RunsFor(*base_, *delta_, pattern);
  const int* order = OrderOf(runs.perm);
  const EncTriple* delta_begin = runs.delta->data();
  auto [base_lo, base_hi] =
      PrefixRange(runs.base->begin(), runs.base->end(), pattern, order, runs.prefix);
  auto [delta_lo, delta_hi] = PrefixRange(
      delta_begin, delta_begin + runs.delta->size(), pattern, order, runs.prefix);
  return MergedScan(base_lo, base_hi, delta_lo, delta_hi, &delta_->dead, runs.perm);
}

bool ReadView::Exists(const EncPattern& pattern) const {
  const PatternRuns runs = RunsFor(*base_, *delta_, pattern);
  const int* order = OrderOf(runs.perm);
  // Delta triples are live by construction: one match there decides.
  const EncTriple* delta_end = runs.delta->data() + runs.delta->size();
  const EncTriple* d =
      PrefixLowerBound(runs.delta->data(), delta_end, pattern, order, runs.prefix);
  if (d != delta_end && ComparePrefix(*d, pattern, order, runs.prefix) == 0) return true;
  const MergedScan::Tombstones& dead = delta_->dead;
  const PermLess spo_less{OrderOf(Permutation::kSpo)};
  for (const EncTriple* b = PrefixLowerBound(runs.base->begin(), runs.base->end(),
                                             pattern, order, runs.prefix);
       b != runs.base->end() && ComparePrefix(*b, pattern, order, runs.prefix) == 0;
       ++b) {
    if (dead.empty() || !std::binary_search(dead.begin(), dead.end(), *b, spo_less)) {
      return true;
    }
  }
  return false;
}

bool ReadView::InDelta(const EncTriple& t) const {
  return std::binary_search(delta_->dspo.begin(), delta_->dspo.end(), t,
                            PermLess{OrderOf(Permutation::kSpo)});
}

bool ReadView::Contains(const EncTriple& t) const {
  if (InDelta(t)) return true;
  const PermLess spo_less{OrderOf(Permutation::kSpo)};
  return std::binary_search(base_->spo.begin(), base_->spo.end(), t, spo_less) &&
         !std::binary_search(delta_->dead.begin(), delta_->dead.end(), t, spo_less);
}

bool ReadView::Contains(const Triple& t) const {
  EncTriple enc;
  for (int pos = 0; pos < 3; ++pos) {
    std::optional<DataId> id = dict_.TryResolve(t[pos]);
    if (!id.has_value()) return false;
    (pos == 0 ? enc.s : (pos == 1 ? enc.p : enc.o)) = *id;
  }
  return Contains(enc);
}

bool ReadView::ScanPattern(const Triple& pattern, const TripleScanCallback& fn) const {
  EncPattern enc;
  if (!EncodeScanPattern(pattern, &enc)) return true;  // Empty scan completes.
  for (const EncTriple& t : Scan(enc)) {
    if (!fn(Decode(t))) return false;
  }
  return true;
}

std::vector<TermId> ReadView::AllTerms() const {
  std::vector<TermId> terms;
  terms.reserve(dict_.size());
  for (std::size_t i = 0; i < dict_.size(); ++i) {
    terms.push_back(dict_.Decode(static_cast<DataId>(i)));
  }
  std::sort(terms.begin(), terms.end());
  return terms;
}

}  // namespace wdsparql
