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

/// Bound-position mask of a pattern: bit 0 = subject, 1 = predicate,
/// 2 = object.
int BoundMask(const EncPattern& pattern) {
  return (pattern.s != kNoDataId ? 1 : 0) | (pattern.p != kNoDataId ? 2 : 0) |
         (pattern.o != kNoDataId ? 4 : 0);
}

/// True iff the bound positions of `mask`, `prefix` of them, are the
/// first `prefix` positions of `perm`'s order.
bool MaskIsPrefixOf(int mask, int prefix, Permutation perm) {
  const int* order = OrderOf(perm);
  for (int i = 0; i < prefix; ++i) {
    if (((mask >> order[i]) & 1) == 0) return false;
  }
  return true;
}

/// The sort key of the first `kPrefix` positions of permutation `kPerm`,
/// read from a triple or a pattern: the first two positions packed into
/// one 64-bit word, the third (prefix 3 only) compared after it. The
/// positions are compile-time constants, so a comparison is two integer
/// compares at most, with no loop over an order array.
template <int kPerm, int kPrefix>
struct PrefixKey {
  static constexpr int kPos0 = enc_order::kPermOrder[kPerm][0];
  static constexpr int kPos1 = enc_order::kPermOrder[kPerm][1];
  static constexpr int kPos2 = enc_order::kPermOrder[kPerm][2];

  template <typename T>
  static uint64_t Head(const T& t) {
    if constexpr (kPrefix == 0) return 0;
    if constexpr (kPrefix == 1) return t[kPos0];
    return (uint64_t{t[kPos0]} << 32) | t[kPos1];
  }
  template <typename T>
  static DataId Tail(const T& t) {
    if constexpr (kPrefix == 3) return t[kPos2];
    return 0;
  }
  static bool Equal(const EncTriple& t, const EncPattern& key) {
    return Head(t) == Head(key) && Tail(t) == Tail(key);
  }
};

/// True iff triple `t` sorts before the bound on `key`'s prefix: its
/// prefix key is below `key`'s (`kUpper`: not above it).
template <int kPerm, int kPrefix, bool kUpper>
struct BeforeBound {
  using Key = PrefixKey<kPerm, kPrefix>;
  template <typename T>
  explicit BeforeBound(const T& key) : head(Key::Head(key)), tail(Key::Tail(key)) {}
  bool operator()(const EncTriple& t) const {
    const uint64_t h = Key::Head(t);
    if (h != head) return h < head;
    return kUpper ? Key::Tail(t) <= tail : Key::Tail(t) < tail;
  }
  uint64_t head;
  DataId tail;
};

/// The first triple of the sorted `[first, last)` whose prefix key is not
/// below `key`'s (`kUpper`: is above it), by binary search.
template <int kPerm, int kPrefix, bool kUpper, typename T>
const EncTriple* PrefixBound(const EncTriple* first, const EncTriple* last, const T& key) {
  if constexpr (kPrefix == 0) {
    return kUpper ? last : first;
  } else {
    return std::partition_point(first, last, BeforeBound<kPerm, kPrefix, kUpper>(key));
  }
}

/// `PrefixBound` by galloping: exponential steps from `first` until a
/// triple lies past the bound, then a binary search inside the last
/// step. Costs O(log d) comparisons for a bound d triples past `first`,
/// whatever the length of `[first, last)`.
template <int kPerm, int kPrefix, bool kUpper, typename T>
const EncTriple* GallopBound(const EncTriple* first, const EncTriple* last, const T& key) {
  if constexpr (kPrefix == 0) {
    return kUpper ? last : first;
  } else {
    const BeforeBound<kPerm, kPrefix, kUpper> before(key);
    if (first == last || !before(*first)) return first;
    // `*first` lies before the bound; the step doubles past it.
    std::ptrdiff_t step = 1;
    while (last - first > step && before(first[step])) {
      first += step;
      step *= 2;
    }
    return std::partition_point(first + 1, last - first > step ? first + step : last,
                                before);
  }
}

/// True iff the SPO-sorted `[first, last)` holds `t`.
bool SpoContains(const EncTriple* first, const EncTriple* last, const EncTriple& t) {
  const EncTriple* it =
      PrefixBound<static_cast<int>(Permutation::kSpo), 3, false>(first, last, t);
  return it != last && *it == t;
}

/// True iff base triple `t` is tombstoned.
bool IsDead(const MergedScan::Tombstones& dead, const EncTriple& t) {
  return !dead.empty() && SpoContains(dead.data(), dead.data() + dead.size(), t);
}

/// The contiguous [lo, hi) range of `[first, last)` whose first
/// `kPrefix` positions (in permutation order) equal the pattern's bound
/// values: a binary search for `lo`, then a gallop from it to `hi`.
template <int kPerm, int kPrefix>
std::pair<const EncTriple*, const EncTriple*> PrefixRange(const EncTriple* first,
                                                          const EncTriple* last,
                                                          const EncPattern& pattern) {
  const EncTriple* lo = PrefixBound<kPerm, kPrefix, false>(first, last, pattern);
  return {lo, GallopBound<kPerm, kPrefix, true>(lo, last, pattern)};
}

using PrefixRangeFn = std::pair<const EncTriple*, const EncTriple*> (*)(
    const EncTriple*, const EncTriple*, const EncPattern&);

/// `PrefixRange` by [permutation][prefix length].
constexpr PrefixRangeFn kPrefixRange[3][4] = {
    {PrefixRange<0, 0>, PrefixRange<0, 1>, PrefixRange<0, 2>, PrefixRange<0, 3>},
    {PrefixRange<1, 0>, PrefixRange<1, 1>, PrefixRange<1, 2>, PrefixRange<1, 3>},
    {PrefixRange<2, 0>, PrefixRange<2, 1>, PrefixRange<2, 2>, PrefixRange<2, 3>}};

/// Where a pattern's matches live: the permutation whose sort prefix
/// covers its bound positions, the prefix length, and that
/// permutation's base and delta runs.
struct PatternRuns {
  Permutation perm;
  int prefix;
  const EncRun* base;
  const std::vector<EncTriple>* delta;
};

PatternRuns RunsOf(const BaseRuns& base, const DeltaRuns& delta, Permutation perm,
                   int prefix) {
  PatternRuns runs;
  runs.perm = perm;
  runs.prefix = prefix;
  switch (perm) {
    case Permutation::kSpo: runs.base = &base.spo; runs.delta = &delta.dspo; break;
    case Permutation::kPos: runs.base = &base.pos; runs.delta = &delta.dpos; break;
    default: runs.base = &base.osp; runs.delta = &delta.dosp; break;
  }
  return runs;
}

PatternRuns RunsFor(const BaseRuns& base, const DeltaRuns& delta, int mask) {
  return RunsOf(base, delta, kPermForMask[mask],
                (mask & 1) + ((mask >> 1) & 1) + ((mask >> 2) & 1));
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
  while (base_ != base_end_ && IsDead(*dead_, *base_)) ++base_;
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
  const PatternRuns runs = RunsFor(*base_, *delta_, BoundMask(pattern));
  const PrefixRangeFn range = kPrefixRange[static_cast<int>(runs.perm)][runs.prefix];
  const EncTriple* delta_begin = runs.delta->data();
  auto [base_lo, base_hi] = range(runs.base->begin(), runs.base->end(), pattern);
  auto [delta_lo, delta_hi] = range(delta_begin, delta_begin + runs.delta->size(), pattern);
  return MergedScan(base_lo, base_hi, delta_lo, delta_hi, &delta_->dead, runs.perm);
}

template <int kPerm, int kPrefix>
bool SeekProbe::ExistsIn(SeekProbe* probe, const EncPattern& pattern) {
  using Key = PrefixKey<kPerm, kPrefix>;
  // Keys ascend between rewinds, so every triple below the previous
  // lower bound is below this key too: the search gallops on from there.
  // Delta triples are live by construction: one match there decides.
  probe->delta_lo_ =
      GallopBound<kPerm, kPrefix, false>(probe->delta_lo_, probe->delta_end_, pattern);
  if (probe->delta_lo_ != probe->delta_end_ && Key::Equal(*probe->delta_lo_, pattern)) {
    return true;
  }
  probe->base_lo_ =
      GallopBound<kPerm, kPrefix, false>(probe->base_lo_, probe->base_end_, pattern);
  for (const EncTriple* b = probe->base_lo_;
       b != probe->base_end_ && Key::Equal(*b, pattern); ++b) {
    if (!IsDead(*probe->dead_, *b)) return true;
  }
  return false;
}

template <int kPerm, int kPrefix>
MergedScan SeekProbe::OpenIn(SeekProbe* probe, const EncPattern& key) {
  // The delta cursor already stands at `key`'s lower bound; the base
  // cursor does too unless a delta match decided the probe first.
  probe->base_lo_ =
      GallopBound<kPerm, kPrefix, false>(probe->base_lo_, probe->base_end_, key);
  return MergedScan(
      probe->base_lo_,
      GallopBound<kPerm, kPrefix, true>(probe->base_lo_, probe->base_end_, key),
      probe->delta_lo_,
      GallopBound<kPerm, kPrefix, true>(probe->delta_lo_, probe->delta_end_, key),
      probe->dead_, static_cast<Permutation>(kPerm));
}

SeekProbe ReadView::Probe(const EncPattern& shape, const MergedScan* within) const {
  using ExistsFn = bool (*)(SeekProbe*, const EncPattern&);
  using OpenFn = MergedScan (*)(SeekProbe*, const EncPattern&);
  static constexpr ExistsFn kExistsIn[3][4] = {
      {SeekProbe::ExistsIn<0, 0>, SeekProbe::ExistsIn<0, 1>, SeekProbe::ExistsIn<0, 2>,
       SeekProbe::ExistsIn<0, 3>},
      {SeekProbe::ExistsIn<1, 0>, SeekProbe::ExistsIn<1, 1>, SeekProbe::ExistsIn<1, 2>,
       SeekProbe::ExistsIn<1, 3>},
      {SeekProbe::ExistsIn<2, 0>, SeekProbe::ExistsIn<2, 1>, SeekProbe::ExistsIn<2, 2>,
       SeekProbe::ExistsIn<2, 3>}};
  static constexpr OpenFn kOpenIn[3][4] = {
      {SeekProbe::OpenIn<0, 0>, SeekProbe::OpenIn<0, 1>, SeekProbe::OpenIn<0, 2>,
       SeekProbe::OpenIn<0, 3>},
      {SeekProbe::OpenIn<1, 0>, SeekProbe::OpenIn<1, 1>, SeekProbe::OpenIn<1, 2>,
       SeekProbe::OpenIn<1, 3>},
      {SeekProbe::OpenIn<2, 0>, SeekProbe::OpenIn<2, 1>, SeekProbe::OpenIn<2, 2>,
       SeekProbe::OpenIn<2, 3>}};
  const int mask = BoundMask(shape);
  PatternRuns runs = RunsFor(*base_, *delta_, mask);
  SeekProbe probe;
  if (within != nullptr && MaskIsPrefixOf(mask, runs.prefix, within->permutation())) {
    // The probe key extends the range's sort prefix: search the range.
    runs.perm = within->permutation();
    probe.base_begin_ = within->base_begin_;
    probe.base_end_ = within->base_end_;
    probe.delta_begin_ = within->delta_begin_;
    probe.delta_end_ = within->delta_end_;
  } else {
    probe.base_begin_ = runs.base->begin();
    probe.base_end_ = runs.base->end();
    probe.delta_begin_ = runs.delta->data();
    probe.delta_end_ = runs.delta->data() + runs.delta->size();
  }
  probe.exists_ = kExistsIn[static_cast<int>(runs.perm)][runs.prefix];
  probe.open_ = kOpenIn[static_cast<int>(runs.perm)][runs.prefix];
  probe.dead_ = &delta_->dead;
  probe.Rewind();
  return probe;
}

SeekProbe ReadView::TripleProbe(Permutation perm) const {
  // A whole triple is a sort prefix of every permutation: probe inside
  // `perm`'s full runs.
  const PatternRuns runs = RunsOf(*base_, *delta_, perm, 0);
  const EncTriple* delta_begin = runs.delta->data();
  const MergedScan all(runs.base->begin(), runs.base->end(), delta_begin,
                       delta_begin + runs.delta->size(), &delta_->dead, perm);
  return Probe(EncPattern{0, 0, 0}, &all);
}

bool ReadView::InDelta(const EncTriple& t) const {
  return SpoContains(delta_->dspo.data(), delta_->dspo.data() + delta_->dspo.size(), t);
}

bool ReadView::Contains(const EncTriple& t) const {
  return InDelta(t) ||
         (SpoContains(base_->spo.begin(), base_->spo.end(), t) && !IsDead(delta_->dead, t));
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
