#include "engine/indexed_store.h"

#include <algorithm>
#include <atomic>
#include <unordered_set>

#include "optimizer/cardinality.h"
#include "util/timer.h"

namespace wdsparql {

using enc_order::OrderOf;
using enc_order::PermLess;

IndexedStore::IndexedStore()
    : base_(std::make_shared<const BaseRuns>()),
      delta_(std::make_shared<const DeltaRuns>()) {
  Publish();
}

IndexedStore IndexedStore::FromSnapshot(Dictionary dict, const EncTriple* spo,
                                        const EncTriple* pos, const EncTriple* osp,
                                        std::size_t count,
                                        std::shared_ptr<const void> keepalive,
                                        std::shared_ptr<const CardinalityStats> stats) {
  IndexedStore store;
  store.dict_ = std::move(dict);
  auto base = std::make_shared<BaseRuns>();
  base->spo.Borrow(spo, count);
  base->pos.Borrow(pos, count);
  base->osp.Borrow(osp, count);
  base->keepalive = std::move(keepalive);
  base->stats = std::move(stats);
  store.base_ = std::move(base);
  store.Publish();
  return store;
}

void IndexedStore::set_metrics(std::shared_ptr<MetricsRegistry> metrics) {
  metrics_ = std::move(metrics);
  if (metrics_ == nullptr) {
    publishes_metric_ = nullptr;
    compactions_metric_ = nullptr;
    stats_rebuilds_metric_ = nullptr;
    delta_build_ns_metric_ = nullptr;
    compaction_ns_metric_ = nullptr;
    return;
  }
  publishes_metric_ = &metrics_->counter("write.publishes");
  compactions_metric_ = &metrics_->counter("store.compactions");
  stats_rebuilds_metric_ = &metrics_->counter("optimizer.stats_rebuilds");
  delta_build_ns_metric_ = &metrics_->histogram("write.delta_build_ns");
  compaction_ns_metric_ = &metrics_->histogram("store.compaction_ns");
}

void IndexedStore::Publish() {
  // The view's lifetime token keeps the `views.live` gauge honest: +1
  // now, -1 when the last pin on this view dies. Per-publish (not
  // per-pin) cost, so PinView itself stays one atomic load.
  std::shared_ptr<const void> token;
  if (metrics_ != nullptr) {
    publishes_metric_->Add(1);
    Gauge* live = &metrics_->gauge("views.live");
    live->Add(1);
    std::shared_ptr<MetricsRegistry> registry = metrics_;
    token = std::shared_ptr<const void>(
        static_cast<const void*>(live),
        [registry, live](const void*) { live->Add(-1); });
  }
  auto next = std::make_shared<const ReadView>(dict_.view(), base_, delta_,
                                               ++generation_, std::move(token));
  // The epoch publish: everything the new view references was fully
  // written (sequenced) before this store, and readers acquire through
  // the matching atomic load in PinView — so a pinned view is always
  // internally consistent, never torn.
  std::atomic_store(&view_, std::move(next));
}

std::shared_ptr<const ReadView> IndexedStore::PinView() const {
  return std::atomic_load(&view_);
}

void IndexedStore::AdoptFrom(IndexedStore&& other) {
  dict_ = std::move(other.dict_);
  base_ = std::move(other.base_);
  delta_ = std::move(other.delta_);
  copied_since_merge_ = 0;
  Publish();
}

void IndexedStore::ApplyBatch(const std::vector<Triple>& adds,
                              const std::vector<Triple>& removes,
                              TraceContext* trace, uint32_t trace_parent) {
  if (adds.empty() && removes.empty()) return;
  uint32_t build_span = 0;
  if (trace != nullptr && trace->enabled()) {
    build_span = trace->StartSpan("delta_build", trace_parent);
    trace->Annotate(build_span, "adds", static_cast<uint64_t>(adds.size()));
    trace->Annotate(build_span, "removes",
                    static_cast<uint64_t>(removes.size()));
  }
  Timer build_timer;
  PermLess spo_less{OrderOf(Permutation::kSpo)};

  // Pre-register the batch's terms with one fold of the appended-term
  // index (per-triple GetOrAdd would refold it every kFoldLimit appends
  // — quadratic across a bulk load), then encode the adds and split
  // them: absent triples join the delta runs; tombstoned base residents
  // just revive.
  {
    std::vector<TermId> batch_terms;
    batch_terms.reserve(adds.size() * 3);
    for (const Triple& t : adds) {
      batch_terms.push_back(t.subject);
      batch_terms.push_back(t.predicate);
      batch_terms.push_back(t.object);
    }
    dict_.EnsureTerms(batch_terms);
  }
  std::vector<EncTriple> fresh;   // Into the delta runs.
  std::vector<EncTriple> revive;  // Tombstones to drop.
  fresh.reserve(adds.size());
  for (const Triple& t : adds) {
    EncTriple enc;
    enc.s = dict_.GetOrAdd(t.subject);
    enc.p = dict_.GetOrAdd(t.predicate);
    enc.o = dict_.GetOrAdd(t.object);
    if (std::binary_search(base_->spo.begin(), base_->spo.end(), enc, spo_less)) {
      WDSPARQL_DCHECK(std::binary_search(delta_->dead.begin(), delta_->dead.end(),
                                         enc, spo_less));
      revive.push_back(enc);
    } else {
      WDSPARQL_DCHECK(!view_->InDelta(enc));
      fresh.push_back(enc);
    }
  }

  // Split the removes: delta residents vanish from the delta runs, base
  // residents gain tombstones. Every removed triple is present, so its
  // terms must already resolve.
  std::unordered_set<EncTriple, EncTripleHash> delta_removals;
  std::vector<EncTriple> newly_dead;
  for (const Triple& t : removes) {
    EncTriple enc;
    for (int pos = 0; pos < 3; ++pos) {
      std::optional<DataId> id = dict_.TryResolve(t[pos]);
      WDSPARQL_CHECK(id.has_value());
      (pos == 0 ? enc.s : (pos == 1 ? enc.p : enc.o)) = *id;
    }
    if (view_->InDelta(enc)) {
      delta_removals.insert(enc);
    } else {
      WDSPARQL_DCHECK(
          std::binary_search(base_->spo.begin(), base_->spo.end(), enc, spo_less));
      newly_dead.push_back(enc);
    }
  }

  // The successor delta: per permutation, one linear merge of (old run
  // minus the delta removals) with the sorted fresh adds, O(delta +
  // batch log batch) for the whole batch.
  auto next = std::make_shared<DeltaRuns>();
  auto rebuild_run = [&](const std::vector<EncTriple>& old_run, Permutation perm,
                         std::vector<EncTriple>* out) {
    std::vector<EncTriple> incoming = fresh;
    PermLess less{OrderOf(perm)};
    std::sort(incoming.begin(), incoming.end(), less);
    out->reserve(old_run.size() - delta_removals.size() + incoming.size());
    auto oi = old_run.begin();
    auto ni = incoming.begin();
    while (oi != old_run.end() || ni != incoming.end()) {
      bool take_old =
          ni == incoming.end() || (oi != old_run.end() && !less(*ni, *oi));
      if (take_old) {
        if (delta_removals.empty() || delta_removals.count(*oi) == 0) {
          out->push_back(*oi);
        }
        ++oi;
      } else {
        out->push_back(*ni);
        ++ni;
      }
    }
  };
  rebuild_run(delta_->dspo, Permutation::kSpo, &next->dspo);
  rebuild_run(delta_->dpos, Permutation::kPos, &next->dpos);
  rebuild_run(delta_->dosp, Permutation::kOsp, &next->dosp);

  // Tombstones: (old dead minus revived) merged with the new ones.
  std::sort(revive.begin(), revive.end(), spo_less);
  std::sort(newly_dead.begin(), newly_dead.end(), spo_less);
  std::vector<EncTriple> surviving;
  surviving.reserve(delta_->dead.size() - revive.size());
  std::set_difference(delta_->dead.begin(), delta_->dead.end(), revive.begin(),
                      revive.end(), std::back_inserter(surviving), spo_less);
  next->dead.reserve(surviving.size() + newly_dead.size());
  std::merge(surviving.begin(), surviving.end(), newly_dead.begin(),
             newly_dead.end(), std::back_inserter(next->dead), spo_less);

  delta_ = std::move(next);
  copied_since_merge_ += delta_->pending();
  if (delta_build_ns_metric_ != nullptr) {
    // The delta build proper; a budget fold below reports separately as
    // store.compaction_ns.
    delta_build_ns_metric_->Observe(build_timer.ElapsedNanos());
  }
  if (trace != nullptr) trace->EndSpan(build_span);
  // The copy budget (rent or buy): this build copied ~|delta|, a merge
  // copies ~|base| + |delta|. Fold once the copies since the last merge
  // have paid for one, which keeps total work within 2x of the best
  // merge schedule. Exactly one publish per batch: the fold publishes
  // the merged state itself. An emptied delta has nothing to fold.
  if (merge_threshold_ != 0 && delta_->pending() != 0 &&
      copied_since_merge_ >= base_size() + merge_threshold_) {
    ScopedTraceSpan span(trace, "compact", trace_parent);
    MergeDelta();
  } else {
    ScopedTraceSpan span(trace, "publish", trace_parent);
    Publish();
  }
}

void IndexedStore::MergeDelta() {
  copied_since_merge_ = 0;
  if (delta_->pending() == 0) {
    if (base_->stats != nullptr) return;
    // Nothing to merge, but the base carries no cardinality statistics —
    // a legacy snapshot opened before the stats sections existed. This
    // compaction is the lazy upgrade: rebuild the stats over the
    // unchanged runs and republish, so subsequent views (and the next
    // Checkpoint) carry them. Copying the BaseRuns is cheap here: the
    // runs are borrowed (pointer copies) or empty.
    auto upgraded = std::make_shared<BaseRuns>(*base_);
    upgraded->stats = CardinalityStats::Build(
        upgraded->spo.data(), upgraded->pos.data(), upgraded->osp.data(),
        upgraded->spo.size());
    base_ = std::move(upgraded);
    if (stats_rebuilds_metric_ != nullptr) stats_rebuilds_metric_->Add(1);
    Publish();
    return;
  }
  Timer merge_timer;
  const DeltaRuns& delta = *delta_;
  auto merged_base = std::make_shared<BaseRuns>();
  auto merge_one = [&delta](const EncRun& base, const std::vector<EncTriple>& d,
                            EncRun* out, Permutation perm) {
    std::vector<EncTriple> merged;
    merged.reserve(base.size() - delta.dead.size() + d.size());
    PermLess less{OrderOf(perm)};
    const EncTriple* bi = base.begin();
    auto di = d.begin();
    while (bi != base.end() || di != d.end()) {
      bool take_base = di == d.end() || (bi != base.end() && !less(*di, *bi));
      if (take_base) {
        if (delta.dead.empty() ||
            !std::binary_search(delta.dead.begin(), delta.dead.end(), *bi,
                                PermLess{OrderOf(Permutation::kSpo)})) {
          merged.push_back(*bi);
        }
        ++bi;
      } else {
        merged.push_back(*di);
        ++di;
      }
    }
    out->Assign(std::move(merged));
  };
  // Merging out of a borrowed (snapshot-backed) run lands in owned
  // storage; the old BaseRuns (and its mapping keepalive) stays alive
  // only while pinned views still reference it.
  merge_one(base_->spo, delta.dspo, &merged_base->spo, Permutation::kSpo);
  merge_one(base_->pos, delta.dpos, &merged_base->pos, Permutation::kPos);
  merge_one(base_->osp, delta.dosp, &merged_base->osp, Permutation::kOsp);
  // Fresh base, fresh census: one more linear pass per permutation keeps
  // every published view's statistics exact for the runs it scans.
  merged_base->stats = CardinalityStats::Build(
      merged_base->spo.data(), merged_base->pos.data(), merged_base->osp.data(),
      merged_base->spo.size());
  base_ = std::move(merged_base);
  delta_ = std::make_shared<const DeltaRuns>();
  if (compactions_metric_ != nullptr) {
    compactions_metric_->Add(1);
    compaction_ns_metric_->Observe(merge_timer.ElapsedNanos());
  }
  Publish();
}

}  // namespace wdsparql
