#include "engine/parallel_exec.h"

#include <algorithm>
#include <tuple>

#include "wdsparql/check.h"

namespace wdsparql {

void AccumulateExecStats(const ExecStats& from, ExecStats* into) {
  into->parse_ns += from.parse_ns;
  into->check_ns += from.check_ns;
  into->plan_ns += from.plan_ns;
  into->optimize_ns += from.optimize_ns;
  into->enumerate_ns += from.enumerate_ns;
  into->est_cost += from.est_cost;
  into->rows_emitted += from.rows_emitted;
  into->candidates += from.candidates;
  into->dedup_rejected += from.dedup_rejected;
  into->non_maximal += from.non_maximal;
  into->maximality_tests += from.maximality_tests;
  into->filtered_out += from.filtered_out;
  into->projection_dedup_rejected += from.projection_dedup_rejected;
  into->empty_subpatterns += from.empty_subpatterns;
  into->interrupt_checks += from.interrupt_checks;
  into->ranges_scanned += from.ranges_scanned;
  into->values_probed += from.values_probed;
  into->base_triples_scanned += from.base_triples_scanned;
  into->delta_triples_scanned += from.delta_triples_scanned;
  into->dict_encodes += from.dict_encodes;
  into->dict_decodes += from.dict_decodes;
  if (from.subpatterns.empty()) return;
  // Merge by (tree, subtree): several workers contribute candidates to
  // the same subtree, and the report should read like the serial one —
  // one line per subtree, in enumeration order. The stable sort keeps
  // `into`'s entry (and so its plan report) first among equal keys.
  std::vector<ExecStats::Subpattern>& subs = into->subpatterns;
  subs.insert(subs.end(), from.subpatterns.begin(), from.subpatterns.end());
  std::stable_sort(subs.begin(), subs.end(),
                   [](const ExecStats::Subpattern& a, const ExecStats::Subpattern& b) {
                     return std::tie(a.tree, a.subtree) < std::tie(b.tree, b.subtree);
                   });
  std::vector<ExecStats::Subpattern> merged;
  merged.reserve(subs.size());
  for (ExecStats::Subpattern& sub : subs) {
    if (merged.empty() || merged.back().tree != sub.tree ||
        merged.back().subtree != sub.subtree) {
      merged.push_back(std::move(sub));
      continue;
    }
    ExecStats::Subpattern& into_sub = merged.back();
    into_sub.candidates += sub.candidates;
    into_sub.dedup_rejected += sub.dedup_rejected;
    into_sub.non_maximal += sub.non_maximal;
    into_sub.maximality_tests += sub.maximality_tests;
    into_sub.rows += sub.rows;
  }
  subs = std::move(merged);
}

ParallelEnumerator::ParallelEnumerator(const PatternForest& forest, Options options)
    : forest_(&forest), options_(std::move(options)) {
  WDSPARQL_CHECK(options_.workers >= 1);
  WDSPARQL_CHECK(options_.hooks_factory != nullptr);
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  if (options_.check_interval == 0) options_.check_interval = 1;
}

ParallelEnumerator::~ParallelEnumerator() { Shutdown(); }

std::function<bool()> ParallelEnumerator::MakeClaim() {
  // Worker-local striding state behind a copyable closure: `seq` is the
  // worker's position in the global deterministic work sequence (every
  // worker walks the identical sequence, so positions align across
  // threads without communication), `next` the ordinal this worker
  // currently owns. Claiming is dynamic: whoever finishes its unit
  // first fetches the next ordinal, so skewed units self-balance.
  struct ClaimState {
    std::size_t seq = 0;
    std::size_t next = 0;
    bool initialized = false;
  };
  auto state = std::make_shared<ClaimState>();
  return [this, state]() {
    if (!state->initialized) {
      state->next = claim_counter_.fetch_add(1, std::memory_order_relaxed);
      state->initialized = true;
    }
    bool mine = state->seq == state->next;
    if (mine) {
      state->next = claim_counter_.fetch_add(1, std::memory_order_relaxed);
    }
    ++state->seq;
    return mine;
  };
}

void ParallelEnumerator::Start() {
  started_ = true;
  workers_.reserve(options_.workers);
  for (uint32_t i = 0; i < options_.workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  active_workers_ = workers_.size();
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    workers_[i]->thread = std::thread([this, i] { WorkerMain(i); });
  }
}

void ParallelEnumerator::WorkerMain(std::size_t index) {
  Worker& worker = *workers_[index];
  worker.start = std::chrono::steady_clock::now();
  {
    // Worker-scoped machinery: its own enumerator over the shared forest
    // and pinned view, its own record — nothing shared but the claim
    // counter, the stop flag and the result queue.
    SolutionEnumerator enumerator(
        *forest_, options_.hooks_factory(pool_ != nullptr ? &worker.stats : nullptr,
                                         MakeClaim()));
    if (pool_ != nullptr) enumerator.CollectStats(pool_);
    if (trace_ != nullptr) enumerator.SetSubtreeTimingSink(&worker.subtrees);
    enumerator.SetInterruptProbe(
        [this] {
          // Stop-flag first: shutdown and sibling-worker interruptions
          // stop this worker without consulting (or re-firing) the user
          // probe. A genuine probe fire latches `user_interrupted_`
          // before raising the flag, so the ordering is: latch, raise,
          // wake — every observer of the flag sees the latch.
          if (stop_.load(std::memory_order_relaxed)) return true;
          if (probe_ && probe_()) {
            user_interrupted_.store(true, std::memory_order_relaxed);
            stop_.store(true, std::memory_order_relaxed);
            not_empty_.notify_all();
            not_full_.notify_all();
            return true;
          }
          return false;
        },
        options_.check_interval);
    Mapping row;
    while (enumerator.Next(&row)) {
      if (!Push(std::move(row))) break;
    }
    AccumulateExecStats(enumerator.stats(), &worker.stats);
  }
  worker.duration_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - worker.start)
          .count());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --active_workers_;
  }
  not_empty_.notify_all();
}

bool ParallelEnumerator::Push(Mapping row) {
  std::unique_lock<std::mutex> lock(mutex_);
  not_full_.wait(lock, [this] {
    return queue_.size() < options_.queue_capacity ||
           stop_.load(std::memory_order_relaxed);
  });
  if (stop_.load(std::memory_order_relaxed)) return false;
  queue_.push_back(std::move(row));
  lock.unlock();
  not_empty_.notify_one();
  return true;
}

bool ParallelEnumerator::Pop(Mapping* out) {
  std::unique_lock<std::mutex> lock(mutex_);
  not_empty_.wait(lock, [this] {
    return !queue_.empty() || active_workers_ == 0 ||
           stop_.load(std::memory_order_relaxed);
  });
  // Interruption beats drain: a fired probe means "stop now", matching
  // the serial enumerator, which delivers nothing after its probe fires.
  if (user_interrupted_.load(std::memory_order_relaxed)) return false;
  if (queue_.empty()) return false;  // All workers done and drained.
  *out = std::move(queue_.front());
  queue_.pop_front();
  lock.unlock();
  not_full_.notify_one();
  return true;
}

bool ParallelEnumerator::Next(Mapping* out) {
  WDSPARQL_CHECK(out != nullptr);
  if (finished_) return false;
  if (!started_) Start();
  // The consumer evaluates the user probe too (once per pull): workers
  // blocked on a full queue cannot reach their own probe sites, and a
  // fired token must beat rows already queued — the serial engine
  // delivers nothing after its probe fires, so neither may the merge.
  if (probe_ && !user_interrupted_.load(std::memory_order_relaxed) && probe_()) {
    user_interrupted_.store(true, std::memory_order_relaxed);
    stop_.store(true, std::memory_order_relaxed);
    not_empty_.notify_all();
    not_full_.notify_all();
  }
  if (Pop(out)) return true;
  Shutdown();
  return false;
}

void ParallelEnumerator::Shutdown() {
  if (finished_) return;
  finished_ = true;
  if (!started_) return;  // Nothing launched: nothing to join or merge.
  stop_.store(true, std::memory_order_relaxed);
  not_empty_.notify_all();
  not_full_.notify_all();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  MergeWorkerStats();
}

void ParallelEnumerator::MergeWorkerStats() {
  uint64_t subtrees_seen = 0;
  for (const auto& worker : workers_) {
    AccumulateExecStats(worker->stats, &stats_);
    subtrees_seen = std::max<uint64_t>(
        subtrees_seen,
        worker->stats.empty_subpatterns + worker->stats.subpatterns.size());
  }
  if (pool_ != nullptr) {
    // Every worker walks the same subtree sequence, so a subtree is
    // empty only when no worker pulled a candidate from it: the subtrees
    // a worker opened, minus the merged breakdown entries.
    stats_.empty_subpatterns = subtrees_seen > stats_.subpatterns.size()
                                   ? subtrees_seen - stats_.subpatterns.size()
                                   : 0;
  }
  if (trace_ != nullptr) {
    // Worker and subtree spans, recorded by the workers as plain
    // steady-clock timings and emitted here from the consumer thread —
    // TraceContext is single-threaded by contract.
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      const Worker& worker = *workers_[i];
      const ExecStats& ws = worker.stats;
      uint32_t span = trace_->AddCompleteSpan(
          "worker", trace_parent_, TraceTimeOf(*trace_, worker.start),
          worker.duration_ns);
      trace_->Annotate(span, "worker", static_cast<uint64_t>(i));
      trace_->Annotate(span, "candidates", ws.candidates);
      trace_->Annotate(span, "emitted",
                       ws.candidates - ws.dedup_rejected - ws.non_maximal);
      EmitSubtreeSpans(worker.subtrees, trace_, span);
    }
  }
}

}  // namespace wdsparql
