#include "engine/parallel_exec.h"

#include <algorithm>

#include "util/check.h"

namespace wdsparql {

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
  if (trace_ != nullptr) launch_trace_ns_ = trace_->NowNs();
  launch_tp_ = std::chrono::steady_clock::now();
  workers_.reserve(options_.workers);
  for (uint32_t i = 0; i < options_.workers; ++i) {
    auto worker = std::make_unique<Worker>();
    if (sink_ != nullptr) worker->exec_stats = std::make_unique<ExecStats>();
    workers_.push_back(std::move(worker));
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
    // and pinned view, its own counter structs — nothing shared but the
    // claim counter, the stop flag and the result queue.
    SolutionEnumerator enumerator(
        *forest_, options_.hooks_factory(&worker.join_stats, MakeClaim()));
    if (worker.exec_stats != nullptr) {
      enumerator.SetStatsSink(worker.exec_stats.get(), sink_pool_);
    }
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
    Mapping mu;
    while (enumerator.Next(&mu)) {
      if (!Push(std::move(mu))) break;
    }
    worker.enum_stats = enumerator.stats();
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

bool ParallelEnumerator::Push(Mapping mu) {
  std::unique_lock<std::mutex> lock(mutex_);
  not_full_.wait(lock, [this] {
    return queue_.size() < options_.queue_capacity ||
           stop_.load(std::memory_order_relaxed);
  });
  if (stop_.load(std::memory_order_relaxed)) return false;
  queue_.push_back(std::move(mu));
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
  Mapping mu;
  while (true) {
    // The consumer evaluates the user probe too (once per pull): workers
    // blocked on a full queue cannot reach their own probe sites, and a
    // fired token must beat rows already queued — the serial engine
    // delivers nothing after its probe fires, so neither may the merge.
    if (probe_ && !user_interrupted_.load(std::memory_order_relaxed) &&
        probe_()) {
      user_interrupted_.store(true, std::memory_order_relaxed);
      stop_.store(true, std::memory_order_relaxed);
      not_empty_.notify_all();
      not_full_.notify_all();
    }
    if (!Pop(&mu)) break;
    // The one cross-worker deduplication point: workers dedup their own
    // subsets, the merge dedups across them, so the delivered set equals
    // the serial `seen_` semantics exactly.
    if (!seen_.insert(mu).second) {
      ++merged_stats_.merge_dedup;
      continue;
    }
    *out = std::move(mu);
    return true;
  }
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
  uint64_t merge_dedup = merged_stats_.merge_dedup;
  merged_stats_ = EnumerateStats{};
  merged_stats_.merge_dedup = merge_dedup;
  for (const auto& worker : workers_) {
    merged_stats_.candidates += worker->enum_stats.candidates;
    merged_stats_.emitted += worker->enum_stats.emitted;
    merged_stats_.maximality_tests += worker->enum_stats.maximality_tests;
    if (join_sink_ != nullptr) {
      const JoinStats& js = worker->join_stats;
      join_sink_->ranges_scanned += js.ranges_scanned;
      join_sink_->values_probed += js.values_probed;
      join_sink_->emitted += js.emitted;
      join_sink_->base_scanned += js.base_scanned;
      join_sink_->delta_scanned += js.delta_scanned;
      join_sink_->dict_encodes += js.dict_encodes;
      join_sink_->dict_decodes += js.dict_decodes;
    }
  }
  if (sink_ != nullptr) {
    // Re-merge the per-worker breakdowns by (tree, subtree): several
    // workers contribute candidates to the same subtree, and the report
    // should read like the serial one — one line per subtree, counters
    // summed, in enumeration order.
    std::vector<ExecStats::Subpattern> merged;
    auto find = [&merged](std::size_t tree,
                          std::size_t subtree) -> ExecStats::Subpattern* {
      for (ExecStats::Subpattern& sub : merged) {
        if (sub.tree == tree && sub.subtree == subtree) return &sub;
      }
      return nullptr;
    };
    for (const auto& worker : workers_) {
      if (worker->exec_stats == nullptr) continue;
      const ExecStats& ws = *worker->exec_stats;
      sink_->candidates += ws.candidates;
      sink_->dedup_rejected += ws.dedup_rejected;
      sink_->non_maximal += ws.non_maximal;
      sink_->maximality_tests += ws.maximality_tests;
      sink_->interrupt_checks += ws.interrupt_checks;
      for (const ExecStats::Subpattern& sub : ws.subpatterns) {
        ExecStats::Subpattern* into = find(sub.tree, sub.subtree);
        if (into == nullptr) {
          merged.push_back(sub);
          continue;
        }
        into->candidates += sub.candidates;
        into->dedup_rejected += sub.dedup_rejected;
        into->non_maximal += sub.non_maximal;
        into->maximality_tests += sub.maximality_tests;
        into->rows += sub.rows;
      }
    }
    std::sort(merged.begin(), merged.end(),
              [](const ExecStats::Subpattern& a, const ExecStats::Subpattern& b) {
                return a.tree != b.tree ? a.tree < b.tree : a.subtree < b.subtree;
              });
    // Cross-worker merge dedup counts with the cursor-level dedup (a
    // duplicate is a duplicate, wherever it was caught).
    sink_->dedup_rejected += merged_stats_.merge_dedup;
    // Every worker visits every subtree, so any one worker's (entries +
    // empties) is the subtree total; truly-empty subtrees are those no
    // worker pulled a candidate from.
    if (!workers_.empty() && workers_[0]->exec_stats != nullptr) {
      uint64_t total = workers_[0]->exec_stats->empty_subpatterns +
                       workers_[0]->exec_stats->subpatterns.size();
      sink_->empty_subpatterns +=
          total > merged.size() ? total - merged.size() : 0;
    }
    for (ExecStats::Subpattern& sub : merged) {
      sink_->subpatterns.push_back(std::move(sub));
    }
  }
  if (trace_ != nullptr) {
    // Worker and subtree spans, recorded by the workers as plain
    // steady-clock timings and emitted here from the consumer thread —
    // TraceContext is single-threaded by contract.
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      const Worker& worker = *workers_[i];
      uint32_t span = trace_->AddCompleteSpan("worker", trace_parent_,
                                              TraceTimeOf(worker.start),
                                              worker.duration_ns);
      trace_->Annotate(span, "worker", static_cast<uint64_t>(i));
      trace_->Annotate(span, "candidates", worker.enum_stats.candidates);
      trace_->Annotate(span, "emitted", worker.enum_stats.emitted);
      for (const SubtreeTiming& timing : worker.subtrees) {
        uint32_t sub = trace_->AddCompleteSpan(
            "subtree", span, TraceTimeOf(timing.start), timing.duration_ns);
        trace_->Annotate(sub, "tree", timing.tree);
        trace_->Annotate(sub, "subtree", timing.subtree);
        trace_->Annotate(sub, "candidates", timing.candidates);
      }
    }
  }
}

uint64_t ParallelEnumerator::TraceTimeOf(
    std::chrono::steady_clock::time_point tp) const {
  return launch_trace_ns_ +
         static_cast<uint64_t>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(tp - launch_tp_)
                 .count());
}

}  // namespace wdsparql
