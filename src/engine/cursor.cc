#include "wdsparql/cursor.h"

#include "engine/api_internal.h"
#include "util/timer.h"

namespace wdsparql {
namespace {

/// The once-per-execution finish step, whichever of exhaustion /
/// `Close` / destruction ends the execution first. It folds the
/// enumeration record into the cursor's `ExecStats`, merges the
/// execution's totals into the database's `MetricsRegistry`, ends the
/// enumeration (and with it the open tree's span), and releases the
/// machinery and the pinned view. This is the "cursor-local
/// accumulation, merge at close" half of the observability contract —
/// the enumeration hot path touched only plain cursor-local integers;
/// the shared atomics are touched here, once.
void FinalizeCursorStats(CursorImpl* impl) {
  if (impl->finalized || impl->stmt == nullptr || impl->stmt->db == nullptr ||
      impl->open_generation == 0) {
    return;  // Never opened (or already merged): nothing to account.
  }
  impl->finalized = true;
  const ExecStats& record = impl->enumerator->stats();
  const uint64_t candidates = record.candidates;
  if (impl->stats != nullptr) {
    ExecStats& stats = *impl->stats;
    AccumulateExecStats(record, &stats);
    // Optimizer totals, folded up from the per-node breakdown (the
    // planner runs once per tree, on its root search).
    for (const ExecStats::Subpattern& sub : stats.subpatterns) {
      stats.optimize_ns += sub.plan_ns;
      if (sub.est_rows >= 0) stats.est_cost += sub.est_cost;
    }
  }
  const ExecutionInstruments& metrics = impl->stmt->db->instruments;
  metrics.rows_emitted.get().Add(impl->rows);
  metrics.candidates.get().Add(candidates);
  metrics.maximality_tests.get().Add(record.maximality_tests);
  // Releasing the enumerator ends its open tree's span.
  impl->enumerator.reset();
  impl->view.reset();  // Drop the pin: the store may free superseded runs.
  // Outcome counters: how executions ended, not just what they did. A
  // serving layer watches these to tell healthy truncation (limits) from
  // pressure (deadlines) from abandonment (cancellations / early closes).
  switch (impl->state) {
    case Cursor::State::kCancelled:
      (impl->diagnostics.code == QueryDiagnostics::Code::kDeadlineExceeded
           ? metrics.deadline_exceeded
           : metrics.cancelled)
          .get()
          .Add(1);
      break;
    case Cursor::State::kLimited:
      metrics.limited.get().Add(1);
      break;
    case Cursor::State::kClosed:
    case Cursor::State::kOpen:  // Destroyed while open: same abandonment.
      // Closed while still open: the consumer walked away mid-stream
      // (e.g. a dropped client connection) rather than draining.
      metrics.closed_early.get().Add(1);
      break;
    default:
      break;
  }
  if (impl->stats != nullptr) {
    metrics.enumerate_ns.get().Observe(impl->stats->enumerate_ns);
  }
  if (impl->enumerate_span != 0) {
    TraceContext& trace = *impl->exec.trace;
    trace.Annotate(impl->enumerate_span, "rows", impl->rows);
    trace.Annotate(impl->enumerate_span, "candidates", candidates);
    trace.Annotate(impl->enumerate_span, "outcome",
                   CursorStateToString(impl->state));
    trace.EndSpan(impl->enumerate_span);
  }
}

}  // namespace

Cursor::Cursor() : impl_(std::make_unique<CursorImpl>()) {
  impl_->state = State::kFailed;
  impl_->diagnostics.code = QueryDiagnostics::Code::kInternal;
  impl_->diagnostics.message = "empty cursor (no statement)";
}

Cursor::Cursor(std::unique_ptr<CursorImpl> impl) : impl_(std::move(impl)) {}

Cursor::~Cursor() {
  // A dropped mid-enumeration cursor still merges its totals (moved-from
  // shells hold no impl and skip this).
  if (impl_ != nullptr) FinalizeCursorStats(impl_.get());
}

Cursor::Cursor(Cursor&&) noexcept = default;
Cursor& Cursor::operator=(Cursor&&) noexcept = default;

bool Cursor::Open() {
  switch (impl_->state) {
    case State::kOpen: return true;
    case State::kUnopened: break;
    default: return false;  // Closed/exhausted/limited/failed stay put.
  }
  const StatementImpl& stmt = *impl_->stmt;
  // Pin-at-open, on both backends: take shared ownership of the freshest
  // published ReadView — unless a user-held Snapshot already bound one
  // at Execute time, in which case the cursor reads exactly that state
  // however old it is. The cursor reads its view exclusively from here
  // on (the writer may mutate, merge and checkpoint freely — this
  // cursor's world no longer changes until it releases the view at
  // exhaustion, Close or destruction).
  if (!impl_->snapshot_bound) impl_->view = stmt.db->store.PinView();
  impl_->open_generation = impl_->view->generation();
  if (impl_->exec.trace != nullptr && impl_->exec.trace->enabled()) {
    // One span covering the whole enumeration (ended with rows/outcome
    // annotations at finish), with one child span per tree walk — never
    // per row — added by the enumerator as it loads the trees.
    impl_->enumerate_span =
        impl_->exec.trace->StartSpan("enumerate", impl_->exec.trace_parent);
  }
  // The user probe closes over copies of the bounds: the ExecOptions
  // value itself stays untouched, and the shared cancellation token may
  // be flipped from any thread (relaxed load — the flag is the only
  // communication, no ordering is needed).
  std::function<bool()> probe;
  if (impl_->exec.deadline.has_value() || impl_->exec.cancel != nullptr) {
    CancelToken cancel = impl_->exec.cancel;
    std::optional<std::chrono::steady_clock::time_point> deadline =
        impl_->exec.deadline;
    probe = [cancel, deadline]() {
      if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
        return true;
      }
      return deadline.has_value() &&
             std::chrono::steady_clock::now() >= *deadline;
    };
  }
  // The join layer counts straight into the cursor's record; the
  // enumerator's own record folds in at finish.
  EnumerationHooks hooks = engine_internal::MakeEnumerationHooks(
      *stmt.db, stmt.options, impl_->view, impl_->stats.get(), impl_->exec.optimize);
  impl_->enumerator = std::make_unique<SolutionEnumerator>(stmt.forest, std::move(hooks));
  if (impl_->stats != nullptr) impl_->enumerator->CollectStats(stmt.db->pool);
  if (impl_->enumerate_span != 0) {
    impl_->enumerator->SetTraceSink(impl_->exec.trace, impl_->enumerate_span);
  }
  if (probe) {
    impl_->enumerator->SetInterruptProbe(std::move(probe), impl_->exec.check_interval);
  }
  stmt.db->instruments.cursors_opened.get().Add(1);
  impl_->state = State::kOpen;
  return true;
}

namespace {

/// One pull: the body of `Cursor::Next` after the open/timing prologue.
/// Terminal paths only set the final state; the caller runs the finish
/// step (which releases the machinery and the pinned view) once the
/// phase timer has flushed.
bool NextRow(CursorImpl* impl) {
  if (impl->state != Cursor::State::kOpen) return false;
  if (impl->exec.row_limit != 0 && impl->rows >= impl->exec.row_limit) {
    // The permitted prefix was delivered in full; park the cursor (the
    // finish step releases it like exhaustion does). kLimited rather
    // than kExhausted: the consumer can tell a complete answer set from
    // a truncated one.
    impl->state = Cursor::State::kLimited;
    return false;
  }
  const StatementImpl& stmt = *impl->stmt;
  SolutionEnumerator& enumerator = *impl->enumerator;
  Mapping& mu = impl->pulled;
  while (enumerator.Next(&mu)) {
    bool filtered_out = false;
    for (const FilterCondition& filter : stmt.filters) {
      if (!filter.Satisfied(mu)) {
        filtered_out = true;
        break;
      }
    }
    if (filtered_out) {
      if (impl->stats != nullptr) ++impl->stats->filtered_out;
      continue;
    }
    if (!impl->dedup) {
      // The previous row's storage becomes the next pull's buffer.
      std::swap(impl->row, mu);
    } else {
      Mapping projected = mu.RestrictedTo(impl->columns);
      if (!impl->emitted.insert(projected).second) {
        if (impl->stats != nullptr) ++impl->stats->projection_dedup_rejected;
        continue;
      }
      impl->row = std::move(projected);
    }
    ++impl->rows;
    if (impl->stats != nullptr) ++impl->stats->rows_emitted;
    return true;
  }
  if (enumerator.interrupted()) {
    // Stopped mid-tree by the ExecOptions probe. The token is
    // checked first so a cancel that races the deadline reports as a
    // cancellation (the caller's explicit action wins the tie).
    bool token_fired = impl->exec.cancel != nullptr &&
                       impl->exec.cancel->load(std::memory_order_relaxed);
    impl->state = Cursor::State::kCancelled;
    impl->diagnostics.code = token_fired
                                  ? QueryDiagnostics::Code::kCancelled
                                  : QueryDiagnostics::Code::kDeadlineExceeded;
    impl->diagnostics.message =
        token_fired ? "execution cancelled by its cancellation token"
                    : "execution exceeded its deadline";
  } else {
    impl->state = Cursor::State::kExhausted;
  }
  return false;
}

}  // namespace

bool Cursor::Next() {
  if (impl_->state == State::kUnopened && !Open()) return false;
  bool has_row;
  if (impl_->stats != nullptr) {
    // The enumerate phase timer brackets exactly the pull work; it must
    // flush before the finish step so the final observation is complete.
    Timer enumerate_timer;
    has_row = NextRow(impl_.get());
    impl_->stats->enumerate_ns += enumerate_timer.ElapsedNanos();
  } else {
    has_row = NextRow(impl_.get());
  }
  if (!has_row) FinalizeCursorStats(impl_.get());
  return has_row;
}

void Cursor::Close() {
  if (impl_->state == State::kOpen || impl_->state == State::kUnopened) {
    impl_->state = State::kClosed;
  }
  FinalizeCursorStats(impl_.get());
  impl_->emitted.clear();
  // The explicit view release (the finish step already dropped it unless
  // a snapshot-bound cursor was never opened): dropping the last pin
  // lets the store free superseded runs (and unmap a snapshot file they
  // borrowed).
  impl_->view.reset();
}

Cursor::State Cursor::state() const { return impl_->state; }

const QueryDiagnostics& Cursor::diagnostics() const { return impl_->diagnostics; }

uint64_t Cursor::generation() const { return impl_->open_generation; }

std::size_t Cursor::width() const { return impl_->columns.size(); }

const std::string& Cursor::VariableName(std::size_t col) const {
  return impl_->column_names.at(col);
}

bool Cursor::IsBound(std::size_t col) const {
  return impl_->row.Get(impl_->columns.at(col)).has_value();
}

std::string Cursor::Value(std::size_t col) const {
  std::optional<TermId> value = impl_->row.Get(impl_->columns.at(col));
  if (!value.has_value()) return std::string();
  return std::string(impl_->stmt->db->pool->Spelling(*value));
}

const Mapping& Cursor::Row() const { return impl_->row; }

uint64_t Cursor::rows() const { return impl_->rows; }

const ExecStats* Cursor::stats() const { return impl_->stats.get(); }

const char* CursorStateToString(Cursor::State state) {
  switch (state) {
    case Cursor::State::kUnopened: return "unopened";
    case Cursor::State::kOpen: return "open";
    case Cursor::State::kExhausted: return "exhausted";
    case Cursor::State::kClosed: return "closed";
    case Cursor::State::kLimited: return "limited";
    case Cursor::State::kCancelled: return "cancelled";
    case Cursor::State::kFailed: return "failed";
  }
  return "unknown";
}

}  // namespace wdsparql
