#include "wdsparql/database.h"

#include <fstream>
#include <type_traits>
#include <unordered_map>

#include "engine/api_internal.h"
#include "engine/join.h"
#include "optimizer/planner.h"
#include "ptree/tgraph.h"
#include "rdf/ntriples.h"
#include "util/timer.h"
#include "wd/eval.h"

namespace wdsparql {
namespace {

/// One id-resolved batch operation (the currency of the shared commit
/// path below; `Database::Apply` resolves spellings into these, the
/// single-triple mutators build one directly).
struct ResolvedOp {
  Triple t;
  bool add;
};

/// THE commit path — every mutation funnels through here. Sequential
/// semantics over `ops` reduce to a *net effect* (the last op per
/// triple wins; ops matching the current state drop out), which is then
/// made durable as ONE write-ahead-log record (a group frame for
/// multi-op batches) and applied as ONE copy-on-write delta build with
/// ONE view publish. An empty net effect is a complete no-op: nothing
/// is logged, nothing published, `generation()` stays put. On a WAL
/// failure the error latches, nothing is applied, and the status is
/// returned — the mutation was never made durable.
Status ApplyResolvedOps(DatabaseImpl* impl, const std::vector<ResolvedOp>& ops,
                        ApplyResult* result, TraceContext* trace = nullptr) {
  if (result != nullptr) *result = ApplyResult{};

  // Net effect: final desired presence per touched triple, in
  // first-touch order (deterministic WAL records and apply order).
  std::vector<Triple> touched;
  std::unordered_map<Triple, bool, TripleHash> desired;
  touched.reserve(ops.size());
  desired.reserve(ops.size());
  for (const ResolvedOp& op : ops) {
    auto [it, inserted] = desired.emplace(op.t, op.add);
    if (inserted) {
      touched.push_back(op.t);
    } else {
      it->second = op.add;
    }
  }
  std::vector<Triple> adds;
  std::vector<Triple> removes;
  for (const Triple& t : touched) {
    bool present = impl->store.view().Contains(t);
    if (desired[t] && !present) {
      adds.push_back(t);
    } else if (!desired[t] && present) {
      removes.push_back(t);
    }
  }
  if (adds.empty() && removes.empty()) return Status::OK();

  // Commit-path accounting: one counter bump and one histogram sample
  // per effective commit (writer thread; never on the read hot path).
  impl->instruments.write_commits.get().Add(1);
  impl->instruments.write_net_ops.get().Observe(adds.size() + removes.size());

  // Tracing: a caller-supplied context (the server's per-request trace)
  // parents the commit under its root span; without one, an enabled
  // recorder still gets a self-rooted commit trace, so /debug/trace
  // shows recent write activity even for embedded callers.
  TraceContext local_trace;
  if (trace == nullptr && impl->trace != nullptr) {
    local_trace = TraceContext(impl->trace.get());
    trace = &local_trace;
  }
  uint32_t commit_span = 0;
  if (trace != nullptr && trace->enabled()) {
    commit_span = trace->StartSpan("commit", trace->root());
    trace->Annotate(commit_span, "adds", static_cast<uint64_t>(adds.size()));
    trace->Annotate(commit_span, "removes",
                    static_cast<uint64_t>(removes.size()));
  }
  struct EndCommitSpan {
    TraceContext* trace;
    uint32_t span;
    ~EndCommitSpan() {
      if (trace != nullptr) trace->EndSpan(span);
    }
  } end_commit{trace, commit_span};

  const uint64_t generation_before = impl->store.generation();
  auto apply_chunk = [impl, result, generation_before, trace, commit_span](
                         const std::vector<Triple>& chunk_adds,
                         const std::vector<Triple>& chunk_removes) {
    impl->store.ApplyBatch(chunk_adds, chunk_removes, trace, commit_span);
    if (result != nullptr) {
      result->added += chunk_adds.size();
      result->removed += chunk_removes.size();
      // Generation delta, not a constant: each chunk's ApplyBatch
      // publishes once (a budget merge inside it included), a batch may
      // span several WAL chunks, and error paths return the facts of
      // whatever prefix committed.
      result->publishes = impl->store.generation() - generation_before;
    }
  };

  if (impl->wal == nullptr) {
    apply_chunk(adds, removes);
    return Status::OK();
  }

  // The error latches: once an append failed, the log's tail state is
  // suspect and later mutations are refused outright (matching the
  // storage_status() contract) rather than racing a broken device.
  WDSPARQL_RETURN_IF_ERROR(impl->sticky_storage_status());

  // Commit-scoped WAL trace sink: appends below emit wal.append /
  // wal.fsync spans under the commit span. Detached on every exit path
  // (the context may die with this call's caller).
  struct WalTraceGuard {
    storage::WriteAheadLog* wal;
    ~WalTraceGuard() { wal->set_trace(nullptr, 0); }
  } wal_trace_guard{impl->wal.get()};
  impl->wal->set_trace(trace, commit_span);

  // WAL before data: spellings, not ids (ids are intern order and the
  // log outlives this pool; TermPool spelling views are address-stable,
  // so the refs stay valid across the append). Every practical batch is
  // ONE group frame, replayed all-or-nothing. A batch whose spellings
  // would overflow the WAL frame bound degrades gracefully into several
  // consecutive groups — each chunk is logged, then applied, before the
  // next, so the in-memory state and the log agree at every step,
  // whatever fails in between.
  std::vector<std::pair<Triple, bool>> net_ops;  // (triple, is_add).
  net_ops.reserve(adds.size() + removes.size());
  for (const Triple& t : adds) net_ops.emplace_back(t, true);
  for (const Triple& t : removes) net_ops.emplace_back(t, false);

  constexpr uint64_t kGroupPayloadBudget = 32ull << 20;  // Half the frame cap.
  const uint64_t wal_bytes_before = impl->wal->record_bytes();
  std::size_t begin = 0;
  while (begin < net_ops.size()) {
    std::vector<storage::WalOp> wal_ops;
    std::vector<Triple> chunk_adds;
    std::vector<Triple> chunk_removes;
    uint64_t payload = 1 + sizeof(uint32_t);  // Group tag + count.
    std::size_t end = begin;
    while (end < net_ops.size()) {
      const Triple& t = net_ops[end].first;
      bool is_add = net_ops[end].second;
      storage::WalOp op{is_add ? storage::WalRecordType::kAddTriple
                               : storage::WalRecordType::kRemoveTriple,
                        impl->pool->Spelling(t.subject),
                        impl->pool->Spelling(t.predicate),
                        impl->pool->Spelling(t.object)};
      uint64_t op_bytes = 1 + 3 * sizeof(uint32_t) + op.subject.size() +
                          op.predicate.size() + op.object.size();
      if (!wal_ops.empty() && payload + op_bytes > kGroupPayloadBudget) break;
      payload += op_bytes;
      wal_ops.push_back(op);
      (is_add ? chunk_adds : chunk_removes).push_back(t);
      ++end;
    }
    // One-op chunks keep the compact single-record frame; real groups
    // get the version-2 group frame.
    Status logged = wal_ops.size() == 1
                        ? impl->wal->Append(wal_ops[0].type, wal_ops[0].subject,
                                            wal_ops[0].predicate, wal_ops[0].object)
                        : impl->wal->AppendGroup(wal_ops);
    if (!logged.ok()) {
      // A size refusal (kInvalidArgument) wrote nothing and leaves the
      // log tail healthy: return it without latching. Device/tail
      // failures latch as always. Chunks committed before this point
      // are both durable and applied — memory and log still agree.
      if (logged.code() != StatusCode::kInvalidArgument) {
        impl->LatchStorageError(logged);
      }
      return logged;
    }
    apply_chunk(chunk_adds, chunk_removes);
    if (result != nullptr) {
      result->wal_groups += 1;
      result->wal_bytes = impl->wal->record_bytes() - wal_bytes_before;
    }
    begin = end;
  }
  return Status::OK();
}

}  // namespace

Database::Database(const DatabaseOptions& options)
    : impl_(std::make_unique<DatabaseImpl>(nullptr, options)) {}

Database::Database(TermPool* pool, const DatabaseOptions& options)
    : impl_(std::make_unique<DatabaseImpl>(pool, options)) {
  WDSPARQL_CHECK(pool != nullptr);
}

Database::~Database() = default;
Database::Database(Database&&) noexcept = default;
Database& Database::operator=(Database&&) noexcept = default;

bool Database::AddTriple(const Triple& t) {
  if (!t.IsGround()) return false;  // Variables are not storable facts.
  // A one-element batch through the shared commit path: same WAL-before-
  // data ordering, same single publish, same no-op-for-duplicates
  // behaviour as always — just no longer a separate code path.
  ApplyResult result;
  Status status = ApplyResolvedOps(impl_.get(), {{t, true}}, &result);
  return status.ok() && result.added == 1;
}

bool Database::AddTriple(std::string_view s, std::string_view p, std::string_view o) {
  return AddTriple(
      Triple(pool().InternIri(s), pool().InternIri(p), pool().InternIri(o)));
}

bool Database::RemoveTriple(const Triple& t) {
  ApplyResult result;
  Status status = ApplyResolvedOps(impl_.get(), {{t, false}}, &result);
  return status.ok() && result.removed == 1;
}

bool Database::RemoveTriple(std::string_view s, std::string_view p,
                            std::string_view o) {
  // Pure lookup: a delete probe for unknown spellings must not grow the
  // append-only pool (long-running services issue many no-op deletes).
  std::optional<TermId> sid = pool().FindIri(s);
  std::optional<TermId> pid = pool().FindIri(p);
  std::optional<TermId> oid = pool().FindIri(o);
  if (!sid.has_value() || !pid.has_value() || !oid.has_value()) return false;
  return RemoveTriple(Triple(*sid, *pid, *oid));
}

Status Database::Apply(WriteBatch&& batch, ApplyResult* result,
                       TraceContext* trace) {
  if (result != nullptr) *result = ApplyResult{};
  // Resolve spellings sequentially: adds intern (so a later remove of a
  // triple this very batch introduces still finds its terms); removes
  // only probe — a spelling the pool never interned cannot name a
  // present triple, so that remove is a net no-op and must not grow the
  // append-only pool.
  std::vector<ResolvedOp> ops;
  ops.reserve(batch.ops().size());
  TermPool& terms = pool();
  for (const WriteBatch::Op& op : batch.ops()) {
    if (op.add) {
      ops.push_back({Triple(terms.InternIri(op.subject),
                            terms.InternIri(op.predicate),
                            terms.InternIri(op.object)),
                     true});
    } else {
      std::optional<TermId> s = terms.FindIri(op.subject);
      std::optional<TermId> p = terms.FindIri(op.predicate);
      std::optional<TermId> o = terms.FindIri(op.object);
      if (!s.has_value() || !p.has_value() || !o.has_value()) continue;
      ops.push_back({Triple(*s, *p, *o), false});
    }
  }
  Status status = ApplyResolvedOps(impl_.get(), ops, result, trace);
  if (status.ok()) batch.Clear();  // Sink semantics: the batch is consumed.
  return status;
}

Status Database::LoadNTriples(std::string_view text) {
  // One batch, one delta build, one publish, one WAL group — and atomic
  // on parse errors, because the batch stages nothing until the whole
  // text parsed. (This retires the old empty-database-only sort-based
  // fast path: the batch path amortises identically without the
  // special case, WAL databases included.)
  WriteBatch batch;
  WDSPARQL_RETURN_IF_ERROR(batch.LoadNTriples(text));
  return Apply(std::move(batch));
}

Status Database::LoadNTriplesFile(const std::string& path, std::size_t batch_size) {
  if (batch_size == 0) {
    WriteBatch batch;
    WDSPARQL_RETURN_IF_ERROR(batch.LoadNTriplesFile(path));
    return Apply(std::move(batch));
  }
  return LoadNTriplesFile(path, batch_size, LoadProgress());
}

Status Database::LoadNTriplesFile(const std::string& path, std::size_t batch_size,
                                  const LoadProgress& progress) {
  if (batch_size == 0) {
    return Status::InvalidArgument(
        "LoadNTriplesFile with a progress callback requires batch_size > 0 "
        "(progress is reported per committed batch)");
  }
  // Streaming mode: parse straight into the database's pool and commit
  // every `batch_size` triples, bounding peak memory and WAL group size
  // (each committed batch stays applied if a later line fails to parse).
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  WriteBatch batch;
  std::string line;
  int line_number = 0;
  std::size_t triples_loaded = 0;
  while (std::getline(in, line)) {
    ++line_number;
    std::optional<Triple> triple;
    WDSPARQL_RETURN_IF_ERROR(ParseNTriplesLine(line, line_number, &pool(), &triple));
    if (!triple.has_value()) continue;
    batch.Add(pool(), *triple);
    if (batch.size() >= batch_size) {
      std::size_t committed = batch.size();
      WDSPARQL_RETURN_IF_ERROR(Apply(std::move(batch)));
      triples_loaded += committed;
      if (progress) progress(triples_loaded, committed);
    }
  }
  if (in.bad()) return Status::IoError("read failure on " + path);
  std::size_t committed = batch.size();
  WDSPARQL_RETURN_IF_ERROR(Apply(std::move(batch)));
  if (committed > 0) {
    triples_loaded += committed;
    if (progress) progress(triples_loaded, committed);
  }
  return Status::OK();
}

void Database::Compact() { impl_->store.MergeDelta(); }

std::size_t Database::size() const { return impl_->store.PinView()->size(); }

bool Database::Contains(const Triple& t) const {
  return impl_->store.PinView()->Contains(t);
}

std::size_t Database::pending_delta() const {
  return impl_->store.PinView()->pending_delta();
}

uint64_t Database::generation() const {
  return impl_->store.PinView()->generation();
}

TermPool& Database::pool() const { return *impl_->pool; }

Session Database::OpenSession(const SessionOptions& options) const {
  return Session(impl_.get(), options);
}

Snapshot Database::GetSnapshot() const {
  return Snapshot(impl_.get(), impl_->store.PinView());
}

uint64_t Snapshot::generation() const {
  return view_ == nullptr ? 0 : view_->generation();
}

std::size_t Snapshot::size() const { return view_ == nullptr ? 0 : view_->size(); }

bool Snapshot::Contains(const Triple& t) const {
  return view_ != nullptr && view_->Contains(t);
}

Status Database::storage_status() const { return impl_->sticky_storage_status(); }

MetricsRegistry& Database::metrics() const { return *impl_->metrics; }

TraceRecorder* Database::trace_recorder() const { return impl_->trace.get(); }

std::string Database::DumpTraces(std::size_t max_traces) const {
  if (impl_->trace == nullptr) return "{\"traces\":[]}";
  return impl_->trace->DumpJson(max_traces);
}

std::string Database::DumpMetrics(MetricsFormat format) const {
  return impl_->metrics->Dump(format);
}

const char* BackendToString(Backend backend) {
  switch (backend) {
    case Backend::kNaiveHash: return "naive-hash";
    case Backend::kIndexed: return "indexed";
  }
  return "unknown";
}

namespace engine_internal {

namespace {

static_assert(std::is_same_v<RowValue, DataId>,
              "the indexed backend's rows hold DataIds");

/// The indexed backend's node search: a `CompiledJoin` over the pinned
/// view. A tree's root search binds its variables in the cost-based
/// planner's order when `optimize` is set and the view carries
/// cardinality statistics, and surfaces the plan through `plan_info()`;
/// every other search keeps the heuristic order with its inputs bound.
class JoinSearch final : public NodeSearch {
 public:
  JoinSearch(const ReadView& view, const SearchSpec& spec, ExecStats* stats, bool optimize,
             const TermPool* pool, Counter* plans_metric, Histogram* plan_ns_metric)
      : plan_(MakePlan(view, spec, optimize, plans_metric, plan_ns_metric, &info_.plan_ns)),
        join_(view, spec.pattern->triples(), *spec.row_vars, stats,
              plan_.has_value() ? &plan_->var_order : nullptr) {
    if (plan_.has_value()) {
      info_.est_rows = plan_->est_rows;
      info_.est_cost = plan_->est_cost;
      // The rendering is for the breakdown only, which a stats-collecting
      // execution keeps.
      if (stats != nullptr) info_.description = optimizer::DescribePlan(*plan_, *pool);
    }
  }

  void Open(const RowValue* row) override { join_.Open(row); }
  bool Next() override { return join_.Next(); }
  const std::vector<TermId>& variables() const override { return join_.variables(); }
  const RowValue* values() const override { return join_.values(); }

  const SearchPlanInfo* plan_info() const override {
    return plan_.has_value() ? &info_ : nullptr;
  }

 private:
  static std::optional<optimizer::SubtreePlan> MakePlan(
      const ReadView& view, const SearchSpec& spec, bool optimize, Counter* plans_metric,
      Histogram* plan_ns_metric, uint64_t* plan_ns) {
    if (!optimize || spec.tree == nullptr || spec.node != spec.tree->root() ||
        view.stats() == nullptr) {
      return std::nullopt;
    }
    Timer timer;
    std::optional<optimizer::SubtreePlan> plan =
        optimizer::PlanSubtree(view, spec.pattern->triples());
    *plan_ns = timer.ElapsedNanos();
    if (plan.has_value()) {
      plans_metric->Add(1);
      plan_ns_metric->Observe(*plan_ns);
    }
    return plan;
  }

  // Declaration order is load-bearing: `plan_` initialises (writing
  // `info_.plan_ns`) before `join_`, which consumes the chosen order.
  SearchPlanInfo info_;
  std::optional<optimizer::SubtreePlan> plan_;
  CompiledJoin join_;
};

}  // namespace

EnumerationHooks MakeEnumerationHooks(const DatabaseImpl& db,
                                      const SessionOptions& options,
                                      std::shared_ptr<const ReadView> view,
                                      ExecStats* join_stats,
                                      bool optimize) {
  // The hooks share ownership of the pinned view: the enumeration stays
  // valid however long the cursor lives and whatever the writer does
  // meanwhile. `join_stats` (when collecting) is cursor-local and
  // outlives the hooks by contract, so the lambdas capture it raw.
  WDSPARQL_CHECK(view != nullptr);
  EnumerationHooks hooks;
  if (options.backend == Backend::kNaiveHash) {
    hooks.open_search = [view](const SearchSpec& spec, const std::function<bool()>& stop) {
      return SolverSearch(spec, *view, stop);
    };
    return hooks;
  }
  // Optimizer plumbing: the database's cached instruments. The pool
  // pointer renders plan descriptions.
  const TermPool* pool = db.pool;
  Counter* plans_metric = &db.instruments.optimizer_plans.get();
  Histogram* plan_ns_metric = &db.instruments.optimizer_plan_ns.get();
  // The compiled join is lazy, so it needs no stop check: the enumerator
  // checks for interruption between pulls.
  hooks.open_search = [view, join_stats, optimize, pool, plans_metric, plan_ns_metric](
                          const SearchSpec& spec,
                          const std::function<bool()>&) -> std::unique_ptr<NodeSearch> {
    return std::make_unique<JoinSearch>(*view, spec, join_stats, optimize, pool,
                                        plans_metric, plan_ns_metric);
  };
  // Rows stay DataIds until an answer is emitted.
  hooks.decode = [view, join_stats](RowValue value) {
    if (join_stats != nullptr) ++join_stats->dict_decodes;
    return view->dict().Decode(value);
  };
  return hooks;
}

bool EvaluateMembership(const PatternForest& forest, const SessionOptions& options,
                        const Mapping& mu, std::shared_ptr<const ReadView> view) {
  // Subtree matching and every extension test read the same pinned view.
  if (options.backend == Backend::kNaiveHash) {
    // Under a pebble promise the game runs over the pinned view. Its
    // domain is `ReadView::AllTerms`: every dictionary term, including
    // dead ones a removal left in no triple. They cannot change the
    // outcome at k+1 >= 2 pebbles on a non-empty view (and a test only
    // runs once mu matched a subtree in this view): a dead image for x
    // survives only when every triple of x has three free variables and
    // the game has two pebbles, and then any live term survives in its
    // place.
    return WdEvalWith(forest, *view, mu, nullptr,
                      [&](const TripleSet& combined, const TripleSet&) {
                        return LiteralExtends(combined, mu, *view, options.pebble_promise);
                      });
  }
  // mu, encoded once, is the row of every test. A value absent from the
  // view fails every tree: dom(mu) must be the variables of a subtree
  // whose pattern mu maps into the view.
  const std::vector<TermId> row_vars = mu.Domain();
  std::vector<DataId> row;
  for (const auto& [var, value] : mu.bindings()) {
    row.push_back(view->dict().Encode(value));
    if (row.back() == kNoDataId) return false;
  }
  return WdEvalWith(forest, *view, mu, nullptr,
                    [&](const TripleSet&, const TripleSet& child) {
                      return CompiledJoin(*view, child.triples(), row_vars)
                          .Extends(row.data());
                    });
}

}  // namespace engine_internal

}  // namespace wdsparql
