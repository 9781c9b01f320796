#include "wdsparql/session.h"

#include <algorithm>

#include "engine/api_internal.h"
#include "sparql/parser.h"
#include "sparql/well_designed.h"
#include "util/timer.h"

namespace wdsparql {
namespace {

/// True iff the pattern contains a FILTER node anywhere.
bool ContainsFilterNode(const GraphPattern& p) {
  switch (p.kind()) {
    case PatternKind::kTriple: return false;
    case PatternKind::kFilter: return true;
    default: return ContainsFilterNode(*p.left()) || ContainsFilterNode(*p.right());
  }
}

std::string DisplayName(const TermPool& pool, TermId var) {
  return "?" + std::string(pool.Spelling(var));
}

/// Strips an optional leading '?' from a user-supplied variable name.
std::string_view StripQuestionMark(std::string_view name) {
  if (!name.empty() && name.front() == '?') name.remove_prefix(1);
  return name;
}

}  // namespace

// ---------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------

namespace {

/// The shared preparation pipeline; returns mutable impl state so the
/// text-entry point can record the source text.
std::shared_ptr<StatementImpl> PrepareImpl(const DatabaseImpl* db,
                                           const SessionOptions& options,
                                           const PatternPtr& pattern);

}  // namespace

Statement Session::Prepare(std::string_view pattern_text) const {
  Timer parse_timer;
  Result<PatternPtr> parsed = ParsePattern(pattern_text, db_->pool);
  uint64_t parse_ns = parse_timer.ElapsedNanos();
  if (!parsed.ok()) {
    auto impl = std::make_shared<StatementImpl>();
    impl->db = db_;
    impl->options = options_;
    impl->diagnostics.code = QueryDiagnostics::Code::kParseError;
    impl->diagnostics.message = parsed.status().message();
    impl->diagnostics.pattern_text = std::string(pattern_text);
    return Statement(std::move(impl));
  }
  std::shared_ptr<StatementImpl> impl = PrepareImpl(db_, options_, parsed.value());
  impl->diagnostics.pattern_text = std::string(pattern_text);
  impl->parse_ns = parse_ns;
  return Statement(std::move(impl));
}

Statement Session::PrepareParsed(
    const std::shared_ptr<const GraphPattern>& pattern) const {
  return Statement(PrepareImpl(db_, options_, pattern));
}

namespace {

std::shared_ptr<StatementImpl> PrepareImpl(const DatabaseImpl* db,
                                           const SessionOptions& options,
                                           const PatternPtr& pattern) {
  auto impl = std::make_shared<StatementImpl>();
  impl->db = db;
  impl->options = options;
  impl->pattern = pattern;
  QueryDiagnostics& diag = impl->diagnostics;
  diag.parsed = true;

  const TermPool& pool = *db->pool;

  // Well-designedness of the full pattern (FILTER safety included).
  Timer check_timer;
  WellDesignedness wd = CheckWellDesignedDetailed(pattern, pool);
  impl->check_ns = check_timer.ElapsedNanos();
  if (!wd.status.ok()) {
    diag.code = QueryDiagnostics::Code::kNotWellDesigned;
    diag.message = wd.status.message();
    if (wd.has_offending_variable) {
      diag.offending_variable = DisplayName(pool, wd.offending_variable);
    }
    return impl;
  }
  diag.well_designed = true;

  Timer plan_timer;
  // Peel top-level FILTER conditions: JP FILTER RKG = {mu ∈ JPKG : R(mu)},
  // so they run as execution-time post-filters over the enumerated
  // bindings — on whichever backend the session configured. FILTER below
  // AND/OPT has no such decomposition and stays outside the fragment.
  PatternPtr core = pattern;
  while (core->kind() == PatternKind::kFilter) {
    impl->filters.push_back(core->condition());
    core = core->left();
  }
  if (ContainsFilterNode(*core)) {
    diag.code = QueryDiagnostics::Code::kUnsupported;
    diag.message =
        "FILTER below AND/OPT is outside the executable fragment (Section 5); "
        "only top-level FILTER conditions can be applied as post-filters";
    return impl;
  }
  impl->core = core;
  diag.post_filters = impl->filters.size();
  diag.union_free = core->IsUnionFree();
  diag.num_triple_patterns = static_cast<std::size_t>(core->NumTriples());

  // The check above covered `core`: dropping top-level FILTERs keeps a
  // pattern well designed.
  Result<PatternForest> forest = BuildPatternForestOfWellDesigned(core);
  if (!forest.ok()) {
    diag.code = QueryDiagnostics::Code::kInternal;
    diag.message = "wdpf translation failed on a checked pattern: " +
                   forest.status().message();
    return impl;
  }
  impl->forest = std::move(forest).value();
  diag.num_trees = impl->forest.trees.size();

  impl->var_ids = core->Variables();
  for (TermId var : impl->var_ids) {
    impl->var_names.push_back(DisplayName(pool, var));
    diag.variables.push_back(impl->var_names.back());
  }
  impl->plan_ns = plan_timer.ElapsedNanos();
  return impl;
}

}  // namespace

// ---------------------------------------------------------------------
// Statement
// ---------------------------------------------------------------------

Statement::Statement() {
  auto impl = std::make_shared<StatementImpl>();
  impl->diagnostics.code = QueryDiagnostics::Code::kInternal;
  impl->diagnostics.message = "empty statement (never prepared)";
  impl_ = std::move(impl);
}

Statement::Statement(std::shared_ptr<const StatementImpl> impl)
    : impl_(std::move(impl)) {}

bool Statement::ok() const { return impl_->diagnostics.ok(); }

const QueryDiagnostics& Statement::diagnostics() const { return impl_->diagnostics; }

const std::vector<std::string>& Statement::variables() const {
  return impl_->var_names;
}

Cursor Statement::Execute() const { return ExecuteInternal({}, nullptr, {}); }

Cursor Statement::Execute(const std::vector<std::string>& projection) const {
  return ExecuteInternal(projection, nullptr, {});
}

Cursor Statement::Execute(const ExecOptions& options) const {
  return ExecuteInternal({}, nullptr, options);
}

Cursor Statement::Execute(const std::vector<std::string>& projection,
                          const ExecOptions& options) const {
  return ExecuteInternal(projection, nullptr, options);
}

Cursor Statement::Execute(const Snapshot& snapshot,
                          const ExecOptions& options) const {
  return ExecuteInternal({}, &snapshot, options);
}

Cursor Statement::Execute(const std::vector<std::string>& projection,
                          const Snapshot& snapshot,
                          const ExecOptions& options) const {
  return ExecuteInternal(projection, &snapshot, options);
}

Cursor Statement::ExecuteInternal(const std::vector<std::string>& projection,
                                  const Snapshot* snapshot,
                                  const ExecOptions& options) const {
  auto cursor = std::make_unique<CursorImpl>();
  cursor->stmt = impl_;
  cursor->diagnostics = impl_->diagnostics;
  cursor->exec = options;
  if (!ok()) {
    cursor->state = Cursor::State::kFailed;
    return Cursor(std::move(cursor));
  }
  if (snapshot != nullptr) {
    // Snapshot binding happens here, not at Open: a refused combination
    // must fail loudly at Execute time, never silently read live state.
    // Both backends read the snapshot's view in place, so differential
    // tests can compare them against the same pinned state under a live
    // writer.
    if (!snapshot->valid()) {
      cursor->state = Cursor::State::kFailed;
      cursor->diagnostics.code = QueryDiagnostics::Code::kInternal;
      cursor->diagnostics.message =
          "cannot execute against an invalid (default-constructed) snapshot";
      return Cursor(std::move(cursor));
    }
    if (snapshot->db_ != impl_->db) {
      cursor->state = Cursor::State::kFailed;
      cursor->diagnostics.code = QueryDiagnostics::Code::kInternal;
      cursor->diagnostics.message =
          "snapshot and statement belong to different databases";
      return Cursor(std::move(cursor));
    }
    cursor->view = snapshot->view_;
    cursor->snapshot_bound = true;
  }
  if (projection.empty()) {
    cursor->columns = impl_->var_ids;
    cursor->column_names = impl_->var_names;
    cursor->dedup = false;
  } else {
    for (const std::string& name : projection) {
      std::string_view bare = StripQuestionMark(name);
      auto it = std::find_if(
          impl_->var_names.begin(), impl_->var_names.end(),
          [&bare](const std::string& candidate) {
            return std::string_view(candidate).substr(1) == bare;
          });
      if (it == impl_->var_names.end()) {
        cursor->state = Cursor::State::kFailed;
        cursor->diagnostics.code = QueryDiagnostics::Code::kInvalidProjection;
        cursor->diagnostics.message =
            "projection names unknown variable ?" + std::string(bare);
        return Cursor(std::move(cursor));
      }
      std::size_t idx = static_cast<std::size_t>(it - impl_->var_names.begin());
      cursor->columns.push_back(impl_->var_ids[idx]);
      cursor->column_names.push_back(impl_->var_names[idx]);
    }
    // Dropping variables can collapse distinct answers; a permutation of
    // the full variable list cannot. Count distinct columns so repeated
    // names (SELECT ?x, ?x) do not mask a dropped variable.
    std::vector<TermId> distinct = cursor->columns;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
    cursor->dedup = distinct.size() < impl_->var_ids.size();
  }
  if (options.collect_stats) {
    // The one allocation of the stats path. The preparation phases are
    // statement facts, stamped into every collecting execution; the
    // enumeration counters fill in as the cursor runs.
    cursor->stats = std::make_unique<ExecStats>();
    cursor->stats->parse_ns = impl_->parse_ns;
    cursor->stats->check_ns = impl_->check_ns;
    cursor->stats->plan_ns = impl_->plan_ns;
    cursor->stats->backend = BackendToString(impl_->options.backend);
  }
  if (options.trace != nullptr && options.trace->enabled()) {
    // The preparation phases ran before this context existed (a
    // statement is prepared once, executed many times), so they land as
    // back-dated spans laid end to end just before now.
    TraceContext& trace = *options.trace;
    const uint64_t total = impl_->parse_ns + impl_->check_ns + impl_->plan_ns;
    uint64_t at = trace.NowNs();
    at = at > total ? at - total : 0;
    if (impl_->parse_ns != 0) {
      trace.AddCompleteSpan("parse", options.trace_parent, at, impl_->parse_ns);
      at += impl_->parse_ns;
    }
    if (impl_->check_ns != 0) {
      trace.AddCompleteSpan("check", options.trace_parent, at, impl_->check_ns);
      at += impl_->check_ns;
    }
    trace.AddCompleteSpan("plan", options.trace_parent, at, impl_->plan_ns);
  }
  return Cursor(std::move(cursor));
}

BindingTable Statement::ExecuteTable() const { return ExecuteTable({}); }

BindingTable Statement::ExecuteTable(const std::vector<std::string>& projection) const {
  Cursor cursor = Execute(projection);
  std::vector<std::string> names;
  if (cursor.state() != Cursor::State::kFailed) {
    for (std::size_t c = 0; c < cursor.width(); ++c) {
      names.push_back(cursor.VariableName(c));
    }
  }
  BindingTable table(std::move(names));
  while (cursor.Next()) {
    std::vector<std::string> spellings;
    spellings.reserve(cursor.width());
    for (std::size_t c = 0; c < cursor.width(); ++c) {
      spellings.push_back(cursor.Value(c));
    }
    std::vector<std::optional<std::string_view>> cells;
    for (std::size_t c = 0; c < cursor.width(); ++c) {
      if (cursor.IsBound(c)) {
        cells.emplace_back(spellings[c]);
      } else {
        cells.emplace_back(std::nullopt);
      }
    }
    table.AppendRow(cells);
  }
  return table;
}

std::vector<Mapping> Statement::Solutions() const {
  std::vector<Mapping> out;
  Cursor cursor = Execute();
  while (cursor.Next()) out.push_back(cursor.Row());
  std::sort(out.begin(), out.end());
  return out;
}

uint64_t Statement::Count() const {
  uint64_t count = 0;
  Cursor cursor = Execute();
  while (cursor.Next()) ++count;
  return count;
}

namespace {

/// The membership funnel behind both `Contains` overloads: the peeled
/// filters, then wdEVAL against exactly the state `view` pinned.
bool ContainsOnView(const StatementImpl& stmt, const Mapping& mu,
                    std::shared_ptr<const ReadView> view) {
  for (const FilterCondition& filter : stmt.filters) {
    if (!filter.Satisfied(mu)) return false;
  }
  return engine_internal::EvaluateMembership(stmt.forest, stmt.options, mu,
                                             std::move(view));
}

}  // namespace

bool Statement::Contains(const Mapping& mu) const {
  if (!ok()) return false;
  return ContainsOnView(*impl_, mu, impl_->db->store.PinView());
}

bool Statement::Contains(const Mapping& mu, const Snapshot& snapshot) const {
  if (!ok()) return false;
  // The snapshot contract mirrors ExecuteInternal's checks; with a bool
  // return the refusals collapse to false (documented in session.h).
  if (!snapshot.valid() || snapshot.db_ != impl_->db) return false;
  return ContainsOnView(*impl_, mu, snapshot.view_);
}

}  // namespace wdsparql
