#include "wdsparql/stats.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "engine/api_internal.h"
#include "util/json.h"

namespace wdsparql {
namespace {

/// Cardinality/cost estimate -> short human form ("123", "4.57e+08").
std::string HumanCount(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

/// "1234567" ns -> "1.23ms"-style human duration.
std::string HumanNs(uint64_t ns) {
  char buf[32];
  if (ns < 1000) {
    std::snprintf(buf, sizeof(buf), "%" PRIu64 "ns", ns);
  } else if (ns < 1000 * 1000) {
    std::snprintf(buf, sizeof(buf), "%.2fus", static_cast<double>(ns) / 1e3);
  } else if (ns < 1000ull * 1000 * 1000) {
    std::snprintf(buf, sizeof(buf), "%.2fms", static_cast<double>(ns) / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", static_cast<double>(ns) / 1e9);
  }
  return buf;
}

}  // namespace

std::string ExecStats::ToText() const {
  std::ostringstream out;
  out << "ExecStats (" << backend << " backend)\n";
  out << "  phases: parse=" << HumanNs(parse_ns) << " check=" << HumanNs(check_ns)
      << " plan=" << HumanNs(plan_ns) << " optimize=" << HumanNs(optimize_ns)
      << " enumerate=" << HumanNs(enumerate_ns) << "\n";
  if (est_cost > 0) out << "  est_cost=" << HumanCount(est_cost) << "\n";
  out << "  rows_emitted=" << rows_emitted << " candidates=" << candidates
      << " dedup_rejected=" << dedup_rejected << " non_maximal=" << non_maximal
      << " maximality_tests=" << maximality_tests << "\n";
  out << "  filtered_out=" << filtered_out
      << " projection_dedup_rejected=" << projection_dedup_rejected
      << " empty_subpatterns=" << empty_subpatterns
      << " interrupt_checks=" << interrupt_checks << "\n";
  out << "  scans: ranges=" << ranges_scanned << " values_probed=" << values_probed
      << " base_triples=" << base_triples_scanned
      << " delta_triples=" << delta_triples_scanned
      << " dict_encodes=" << dict_encodes << " dict_decodes=" << dict_decodes
      << "\n";
  for (const Subpattern& sub : subpatterns) {
    out << "  tree " << sub.tree << " node " << sub.node << ": "
        << sub.pattern << "\n";
    out << "    candidates=" << sub.candidates << " dedup_rejected="
        << sub.dedup_rejected << " non_maximal=" << sub.non_maximal
        << " maximality_tests=" << sub.maximality_tests << " rows=" << sub.rows
        << "\n";
    if (sub.est_rows >= 0) {
      // The est-vs-actual line of the EXPLAIN report: `candidates` above
      // is the actual cardinality the estimate should be judged against.
      out << "    plan: " << sub.plan << " est_rows=" << HumanCount(sub.est_rows)
          << " est_cost=" << HumanCount(sub.est_cost)
          << " plan_time=" << HumanNs(sub.plan_ns) << "\n";
    }
  }
  return out.str();
}

std::string ExecStats::ToJson() const {
  util::JsonWriter json;
  json.BeginObject();
  json.Field("backend", backend);
  json.BeginObject("phases_ns");
  json.Field("parse", parse_ns);
  json.Field("check", check_ns);
  json.Field("plan", plan_ns);
  json.Field("optimize", optimize_ns);
  json.Field("enumerate", enumerate_ns);
  json.EndObject();
  json.Field("est_cost", est_cost);
  json.Field("rows_emitted", rows_emitted);
  json.Field("candidates", candidates);
  json.Field("dedup_rejected", dedup_rejected);
  json.Field("non_maximal", non_maximal);
  json.Field("maximality_tests", maximality_tests);
  json.Field("filtered_out", filtered_out);
  json.Field("projection_dedup_rejected", projection_dedup_rejected);
  json.Field("empty_subpatterns", empty_subpatterns);
  json.Field("interrupt_checks", interrupt_checks);
  json.Field("ranges_scanned", ranges_scanned);
  json.Field("values_probed", values_probed);
  json.Field("base_triples_scanned", base_triples_scanned);
  json.Field("delta_triples_scanned", delta_triples_scanned);
  json.Field("dict_encodes", dict_encodes);
  json.Field("dict_decodes", dict_decodes);
  json.BeginArray("subpatterns");
  for (const Subpattern& sub : subpatterns) {
    json.BeginObject();
    json.Field("tree", static_cast<uint64_t>(sub.tree));
    json.Field("node", static_cast<uint64_t>(sub.node));
    json.Field("pattern", sub.pattern);
    json.Field("candidates", sub.candidates);
    json.Field("dedup_rejected", sub.dedup_rejected);
    json.Field("non_maximal", sub.non_maximal);
    json.Field("maximality_tests", sub.maximality_tests);
    json.Field("rows", sub.rows);
    json.Field("est_rows", sub.est_rows);
    json.Field("est_cost", sub.est_cost);
    json.Field("plan_ns", sub.plan_ns);
    json.Field("plan", sub.plan);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return std::move(json).str();
}

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
  into->subpatterns.insert(into->subpatterns.end(), from.subpatterns.begin(),
                           from.subpatterns.end());
}

}  // namespace wdsparql
