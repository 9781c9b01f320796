#include "wdsparql/mapping.h"

#include <algorithm>

#include "wdsparql/check.h"

namespace wdsparql {

bool Mapping::Bind(TermId var, TermId iri) {
  WDSPARQL_CHECK(IsVariable(var));
  WDSPARQL_CHECK(IsIri(iri));
  auto it = std::lower_bound(
      bindings_.begin(), bindings_.end(), var,
      [](const std::pair<TermId, TermId>& b, TermId v) { return b.first < v; });
  if (it != bindings_.end() && it->first == var) return it->second == iri;
  bindings_.insert(it, {var, iri});
  return true;
}

std::optional<TermId> Mapping::Get(TermId var) const {
  auto it = std::lower_bound(
      bindings_.begin(), bindings_.end(), var,
      [](const std::pair<TermId, TermId>& b, TermId v) { return b.first < v; });
  if (it != bindings_.end() && it->first == var) return it->second;
  return std::nullopt;
}

std::vector<TermId> Mapping::Domain() const {
  std::vector<TermId> out;
  out.reserve(bindings_.size());
  for (const auto& [var, iri] : bindings_) out.push_back(var);
  return out;
}

bool Mapping::Compatible(const Mapping& a, const Mapping& b) {
  // Merge-scan over the sorted binding vectors.
  std::size_t i = 0, j = 0;
  while (i < a.bindings_.size() && j < b.bindings_.size()) {
    if (a.bindings_[i].first < b.bindings_[j].first) {
      ++i;
    } else if (a.bindings_[i].first > b.bindings_[j].first) {
      ++j;
    } else {
      if (a.bindings_[i].second != b.bindings_[j].second) return false;
      ++i;
      ++j;
    }
  }
  return true;
}

std::optional<Mapping> Mapping::Union(const Mapping& a, const Mapping& b) {
  if (!Compatible(a, b)) return std::nullopt;
  Mapping out;
  out.bindings_.reserve(a.bindings_.size() + b.bindings_.size());
  std::size_t i = 0, j = 0;
  while (i < a.bindings_.size() || j < b.bindings_.size()) {
    if (j >= b.bindings_.size() ||
        (i < a.bindings_.size() && a.bindings_[i].first <= b.bindings_[j].first)) {
      if (j < b.bindings_.size() && a.bindings_[i].first == b.bindings_[j].first) ++j;
      out.bindings_.push_back(a.bindings_[i++]);
    } else {
      out.bindings_.push_back(b.bindings_[j++]);
    }
  }
  return out;
}

bool Mapping::IsSubmapping(const Mapping& a, const Mapping& b) {
  for (const auto& [var, iri] : a.bindings_) {
    std::optional<TermId> image = b.Get(var);
    if (!image.has_value() || *image != iri) return false;
  }
  return true;
}

Mapping Mapping::RestrictedTo(const std::vector<TermId>& vars) const {
  Mapping out;
  for (const auto& [var, iri] : bindings_) {
    if (std::find(vars.begin(), vars.end(), var) != vars.end()) {
      out.Bind(var, iri);
    }
  }
  return out;
}

Triple Mapping::Apply(const Triple& t) const {
  Triple out = t;
  for (int pos = 0; pos < 3; ++pos) {
    TermId term = t[pos];
    if (IsVariable(term)) {
      std::optional<TermId> image = Get(term);
      WDSPARQL_CHECK(image.has_value());
      out.Set(pos, *image);
    }
  }
  return out;
}

Triple Mapping::ApplyPartial(const Triple& t) const {
  Triple out = t;
  for (int pos = 0; pos < 3; ++pos) {
    TermId term = t[pos];
    if (IsVariable(term)) {
      std::optional<TermId> image = Get(term);
      if (image.has_value()) out.Set(pos, *image);
    }
  }
  return out;
}

std::string Mapping::ToString(const TermPool& pool) const {
  std::string out = "{";
  bool first = true;
  for (const auto& [var, iri] : bindings_) {
    if (!first) out += ", ";
    first = false;
    out += pool.ToDisplayString(var);
    out += " -> ";
    out += pool.ToDisplayString(iri);
  }
  out += "}";
  return out;
}

}  // namespace wdsparql
