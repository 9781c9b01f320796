#include "wdsparql/term.h"

#include "util/strings.h"

namespace wdsparql {

TermId TermPool::InternIri(std::string_view spelling) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = iri_ids_.find(std::string(spelling));
  if (it != iri_ids_.end()) return it->second;
  WDSPARQL_CHECK(iri_spellings_.size() < kVariableBit);
  TermId id = static_cast<TermId>(iri_spellings_.Append(spelling));
  iri_ids_.emplace(std::string(spelling), id);
  return id;
}

TermId TermPool::InternVariableLocked(std::string&& name) {
  WDSPARQL_CHECK(var_spellings_.size() < kVariableBit);
  TermId id = static_cast<TermId>(var_spellings_.Append(name)) | kVariableBit;
  var_ids_.emplace(std::move(name), id);
  return id;
}

TermId TermPool::InternVariable(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = var_ids_.find(std::string(name));
  if (it != var_ids_.end()) return it->second;
  return InternVariableLocked(std::string(name));
}

std::optional<TermId> TermPool::FindIri(std::string_view spelling) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = iri_ids_.find(std::string(spelling));
  if (it == iri_ids_.end()) return std::nullopt;
  return it->second;
}

std::optional<TermId> TermPool::FindVariable(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = var_ids_.find(std::string(name));
  if (it == var_ids_.end()) return std::nullopt;
  return it->second;
}

TermId TermPool::FreshVariable(std::string_view hint) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (;;) {
    std::string name(hint);
    name += '#';
    name += std::to_string(fresh_counter_++);
    if (var_ids_.find(name) != var_ids_.end()) continue;
    return InternVariableLocked(std::move(name));
  }
}

std::string_view TermPool::Spelling(TermId t) const {
  // Lock-free: SpellingTable::At carries its own acquire ordering.
  uint32_t index = TermIndex(t);
  if (IsVariable(t)) return var_spellings_.At(index);
  return iri_spellings_.At(index);
}

std::string TermPool::ToDisplayString(TermId t) const {
  std::string out;
  if (IsVariable(t)) out += '?';
  out += Spelling(t);
  return out;
}

std::string TermPool::ToParsableString(TermId t) const {
  if (IsVariable(t)) return ToDisplayString(t);
  std::string_view spelling = Spelling(t);
  bool bare = !spelling.empty();
  for (char c : spelling) {
    if (!IsIdentChar(c)) {
      bare = false;
      break;
    }
  }
  if (bare) return std::string(spelling);
  std::string out = "<";
  out += spelling;
  out += '>';
  return out;
}

}  // namespace wdsparql
