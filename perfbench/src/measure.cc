#include "measure.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>

namespace wdperf {

void Samples::Merge(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  double rank = q * static_cast<double>(sorted.size() - 1);
  std::size_t lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - static_cast<double>(lo));
}

double Samples::Mean() const {
  if (values_.empty()) return 0;
  return std::accumulate(values_.begin(), values_.end(), 0.0) /
         static_cast<double>(values_.size());
}

namespace {

uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  // Finalise (splitmix64) so that summing hashes mixes well.
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

// Higher wins when spans overlap; see SelfTimes.
int Specificity(const std::string& name) {
  if (name == "decode") return 6;
  if (name == "subtree" || name == "worker") return 5;
  if (name == "enumerate") return 4;
  if (name == "query" || name == "request") return 1;
  return 3;  // The benchmark's spans around public calls.
}

}  // namespace

void Digest::RowBuilder::Add(std::string_view var, bool bound, std::string_view value) {
  std::string cell(var);
  cell += bound ? '=' : '-';
  cell += value;
  cells_.push_back(std::move(cell));
}

uint64_t Digest::RowBuilder::Hash() {
  std::sort(cells_.begin(), cells_.end());
  std::string row;
  for (const std::string& cell : cells_) {
    row += cell;
    row += '\x1f';
  }
  cells_.clear();
  return Fnv1a(row);
}

void DigestRow(const wdsparql::Cursor& cursor, Digest* digest) {
  Digest::RowBuilder row;
  for (std::size_t col = 0; col < cursor.width(); ++col) {
    bool bound = cursor.IsBound(col);
    row.Add(cursor.VariableName(col), bound, bound ? cursor.Value(col) : "");
  }
  digest->AddRow(&row);
}

Digest DrainCursor(wdsparql::Cursor* cursor) {
  Digest digest;
  while (cursor->Next()) DigestRow(*cursor, &digest);
  return digest;
}

std::map<std::string, uint64_t> SelfTimes(const std::vector<Span>& spans) {
  // Sweep over span boundaries, keeping the count of open spans per
  // name; each elementary segment goes to the most specific open name.
  struct Event {
    uint64_t at;
    int delta;
    std::size_t span;
  };
  std::vector<Event> events;
  events.reserve(spans.size() * 2);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].end_ns <= spans[i].start_ns) continue;
    events.push_back({spans[i].start_ns, +1, i});
    events.push_back({spans[i].end_ns, -1, i});
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.at < b.at; });
  std::map<std::string, int> open;
  std::map<std::string, uint64_t> self;
  uint64_t last = 0;
  for (const Event& e : events) {
    if (e.at > last) {
      const std::string* best = nullptr;
      for (const auto& [name, count] : open) {
        if (count > 0 && (best == nullptr || Specificity(name) > Specificity(*best))) {
          best = &name;
        }
      }
      if (best != nullptr) self[*best] += e.at - last;
    }
    last = e.at;
    open[spans[e.span].name] += e.delta;
  }
  return self;
}

void AppendEngineSpans(const wdsparql::TraceContext& trace, uint64_t now_ns,
                       std::vector<Span>* out) {
  for (const wdsparql::TraceSpan& s : trace.spans()) {
    std::string name = s.name;
    if (name == "parse" || name == "check" || name == "plan") continue;
    uint64_t end = s.duration_ns == wdsparql::TraceSpan::kOpenDuration
                       ? now_ns
                       : s.start_ns + s.duration_ns;
    out->push_back({std::move(name), s.start_ns, end});
  }
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

std::string FormatDouble(double v) {
  char buf[64];
  auto result = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, result.ptr);
}

}  // namespace wdperf
