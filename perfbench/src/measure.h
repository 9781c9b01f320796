#ifndef WDPERF_MEASURE_H_
#define WDPERF_MEASURE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "wdsparql/cursor.h"
#include "wdsparql/trace.h"

/// \file
/// Measurement primitives shared by the workloads: sample sets with
/// percentiles, order-independent answer digests (the correctness
/// gate), the benchmark's own span log with per-layer self time, and
/// the metric record every run prints.

namespace wdperf {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A set of measured values (one per operation).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Merge(const Samples& other);
  std::size_t size() const { return values_.size(); }
  /// Linear-interpolated quantile, `q` in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Mean() const;

 private:
  std::vector<double> values_;
};

/// Order-independent digest of an answer set: the row count and the
/// wrapping sum of one 64-bit hash per row. Answers are sets, so two
/// digests agree iff the row multisets agree (up to hash collision).
struct Digest {
  uint64_t rows = 0;
  uint64_t sum = 0;

  /// Adds one row given as (variable, value) pairs in any column order;
  /// an unbound OPT column is passed with `bound == false`.
  class RowBuilder {
   public:
    void Add(std::string_view var, bool bound, std::string_view value);
    uint64_t Hash();

   private:
    std::vector<std::string> cells_;
  };
  void AddRow(RowBuilder* row) {
    ++rows;
    sum += row->Hash();
  }
  bool operator==(const Digest& o) const { return rows == o.rows && sum == o.sum; }
  bool operator!=(const Digest& o) const { return !(*this == o); }
};

/// Adds the cursor's current row to `digest` (this decodes each value,
/// as a client reading the answers does).
void DigestRow(const wdsparql::Cursor& cursor, Digest* digest);

/// Drains `cursor`, digesting every row.
Digest DrainCursor(wdsparql::Cursor* cursor);

/// One interval of the benchmark's own trace, on the recorder's clock.
struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Per-layer self time of one request: every instant of the request is
/// attributed to the most specific span covering it. Engine spans
/// (`subtree`, `worker`, `enumerate`) are more specific than the
/// benchmark's spans around the public calls they run inside, and
/// `decode` (the consumer reading a row) is more specific than the
/// subtree span that stays open across it. Returns name -> ns.
std::map<std::string, uint64_t> SelfTimes(const std::vector<Span>& spans);

/// Collects the engine's spans of a finished `TraceContext` as plain
/// intervals (open spans end at `now_ns`; back-dated phase spans —
/// parse/check/plan — are skipped, their timers come from ExecStats).
void AppendEngineSpans(const wdsparql::TraceContext& trace, uint64_t now_ns,
                       std::vector<Span>* out);

/// One reported metric.
struct Metric {
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  // Operations the value summarises.
};

using MetricMap = std::map<std::string, Metric>;

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

/// Shortest round-trip decimal spelling of `v` (every digit kept).
std::string FormatDouble(double v);

}  // namespace wdperf

#endif  // WDPERF_MEASURE_H_
