#ifndef WDPERF_GRAPH_H_
#define WDPERF_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "wdsparql/write_batch.h"

/// \file
/// The benchmark's seeded inputs: one social graph shared by every
/// workload, the per-workload query streams over it, and the /write
/// batches of fresh triples. Everything here is a pure function of the
/// seed, so the `prepare` and `run` processes derive identical inputs
/// without exchanging anything but the snapshot and the answer digests.

namespace wdperf {

/// Graph shape. The sizes are fixed: every seed draws a graph of the
/// same distribution, so runs on different seeds are comparable.
struct GraphShape {
  static constexpr int kPersons = 20000;
  static constexpr int kKnowsPerPerson = 8;
  static constexpr int kCities = 64;
  static constexpr int kDomains = 400;
  static constexpr double kSameCityKnows = 0.5;  // Share of knows edges kept in-city.
  static constexpr double kFollows = 0.5;        // Share of knows edges also followed.
  static constexpr double kEmail = 0.7;          // Persons with an email.
  static constexpr double kEmailDomain = 0.9;    // Emails with a domain.
  static constexpr double kDomainHost = 0.6;     // Domains with a host.
};

/// Appends the whole seeded graph to `batch` (about 280k triples).
void BuildGraph(uint64_t seed, wdsparql::WriteBatch* batch);

/// The three workloads.
enum class Workload { kOptChain, kUnionJoin, kServeMixed };

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload workload);

/// The distinct constants a workload's queries bind (person or city
/// names). The timed stream draws from this pool, so the correctness
/// gate needs one naive-backend digest per pool entry.
std::vector<std::string> ConstantPool(Workload workload, uint64_t seed);

/// The query text bound to `constant`.
std::string QueryText(Workload workload, const std::string& constant);

/// A seeded stream of indices into the pool: a shuffled order of the
/// whole pool, cycled, so every constant is queried equally often and a
/// run's mix does not depend on sampling luck. `stream` separates the
/// independent streams of concurrent clients.
class QueryStream {
 public:
  QueryStream(uint64_t seed, uint64_t stream, std::size_t pool_size);
  std::size_t Next();

 private:
  std::vector<std::size_t> order_;
  std::size_t next_ = 0;
};

/// Triples per /write batch.
inline constexpr std::size_t kWriteBatchTriples = 4096;

/// N-Triples body of write batch `index`: fresh subjects only, so the
/// read workloads' answers never change under ingest.
std::string WriteBatchBody(uint64_t seed, std::size_t index);

}  // namespace wdperf

#endif  // WDPERF_GRAPH_H_
