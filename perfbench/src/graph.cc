#include "graph.h"

#include <algorithm>

#include "util/rng.h"

namespace wdperf {

namespace {

std::string Person(uint64_t i) { return "p" + std::to_string(i); }
std::string City(uint64_t i) { return "c" + std::to_string(i); }

// Independent sub-seeds per input family, so changing one family's draw
// order never shifts another's.
uint64_t SubSeed(uint64_t seed, uint64_t family) {
  return wdsparql::Rng(seed * 0x100000001b3ULL + family).Next();
}

// Persons per bound-subject pool. A person's query cost depends on how
// many of its friends carry the email -> domain -> host chain, so a
// small pool makes the latency median a property of the seed's pool
// (48 persons moved opt_chain's p50 by 20% between seeds). Each person
// needs a naive-backend reference answer, about 0.3-0.7 s apiece.
constexpr std::size_t kPersonPool = 128;

}  // namespace

void BuildGraph(uint64_t seed, wdsparql::WriteBatch* batch) {
  using S = GraphShape;
  wdsparql::Rng rng(SubSeed(seed, 1));
  std::vector<int> city(S::kPersons);
  std::vector<std::vector<int>> residents(S::kCities);
  for (int p = 0; p < S::kPersons; ++p) {
    city[p] = static_cast<int>(rng.NextBounded(S::kCities));
    residents[city[p]].push_back(p);
    batch->Add(Person(p), "city", City(city[p]));
  }
  std::vector<int> friends;
  for (int p = 0; p < S::kPersons; ++p) {
    friends.clear();
    while (friends.size() < static_cast<std::size_t>(S::kKnowsPerPerson)) {
      const std::vector<int>& local = residents[city[p]];
      int q = rng.NextBernoulli(S::kSameCityKnows)
                  ? local[rng.NextBounded(local.size())]
                  : static_cast<int>(rng.NextBounded(S::kPersons));
      if (q == p || std::find(friends.begin(), friends.end(), q) != friends.end()) {
        continue;
      }
      friends.push_back(q);
      batch->Add(Person(p), "knows", Person(q));
      if (rng.NextBernoulli(S::kFollows)) batch->Add(Person(p), "follows", Person(q));
    }
    if (rng.NextBernoulli(S::kEmail)) {
      std::string email = "e" + std::to_string(p);
      batch->Add(Person(p), "email", email);
      if (rng.NextBernoulli(S::kEmailDomain)) {
        batch->Add(email, "domain", "d" + std::to_string(rng.NextBounded(S::kDomains)));
      }
    }
  }
  for (int d = 0; d < S::kDomains; ++d) {
    if (rng.NextBernoulli(S::kDomainHost)) {
      batch->Add("d" + std::to_string(d), "host", "h" + std::to_string(d));
    }
  }
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kOptChain, Workload::kUnionJoin, Workload::kServeMixed}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kOptChain: return "opt_chain";
    case Workload::kUnionJoin: return "union_join";
    case Workload::kServeMixed: return "serve_mixed";
  }
  return "?";
}

std::vector<std::string> ConstantPool(Workload workload, uint64_t seed) {
  std::vector<std::string> pool;
  if (workload == Workload::kUnionJoin) {
    for (int c = 0; c < GraphShape::kCities; ++c) pool.push_back(City(c));
    return pool;
  }
  wdsparql::Rng rng(SubSeed(seed, workload == Workload::kOptChain ? 2 : 3));
  std::vector<uint64_t> chosen;
  while (chosen.size() < kPersonPool) {
    uint64_t p = rng.NextBounded(GraphShape::kPersons);
    if (std::find(chosen.begin(), chosen.end(), p) == chosen.end()) chosen.push_back(p);
  }
  for (uint64_t p : chosen) pool.push_back(Person(p));
  return pool;
}

std::string QueryText(Workload workload, const std::string& c) {
  switch (workload) {
    case Workload::kOptChain:
      return "(" + c + " knows ?y) OPT ((?y email ?e) OPT ((?e domain ?d) OPT (?d host ?h)))";
    case Workload::kUnionJoin:
      return "((?x city " + c + ") AND (?x knows ?y) AND (?y city " + c + ")) UNION "
             "((?x city " + c + ") AND (?x follows ?y) AND (?y city " + c + "))";
    case Workload::kServeMixed:
      return "(" + c + " knows ?y) OPT (?y email ?e)";
  }
  return "";
}

QueryStream::QueryStream(uint64_t seed, uint64_t stream, std::size_t pool_size) {
  for (std::size_t i = 0; i < pool_size; ++i) order_.push_back(i);
  wdsparql::Rng(SubSeed(seed, 100 + stream)).Shuffle(order_);
}

std::size_t QueryStream::Next() {
  std::size_t index = order_[next_];
  next_ = (next_ + 1) % order_.size();
  return index;
}

std::string WriteBatchBody(uint64_t seed, std::size_t index) {
  wdsparql::Rng rng(SubSeed(seed, 1000 + index));
  std::string body;
  body.reserve(kWriteBatchTriples * 40);
  // Four triples per fresh subject, over the graph's own predicates.
  for (std::size_t i = 0; i < kWriteBatchTriples / 4; ++i) {
    std::string s = "<w" + std::to_string(index) + "_" + std::to_string(i) + "> ";
    std::string friend_of = "<" + Person(rng.NextBounded(GraphShape::kPersons)) + "> .\n";
    body += s + "<knows> " + friend_of;
    body += s + "<follows> " + friend_of;
    body += s + "<city> <" + City(rng.NextBounded(GraphShape::kCities)) + "> .\n";
    body += s + "<email> <ew" + std::to_string(index) + "_" + std::to_string(i) + "> .\n";
  }
  return body;
}

}  // namespace wdperf
