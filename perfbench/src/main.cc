/// \file
/// wdperf: the repository benchmark's measuring program (run it through run.py).
///
///   wdperf prepare --workload NAME --seed N --dir DIR
///   wdperf run --workload NAME --seed N --seconds S --trace 0|1
///              --prepared DIR --work-dir DIR [--trace-file PATH]
///              [--source-id ID]
///
/// `prepare` writes the seeded graph snapshot and the reference answer
/// digests; `run` measures one workload and prints two lines: a full
/// report (host context, every metric with its unit and sample count,
/// correctness errors), then the result object (the last line). The
/// exit status is non-zero whenever an answer was wrong.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "graph.h"
#include "util/json.h"
#include "workloads.h"

using namespace wdperf;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: wdperf prepare --workload opt_chain|union_join|serve_mixed --seed N --dir DIR\n"
               "       wdperf run --workload opt_chain|union_join|serve_mixed --seed N\n"
               "                  --seconds S --trace 0|1 --prepared DIR --work-dir DIR\n"
               "                  [--trace-file PATH] [--source-id ID]\n");
  return 2;
}

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0') return false;
  *out = v;
  return true;
}

std::string MetricsJson(const MetricMap& metrics, const std::vector<std::string>* only,
                        bool with_samples) {
  std::string out = "{";
  bool first = true;
  auto emit = [&](const std::string& name, const Metric& m) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":{\"value\":" + FormatDouble(m.value) + ",\"unit\":\"" + m.unit + "\"";
    if (with_samples) out += ",\"samples\":" + std::to_string(m.samples);
    out += "}";
  };
  if (only == nullptr) {
    for (const auto& [name, m] : metrics) emit(name, m);
  } else {
    for (const std::string& name : *only) emit(name, metrics.at(name));
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  RunConfig config;
  std::string dir, workload, source_id = "unknown";
  uint64_t seed = 0, trace = 0, seconds = 0;
  bool have_seed = false, have_seconds = false;
  for (int i = 2; i < argc; ++i) {
    if (i + 1 >= argc) return Usage();
    const char* flag = argv[i];
    const char* value = argv[++i];
    if (std::strcmp(flag, "--seed") == 0) {
      if (!ParseUint(value, &seed)) return Usage();
      have_seed = true;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      if (!ParseUint(value, &seconds) || seconds == 0) return Usage();
      have_seconds = true;
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (!ParseUint(value, &trace) || trace > 1) return Usage();
    } else if (std::strcmp(flag, "--workload") == 0) {
      workload = value;
    } else if (std::strcmp(flag, "--dir") == 0) {
      dir = value;
    } else if (std::strcmp(flag, "--prepared") == 0) {
      config.prepared_dir = value;
    } else if (std::strcmp(flag, "--work-dir") == 0) {
      config.work_dir = value;
    } else if (std::strcmp(flag, "--trace-file") == 0) {
      config.trace_file = value;
    } else if (std::strcmp(flag, "--source-id") == 0) {
      source_id = value;
    } else {
      return Usage();
    }
  }
  if (!have_seed) return Usage();

  if (!ParseWorkload(workload, &config.workload)) return Usage();
  if (command == "prepare") {
    if (dir.empty()) return Usage();
    return Prepare(seed, config.workload, dir) ? 0 : 1;
  }
  if (command != "run" || !have_seconds || config.prepared_dir.empty() ||
      config.work_dir.empty()) {
    return Usage();
  }
  config.seed = seed;
  config.seconds = static_cast<double>(seconds);
  config.trace = trace == 1;

  RunResult result = Run(config);

  wdsparql::util::JsonWriter context;
  context.BeginObject();
  context.Field("workload", workload);
  context.Field("seed", seed);
  context.Field("seconds", seconds);
  context.Field("trace", trace);
  context.Field("nproc", static_cast<uint64_t>(std::thread::hardware_concurrency()));
  context.Field("compiler", __VERSION__);
  context.Field("build_type", WDPERF_BUILD_TYPE);
  context.Field("source", source_id);
  context.Field("base_triples", result.base_triples);
  context.Field("flush_policy", result.flush_policy);
  if (config.workload == Workload::kServeMixed) context.Field("read_rate_per_s", result.read_rate);
  context.BeginArray("errors");
  for (const std::string& e : result.errors) {
    context.BeginObject();
    context.Field("error", e);
    context.EndObject();
  }
  context.EndArray();
  context.EndObject();
  std::printf("{\"report\":{\"context\":%s,\"metrics\":%s}}\n", std::move(context).str().c_str(),
              MetricsJson(result.metrics, nullptr, true).c_str());
  for (const std::string& e : result.errors) std::fprintf(stderr, "wdperf: %s\n", e.c_str());
  if (!result.correct) return 1;

  const std::vector<std::string>& names =
      config.trace ? PerLayerMetricNames() : EndToEndMetricNames();
  for (const std::string& name : names) {
    if (result.metrics.count(name) == 0) {
      std::fprintf(stderr, "wdperf: metric %s was not measured\n", name.c_str());
      return 1;
    }
  }
  std::printf("{\"correct\":true,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              MetricsJson(result.metrics, &names, false).c_str());
  return 0;
}
