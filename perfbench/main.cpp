/// \file main.cpp
/// Sweep benchmark driver: argument parsing, machine fingerprint, and the
/// result line.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
///   perfbench --workload all [--seed <n>] [--seconds <s>]   same-run ratios
///   perfbench --plan --workload <name> --seed <n>           specs + job hashes
///
/// The last line of standard output is one JSON object:
/// {"correct", "attempted", "failed", "metrics"} where `metrics` holds the
/// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/isa_dispatch.hpp"
#include "runtime/parallel.hpp"
#include "scenario/hash.hpp"
#include "scenario/runner.hpp"

namespace perfbench {

namespace sc = adc::scenario;

Quartiles quartiles(std::vector<double> values) {
  Quartiles q;
  q.n = values.size();
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  q.median = n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  if (n < 2) {
    q.q1 = q.q3 = q.median;
    return q;
  }
  // statistics.quantiles(method="exclusive"): cut points at i*(n+1)/4.
  auto cut = [&](std::size_t i) {
    const std::size_t m = n + 1;
    const std::size_t j = std::max<std::size_t>(1, std::min(n - 1, i * m / 4));
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  q.q1 = cut(1);
  q.q3 = cut(3);
  return q;
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::string number_text(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

namespace {

unsigned affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name|all> [--seed N] [--seconds S] "
               "[--trace 0|1] [--smoke] [--plan] [--workdir DIR] [--trace-dir DIR]\n",
               message.c_str());
  std::exit(2);
}

std::string metrics_json(const MetricMap& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + number_text(metric.value) + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  return out + "}";
}

void print_result(const WorkloadResult& result) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              metrics_json(result.metrics).c_str());
}

/// --plan: the generated specs and their content addresses, for the
/// determinism self-tests.
int print_plan(const Options& options) {
  const auto inputs = make_inputs(options.workload, options.seed, options.smoke);
  auto doc = json::JsonValue::object();
  auto specs = json::JsonValue::array();
  for (const auto& text : inputs.spec_texts) {
    const auto plan = sc::plan_scenario(sc::parse_spec_text(text));
    auto entry = json::JsonValue::object();
    entry.set("spec", text);
    entry.set("spec_hash", plan.spec_hash);
    auto hashes = json::JsonValue::array();
    for (const auto& hash : plan.hashes) hashes.push_back(hash);
    entry.set("job_hashes", std::move(hashes));
    specs.push_back(std::move(entry));
  }
  doc.set("cells", static_cast<std::uint64_t>(inputs.cells));
  doc.set("specs", std::move(specs));
  std::printf("%s\n", json::dump_compact(doc).c_str());
  return 0;
}

/// --workload all: every workload in one process, then the same-run ratios
/// ROADMAP's gates are written against. Informational, never gated.
int print_ratios(Options options) {
  std::map<std::string, WorkloadResult> results;
  bool correct = true;
  for (const auto& workload : kWorkloads) {
    options.workload = workload;
    options.trace = workload == "yield_cold";  // the batch/scalar pair comes from its replays
    Tracer tracer;
    results[workload] = run_workload(options, tracer);
    correct = correct && results[workload].correct;
  }
  const double cold = results["yield_cold"].wall_s;
  auto ratios = json::JsonValue::object();
  ratios.set("served_over_cli_cold", results["yield_served"].wall_s / cold);
  ratios.set("warm_over_cold", results["yield_warm"].wall_s / cold);
  ratios.set("char_exact_over_fast",
             results["char_sweep"].exact_wall_s / results["char_sweep"].fast_wall_s);
  const auto& layers = results["yield_cold"].metrics;
  ratios.set("pipeline_fast_over_batch_ns_per_sample",
             layers.at("pipeline.fast_ns_per_sample").value /
                 layers.at("batch.convert_ns_per_sample").value);
  std::printf("same-run ratios (seed %llu):\n", static_cast<unsigned long long>(options.seed));
  std::printf("  yield_served / yield_cold wall   %.3fx  (ROADMAP item 1 gate: <= 1.2x)\n",
              ratios.find("served_over_cli_cold")->as_double());
  std::printf("  yield_warm / yield_cold wall     %.3fx\n",
              ratios.find("warm_over_cold")->as_double());
  std::printf("  char_sweep exact / fast wall     %.3fx  (ROADMAP item 2 gate: >= 2.0x)\n",
              ratios.find("char_exact_over_fast")->as_double());
  std::printf("  pipeline fast / batch ns/sample  %.3fx  (ROADMAP item 3 batch pair)\n",
              ratios.find("pipeline_fast_over_batch_ns_per_sample")->as_double());
  auto doc = json::JsonValue::object();
  doc.set("correct", correct);
  doc.set("ratios", std::move(ratios));
  std::printf("%s\n", json::dump_compact(doc).c_str());
  return 0;
}

}  // namespace

json::JsonValue fingerprint() {
  auto doc = json::JsonValue::object();
  doc.set("cpu_model", cpu_model());
  doc.set("nproc", static_cast<std::uint64_t>(affinity_cpus()));
  doc.set("pool_threads", static_cast<std::uint64_t>(adc::runtime::global_pool().thread_count()));
  doc.set("batch_isa", adc::common::to_string(adc::common::active_batch_isa()));
  doc.set("compiler", PERFBENCH_COMPILER);
  doc.set("build_type", PERFBENCH_BUILD_TYPE);
  doc.set("model_fingerprint", sc::to_hex(sc::golden_code_fingerprint()));
  return doc;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool plan = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        options.trace = v == "1";
      } else if (arg == "--smoke") {
        options.smoke = true;
      } else if (arg == "--plan") {
        plan = true;
      } else if (arg == "--workdir") {
        options.workdir = value();
      } else if (arg == "--trace-dir") {
        options.trace_dir = value();
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");

  // Numbers from a Debug or sanitizer build are not comparable; refuse them
  // as tools/run_bench.sh does.
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: refusing to benchmark a '%s' build (need Release)\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  // One process, at most nproc pool threads, no side files outside the
  // work directory (traced runs point the manifest directory into it).
  setenv("ADC_RUNTIME_THREADS", std::to_string(affinity_cpus()).c_str(), 1);
  unsetenv("ADC_RUNTIME_MANIFEST_DIR");

  try {
    if (plan) return print_plan(options);
    std::printf("fingerprint %s\n", json::dump_compact(fingerprint()).c_str());
    if (options.workload == "all") return print_ratios(options);
    Tracer tracer;
    const auto result = run_workload(options, tracer);
    print_result(result);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
