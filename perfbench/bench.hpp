/// \file bench.hpp
/// Shared declarations of the sweep benchmark driver (see README.md).
///
/// The driver times whole scenario runs through the simulator's public API
/// from one process: the runner, the cache and the scenario service are all
/// called in-process, the shared pool never exceeds `nproc` threads, and at
/// most one service connection is open. The loop is closed: each report is
/// complete before the next request starts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "scenario/spec.hpp"
#include "trace.hpp"

namespace perfbench {

namespace json = adc::common::json;

/// Workload names, in the order `--workload all` runs them.
inline const std::vector<std::string> kWorkloads = {"yield_cold", "yield_warm", "char_sweep",
                                                    "yield_served"};

/// Command-line options of one invocation.
struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  /// Shrunken inputs (a few dies, short records) for the self-tests.
  bool smoke = false;
  /// Scratch root for caches, reports and the service socket.
  std::string workdir = ".bench_build/perfbench-work";
  /// Where the traced run writes its Chrome trace-event file.
  std::string trace_dir = ".bench_build/perfbench-traces";
};

/// The machine and build the numbers come from: CPU model, nproc, pool
/// threads, batch ISA tier, compiler and build type.
[[nodiscard]] json::JsonValue fingerprint();

/// The generated inputs of one workload: one spec document per scenario run
/// in a repetition (two for char_sweep: exact, then fast).
struct WorkloadInputs {
  std::vector<std::string> spec_texts;
  std::size_t cells = 0;  ///< grid cells per repetition, all specs together
};

/// Spec documents for `workload` at `seed`. Pure: the same arguments give
/// the same bytes.
[[nodiscard]] WorkloadInputs make_inputs(const std::string& workload, std::uint64_t seed,
                                         bool smoke);

/// One named metric value.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Outcome of one workload invocation.
struct WorkloadResult {
  std::uint64_t attempted = 0;  ///< cells attempted in measured repetitions
  std::uint64_t failed = 0;     ///< cells that threw, were null or had wrong bytes
  bool correct = true;          ///< every correctness check held
  MetricMap metrics;            ///< end-to-end (untraced) or per-layer (traced)
  /// Untraced wall medians for the same-run ratios: the whole repetition,
  /// and its exact- and fast-fidelity specs.
  double wall_s = 0.0;
  double exact_wall_s = 0.0;
  double fast_wall_s = 0.0;
};

/// Run one workload for `options.seconds` seconds.
[[nodiscard]] WorkloadResult run_workload(const Options& options, Tracer& tracer);

/// What the per-layer replays run on: a sample of the workload's own
/// resolved jobs and the cache directories its run filled.
struct ReplayInputs {
  std::vector<adc::scenario::ResolvedJob> jobs;
  std::vector<std::string> entry_dirs;
  std::string scratch_dir;
};

/// Time the layers below execute_plan and the cache one public call at a
/// time (see replay.cpp); every metric is a median over a few passes.
[[nodiscard]] MetricMap replay_layers(const ReplayInputs& inputs);

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (exclusive method); a single sample gives three equal values.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};
[[nodiscard]] Quartiles quartiles(std::vector<double> values);

/// Process CPU time (user + system) in seconds.
[[nodiscard]] double process_cpu_seconds();

/// Shortest decimal text that reads back as `value`.
[[nodiscard]] std::string number_text(double value);

}  // namespace perfbench
