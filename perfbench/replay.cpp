/// \file replay.cpp
/// Per-layer replays: the layers a scenario run reaches only through
/// execute_plan or the cache, re-driven one public call at a time on the
/// workload's own dies, seeds, record lengths and cache entries.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <vector>

#include "batch/batch_api.hpp"
#include "batch/converter.hpp"
#include "bench.hpp"
#include "common/counter_rng.hpp"
#include "common/isa_dispatch.hpp"
#include "dsp/signal.hpp"
#include "dsp/spectrum.hpp"
#include "pipeline/adc.hpp"
#include "scenario/cache.hpp"
#include "testbench/dynamic_test.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace sc = adc::scenario;
using Clock = std::chrono::steady_clock;

namespace {

/// Dies per replayed layer; enough for a median, small enough that the
/// replays stay a minor part of a traced run.
constexpr std::size_t kReplayDies = 8;
constexpr std::size_t kReplayEntries = 512;
constexpr int kPasses = 5;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median_of(std::vector<double> values) { return quartiles(std::move(values)).median; }

/// The single-tone stimulus a dynamic cell of `job` converts, resolved the
/// way the scenario runner resolves it (fin capped in band, snapped
/// coherent).
struct Stimulus {
  adc::dsp::SineSignal tone;
  adc::testbench::DynamicTestOptions options;
  std::size_t cycles;
};

Stimulus stimulus_for(const sc::ResolvedJob& job, double fs, double full_scale_vpp) {
  adc::testbench::DynamicTestOptions options;
  options.record_length = job.stimulus.record_length;
  options.target_fin_hz =
      std::min(job.stimulus.frequency_hz, job.stimulus.max_fin_fraction * fs / 2.0);
  options.amplitude_fraction = job.stimulus.amplitude_fraction;
  const auto coherent =
      adc::dsp::coherent_frequency(options.target_fin_hz, fs, options.record_length);
  return {adc::dsp::SineSignal(options.amplitude_fraction * full_scale_vpp / 2.0,
                               coherent.frequency_hz),
          options, coherent.cycles};
}

struct Entry {
  std::string hash;
  std::string text;
};

/// Up to kReplayEntries cache entries, in a fixed order.
std::vector<Entry> read_entries(const std::vector<std::string>& dirs) {
  std::vector<fs::path> paths;
  for (const auto& dir : dirs) {
    std::error_code ec;
    for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end; it.increment(ec)) {
      if (it->is_regular_file() && it->path().extension() == ".json") paths.push_back(it->path());
    }
  }
  std::sort(paths.begin(), paths.end());
  if (paths.size() > kReplayEntries) paths.resize(kReplayEntries);
  std::vector<Entry> entries;
  for (const auto& path : paths) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    entries.push_back({path.stem().string(), text.str()});
  }
  return entries;
}

void replay_cache(const ReplayInputs& in, MetricMap& out) {
  const auto entries = read_entries(in.entry_dirs);
  if (entries.empty()) throw std::runtime_error("replay: no cache entries to replay");
  const auto count = static_cast<double>(entries.size());

  double bytes = 0.0;
  for (const auto& entry : entries) bytes += static_cast<double>(entry.text.size());
  out["scenario.entry_bytes"] = {bytes / count, "B"};

  std::vector<json::JsonValue> parsed(entries.size());
  std::vector<double> parse_us;
  std::vector<double> dump_us;
  std::size_t dumped = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < entries.size(); ++i) parsed[i] = json::parse(entries[i].text);
    parse_us.push_back(seconds_since(t0) * 1e6 / count);
    t0 = Clock::now();
    for (const auto& value : parsed) dumped += json::dump(value).size();
    dump_us.push_back(seconds_since(t0) * 1e6 / count);
  }
  if (dumped == 0) throw std::runtime_error("replay: empty JSON dump");
  out["common.json_parse_us_per_entry"] = {median_of(parse_us), "us"};
  out["common.json_dump_us_per_entry"] = {median_of(dump_us), "us"};

  std::vector<double> store_us;
  std::vector<double> load_us;
  for (int pass = 0; pass < kPasses; ++pass) {
    const std::string dir = in.scratch_dir + "/store" + std::to_string(pass);
    fs::remove_all(dir);
    sc::ResultCache cache(dir);
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      cache.store(entries[i].hash, *parsed[i].find("payload"));
    }
    store_us.push_back(seconds_since(t0) * 1e6 / count);
    t0 = Clock::now();
    std::size_t hits = 0;
    for (const auto& entry : entries) hits += cache.load(entry.hash).has_value() ? 1 : 0;
    load_us.push_back(seconds_since(t0) * 1e6 / count);
    if (hits != entries.size()) throw std::runtime_error("replay: stored entry did not load");
    fs::remove_all(dir);
  }
  out["scenario.store_us_per_entry"] = {median_of(store_us), "us"};
  out["scenario.load_us_per_entry"] = {median_of(load_us), "us"};
}

void replay_fills(std::size_t deviates, std::uint64_t key, MetricMap& out) {
  std::vector<double> buffer(deviates);
  const auto& ops = adc::batch::kernel_ops(adc::common::active_batch_isa());
  std::vector<double> scalar_ns;
  std::vector<double> batch_ns;
  const double n = static_cast<double>(deviates);
  for (std::uint64_t epoch = 1; epoch <= 4 * kPasses; ++epoch) {
    auto t0 = Clock::now();
    adc::common::philox_normal_fill(key, epoch, 0, std::span<double>(buffer));
    scalar_ns.push_back(seconds_since(t0) * 1e9 / n);
    t0 = Clock::now();
    ops.normal_fill(key, epoch, 0, buffer.data(), deviates);
    batch_ns.push_back(seconds_since(t0) * 1e9 / n);
  }
  if (!std::isfinite(buffer[0])) throw std::runtime_error("replay: NaN deviate");
  out["common.fill_ns_per_deviate"] = {median_of(scalar_ns), "ns"};
  out["batch.fill_ns_per_deviate"] = {median_of(batch_ns), "ns"};
}

void replay_batch(const sc::ResolvedJob& job, MetricMap& out) {
  adc::pipeline::AdcConfig base = job.config;
  base.fidelity = adc::common::FidelityProfile::kFast;
  const std::size_t n = job.stimulus.record_length;
  std::vector<double> build_ms;
  std::vector<double> convert_ns;
  std::size_t converted = 0;
  for (std::size_t block = 0; block < kReplayDies / 2; ++block) {
    std::vector<std::uint64_t> seeds(adc::batch::kLanes);
    for (std::size_t d = 0; d < seeds.size(); ++d) {
      seeds[d] = base.seed + block * adc::batch::kLanes + d;
    }
    auto t0 = Clock::now();
    adc::batch::BatchConverter converter(base, seeds);
    build_ms.push_back(seconds_since(t0) * 1e3);
    const auto stimulus =
        stimulus_for(job, converter.conversion_rate(), converter.full_scale_vpp());
    t0 = Clock::now();
    const auto codes = converter.convert(stimulus.tone, n);
    convert_ns.push_back(seconds_since(t0) * 1e9 / static_cast<double>(n * seeds.size()));
    converted += codes.size();
  }
  if (converted == 0) throw std::runtime_error("replay: batch converted nothing");
  out["batch.build_ms_per_block"] = {median_of(build_ms), "ms"};
  out["batch.convert_ns_per_sample"] = {median_of(convert_ns), "ns"};
}

void replay_scalar(const std::vector<sc::ResolvedJob>& jobs, MetricMap& out) {
  std::vector<double> build_ms;
  std::vector<double> exact_ns;
  std::vector<double> fast_ns;
  std::vector<double> analyze_us;
  std::vector<double> dynamic_ms;
  for (std::size_t i = 0; i < std::min(jobs.size(), kReplayDies); ++i) {
    const sc::ResolvedJob& job = jobs[i];
    const std::size_t n = job.stimulus.record_length;
    for (const auto fidelity :
         {adc::common::FidelityProfile::kExact, adc::common::FidelityProfile::kFast}) {
      adc::pipeline::AdcConfig config = job.config;
      config.fidelity = fidelity;
      auto t0 = Clock::now();
      adc::pipeline::PipelineAdc adc(config);
      build_ms.push_back(seconds_since(t0) * 1e3);
      const auto stimulus = stimulus_for(job, adc.conversion_rate(), adc.full_scale_vpp());
      t0 = Clock::now();
      const auto codes = adc.convert(stimulus.tone, n);
      const double ns = seconds_since(t0) * 1e9 / static_cast<double>(n);
      (fidelity == adc::common::FidelityProfile::kExact ? exact_ns : fast_ns).push_back(ns);

      adc::dsp::SpectrumOptions spectrum = stimulus.options.spectrum;
      spectrum.fundamental_bin = stimulus.cycles;
      t0 = Clock::now();
      const auto volts =
          adc::dsp::codes_to_volts(codes, adc.resolution_bits(), adc.full_scale_vpp());
      const auto metrics = adc::dsp::analyze_tone(volts, adc.conversion_rate(), spectrum);
      analyze_us.push_back(seconds_since(t0) * 1e6);
      if (!std::isfinite(metrics.sndr_db)) throw std::runtime_error("replay: NaN SNDR");
    }
    // A whole dynamic cell at the workload's own fidelity, on a fresh die.
    adc::pipeline::PipelineAdc die(job.config);
    const auto stimulus = stimulus_for(job, die.conversion_rate(), die.full_scale_vpp());
    const auto t0 = Clock::now();
    const auto result = adc::testbench::run_dynamic_test(die, stimulus.options);
    dynamic_ms.push_back(seconds_since(t0) * 1e3);
    if (!std::isfinite(result.metrics.sndr_db)) {
      throw std::runtime_error("replay: NaN SNDR");
    }
  }
  out["pipeline.build_ms_per_die"] = {median_of(build_ms), "ms"};
  out["pipeline.exact_ns_per_sample"] = {median_of(exact_ns), "ns"};
  out["pipeline.fast_ns_per_sample"] = {median_of(fast_ns), "ns"};
  out["dsp.analyze_us_per_record"] = {median_of(analyze_us), "us"};
  out["testbench.dynamic_ms_per_cell"] = {median_of(dynamic_ms), "ms"};
}

}  // namespace

MetricMap replay_layers(const ReplayInputs& in) {
  if (in.jobs.empty()) throw std::runtime_error("replay: no jobs");
  MetricMap out;
  replay_cache(in, out);
  const sc::ResolvedJob& first = in.jobs.front();
  replay_fills(first.stimulus.record_length * adc::batch::kLanes, first.config.seed, out);
  replay_batch(first, out);
  replay_scalar(in.jobs, out);
  return out;
}

}  // namespace perfbench
