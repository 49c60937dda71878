#include "scenario/runner.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <utility>
#include <vector>

#include "batch/batch_api.hpp"
#include "common/error.hpp"
#include "pipeline/design.hpp"
#include "power/power_model.hpp"
#include "runtime/manifest.hpp"
#include "runtime/parallel.hpp"
#include "scenario/hash.hpp"
#include "testbench/dynamic_test.hpp"
#include "testbench/static_test.hpp"
#include "testbench/two_tone.hpp"

namespace adc::scenario {

namespace fs = std::filesystem;
namespace json = adc::common::json;

namespace {

/// Options of the single-tone bench for a resolved job.
adc::testbench::DynamicTestOptions dynamic_options(const ResolvedJob& job) {
  adc::testbench::DynamicTestOptions options;
  options.record_length = job.stimulus.record_length;
  // Mirror the rate-sweep benches: keep the tone inside the capped band as
  // the conversion rate drops below twice the requested input frequency.
  const double fin_cap = job.stimulus.max_fin_fraction * job.config.conversion_rate / 2.0;
  options.target_fin_hz = std::min(job.stimulus.frequency_hz, fin_cap);
  options.amplitude_fraction = job.stimulus.amplitude_fraction;
  return options;
}

/// Options of the two-tone bench for a resolved job (same in-band cap).
adc::testbench::TwoToneOptions two_tone_options(const ResolvedJob& job) {
  adc::testbench::TwoToneOptions options;
  options.record_length = job.stimulus.record_length;
  const double fin_cap = job.stimulus.max_fin_fraction * job.config.conversion_rate / 2.0;
  options.center_hz = std::min(job.stimulus.frequency_hz, fin_cap);
  options.spacing_hz = job.stimulus.spacing_hz;
  options.amplitude_fraction = job.stimulus.amplitude_fraction;
  return options;
}

// Payload builders, one per measurement kind. Their key order and doubles
// are the cache bytes, so they change only with kScenarioSchemaVersion.

json::JsonValue dynamic_payload(const adc::testbench::DynamicTestResult& result) {
  auto payload = json::JsonValue::object();
  payload.set("tone_hz", result.tone.frequency_hz);
  payload.set("snr_db", result.metrics.snr_db);
  payload.set("sndr_db", result.metrics.sndr_db);
  payload.set("sfdr_db", result.metrics.sfdr_db);
  payload.set("thd_db", result.metrics.thd_db);
  payload.set("enob", result.metrics.enob);
  return payload;
}

json::JsonValue two_tone_payload(const adc::testbench::TwoToneResult& result) {
  auto payload = json::JsonValue::object();
  payload.set("f1_hz", result.f1_hz);
  payload.set("f2_hz", result.f2_hz);
  payload.set("tone_power_db", result.tone_power_db);
  payload.set("imd3_low_dbc", result.imd3_low_dbc);
  payload.set("imd3_high_dbc", result.imd3_high_dbc);
  payload.set("imd2_dbc", result.imd2_dbc);
  payload.set("worst_imd_dbc", result.worst_imd_dbc);
  return payload;
}

json::JsonValue static_payload(const adc::dsp::LinearityResult& result) {
  auto payload = json::JsonValue::object();
  payload.set("dnl_min", result.dnl_min);
  payload.set("dnl_max", result.dnl_max);
  payload.set("inl_min", result.inl_min);
  payload.set("inl_max", result.inl_max);
  payload.set("missing_codes", static_cast<std::uint64_t>(result.missing_codes.size()));
  payload.set("sample_count", static_cast<std::uint64_t>(result.sample_count));
  return payload;
}

json::JsonValue power_payload(const adc::power::PowerBreakdown& breakdown) {
  auto payload = json::JsonValue::object();
  payload.set("pipeline_analog_w", breakdown.pipeline_analog);
  payload.set("bias_generator_w", breakdown.bias_generator);
  payload.set("reference_buffer_w", breakdown.reference_buffer);
  payload.set("bandgap_cm_w", breakdown.bandgap_cm);
  payload.set("comparators_w", breakdown.comparators);
  payload.set("digital_w", breakdown.digital);
  payload.set("total_w", breakdown.total());
  return payload;
}

/// Measure the dies `seeds` at `first`'s grid point (the unit's jobs differ
/// from `first` only in seed): one payload per seed, in order. The one
/// compute call of compute_unit, for every measurement kind. The conversion
/// benches measure the seeds as one die group; static and power units hold
/// one job (see form_units), measured on its own PipelineAdc.
std::vector<json::JsonValue> measure_dies(const ResolvedJob& first,
                                          std::span<const std::uint64_t> seeds) {
  std::vector<json::JsonValue> out;
  out.reserve(seeds.size());
  const auto die = [&first](std::uint64_t seed) {
    adc::pipeline::AdcConfig config = first.config;
    config.seed = seed;
    return adc::pipeline::PipelineAdc(config);
  };
  switch (first.measurement.type) {
    case MeasurementSpec::Type::kDynamic:
    case MeasurementSpec::Type::kYield:
      if (first.stimulus.type == StimulusSpec::Type::kTwoTone) {
        for (const auto& result : adc::testbench::run_two_tone_test_block(
                 first.config, seeds, two_tone_options(first))) {
          out.push_back(two_tone_payload(result));
        }
      } else {
        for (const auto& result : adc::testbench::run_dynamic_test_block(
                 first.config, seeds, dynamic_options(first))) {
          out.push_back(dynamic_payload(result));
        }
      }
      return out;
    case MeasurementSpec::Type::kStatic: {
      adc::testbench::HistogramTestOptions options;
      options.samples = first.measurement.samples;
      for (const std::uint64_t seed : seeds) {
        auto adc = die(seed);
        out.push_back(static_payload(adc::testbench::run_histogram_test(adc, options)));
      }
      return out;
    }
    case MeasurementSpec::Type::kPower: {
      const adc::power::PowerModel model(adc::pipeline::nominal_power_spec());
      for (const std::uint64_t seed : seeds) {
        out.push_back(power_payload(model.estimate(die(seed))));
      }
      return out;
    }
  }
  throw adc::common::ConfigError("ScenarioRunner: unknown measurement type");
}

std::string csv_cell(const json::JsonValue& value) {
  switch (value.type()) {
    case json::JsonValue::Type::kDouble: return json::format_double(value.as_double());
    case json::JsonValue::Type::kInt:
    case json::JsonValue::Type::kUint:
      return value.type() == json::JsonValue::Type::kUint
                 ? std::to_string(value.as_uint64())
                 : std::to_string(value.as_int64());
    case json::JsonValue::Type::kString: return value.as_string();
    case json::JsonValue::Type::kBool: return value.as_bool() ? "true" : "false";
    default: return "";
  }
}

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  adc::common::require(out.good(), "ScenarioRunner: cannot open " + path);
  out << text;
  out.flush();
  adc::common::require(out.good(), "ScenarioRunner: write failed for " + path);
}

/// True when two grid points are the same sweep point (bitwise — the values
/// come from the same expansion, so representational equality is exact).
/// Jobs at equal points resolve to configurations differing only in seed.
bool same_grid_point(const JobPoint& a, const JobPoint& b) {
  if (a.axis_values.size() != b.axis_values.size()) return false;
  for (std::size_t i = 0; i < a.axis_values.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a.axis_values[i]) !=
        std::bit_cast<std::uint64_t>(b.axis_values[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

ScenarioPlan plan_scenario(const ScenarioSpec& spec) {
  ScenarioPlan plan;
  plan.spec_hash = spec_hash(spec);
  plan.jobs = expand_jobs(spec);
  plan.hashes.reserve(plan.jobs.size());
  for (const auto& job : plan.jobs) plan.hashes.push_back(job_hash(resolve_job(spec, job)));
  return plan;
}

json::JsonValue build_report(const ScenarioSpec& spec, const ScenarioPlan& plan,
                             const std::vector<std::optional<json::JsonValue>>& payloads) {
  adc::common::require(payloads.size() == plan.jobs.size(),
                       "build_report: payloads not aligned with the plan");
  auto report = json::JsonValue::object();
  report.set("scenario", spec.name);
  if (!spec.description.empty()) report.set("description", spec.description);
  report.set("schema_version", kScenarioSchemaVersion);
  report.set("spec_hash", plan.spec_hash);
  report.set("fingerprint", to_hex(golden_code_fingerprint()));
  report.set("measurement", std::string(to_string(spec.measurement.type)));
  report.set("fidelity", std::string(adc::common::to_string(spec.die.fidelity)));
  auto axes = json::JsonValue::array();
  for (const auto& axis : spec.sweep) axes.push_back(axis.key);
  report.set("axes", std::move(axes));
  report.set("jobs", static_cast<std::uint64_t>(plan.jobs.size()));

  auto results = json::JsonValue::array();
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    auto row = json::JsonValue::object();
    row.set("hash", plan.hashes[i]);
    row.set("seed", plan.jobs[i].seed);
    auto point = json::JsonValue::object();
    for (std::size_t a = 0; a < spec.sweep.size(); ++a) {
      point.set(spec.sweep[a].key, plan.jobs[i].axis_values[a]);
    }
    row.set("point", std::move(point));
    row.set("metrics", payloads[i].has_value() ? *payloads[i] : json::JsonValue());
    results.push_back(std::move(row));
  }
  report.set("results", std::move(results));

  // Yield summary (only once every point is in).
  bool complete = true;
  for (const auto& payload : payloads) complete = complete && payload.has_value();
  if (spec.measurement.type == MeasurementSpec::Type::kYield && complete &&
      !plan.jobs.empty()) {
    const std::string& metric = spec.measurement.metric;
    double sum = 0.0;
    double lo = 0.0;
    double hi = 0.0;
    std::uint64_t passing = 0;
    for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
      const auto* value = payloads[i]->find(metric);
      adc::common::require(value != nullptr && value->is_number(),
                           "build_report: payload lacks yield metric \"" + metric + "\"");
      const double x = value->as_double();
      if (i == 0) {
        lo = x;
        hi = x;
      }
      sum += x;
      lo = std::min(lo, x);
      hi = std::max(hi, x);
      if (x >= spec.measurement.limit) ++passing;
    }
    auto summary = json::JsonValue::object();
    summary.set("metric", metric);
    summary.set("limit", spec.measurement.limit);
    summary.set("mean", sum / static_cast<double>(plan.jobs.size()));
    summary.set("min", lo);
    summary.set("max", hi);
    summary.set("passing", passing);
    summary.set("yield_fraction",
                static_cast<double>(passing) / static_cast<double>(plan.jobs.size()));
    report.set("summary", std::move(summary));
  }
  return report;
}

std::string report_csv(const json::JsonValue& report) {
  const auto* axes = report.find("axes");
  const auto* results = report.find("results");
  adc::common::require(axes != nullptr && axes->is_array() && results != nullptr &&
                           results->is_array(),
                       "report_csv: not a scenario report document");

  // Metric columns come from the first computed payload, in insertion order.
  std::vector<std::string> metric_keys;
  for (const auto& row : results->items()) {
    const auto* metrics = row.find("metrics");
    if (metrics != nullptr && metrics->is_object()) {
      for (const auto& member : metrics->members()) metric_keys.push_back(member.key);
      break;
    }
  }
  std::string csv;
  for (const auto& axis : axes->items()) csv += axis.as_string() + ",";
  csv += "seed";
  for (const auto& key : metric_keys) csv += "," + key;
  csv += "\n";
  for (const auto& row : results->items()) {
    const auto* metrics = row.find("metrics");
    if (metrics == nullptr || metrics->is_null()) continue;
    const auto* point = row.find("point");
    for (const auto& axis : axes->items()) {
      const auto* value = point != nullptr ? point->find(axis.as_string()) : nullptr;
      adc::common::require(value != nullptr, "report_csv: row lacks axis value");
      csv += json::format_double(value->as_double()) + ",";
    }
    csv += std::to_string(row.find("seed")->as_uint64());
    for (const auto& key : metric_keys) {
      const auto* value = metrics->find(key);
      csv += ",";
      if (value != nullptr) csv += csv_cell(*value);
    }
    csv += "\n";
  }
  return csv;
}

ReportPaths write_report_files(const json::JsonValue& report, const std::string& name,
                               const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  adc::common::require(!ec, "write_report_files: cannot create " + dir);
  ReportPaths paths;
  paths.json_path = dir + "/" + name + "_report.json";
  write_text_file(paths.json_path, json::dump(report));
  paths.csv_path = dir + "/" + name + "_report.csv";
  write_text_file(paths.csv_path, report_csv(report));
  return paths;
}

std::vector<ExecuteUnit> form_units(const ScenarioSpec& spec, const ScenarioPlan& plan,
                                    const std::vector<std::size_t>& indices) {
  // Seeds are innermost in the expansion, so same-point jobs are adjacent.
  // Only fast-profile conversion benches (single- or two-tone) share a
  // unit: the batch engine converts their dies kLanes wide, while an exact
  // die gains nothing from company. Static and power jobs keep one job per
  // unit too: a power estimate converts nothing, and a grouped histogram
  // unit would hold every die's whole code record (16 MB per die at Table
  // I's 4M samples) at once.
  const bool dynamic_like = spec.measurement.type == MeasurementSpec::Type::kDynamic ||
                            spec.measurement.type == MeasurementSpec::Type::kYield;
  const bool batchable = dynamic_like && spec.die.fidelity == adc::common::FidelityProfile::kFast;
  std::vector<ExecuteUnit> units;
  for (const std::size_t index : indices) {
    if (!batchable || units.empty() || units.back().size() >= adc::batch::kLanes ||
        !same_grid_point(plan.jobs[units.back().front()], plan.jobs[index])) {
      units.emplace_back();
    }
    units.back().push_back(index);
  }
  return units;
}

std::vector<std::optional<json::JsonValue>> compute_unit(const ScenarioSpec& spec,
                                                         const ScenarioPlan& plan,
                                                         const ExecuteUnit& unit,
                                                         ResultCache* cache,
                                                         const ExecuteHooks& hooks) {
  std::vector<std::optional<json::JsonValue>> out(unit.size());
  // Claim the unit's jobs; unclaimed slots stay null and are left to the
  // owner that holds them. The claim is taken immediately before the
  // compute, so it is held only while its job is actually in flight.
  std::vector<std::size_t> mine;
  for (std::size_t t = 0; t < unit.size(); ++t) {
    if (!hooks.acquire || hooks.acquire(unit[t], plan.hashes[unit[t]])) mine.push_back(t);
  }
  if (mine.empty()) return out;
  // A unit's jobs share one grid point, so they differ only in seed.
  const ResolvedJob first = resolve_job(spec, plan.jobs[unit[mine.front()]]);
  std::vector<std::uint64_t> seeds;
  for (const std::size_t t : mine) seeds.push_back(plan.jobs[unit[t]].seed);
  auto payloads = measure_dies(first, seeds);
  for (std::size_t m = 0; m < mine.size(); ++m) out[mine[m]] = std::move(payloads[m]);
  // Persist before anyone is told, which is what makes interrupted runs
  // resumable.
  for (const std::size_t t : mine) {
    const std::string& hash = plan.hashes[unit[t]];
    if (cache != nullptr) cache->store(hash, *out[t]);
    if (hooks.stored) hooks.stored(unit[t], hash);
  }
  return out;
}

ExecuteOutcome execute_plan(const ScenarioSpec& spec, const ScenarioPlan& plan,
                            std::vector<std::optional<json::JsonValue>>& payloads,
                            const ExecuteOptions& options) {
  adc::common::require(payloads.size() == plan.jobs.size(),
                       "execute_plan: payloads not aligned with the plan");
  ExecuteOutcome outcome;

  // Candidates: every missing payload the caller admits (a fleet worker
  // passes its shard membership here; the batch runner passes nothing).
  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    if (payloads[i].has_value()) continue;
    if (options.candidate && !options.candidate(i)) continue;
    misses.push_back(i);
  }

  // Apply the interruption budget: completed points stay cached, the rest
  // are left for the next invocation.
  if (options.max_jobs != 0 && misses.size() > options.max_jobs) {
    outcome.skipped = misses.size() - options.max_jobs;
    misses.resize(options.max_jobs);
  }

  // One pool job per unit. Units are index-keyed pure functions, so results
  // stay bit-identical at any thread count.
  const std::vector<ExecuteUnit> units = form_units(spec, plan, misses);
  adc::runtime::BatchOptions batch;
  batch.threads = options.threads;
  auto computed = adc::runtime::parallel_map<std::vector<std::optional<json::JsonValue>>>(
      units.size(),
      [&](std::size_t u) {
        return compute_unit(spec, plan, units[u], options.cache, options.hooks);
      },
      batch);
  for (std::size_t u = 0; u < units.size(); ++u) {
    for (std::size_t t = 0; t < units[u].size(); ++t) {
      if (computed[u][t].has_value()) {
        payloads[units[u][t]] = std::move(computed[u][t]);
        ++outcome.computed;
      } else {
        ++outcome.claimed_elsewhere;
      }
    }
  }
  return outcome;
}

ScenarioRunner::ScenarioRunner(RunOptions options) : options_(std::move(options)) {}

RunResult ScenarioRunner::run(const ScenarioSpec& spec) {
  RunResult result;
  adc::runtime::RunManifest manifest("scenario_" + spec.name);
  ResultCache cache(options_.cache_dir);
  if (options_.use_cache) cache.ensure_writable();
  manifest.set_text("scenario", spec.name);
  manifest.set_text("spec_hash", spec_hash(spec));
  manifest.set_text("fingerprint", to_hex(golden_code_fingerprint()));
  manifest.set_text("cache_dir", cache.root());
  manifest.set_text("fidelity", std::string(adc::common::to_string(spec.die.fidelity)));
  manifest.set_count("threads", adc::runtime::effective_thread_count(options_.threads));
  manifest.set_seed_range(spec.first_seed, spec.seed_count);

  // Expand the sweep grid and content-address every job — through the same
  // planner entry point the scenario service schedules from.
  ScenarioPlan plan;
  {
    auto phase = manifest.phase("expand");
    plan = plan_scenario(spec);
    phase.set_jobs(plan.jobs.size());
  }
  const std::vector<JobPoint>& jobs = plan.jobs;
  const std::vector<std::string>& hashes = plan.hashes;
  result.jobs_total = jobs.size();

  // Probe the cache: anything already computed (by a previous run, an
  // interrupted run, or a different scenario hitting the same physics) is
  // reused verbatim.
  std::vector<std::optional<json::JsonValue>> payloads(jobs.size());
  {
    auto phase = manifest.phase("cache_probe", jobs.size());
    if (options_.use_cache) payloads = cache.load_all(hashes, options_.threads);
  }
  std::size_t miss_count = 0;
  for (const auto& payload : payloads) {
    if (!payload.has_value()) ++miss_count;
  }
  result.cache_hits = jobs.size() - miss_count;

  // Compute the misses through the shared execute phase — the same path a
  // fleet worker takes, so sharded and single-process runs produce the same
  // cache bytes and the same report.
  result.pool_before = adc::runtime::global_pool().counters();
  {
    auto phase = manifest.phase(
        "execute", options_.max_jobs != 0 ? std::min(miss_count, options_.max_jobs)
                                          : miss_count);
    ExecuteOptions execute;
    execute.threads = options_.threads;
    execute.max_jobs = options_.max_jobs;
    execute.cache = options_.use_cache ? &cache : nullptr;
    execute.hooks = options_.hooks;
    const ExecuteOutcome outcome = execute_plan(spec, plan, payloads, execute);
    result.computed = outcome.computed;
    result.skipped = outcome.skipped;
    result.claimed_elsewhere = outcome.claimed_elsewhere;
  }
  result.pool_after = adc::runtime::global_pool().counters();
  result.cache_evictions = cache.evictions();

  // Build the deterministic report through the shared builder — the same
  // bytes a service client receives in its terminal summary event.
  {
    auto phase = manifest.phase("report", jobs.size());
    result.report = build_report(spec, plan, payloads);

    if (!options_.report_dir.empty()) {
      const ReportPaths paths =
          write_report_files(result.report, spec.name, options_.report_dir);
      result.report_json_path = paths.json_path;
      result.report_csv_path = paths.csv_path;
    }
  }

  manifest.set_count("jobs_total", result.jobs_total);
  manifest.set_count("cache_hits", result.cache_hits);
  manifest.set_count("cache_misses", result.jobs_total - result.cache_hits);
  manifest.set_count("computed", result.computed);
  manifest.set_count("skipped", result.skipped);
  manifest.set_count("cache_evictions", result.cache_evictions);
  manifest.set_count("cache_stores", cache.stores());
  manifest.set_pool_telemetry(adc::runtime::global_pool().counters(),
                              adc::runtime::global_pool().latency_histogram());
  result.manifest_path = manifest.write_to_env_dir();
  return result;
}

}  // namespace adc::scenario
