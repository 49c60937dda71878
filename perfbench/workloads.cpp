/// \file workloads.cpp
/// The four sweep workloads: inputs from the seed, set-up, timed
/// repetitions, correctness checks and, in the traced run, the per-layer
/// metrics.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "runtime/parallel.hpp"
#include "scenario/cache.hpp"
#include "scenario/hash.hpp"
#include "scenario/runner.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/socket.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace sc = adc::scenario;
namespace svc = adc::service;
using Clock = std::chrono::steady_clock;

namespace {

// Monte-Carlo size of the yield workloads: yield2k's 2000 dies.
constexpr std::uint64_t kYieldDies = 2000;
constexpr std::uint64_t kSmokeYieldDies = 24;
constexpr std::size_t kYieldRecord = 2048;
constexpr std::size_t kCharRecord = 8192;
constexpr std::size_t kSmokeRecord = 512;

// Characterization grid, one die per point, from the repo's own figure
// definitions: scenarios/fig5.json's conversion rates at 10 MHz, and
// bench/fig6_dynamic_vs_fin's input frequencies at 110 MS/s. A scenario
// tone must stay inside the first Nyquist zone (max_fin_fraction < 1), so
// Fig. 6's points from 55 MHz up cannot be requested; its 10 MHz point is
// Fig. 5's 110 MS/s point and is not run twice.
const std::vector<double> kFig5Rates = {2e6,   5e6,   10e6,  20e6,  40e6,  60e6,  80e6, 100e6,
                                        110e6, 120e6, 130e6, 140e6, 150e6, 160e6, 180e6};
const std::vector<double> kFig6Fins = {1e6, 5e6, 20e6, 30e6, 40e6};
constexpr double kFig6Rate = 110e6;
const std::vector<double> kSmokeRates = {20e6, 110e6};
const std::vector<double> kSmokeFins = {5e6, 30e6};

// Fast-vs-exact parity bounds of tests/test_profile_parity.cpp, applied to
// the mean difference over the char_sweep grid. They are stated for the
// nominal die; on one random die a single point can differ by more (THD
// 0.41 dB, SNDR 0.27 dB over dies 1..80), while the grid mean stays within
// 0.09 dB SNDR, 0.12 dB THD and 0.015 bit ENOB.
struct MetricValue {
  const char* metric;
  double value;
};
constexpr MetricValue kParity[] = {{"sndr_db", 0.3}, {"thd_db", 0.3}, {"enob", 0.05}};

// Exact-fidelity char_sweep grid means at seed 42. The exact contract's
// codes are byte-pinned, so these hold to rounding on any machine.
constexpr MetricValue kCharPin[] = {{"snr_db", 69.29549897168502},
                                    {"sndr_db", 62.8711049042284},
                                    {"sfdr_db", 64.65504770876518},
                                    {"thd_db", -64.0310415753855},
                                    {"enob", 10.151346329606048}};
constexpr double kCharPinTolerance = 1e-9;

// Set-ups per invocation; setup_s is their median.
constexpr int kSetupRepeats = 3;
constexpr std::size_t kMinReps = 3;
constexpr int kServiceTimeoutMs = 120000;

// docs/SCENARIOS.md pins the yield2k summary (seeds 42..2041). Any machine
// reproduces these exact doubles.
constexpr std::uint64_t kPinSeed = 42;
constexpr std::uint64_t kPinPassing = 1867;
constexpr double kPinYieldFraction = 0.9335;
constexpr double kPinMean = 64.69819882269162;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool is_yield(const std::string& workload) { return workload.rfind("yield_", 0) == 0; }

json::JsonValue tone_stimulus(std::size_t record_length) {
  auto stimulus = json::JsonValue::object();
  stimulus.set("type", "tone");
  stimulus.set("frequency_hz", 10e6);
  stimulus.set("amplitude_fraction", 0.985);
  stimulus.set("record_length", static_cast<std::uint64_t>(record_length));
  stimulus.set("max_fin_fraction", 0.9);
  return stimulus;
}

json::JsonValue seed_range(std::uint64_t first, std::uint64_t count) {
  auto seeds = json::JsonValue::object();
  seeds.set("first", first);
  seeds.set("count", count);
  return seeds;
}

json::JsonValue number_array(const std::vector<double>& values) {
  auto array = json::JsonValue::array();
  for (const double v : values) array.push_back(v);
  return array;
}

std::string yield_spec(std::uint64_t seed, bool smoke) {
  auto doc = json::JsonValue::object();
  doc.set("name", "perfbench_yield");
  doc.set("description",
          "yield2k-shaped Monte-Carlo yield: fast fidelity, 10 MHz tone, pass at SNDR >= 63 dB");
  doc.set("stimulus", tone_stimulus(smoke ? kSmokeRecord : kYieldRecord));
  auto measurement = json::JsonValue::object();
  measurement.set("type", "yield");
  measurement.set("metric", "sndr_db");
  measurement.set("limit", 63.0);
  doc.set("measurement", std::move(measurement));
  auto die = json::JsonValue::object();
  die.set("fidelity", "fast");
  doc.set("die", std::move(die));
  doc.set("seeds", seed_range(seed, smoke ? kSmokeYieldDies : kYieldDies));
  return json::dump(doc);
}

/// One char_sweep spec: Fig. 5 (rate axis at 10 MHz) or Fig. 6 (fin axis
/// at 110 MS/s) at one fidelity.
std::string char_spec(std::uint64_t seed, bool smoke, const char* fidelity, int figure) {
  auto doc = json::JsonValue::object();
  doc.set("name", "perfbench_fig" + std::to_string(figure) + "_" + fidelity);
  doc.set("description", figure == 5
                             ? "Fig. 5 grid: conversion rate at 10 MHz, one die per point"
                             : "Fig. 6 grid: input frequency at 110 MS/s, one die per point");
  doc.set("stimulus", tone_stimulus(smoke ? kSmokeRecord : kCharRecord));
  auto measurement = json::JsonValue::object();
  measurement.set("type", "dynamic");
  doc.set("measurement", std::move(measurement));
  auto die = json::JsonValue::object();
  die.set("fidelity", fidelity);
  if (figure == 6) die.set("conversion_rate_hz", kFig6Rate);
  doc.set("die", std::move(die));
  doc.set("seeds", seed_range(seed, 1));
  auto axis = json::JsonValue::object();
  axis.set("key", figure == 5 ? "die.conversion_rate_hz" : "stimulus.frequency_hz");
  axis.set("values", number_array(figure == 5 ? (smoke ? kSmokeRates : kFig5Rates)
                                              : (smoke ? kSmokeFins : kFig6Fins)));
  auto sweep = json::JsonValue::array();
  sweep.push_back(std::move(axis));
  doc.set("sweep", std::move(sweep));
  return json::dump(doc);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Digest of the report bytes a user receives: the JSON and the CSV file.
std::string report_digest(const sc::ReportPaths& paths) {
  sc::Fnv1a hash;
  hash.update(read_file(paths.json_path));
  hash.update("\n");
  hash.update(read_file(paths.csv_path));
  return sc::to_hex(hash.digest());
}

/// Rows whose metrics are missing or not finite.
std::size_t bad_rows(const json::JsonValue& report) {
  const auto* results = report.find("results");
  if (results == nullptr || !results->is_array()) throw std::runtime_error("report lacks results");
  std::size_t bad = 0;
  for (const auto& row : results->items()) {
    const auto* metrics = row.find("metrics");
    bool ok = metrics != nullptr && metrics->is_object() && !metrics->members().empty();
    if (ok) {
      for (const auto& member : metrics->members()) {
        ok = ok && member.value.is_number() && std::isfinite(member.value.as_double());
      }
    }
    if (!ok) ++bad;
  }
  return bad;
}

void remove_contents(const std::string& dir) {
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end; it.increment(ec)) {
    fs::remove_all(it->path());
  }
}

/// One scenario run inside a repetition.
struct SpecRun {
  double wall = 0.0;
  double cpu = 0.0;
  std::size_t cells = 0;
  std::size_t failed = 0;
};

/// Layer timings collected by traced repetitions (sums over the run).
struct LayerTimes {
  std::vector<double> plan_ms, execute_ms, report_ms;  ///< per repetition
  double load_total_s = 0.0;
  std::uint64_t entries = 0;
  std::uint64_t hits = 0;
  std::vector<double> cell_latency_ms;
  std::vector<double> summary_lag_ms;
  std::vector<double> cells_computed, cells_hit, cells_deduped;
};

struct Context {
  Context(const Options& o, Tracer& t) : opt(o), tracer(t) {}

  const Options& opt;
  Tracer& tracer;
  WorkloadInputs inputs;
  std::vector<sc::ScenarioSpec> specs;
  std::vector<std::size_t> spec_cells;
  std::vector<std::string> reference;  ///< cold CLI report digest per spec
  std::string root;
  std::string report_dir;
  std::unique_ptr<svc::ScenarioService> service;
  std::optional<svc::UnixStream> client;
  std::uint64_t next_request = 1;
  std::vector<std::string> errors;
  bool rss_per_rep = true;  ///< false: the kernel kept the whole-process peak
  /// False when the reference reports fail a check of their values (the
  /// docs/SCENARIOS.md yield pin, char_sweep's parity and pin); every report
  /// equal to them is then wrong too.
  bool reference_ok = true;

  [[nodiscard]] std::string setup_cache(std::size_t i) const {
    return root + "/setup_cache" + std::to_string(i);
  }
  [[nodiscard]] std::string run_cache(std::size_t i) const {
    return root + "/cache" + std::to_string(i);
  }
  [[nodiscard]] std::string served_cache() const { return root + "/served_cache"; }
  [[nodiscard]] std::string socket_path() const { return root + "/s.sock"; }
};

/// Shared tail of every checked run: counts, null rows and report bytes.
void check_run(Context& ctx, std::size_t i, SpecRun& run, const json::JsonValue& report,
               const sc::ReportPaths& paths, std::uint64_t computed, std::uint64_t hits) {
  const bool warm = ctx.opt.workload == "yield_warm";
  const std::uint64_t expected_hits = warm ? run.cells : 0;
  if (hits != expected_hits || computed + hits != run.cells) {
    ctx.errors.push_back(ctx.specs[i].name + ": " + std::to_string(computed) + " computed, " +
                         std::to_string(hits) + " hits of " + std::to_string(run.cells));
    run.failed = run.cells;
    return;
  }
  run.failed = ctx.reference_ok ? bad_rows(report) : run.cells;
  if (report_digest(paths) != ctx.reference[i]) {
    ctx.errors.push_back(ctx.specs[i].name + ": report bytes differ from the cold reference");
    run.failed = run.cells;
  }
}

void record_failure(Context& ctx, std::size_t i, SpecRun& run, const std::exception& e) {
  ctx.errors.push_back(ctx.specs[i].name + ": " + e.what());
  run.failed = run.cells;
}

/// Read the phase timings (seconds) of the runner's manifest at `path`.
std::vector<std::pair<std::string, double>> manifest_phases(
    const std::optional<std::string>& path) {
  if (!path) throw std::runtime_error("the runner wrote no manifest");
  const auto doc = json::parse(read_file(*path));
  std::vector<std::pair<std::string, double>> phases;
  for (const auto& phase : doc.find("phases")->items()) {
    phases.emplace_back(phase.find("name")->as_string(), phase.find("wall_seconds")->as_double());
  }
  return phases;
}

/// One public call, ScenarioRunner::run, from spec text to report files.
/// Traced (`layers` non-null), the run sits under a span and the runner's
/// own manifest phases become its child spans and the layer timings.
SpecRun runner_run(Context& ctx, std::size_t i, const std::string& cache_dir, LayerTimes* layers,
                   double& plan, double& execute, double& report_s) {
  SpecRun run;
  run.cells = ctx.spec_cells[i];
  Tracer& tracer = ctx.tracer;
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  std::optional<Tracer::Span> root;
  if (layers != nullptr) root.emplace(tracer, "scenario.run");
  try {
    sc::ScenarioSpec spec;
    {
      std::optional<Tracer::Span> span;
      if (layers != nullptr) span.emplace(tracer, "scenario.spec");
      spec = sc::parse_spec_text(ctx.inputs.spec_texts[i]);
    }
    const auto run_start = Clock::now();
    sc::RunOptions options;
    options.cache_dir = cache_dir;
    options.report_dir = ctx.report_dir;
    const auto result = sc::ScenarioRunner(options).run(spec);
    run.wall = seconds_since(t0);
    run.cpu = process_cpu_seconds() - cpu0;
    if (layers != nullptr) {
      // The manifest holds durations, not timestamps: its phases are laid
      // out back to back from the start of the run call.
      auto at = run_start;
      for (const auto& [name, seconds] : manifest_phases(result.manifest_path)) {
        if (name == "expand") {
          tracer.record("scenario.plan", at, seconds);
          plan += seconds;
        } else if (name == "cache_probe") {
          tracer.record("scenario.load", at, seconds);
          layers->load_total_s += seconds;
        } else if (name == "execute") {
          tracer.record("scenario.execute", at, seconds);
          execute += seconds;
        } else if (name == "report") {
          tracer.record("scenario.report", at, seconds);
          report_s += seconds;
        }
        at += std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
      }
      layers->entries += result.jobs_total;
      layers->hits += result.cache_hits;
      root.reset();
    }
    check_run(ctx, i, run, result.report, {result.report_json_path, result.report_csv_path},
              result.computed, result.cache_hits);
  } catch (const std::exception& e) {
    run.wall = seconds_since(t0);
    run.cpu = process_cpu_seconds() - cpu0;
    record_failure(ctx, i, run, e);
  }
  return run;
}

/// One request over the service connection, from spec text to report
/// files written by the client. `layers` is non-null in the traced run.
SpecRun served_run(Context& ctx, LayerTimes* layers, double& execute, double& report_s) {
  SpecRun run;
  run.cells = ctx.spec_cells[0];
  Tracer& tracer = ctx.tracer;
  const auto counters0 = ctx.service->counters();
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  std::optional<Tracer::Span> root;
  if (layers != nullptr) root.emplace(tracer, "service.request");
  try {
    auto request = json::JsonValue::object();
    request.set("type", "run");
    std::string id = "r";
    id += std::to_string(ctx.next_request++);
    request.set("id", id);
    request.set("spec", json::parse(ctx.inputs.spec_texts[0]));
    {
      std::optional<Tracer::Span> span;
      if (layers != nullptr) span.emplace(tracer, "service.send");
      if (!ctx.client->write_line(json::dump_compact(request))) {
        throw std::runtime_error("service connection closed on send");
      }
    }
    json::JsonValue summary;
    {
      std::optional<Tracer::Span> span;
      if (layers != nullptr) span.emplace(tracer, "service.await");
      double accepted_at = 0.0;
      double last_cell_at = 0.0;
      std::string line;
      for (;;) {
        if (ctx.client->read_line(line, kServiceTimeoutMs) != svc::UnixStream::ReadStatus::kLine) {
          throw std::runtime_error("service connection closed or timed out");
        }
        auto event = json::parse(line);
        const std::string type = svc::event_type(event);
        if (type == "cell" && layers != nullptr) {
          last_cell_at = seconds_since(t0);
          tracer.instant("service.cell");
          layers->cell_latency_ms.push_back(last_cell_at * 1e3);
        } else if (type == "accepted") {
          accepted_at = seconds_since(t0);
        } else if (type == "error") {
          throw std::runtime_error("service error: " + line);
        } else if (type == "summary") {
          if (layers != nullptr) {
            tracer.instant("service.summary");
            layers->summary_lag_ms.push_back((seconds_since(t0) - last_cell_at) * 1e3);
            execute += last_cell_at - accepted_at;
          }
          summary = std::move(event);
          break;
        }
      }
    }
    const auto& report = *summary.find("report");
    sc::ReportPaths paths;
    {
      std::optional<Tracer::Span> span;
      if (layers != nullptr) span.emplace(tracer, "scenario.report");
      const auto t_report = Clock::now();
      paths = sc::write_report_files(report, ctx.specs[0].name, ctx.report_dir);
      report_s += seconds_since(t_report);
    }
    run.wall = seconds_since(t0);
    run.cpu = process_cpu_seconds() - cpu0;
    root.reset();
    const std::uint64_t hits = summary.find("cache_hits")->as_uint64();
    if (layers != nullptr) {
      const auto counters1 = ctx.service->counters();
      layers->cells_computed.push_back(
          static_cast<double>(counters1.cells_computed - counters0.cells_computed));
      layers->cells_hit.push_back(static_cast<double>(counters1.cells_hit - counters0.cells_hit));
      layers->cells_deduped.push_back(
          static_cast<double>(counters1.cells_deduped - counters0.cells_deduped));
      layers->entries += run.cells;
      layers->hits += hits;
    }
    check_run(ctx, 0, run, report, paths, summary.find("computed")->as_uint64(), hits);
  } catch (const std::exception& e) {
    run.wall = seconds_since(t0);
    run.cpu = process_cpu_seconds() - cpu0;
    record_failure(ctx, 0, run, e);
  }
  return run;
}

/// One repetition: every spec of the workload once, each on a cold cache
/// (yield_warm: on the cache set-up filled).
struct Rep {
  double wall = 0.0;
  double cpu = 0.0;
  std::size_t cells = 0;
  std::size_t failed = 0;
  double peak_mb = 0.0;  ///< peak resident memory during the repetition
  double exact_wall = 0.0;  ///< the part spent on exact-fidelity specs
};

Rep run_rep(Context& ctx, LayerTimes* layers) {
  Rep rep;
  double plan = 0.0;
  double execute = 0.0;
  double report = 0.0;
  for (std::size_t i = 0; i < ctx.specs.size(); ++i) {
    SpecRun run;
    if (ctx.opt.workload == "yield_served") {
      remove_contents(ctx.served_cache());
      run = served_run(ctx, layers, execute, report);
    } else {
      const bool warm = ctx.opt.workload == "yield_warm";
      const std::string cache_dir = warm ? ctx.setup_cache(i) : ctx.run_cache(i);
      if (!warm) fs::remove_all(cache_dir);
      run = runner_run(ctx, i, cache_dir, layers, plan, execute, report);
    }
    rep.wall += run.wall;
    rep.cpu += run.cpu;
    rep.cells += run.cells;
    rep.failed += run.failed;
    if (ctx.specs[i].die.fidelity == adc::common::FidelityProfile::kExact) {
      rep.exact_wall += run.wall;
    }
  }
  if (layers != nullptr) {
    layers->plan_ms.push_back(plan * 1e3);
    layers->execute_ms.push_back(execute * 1e3);
    layers->report_ms.push_back(report * 1e3);
  }
  return rep;
}

/// `metric` of every row of `reports[first, last)`, in order.
std::vector<double> metric_column(const std::vector<json::JsonValue>& reports, std::size_t first,
                                  std::size_t last, const char* metric) {
  std::vector<double> values;
  for (std::size_t i = first; i < last; ++i) {
    for (const auto& row : reports[i].find("results")->items()) {
      const auto* value = row.find("metrics")->find(metric);
      if (value == nullptr) throw std::runtime_error(std::string("a row lacks ") + metric);
      values.push_back(value->as_double());
    }
  }
  return values;
}

double mean_of(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// char_sweep's value checks on the set-up reports (exact specs first, then
/// the fast ones on the same grids): at any seed the fast grid agrees with
/// the exact one within the parity bounds on average, and at seed 42 the
/// exact grid equals its pin.
void check_char_grid(Context& ctx, const std::vector<json::JsonValue>& reports) {
  const std::size_t half = reports.size() / 2;
  for (const auto& [metric, bound] : kParity) {
    const auto exact = metric_column(reports, 0, half, metric);
    const auto fast = metric_column(reports, half, reports.size(), metric);
    if (exact.size() != fast.size() || exact.empty()) {
      throw std::runtime_error("char_sweep: exact and fast grids differ in size");
    }
    double diff = 0.0;
    for (std::size_t k = 0; k < exact.size(); ++k) diff += fast[k] - exact[k];
    diff /= static_cast<double>(exact.size());
    if (!(std::abs(diff) <= bound)) {
      ctx.errors.push_back(std::string("char_sweep: fast ") + metric + " is off exact by " +
                           number_text(diff) + " on average, beyond the parity bound " +
                           number_text(bound));
      ctx.reference_ok = false;
    }
  }
  if (ctx.opt.seed != kPinSeed) return;
  for (const auto& [metric, pinned] : kCharPin) {
    const double mean = mean_of(metric_column(reports, 0, half, metric));
    if (!(std::abs(mean - pinned) <= kCharPinTolerance)) {
      ctx.errors.push_back(std::string("char_sweep: exact mean ") + metric + " " +
                           number_text(mean) + " differs from the seed-42 pin " +
                           number_text(pinned));
      ctx.reference_ok = false;
    }
  }
}

void stop_service(Context& ctx) {
  ctx.client.reset();
  if (ctx.service) ctx.service->stop();
  ctx.service.reset();
}

/// Set-up: generate the specs, run each once cold through the CLI path (the
/// warm-up that fills lazy tables and yields the reference report bytes;
/// for yield_warm it is also the cache fill), and start the service for
/// yield_served. Returns the timed seconds.
double setup_once(Context& ctx) {
  stop_service(ctx);
  fs::remove_all(ctx.root);
  fs::create_directories(ctx.root);
  const auto t0 = Clock::now();
  ctx.inputs = make_inputs(ctx.opt.workload, ctx.opt.seed, ctx.opt.smoke);
  ctx.specs.clear();
  ctx.spec_cells.clear();
  ctx.reference.clear();
  for (const auto& text : ctx.inputs.spec_texts) {
    ctx.specs.push_back(sc::parse_spec_text(text));
    ctx.spec_cells.push_back(sc::expand_jobs(ctx.specs.back()).size());
  }
  std::vector<json::JsonValue> reports;
  for (std::size_t i = 0; i < ctx.specs.size(); ++i) {
    sc::RunOptions options;
    options.cache_dir = ctx.setup_cache(i);
    options.report_dir = ctx.root + "/setup_reports";
    const auto result = sc::ScenarioRunner(options).run(ctx.specs[i]);
    if (result.computed != ctx.spec_cells[i] || bad_rows(result.report) != 0) {
      throw std::runtime_error(ctx.specs[i].name + ": set-up run left cells uncomputed");
    }
    ctx.reference.push_back(report_digest({result.report_json_path, result.report_csv_path}));
    if (is_yield(ctx.opt.workload) && ctx.opt.seed == kPinSeed && !ctx.opt.smoke) {
      const auto* summary = result.report.find("summary");
      const bool pinned = summary != nullptr &&
                          summary->find("passing")->as_uint64() == kPinPassing &&
                          summary->find("yield_fraction")->as_double() == kPinYieldFraction &&
                          summary->find("mean")->as_double() == kPinMean;
      if (!pinned) {
        ctx.errors.push_back("yield summary differs from the docs/SCENARIOS.md pin");
        ctx.reference_ok = false;
      }
    }
    reports.push_back(result.report);
  }
  // Smoke records are too short for the parity bounds.
  if (ctx.opt.workload == "char_sweep" && !ctx.opt.smoke) check_char_grid(ctx, reports);
  if (ctx.opt.workload == "yield_served") {
    fs::create_directories(ctx.served_cache());
    svc::ServiceOptions options;
    options.socket_path = ctx.socket_path();
    options.cache_dir = ctx.served_cache();
    ctx.service = std::make_unique<svc::ScenarioService>(options);
    ctx.service->start();
    ctx.client.emplace(svc::UnixStream::connect(ctx.socket_path()));
    std::string line;
    if (ctx.client->read_line(line, kServiceTimeoutMs) != svc::UnixStream::ReadStatus::kLine ||
        svc::event_type(json::parse(line)) != "hello") {
      throw std::runtime_error("service did not greet");
    }
  }
  return seconds_since(t0);
}

/// Reset the kernel's peak-RSS mark (Linux clear_refs "5"); false when the
/// kernel refuses, in which case the peak covers the whole process.
bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return out.good();
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::vector<Rep> measure(Context& ctx, double seconds, LayerTimes* layers) {
  std::vector<Rep> reps;
  const std::size_t min_reps = ctx.opt.smoke ? 1 : kMinReps;
  const auto start = Clock::now();
  while (reps.size() < min_reps || seconds_since(start) < seconds) {
    ctx.tracer.set_run(reps.size() + 1);
    // Hand freed heap back first, so each repetition's peak starts from
    // the same resident baseline instead of whatever the last one left.
    malloc_trim(0);
    ctx.rss_per_rep = reset_peak_rss();
    reps.push_back(run_rep(ctx, layers));
    reps.back().peak_mb = peak_rss_mb();
  }
  return reps;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double median_or_zero(const std::vector<double>& values) {
  return values.empty() ? 0.0 : quartiles(values).median;
}

void print_quartiles(const char* name, const char* unit, const std::vector<double>& values) {
  const Quartiles q = quartiles(values);
  std::printf("  %-12s median %s %s  q1 %s  q3 %s  n=%zu\n", name, number_text(q.median).c_str(),
              unit, number_text(q.q1).c_str(), number_text(q.q3).c_str(), q.n);
}

/// Per-layer metrics of the traced run, plus the replays.
MetricMap layer_metrics(Context& ctx, const LayerTimes& layers,
                        const adc::runtime::PoolCounters& pool0,
                        const adc::runtime::PoolCounters& pool1, std::size_t traced_cells) {
  const bool served = ctx.opt.workload == "yield_served";
  ReplayInputs replay;
  for (std::size_t i = 0; i < ctx.specs.size(); ++i) {
    // Eight dies: the first ones of a yield run, two points spread over
    // each char_sweep grid.
    const auto jobs = sc::expand_jobs(ctx.specs[i]);
    const std::size_t want = 8 / ctx.specs.size();
    const std::size_t stride = is_yield(ctx.opt.workload) ? 1 : jobs.size() / want + 1;
    for (std::size_t j = 0; j < jobs.size() && j / stride < want; j += stride) {
      replay.jobs.push_back(sc::resolve_job(ctx.specs[i], jobs[j]));
    }
    replay.entry_dirs.push_back(served ? ctx.served_cache()
                                : ctx.opt.workload == "yield_warm" ? ctx.setup_cache(i)
                                                                   : ctx.run_cache(i));
  }
  replay.scratch_dir = ctx.root + "/replay";
  MetricMap m = replay_layers(replay);

  std::vector<double> plan_ms = layers.plan_ms;
  if (served) {
    // The service plans internally; replay the planner on the same spec.
    plan_ms.clear();
    for (int k = 0; k < 3; ++k) {
      const auto t0 = Clock::now();
      const auto plan = sc::plan_scenario(ctx.specs[0]);
      plan_ms.push_back(seconds_since(t0) * 1e3);
      if (plan.jobs.size() != ctx.spec_cells[0]) throw std::runtime_error("plan size changed");
    }
  } else {
    // In-run cache probes (misses when cold, hits when warm) replace the
    // replayed hit loads.
    m["scenario.load_us_per_entry"] = {
        layers.load_total_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(layers.entries, 1)),
        "us"};
  }
  m["scenario.plan_ms"] = {median_or_zero(plan_ms), "ms"};
  m["scenario.execute_ms"] = {median_or_zero(layers.execute_ms), "ms"};
  m["scenario.report_ms"] = {median_or_zero(layers.report_ms), "ms"};
  const auto entries = static_cast<double>(std::max<std::uint64_t>(layers.entries, 1));
  m["scenario.hit_frac"] = {static_cast<double>(layers.hits) / entries, "frac"};

  const double submitted = static_cast<double>(pool1.submitted - pool0.submitted);
  const double executed = static_cast<double>(pool1.executed - pool0.executed);
  m["runtime.jobs_per_cell"] = {submitted / static_cast<double>(traced_cells), "jobs/cell"};
  m["runtime.stolen_frac"] = {
      executed > 0.0 ? static_cast<double>(pool1.stolen - pool0.stolen) / executed : 0.0, "frac"};
  m["runtime.backpressure_waits"] = {
      static_cast<double>(pool1.backpressure_waits - pool0.backpressure_waits), "count"};

  m["service.cell_latency_p50_ms"] = {percentile(layers.cell_latency_ms, 0.50), "ms"};
  m["service.cell_latency_p99_ms"] = {percentile(layers.cell_latency_ms, 0.99), "ms"};
  m["service.summary_lag_ms"] = {median_or_zero(layers.summary_lag_ms), "ms"};
  m["service.cells_computed"] = {median_or_zero(layers.cells_computed), "count"};
  m["service.cells_hit"] = {median_or_zero(layers.cells_hit), "count"};
  m["service.cells_deduped"] = {median_or_zero(layers.cells_deduped), "count"};
  return m;
}

}  // namespace

WorkloadInputs make_inputs(const std::string& workload, std::uint64_t seed, bool smoke) {
  // Keeps seed + die count far from wrap-around.
  if (seed > (1ull << 62)) throw std::invalid_argument("--seed must be at most 2^62");
  WorkloadInputs inputs;
  if (workload == "yield_cold" || workload == "yield_warm" || workload == "yield_served") {
    inputs.spec_texts = {yield_spec(seed, smoke)};
    inputs.cells = smoke ? kSmokeYieldDies : kYieldDies;
  } else if (workload == "char_sweep") {
    // Exact first, then fast, in the same order, so spec i and i + 2 share
    // a grid.
    inputs.spec_texts = {char_spec(seed, smoke, "exact", 5), char_spec(seed, smoke, "exact", 6),
                         char_spec(seed, smoke, "fast", 5), char_spec(seed, smoke, "fast", 6)};
    inputs.cells = 2 * (smoke ? kSmokeRates.size() + kSmokeFins.size()
                              : kFig5Rates.size() + kFig6Fins.size());
  } else {
    throw std::invalid_argument("unknown workload \"" + workload + "\"");
  }
  return inputs;
}

WorkloadResult run_workload(const Options& opt, Tracer& tracer) {
  Context ctx(opt, tracer);
  ctx.root = opt.workdir + "/" + opt.workload;
  ctx.report_dir = ctx.root + "/reports";

  std::vector<double> setups;
  for (int k = 0; k < kSetupRepeats; ++k) setups.push_back(setup_once(ctx));

  WorkloadResult result;
  const double measure_seconds = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  const auto reps = measure(ctx, measure_seconds, nullptr);

  std::vector<double> walls, cpus, peaks, exact_walls, fast_walls;
  for (const auto& rep : reps) {
    walls.push_back(rep.wall);
    cpus.push_back(rep.cpu);
    peaks.push_back(rep.peak_mb);
    exact_walls.push_back(rep.exact_wall);
    fast_walls.push_back(rep.wall - rep.exact_wall);
    result.attempted += rep.cells;
    result.failed += rep.failed;
  }
  const double wall = quartiles(walls).median;
  result.wall_s = wall;
  result.exact_wall_s = quartiles(exact_walls).median;
  result.fast_wall_s = quartiles(fast_walls).median;

  std::printf("workload %s seed %llu: %zu cells/rep, %zu reps, %d set-ups\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), ctx.inputs.cells, reps.size(),
              kSetupRepeats);
  print_quartiles("setup_s", "s", setups);
  print_quartiles("wall_s", "s", walls);
  print_quartiles("cpu_s", "s", cpus);
  print_quartiles("peak_rss_mb", ctx.rss_per_rep ? "MB" : "MB (whole process)", peaks);
  if (result.exact_wall_s > 0.0) {
    print_quartiles("exact_s", "s", exact_walls);
    print_quartiles("fast_s", "s", fast_walls);
  }

  if (!opt.trace) {
    result.metrics["setup_s"] = {quartiles(setups).median, "s"};
    result.metrics["wall_s"] = {wall, "s"};
    result.metrics["cells_per_s"] = {static_cast<double>(ctx.inputs.cells) / wall, "1/s"};
    result.metrics["cpu_s"] = {quartiles(cpus).median, "s"};
    result.metrics["peak_rss_mb"] = {quartiles(peaks).median, "MB"};
  } else {
    LayerTimes layers;
    // The runner times its own phases into a manifest when this names a
    // directory; the traced repetitions read them from there.
    const std::string manifest_dir = ctx.root + "/manifests";
    fs::create_directories(manifest_dir);
    setenv("ADC_RUNTIME_MANIFEST_DIR", manifest_dir.c_str(), 1);
    const auto pool0 = adc::runtime::global_pool().counters();
    const auto traced = measure(ctx, opt.seconds / 2.0, &layers);
    const auto pool1 = adc::runtime::global_pool().counters();
    unsetenv("ADC_RUNTIME_MANIFEST_DIR");
    std::size_t traced_cells = 0;
    std::vector<double> traced_walls;
    for (const auto& rep : traced) {
      traced_cells += rep.cells;
      traced_walls.push_back(rep.wall);
      result.attempted += rep.cells;
      result.failed += rep.failed;
    }
    print_quartiles("traced_s", "s", traced_walls);
    result.metrics = layer_metrics(ctx, layers, pool0, pool1, traced_cells);

    // Self time per span name, and the time no layer span covers.
    const auto self = tracer.self_times();
    double unattributed_ms = 0.0;
    auto self_doc = json::JsonValue::object();
    std::printf("  span self time over %zu traced reps (ms):\n", traced.size());
    for (const auto& [name, t] : self) {
      std::printf("    %-22s total %10.3f  self %10.3f  n=%llu\n", name.c_str(), t.total_ms,
                  t.self_ms, static_cast<unsigned long long>(t.count));
      if (name == "scenario.run" || name == "service.request") unattributed_ms += t.self_ms;
      auto entry = json::JsonValue::object();
      entry.set("total_ms", t.total_ms);
      entry.set("self_ms", t.self_ms);
      entry.set("count", t.count);
      self_doc.set(name, std::move(entry));
    }
    result.metrics["trace.unattributed_ms"] = {
        unattributed_ms / static_cast<double>(traced.size()), "ms"};
    result.metrics["trace.overhead_ms"] = {(quartiles(traced_walls).median - wall) * 1e3, "ms"};

    auto metadata = json::JsonValue::object();
    metadata.set("fingerprint", fingerprint());
    metadata.set("workload", opt.workload);
    metadata.set("seed", opt.seed);
    metadata.set("self_time", std::move(self_doc));
    auto metric_doc = json::JsonValue::object();
    for (const auto& [name, metric] : result.metrics) metric_doc.set(name, metric.value);
    metadata.set("metrics", std::move(metric_doc));
    fs::create_directories(opt.trace_dir);
    const std::string path =
        opt.trace_dir + "/" + opt.workload + "_seed" + std::to_string(opt.seed) + ".json";
    tracer.write_chrome(path, metadata);
    std::printf("  trace written to %s\n", path.c_str());
  }
  stop_service(ctx);
  fs::remove_all(ctx.root);

  constexpr std::size_t kShownErrors = 10;
  for (std::size_t i = 0; i < std::min(ctx.errors.size(), kShownErrors); ++i) {
    std::fprintf(stderr, "perfbench: %s\n", ctx.errors[i].c_str());
  }
  if (ctx.errors.size() > kShownErrors) {
    std::fprintf(stderr, "perfbench: ... %zu more errors\n", ctx.errors.size() - kShownErrors);
  }
  result.correct = ctx.errors.empty() && result.failed == 0;
  std::printf("  error_frac   %s (%llu of %llu cells failed)\n",
              number_text(static_cast<double>(result.failed) /
                          static_cast<double>(std::max<std::uint64_t>(result.attempted, 1)))
                  .c_str(),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  return result;
}

}  // namespace perfbench
