/// \file trace.hpp
/// In-memory span recorder for the benchmark's traced run.
///
/// Spans are recorded by the benchmark's own code around its calls into the
/// simulator's public functions, or taken from the phase timings the
/// scenario runner writes to its run manifest; nothing inside the simulator
/// is instrumented for the benchmark. Every record carries a name, a start and an end (steady
/// clock, relative to the tracer's creation), the id of the span that
/// caused it and the id of the repetition it belongs to. Records stay in
/// memory until `write_chrome` writes them out as Chrome trace-event JSON
/// (loadable in Perfetto or chrome://tracing).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace perfbench {

class Tracer {
 public:
  /// RAII span on the calling thread; nests under the innermost open span.
  class Span {
   public:
    Span(Tracer& tracer, std::string name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Close the span now (idempotent) and return its duration in seconds.
    double end();

   private:
    Tracer& tracer_;
    std::size_t index_;
    bool open_ = true;
  };

  Tracer();
  Tracer(const Tracer&) = delete;  // spans hold a reference to their tracer
  Tracer& operator=(const Tracer&) = delete;

  /// Tag subsequent records with repetition id `run`.
  void set_run(std::uint64_t run) { run_ = run; }

  /// Record a zero-length event under the innermost open span.
  void instant(std::string name);

  /// Record a finished span that began at `start` and lasted `seconds`,
  /// under the innermost open span: a phase timed by the simulator itself.
  void record(std::string name, std::chrono::steady_clock::time_point start, double seconds);

  /// Self time of every span name, summed over all its spans: each span's
  /// duration minus the part of it that its child spans cover.
  struct SelfTime {
    double total_ms = 0.0;
    double self_ms = 0.0;
    std::uint64_t count = 0;
  };
  [[nodiscard]] std::map<std::string, SelfTime> self_times() const;

  /// Write every record as Chrome trace-event JSON, with `metadata` under
  /// the top-level "metadata" key.
  void write_chrome(const std::string& path, const adc::common::json::JsonValue& metadata) const;

 private:
  struct Record {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t run = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;   ///< == start_ns for an instant event
    bool instant = false;
  };

  [[nodiscard]] std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<std::size_t> open_;  ///< indices of open spans, innermost last
  std::uint64_t next_id_ = 1;
  std::uint64_t run_ = 0;
};

}  // namespace perfbench
