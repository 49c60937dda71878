#include "trace.hpp"

#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace json = adc::common::json;

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              origin_)
      .count();
}

Tracer::Span::Span(Tracer& tracer, std::string name)
    : tracer_(tracer), index_(tracer.records_.size()) {
  Record record;
  record.name = std::move(name);
  record.id = tracer_.next_id_++;
  record.parent = tracer_.open_.empty() ? 0 : tracer_.records_[tracer_.open_.back()].id;
  record.run = tracer_.run_;
  record.start_ns = tracer_.now_ns();
  record.end_ns = record.start_ns;
  tracer_.records_.push_back(std::move(record));
  tracer_.open_.push_back(index_);
}

Tracer::Span::~Span() { end(); }

double Tracer::Span::end() {
  Record& record = tracer_.records_[index_];
  if (open_) {
    open_ = false;
    record.end_ns = tracer_.now_ns();
    // Spans close innermost first; an early end() of an outer span would
    // otherwise leave a stale entry on the stack.
    if (!tracer_.open_.empty() && tracer_.open_.back() == index_) tracer_.open_.pop_back();
  }
  return static_cast<double>(record.end_ns - record.start_ns) * 1e-9;
}

void Tracer::instant(std::string name) {
  Record record;
  record.name = std::move(name);
  record.id = next_id_++;
  record.parent = open_.empty() ? 0 : records_[open_.back()].id;
  record.run = run_;
  record.start_ns = now_ns();
  record.end_ns = record.start_ns;
  record.instant = true;
  records_.push_back(std::move(record));
}

void Tracer::record(std::string name, std::chrono::steady_clock::time_point start,
                    double seconds) {
  Record record;
  record.name = std::move(name);
  record.id = next_id_++;
  record.parent = open_.empty() ? 0 : records_[open_.back()].id;
  record.run = run_;
  record.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - origin_).count();
  record.end_ns = record.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  records_.push_back(std::move(record));
}

std::map<std::string, Tracer::SelfTime> Tracer::self_times() const {
  // Children of one span run one after another on the benchmark thread, so
  // their durations never overlap and can simply be summed.
  std::map<std::uint64_t, std::int64_t> child_ns;
  for (const auto& record : records_) {
    if (record.parent != 0) child_ns[record.parent] += record.end_ns - record.start_ns;
  }
  std::map<std::string, SelfTime> out;
  for (const auto& record : records_) {
    if (record.instant) continue;
    const std::int64_t total = record.end_ns - record.start_ns;
    const auto it = child_ns.find(record.id);
    const std::int64_t covered = it == child_ns.end() ? 0 : it->second;
    SelfTime& entry = out[record.name];
    entry.total_ms += static_cast<double>(total) * 1e-6;
    entry.self_ms += static_cast<double>(total - covered) * 1e-6;
    ++entry.count;
  }
  return out;
}

void Tracer::write_chrome(const std::string& path, const json::JsonValue& metadata) const {
  auto events = json::JsonValue::array();
  for (const auto& record : records_) {
    auto event = json::JsonValue::object();
    event.set("name", record.name);
    event.set("cat", record.name.substr(0, record.name.find('.')));
    event.set("ph", record.instant ? "i" : "X");
    event.set("ts", static_cast<double>(record.start_ns) * 1e-3);
    if (record.instant) {
      event.set("s", "t");
    } else {
      event.set("dur", static_cast<double>(record.end_ns - record.start_ns) * 1e-3);
    }
    event.set("pid", 1);
    event.set("tid", 1);
    auto args = json::JsonValue::object();
    args.set("span_id", record.id);
    args.set("parent_id", record.parent);
    args.set("run_id", record.run);
    args.set("start_us", static_cast<double>(record.start_ns) * 1e-3);
    args.set("end_us", static_cast<double>(record.end_ns) * 1e-3);
    event.set("args", std::move(args));
    events.push_back(std::move(event));
  }
  auto doc = json::JsonValue::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  doc.set("metadata", metadata);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << json::dump_compact(doc) << '\n';
  if (!out.good()) throw std::runtime_error("cannot write trace file " + path);
}

}  // namespace perfbench
