/// \file protocol.hpp
/// The scenario service wire protocol: newline-delimited JSON, version 1.
///
/// Every message is one strict-JSON object (common/json.hpp) on one line.
/// Clients send *requests*, the server sends *events*; a connection carries
/// any number of interleaved requests, correlated by the client-chosen
/// request `id`.
///
/// Requests (client → server):
///
/// ```json
/// {"type": "run", "id": "r1", "spec": {...ScenarioSpec document...},
///  "options": {"max_jobs": 100}}
/// {"type": "cancel", "id": "r1"}
/// {"type": "status"}
/// {"type": "shutdown"}
/// ```
///
/// Events (server → client), one per line as they happen:
///
///   * `hello`     — sent once on connect: protocol version, model
///                   fingerprint.
///   * `accepted`  — a run request passed validation and admission; carries
///                   the job count and spec hash.
///   * `cell`      — one completed sweep cell: job index, content hash, the
///                   origin (`hit` = served from the on-disk cache, `miss` =
///                   computed by this request, `dedup` = computed once by a
///                   concurrent request and shared), and the metrics payload.
///   * `summary`   — terminal success event: cache/compute counters plus the
///                   full deterministic report document — byte-identical to
///                   the `adc_scenario run` report for the same spec.
///   * `cancelled` — terminal event after a `cancel` request drained.
///   * `error`     — terminal (per-request) or connection-level failure with
///                   a stable machine-readable `code`.
///   * `status`    — answer to a `status` request: active requests, shared
///                   cache statistics (ResultCache::stats_document), pool
///                   counters.
///   * `bye`       — answer to `shutdown`; the server stops accepting work.
///
/// This header builds and parses those documents; it owns no I/O. The
/// schema is versioned by `kProtocolVersion`; incompatible changes bump it
/// and are rejected loudly (docs/SERVICE.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "common/json.hpp"

namespace adc::service {

/// Wire-protocol version; carried in `hello` and `status` events.
inline constexpr std::uint64_t kProtocolVersion = 1;

/// Stable machine-readable error codes carried by `error` events.
namespace error_code {
inline constexpr const char* kBadRequest = "bad_request";
inline constexpr const char* kInvalidSpec = "invalid_spec";
inline constexpr const char* kAdmission = "admission_rejected";
inline constexpr const char* kDuplicateId = "duplicate_request_id";
inline constexpr const char* kUnknownRequest = "unknown_request";
inline constexpr const char* kCacheUnwritable = "cache_unwritable";
inline constexpr const char* kExecutionFailed = "execution_failed";
inline constexpr const char* kShuttingDown = "shutting_down";
inline constexpr const char* kLineTooLong = "line_too_long";
}  // namespace error_code

/// Longest request line the server reads; longer ones close the connection.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{1} << 20;

/// A parsed client request.
struct Request {
  enum class Type { kRun, kCancel, kStatus, kShutdown };
  Type type = Type::kStatus;
  /// Client-chosen correlation id (required for run/cancel).
  std::string id;
  /// The scenario document of a run request (unparsed ScenarioSpec).
  adc::common::json::JsonValue spec;
  /// Compute at most this many cache misses (0 = unlimited), mirroring the
  /// CLI's --max-jobs interruption budget.
  std::uint64_t max_jobs = 0;
};

/// Parse one request line. Throws ConfigError with a client-presentable
/// message on malformed JSON, unknown types, or missing fields.
[[nodiscard]] Request parse_request(const std::string& line);

/// How a cell's payload was obtained.
enum class CellOrigin { kHit, kMiss, kDedup };
[[nodiscard]] const char* to_string(CellOrigin origin);

// Event builders. Each returns a complete document; serialize with
// `encode_event` (compact single line, ready for UnixStream::write_line).
[[nodiscard]] adc::common::json::JsonValue hello_event(const std::string& fingerprint);
[[nodiscard]] adc::common::json::JsonValue accepted_event(const std::string& id,
                                                          const std::string& scenario,
                                                          const std::string& spec_hash,
                                                          std::uint64_t jobs);
[[nodiscard]] adc::common::json::JsonValue cell_event(const std::string& id,
                                                      std::uint64_t index,
                                                      const std::string& hash,
                                                      CellOrigin origin,
                                                      adc::common::json::JsonValue metrics);
/// Terminal success event; `report` is the build_report document.
[[nodiscard]] adc::common::json::JsonValue summary_event(
    const std::string& id, std::uint64_t jobs, std::uint64_t cache_hits,
    std::uint64_t deduped, std::uint64_t computed, std::uint64_t skipped,
    adc::common::json::JsonValue report);
[[nodiscard]] adc::common::json::JsonValue cancelled_event(const std::string& id,
                                                           std::uint64_t delivered);
/// `id` empty = connection-level error (no request to correlate with).
[[nodiscard]] adc::common::json::JsonValue error_event(const std::string& id,
                                                       const std::string& code,
                                                       const std::string& message);
[[nodiscard]] adc::common::json::JsonValue bye_event();

/// One line of wire text (no trailing newline; write_line frames it).
[[nodiscard]] std::string encode_event(const adc::common::json::JsonValue& event);

/// The `event` member of a server line; empty when absent. Helper for
/// clients dispatching on event type.
[[nodiscard]] std::string event_type(const adc::common::json::JsonValue& event);

}  // namespace adc::service
