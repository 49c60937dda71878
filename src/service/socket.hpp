/// \file socket.hpp
/// Minimal Unix-domain stream sockets for the scenario service.
///
/// Two RAII wrappers over the POSIX socket API, shaped for the service's
/// newline-delimited JSON protocol (protocol.hpp):
///
///   * `UnixListener` — bind + listen on a filesystem socket path; `accept`
///     polls with a timeout so the accept loop can observe a stop flag
///     without blocking forever. The path is unlinked on destruction.
///   * `UnixStream` — a connected byte stream with line framing: `read_line`
///     buffers partial reads and returns exactly one '\n'-terminated line at
///     a time; `write_line` appends the newline and retries short writes.
///     Writes use MSG_NOSIGNAL, so a vanished peer surfaces as a `false`
///     return instead of SIGPIPE killing the process.
///
/// Both wrappers throw ConfigError (common/error.hpp) on construction
/// failures (bad path, bind/connect errors) and report runtime peer failures
/// through return values — a dropped client is normal operation for a
/// server, not an exception.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

namespace adc::service {

/// A connected Unix-domain byte stream with newline framing.
class UnixStream {
 public:
  UnixStream() = default;
  /// Adopts ownership of a connected socket descriptor.
  explicit UnixStream(int fd) : fd_(fd) {}
  ~UnixStream();

  UnixStream(UnixStream&& other) noexcept;
  UnixStream& operator=(UnixStream&& other) noexcept;
  UnixStream(const UnixStream&) = delete;
  UnixStream& operator=(const UnixStream&) = delete;

  /// Connect to a listening socket. Throws ConfigError when the path is too
  /// long for sockaddr_un or the connection is refused.
  [[nodiscard]] static UnixStream connect(const std::string& path);

  [[nodiscard]] bool valid() const { return fd_ >= 0; }

  /// Send `line` plus a trailing newline; retries short writes. Returns
  /// false when the peer is gone (EPIPE/ECONNRESET), the stream is closed,
  /// or — with a non-negative `timeout_ms` — the peer stopped draining its
  /// socket for longer than the deadline (the line may then be partially
  /// written; treat the stream as dead). Negative = wait indefinitely.
  bool write_line(const std::string& line, int timeout_ms = -1);

  enum class ReadStatus { kLine, kTimeout, kClosed, kTooLong };

  /// Read one newline-terminated line (the newline is stripped). Waits at
  /// most `timeout_ms` for *new* bytes when no buffered line is available
  /// (negative = wait indefinitely). kClosed means EOF or a read error;
  /// trailing bytes without a newline are discarded, as the protocol frames
  /// every message with one. kTooLong: the pending line exceeds a non-zero
  /// `max_bytes` (drop the stream).
  [[nodiscard]] ReadStatus read_line(std::string& out, int timeout_ms,
                                     std::size_t max_bytes = 0);

  /// Shut down both directions, waking any blocked reader with EOF. The
  /// descriptor stays valid until destruction.
  void shutdown_both();

  void close();

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// A listening Unix-domain socket bound to a filesystem path.
class UnixListener {
 public:
  /// Bind + listen on `path`. A *stale* socket file (nothing answers a
  /// connect) from a crashed run is unlinked first, but a path a live
  /// daemon is still serving throws ConfigError("... already in use ...")
  /// instead of silently stealing it. Also throws on any other failure
  /// (path too long, bind refused, ...).
  explicit UnixListener(const std::string& path);
  ~UnixListener();

  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

  /// Accept one connection, waiting at most `timeout_ms` (negative = wait
  /// indefinitely). nullopt on timeout or when the listener was closed.
  [[nodiscard]] std::optional<UnixStream> accept(int timeout_ms);

  /// Close the listening descriptor, waking a blocked accept.
  void close();

 private:
  int fd_ = -1;
  std::string path_;
};

}  // namespace adc::service
