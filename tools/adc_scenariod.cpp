/// \file adc_scenariod.cpp
/// The scenario service daemon (src/service/).
///
///   adc_scenariod --socket PATH [--cache-dir D] [--max-inflight N]
///                 [--max-requests N]
///
/// Binds PATH as a Unix-domain socket and serves the newline-delimited JSON
/// protocol of docs/SERVICE.md until SIGINT/SIGTERM or a client `shutdown`
/// request. Exit status: 0 on a clean shutdown, 1 on a startup failure
/// (unwritable cache root, unbindable socket), 2 on usage errors.
#include <poll.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "service/server.hpp"

namespace {

void print_usage() {
  std::printf(
      "usage: adc_scenariod --socket PATH [options]\n"
      "  --socket PATH      Unix-domain socket to listen on (required)\n"
      "  --cache-dir D      cache root (default: ADC_SCENARIO_CACHE_DIR or .adc-cache)\n"
      "  --max-inflight N   concurrently computing execute units (pool jobs of up to\n"
      "                     8 same-point cells) per connection (default 4)\n"
      "  --max-requests N   simultaneously active requests per connection (default 8)\n");
}

std::sig_atomic_t volatile g_signalled = 0;

void on_signal(int) { g_signalled = 1; }

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  adc::service::ServiceOptions options;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "adc_scenariod: missing value for %s\n", arg.c_str());
        print_usage();
        std::exit(2);
      }
      return args[++i];
    };
    if (arg == "--socket") {
      options.socket_path = value();
    } else if (arg == "--cache-dir") {
      options.cache_dir = value();
    } else if (arg == "--max-inflight") {
      options.max_inflight_per_connection =
          static_cast<std::size_t>(std::strtoull(value().c_str(), nullptr, 10));
    } else if (arg == "--max-requests") {
      options.max_requests_per_connection =
          static_cast<std::size_t>(std::strtoull(value().c_str(), nullptr, 10));
    } else if (arg == "--help") {
      print_usage();
      return 0;
    } else {
      std::fprintf(stderr, "adc_scenariod: unknown option %s\n", arg.c_str());
      print_usage();
      return 2;
    }
  }
  if (options.socket_path.empty()) {
    std::fprintf(stderr, "adc_scenariod: --socket is required\n");
    print_usage();
    return 2;
  }

  adc::service::ScenarioService server(std::move(options));
  try {
    server.start();
  } catch (const adc::common::AdcError& e) {
    std::fprintf(stderr, "adc_scenariod: %s\n", e.what());
    return 1;
  }
  std::printf("adc_scenariod: listening on %s (cache %s)\n",
              server.socket_path().c_str(), server.cache_root().c_str());
  std::fflush(stdout);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (g_signalled == 0 && !server.shutdown_requested()) {
    // Sleep via poll so signals interrupt the wait immediately.
    ::poll(nullptr, 0, 200);
  }
  std::printf("adc_scenariod: shutting down\n");
  server.stop();
  return 0;
}
