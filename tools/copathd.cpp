// copathd — serve minimum path cover over TCP.
//
//   copathd [--host 127.0.0.1] [--port 7431] [--workers N]
//           [--queue N] [--window N] [--max-batch N] [--no-cache]
//           [--cache-dir DIR] [--max-parked N] [--max-parked-bytes N]
//           [--idle-timeout MS] [--request-timeout MS] [--watchdog-ms MS]
//
// One process, one event-loop thread, N solver workers. SIGTERM/SIGINT
// drain gracefully: in-flight requests finish, new ones get structured
// Draining refusals, and the process exits 0 once the last connection
// closes. Numeric flags are range-checked (net/daemon_args.hpp): a bad
// value prints the reason and exits 2. See src/net/server.hpp for the
// serving model and DESIGN.md §9 for the wire protocol.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <span>
#include <string>
#include <utility>

#include "net/daemon_args.hpp"
#include "net/server.hpp"

namespace {

copath::net::Server* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->request_drain();
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host H] [--port P] [--workers N] [--queue N] "
               "[--window N] [--max-batch N] [--no-cache] "
               "[--cache-dir DIR] [--max-parked N] [--max-parked-bytes N] "
               "[--idle-timeout MS] [--request-timeout MS] "
               "[--watchdog-ms MS]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  copath::net::DaemonArgs args = copath::net::parse_daemon_args(
      std::span<const char* const>(argv + 1, argv + argc));
  if (!args.ok) {
    std::fprintf(stderr, "copathd: %s\n", args.error.c_str());
    usage(argv[0]);
  }

  try {
    const std::string host = args.options.host;
    copath::net::Server server(std::move(args.options));
    g_server = &server;
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    std::signal(SIGPIPE, SIG_IGN);  // peer resets surface as write errors
    std::printf("copathd listening on %s:%u\n", host.c_str(),
                server.port());
    std::fflush(stdout);
    server.run();
    g_server = nullptr;
    std::printf("copathd drained, exiting\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "copathd: %s\n", e.what());
    return 1;
  }
}
