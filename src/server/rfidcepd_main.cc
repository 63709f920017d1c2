// rfidcepd: RCEDA complex event detection as a long-running daemon.
//
//   rfidcepd --config=tenants.conf --state-dir=/var/lib/rfidcep
//            [--host=127.0.0.1] [--port=7411] [--http-port=7412]
//            [--max-connections=64] [--port-file=PATH]
//
// The config file defines one tenant (site) per line — see
// docs/server.md. Observations arrive over the binary protocol on
// --port; Prometheus metrics and /healthz are served on --http-port.
// SIGTERM or SIGINT drains connections, checkpoints every tenant into
// the state directory, and exits 0; the next start resumes from those
// checkpoints. --port-file writes "<port> <http_port>\n" after binding,
// for supervisors that asked for ephemeral ports.

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "server/server.h"

namespace {

int g_signal_pipe[2] = {-1, -1};

void OnSignal(int) {
  // Async-signal-safe: just wake the main thread.
  (void)!::write(g_signal_pipe[1], "x", 1);
}

bool FlagValue(const char* arg, const char* name, std::string* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --config=FILE --state-dir=DIR [--host=ADDR] "
               "[--port=N] [--http-port=N] [--max-connections=N] "
               "[--port-file=PATH]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using rfidcep::server::Server;
  using rfidcep::server::ServerOptions;
  using rfidcep::server::TenantConfig;

  std::string config_path;
  std::string port_file;
  ServerOptions options;
  options.port = 7411;
  options.http_port = 7412;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (FlagValue(argv[i], "--config", &config_path)) {
    } else if (FlagValue(argv[i], "--state-dir", &options.state_dir)) {
    } else if (FlagValue(argv[i], "--host", &options.host)) {
    } else if (FlagValue(argv[i], "--port-file", &port_file)) {
    } else if (FlagValue(argv[i], "--port", &value)) {
      options.port = std::atoi(value.c_str());
    } else if (FlagValue(argv[i], "--http-port", &value)) {
      options.http_port = std::atoi(value.c_str());
    } else if (FlagValue(argv[i], "--max-connections", &value)) {
      options.max_connections = std::atoi(value.c_str());
    } else {
      return Usage(argv[0]);
    }
  }
  if (config_path.empty() || options.state_dir.empty()) return Usage(argv[0]);

  rfidcep::Result<std::vector<TenantConfig>> tenants =
      rfidcep::server::ParseTenantConfigFile(config_path);
  if (!tenants.ok()) {
    std::fprintf(stderr, "rfidcepd: %s\n",
                 tenants.status().message().c_str());
    return 1;
  }

  Server server(options);
  for (TenantConfig& config : *tenants) {
    const std::string name = config.name;
    rfidcep::Status status = server.AddTenant(std::move(config));
    if (!status.ok()) {
      std::fprintf(stderr, "rfidcepd: %s\n", status.message().c_str());
      return 1;
    }
    const rfidcep::server::Tenant& tenant = *server.tenant(name);
    std::fprintf(stderr, "rfidcepd: tenant '%s' %s\n", name.c_str(),
                 tenant.restored() ? "restored from checkpoint"
                                   : "started fresh");
    if (tenant.recovery().image_fallback) {
      std::fprintf(stderr,
                   "rfidcepd: tenant '%s': no usable store image; replayed "
                   "the whole WAL (%llu records)\n",
                   name.c_str(),
                   static_cast<unsigned long long>(
                       tenant.recovery().wal_records));
    }
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::perror("rfidcepd: pipe");
    return 1;
  }
  struct sigaction action = {};
  action.sa_handler = OnSignal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  if (rfidcep::Status status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "rfidcepd: %s\n", status.message().c_str());
    return 1;
  }
  std::fprintf(stderr, "rfidcepd: listening on %s:%d (metrics :%d)\n",
               options.host.c_str(), server.bound_port(), server.http_port());
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "%d %d\n", server.bound_port(), server.http_port());
      std::fclose(f);
    }
  }

  // Park until a signal arrives; poll tolerates EINTR from the handler.
  for (;;) {
    pollfd pfd = {g_signal_pipe[0], POLLIN, 0};
    int n = ::poll(&pfd, 1, -1);
    if (n > 0 || (n < 0 && errno != EINTR)) break;
  }

  std::fprintf(stderr, "rfidcepd: draining and checkpointing...\n");
  rfidcep::Status status = server.Shutdown();
  if (!status.ok()) {
    std::fprintf(stderr, "rfidcepd: checkpoint failed: %s\n",
                 status.message().c_str());
    return 1;
  }
  std::fprintf(stderr, "rfidcepd: checkpointed %zu tenant(s); exiting\n",
               server.num_tenants());
  return 0;
}
