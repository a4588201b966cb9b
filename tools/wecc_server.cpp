// wecc_server: the connectivity-as-a-service frontend. Builds a percolation
// grid, wraps it in a dynamic facade (connectivity or the full
// biconnectivity surface), and serves the unified wecc::service API over
// TCP (src/service/) until SIGINT/SIGTERM: one serialized writer thread
// applying UpdateBatch streams — through the durability hook when
// --wal-dir is given — and one reader thread per connection answering
// mixed query vectors against pinned epochs.
//
// Typical smoke (scripts/check.sh):
//   wecc_server --facade biconn --rows 40 --cols 40 --p 0.5
//       --port 0 --port-file /tmp/port &
//   wecc_loadgen --port-file /tmp/port --rows 40 --cols 40 --p 0.5 ...
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "dynamic/dynamic_biconnectivity.hpp"
#include "dynamic/dynamic_connectivity.hpp"
#include "graph/generators.hpp"
#include "persist/wal.hpp"
#include "service/server.hpp"
#include "service/service.hpp"

namespace {

struct CliOptions {
  std::string facade = "biconn";  // conn | biconn
  std::size_t rows = 40;
  std::size_t cols = 40;
  double p = 0.5;          // bond probability of the percolation grid
  std::uint64_t gseed = 1; // generator seed (loadgen mirrors with the same)
  std::size_t k = 8;       // oracle parameter
  std::size_t snapshots = 8;
  std::size_t rebuild_threads = 0;  // 0 = auto (the pool size)
  std::string bind = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral
  std::string port_file;   // written once bound (how check.sh finds us)
  std::string wal_dir;     // attach a write-ahead log when non-empty
};

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--facade conn|biconn] [--rows R] [--cols C] [--p P]\n"
      "          [--gseed S] [--k K] [--snapshots N] [--bind ADDR]\n"
      "          [--port PORT] [--port-file PATH] [--wal-dir DIR]\n"
      "          [--rebuild-threads N]\n",
      argv0);
  std::exit(2);
}

CliOptions parse_args(int argc, char** argv) try {
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--facade") {
      opt.facade = value();
      if (opt.facade != "conn" && opt.facade != "biconn") usage(argv[0]);
    } else if (arg == "--rows") {
      opt.rows = std::stoul(value());
    } else if (arg == "--cols") {
      opt.cols = std::stoul(value());
    } else if (arg == "--p") {
      opt.p = std::stod(value());
    } else if (arg == "--gseed") {
      opt.gseed = std::stoull(value());
    } else if (arg == "--k") {
      opt.k = std::stoul(value());
    } else if (arg == "--snapshots") {
      opt.snapshots = std::stoul(value());
    } else if (arg == "--rebuild-threads") {
      opt.rebuild_threads = std::stoul(value());
    } else if (arg == "--bind") {
      opt.bind = value();
    } else if (arg == "--port") {
      opt.port = std::uint16_t(std::stoul(value()));
    } else if (arg == "--port-file") {
      opt.port_file = value();
    } else if (arg == "--wal-dir") {
      opt.wal_dir = value();
    } else {
      usage(argv[0]);
    }
  }
  return opt;
} catch (const std::exception&) {  // stoul/stod on non-numeric values
  usage(argv[0]);
}

/// Write the bound port atomically (tmp + rename) so a poller never reads
/// a half-written file.
void write_port_file(const std::string& path, std::uint16_t port) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + tmp);
  std::fprintf(f, "%u\n", unsigned(port));
  std::fclose(f);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot rename " + tmp);
  }
}

template <typename Facade, typename FacadeOptions>
int serve(wecc::graph::Graph g, FacadeOptions fopt, const CliOptions& cli) {
  using namespace wecc;
  Facade facade(std::move(g), fopt);
  if (!cli.wal_dir.empty()) {
    facade.set_durability_log(persist::Wal::open(cli.wal_dir));
  }
  service::FacadeService<Facade> handler(facade);
  service::Server server(handler,
                         service::ServerOptions{cli.bind, cli.port, 64});
  std::printf("wecc_server: serving %s over n=%zu vertices on %s:%u\n",
              cli.facade.c_str(), facade.num_vertices(), cli.bind.c_str(),
              unsigned(server.port()));
  std::fflush(stdout);
  if (!cli.port_file.empty()) write_port_file(cli.port_file, server.port());

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (g_stop == 0) {
    const timespec pause{0, 50'000'000};  // 50 ms
    ::nanosleep(&pause, nullptr);
  }
  server.stop();
  const service::Server::Stats stats = server.stats();
  std::printf(
      "wecc_server: stopped at epoch %llu after %llu sessions, "
      "%llu queries, %llu applies, %llu protocol errors\n",
      static_cast<unsigned long long>(facade.epoch()),
      static_cast<unsigned long long>(stats.sessions),
      static_cast<unsigned long long>(stats.queries),
      static_cast<unsigned long long>(stats.applies),
      static_cast<unsigned long long>(stats.protocol_errors));
  std::printf("wecc_server: absorb_rate %.4f; rebuilds by reason:",
              double(stats.absorb_rate_ppm) / 1e6);
  for (std::size_t i = 0; i < stats.rebuild_reasons.size(); ++i) {
    std::printf(" %s=%llu",
                dynamic::rebuild_reason_name(dynamic::RebuildReason(i)),
                static_cast<unsigned long long>(stats.rebuild_reasons[i]));
  }
  std::printf("\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wecc;
  const CliOptions cli = parse_args(argc, argv);
  try {
    graph::Graph g =
        graph::gen::percolation_grid(cli.rows, cli.cols, cli.p, cli.gseed);
    if (cli.facade == "conn") {
      dynamic::DynamicOptions opt;
      opt.oracle.k = cli.k;
      opt.snapshot_capacity = cli.snapshots;
      opt.rebuild_threads = cli.rebuild_threads;
      return serve<dynamic::DynamicConnectivity>(std::move(g), opt, cli);
    }
    dynamic::DynamicBiconnOptions opt;
    opt.oracle.k = cli.k;
    opt.snapshot_capacity = cli.snapshots;
    opt.rebuild_threads = cli.rebuild_threads;
    return serve<dynamic::DynamicBiconnectivity>(std::move(g), opt, cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wecc_server: fatal: %s\n", e.what());
    return 1;
  }
}
