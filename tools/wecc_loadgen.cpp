// wecc_loadgen: open/closed-loop load generator and correctness prober for
// wecc_server. N reader threads stream mixed query vectors (their own TCP
// sessions — the server gives each a reader thread); one writer thread
// streams UpdateBatches, mirroring every applied batch locally so it can
// periodically rebuild ground truth (Hopcroft–Tarjan over the mirrored
// edge set) and cross-check a sampled query vector against the exact epoch
// it pinned. Reports sustained throughput and p50/p99/p999 round-trip
// latency per op class (query / apply), optionally as google-benchmark-
// shaped JSON for scripts/bench_to_json.py to distill into
// BENCH_service.json.
//
// The mirror only works if the loadgen is the server's sole writer and
// both were started with the same graph parameters (--rows/--cols/--p/
// --gseed); the hello's vertex count and facade kind are checked, and any
// answer mismatch makes the run exit nonzero.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dynamic/batch_query.hpp"
#include "graph/generators.hpp"
#include "parallel/rng.hpp"
#include "persist/derived.hpp"
#include "service/client.hpp"

namespace {

using namespace wecc;
using graph::vertex_id;
using Clock = std::chrono::steady_clock;

struct CliOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string port_file;  // alternative to --port: poll this file
  std::string facade = "biconn";
  std::size_t rows = 40;
  std::size_t cols = 40;
  double p = 0.5;
  std::uint64_t gseed = 1;
  std::size_t readers = 4;
  double duration_s = 3.0;
  std::size_t batch_size = 32;
  std::size_t queries_per_request = 64;
  /// Per-reader open-loop request rate; 0 = closed loop (fire as fast as
  /// replies come back).
  double open_qps = 0.0;
  /// Cross-check every Nth writer round (0 disables verification).
  std::size_t verify_every = 8;
  std::size_t verify_queries = 128;
  /// Writer mix: "mixed" = fresh inserts + random deletions of present
  /// edges (forces rebuilds); "dense" = fresh inserts + LIFO deletions of
  /// the writer's own recent insertions — the high-churn shape the
  /// block-merge patch algebra is built to absorb without rebuilding.
  std::string churn = "mixed";
  std::string json_out;
  std::uint64_t seed = 42;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--port PORT | --port-file PATH) [--host H]\n"
      "          [--facade conn|biconn] [--rows R] [--cols C] [--p P]\n"
      "          [--gseed S] [--readers N] [--duration-s D]\n"
      "          [--batch-size B] [--queries-per-request Q]\n"
      "          [--open-qps RATE] [--verify-every K]\n"
      "          [--verify-queries M] [--churn mixed|dense]\n"
      "          [--json PATH] [--seed S]\n",
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
    if (arg == "--host") {
      opt.host = value();
    } else if (arg == "--port") {
      opt.port = std::uint16_t(std::stoul(value()));
    } else if (arg == "--port-file") {
      opt.port_file = value();
    } else if (arg == "--facade") {
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
    } else if (arg == "--readers") {
      opt.readers = std::stoul(value());
    } else if (arg == "--duration-s") {
      opt.duration_s = std::stod(value());
    } else if (arg == "--batch-size") {
      opt.batch_size = std::stoul(value());
    } else if (arg == "--queries-per-request") {
      opt.queries_per_request = std::stoul(value());
    } else if (arg == "--open-qps") {
      opt.open_qps = std::stod(value());
    } else if (arg == "--verify-every") {
      opt.verify_every = std::stoul(value());
    } else if (arg == "--verify-queries") {
      opt.verify_queries = std::stoul(value());
    } else if (arg == "--churn") {
      opt.churn = value();
      if (opt.churn != "mixed" && opt.churn != "dense") usage(argv[0]);
    } else if (arg == "--json") {
      opt.json_out = value();
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else {
      usage(argv[0]);
    }
  }
  return opt;
} catch (const std::exception&) {  // stoul/stod on non-numeric values
  usage(argv[0]);
}

/// Poll a --port-file written by wecc_server (tmp+rename, so a successful
/// read is always complete).
std::uint16_t wait_for_port_file(const std::string& path) {
  for (int attempt = 0; attempt < 600; ++attempt) {  // up to ~30 s
    if (std::FILE* f = std::fopen(path.c_str(), "r")) {
      unsigned port = 0;
      const int got = std::fscanf(f, "%u", &port);
      std::fclose(f);
      if (got == 1 && port > 0) return std::uint16_t(port);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  throw std::runtime_error("timed out waiting for port file " + path);
}

// ---- the writer's local mirror -------------------------------------------

/// The edge set the server must hold at the writer's last applied epoch.
/// Single-writer discipline keeps this exact: only the writer thread
/// mutates it, and only after the server acknowledged the batch. Edges are
/// canonicalized (u < v) and kept duplicate-free so pair-level bridge
/// truth stays a single edge lookup.
class Mirror {
 public:
  Mirror(std::size_t n, const graph::EdgeList& initial) : n_(n) {
    for (const graph::Edge& e : initial) {
      if (e.u != e.v) add(e.u, e.v);
    }
  }

  [[nodiscard]] std::size_t num_vertices() const { return n_; }
  [[nodiscard]] const graph::EdgeList& edges() const { return edges_; }
  [[nodiscard]] bool contains(vertex_id u, vertex_id v) const {
    return index_.count(key(u, v)) != 0;
  }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  void apply(const dynamic::UpdateBatch& batch, std::uint64_t new_epoch) {
    for (const graph::Edge& e : batch.deletions) remove(e.u, e.v);
    for (const graph::Edge& e : batch.insertions) add(e.u, e.v);
    epoch_ = new_epoch;
  }

 private:
  static std::uint64_t key(vertex_id u, vertex_id v) {
    return (std::uint64_t(std::min(u, v)) << 32) | std::max(u, v);
  }
  void add(vertex_id u, vertex_id v) {
    if (index_.emplace(key(u, v), edges_.size()).second) {
      edges_.push_back({std::min(u, v), std::max(u, v)});
    }
  }
  void remove(vertex_id u, vertex_id v) {
    const auto it = index_.find(key(u, v));
    if (it == index_.end()) return;
    const std::size_t pos = it->second;
    index_.erase(it);
    if (pos + 1 != edges_.size()) {
      edges_[pos] = edges_.back();
      index_[key(edges_[pos].u, edges_[pos].v)] = pos;
    }
    edges_.pop_back();
  }

  std::size_t n_;
  graph::EdgeList edges_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
  std::uint64_t epoch_ = 0;
};

// ---- latency bookkeeping -------------------------------------------------

struct OpClassStats {
  std::vector<std::uint64_t> latencies_ns;
  std::uint64_t ops = 0;  // queries answered / batch edges applied

  void record(std::uint64_t ns, std::uint64_t op_count) {
    latencies_ns.push_back(ns);
    ops += op_count;
  }
  void merge(const OpClassStats& other) {
    latencies_ns.insert(latencies_ns.end(), other.latencies_ns.begin(),
                        other.latencies_ns.end());
    ops += other.ops;
  }
  [[nodiscard]] std::uint64_t percentile(double q) {
    if (latencies_ns.empty()) return 0;
    std::sort(latencies_ns.begin(), latencies_ns.end());
    const auto rank = std::size_t(q * double(latencies_ns.size() - 1));
    return latencies_ns[rank];
  }
  [[nodiscard]] double mean() const {
    if (latencies_ns.empty()) return 0.0;
    double sum = 0.0;
    for (const auto ns : latencies_ns) sum += double(ns);
    return sum / double(latencies_ns.size());
  }
};

struct RunResult {
  OpClassStats query;
  OpClassStats apply;
  std::uint64_t verified_answers = 0;
  std::uint64_t verify_rounds = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t epoch_gone = 0;
  double elapsed_s = 0.0;
  std::string error;
};

dynamic::MixedQuery random_query(std::uint64_t& rs, std::size_t n,
                                 bool biconn) {
  rs = parallel::mix64(rs + 1);
  const auto kind =
      biconn ? dynamic::MixedQuery::Kind(rs % 6)
             : dynamic::MixedQuery::Kind::kConnected;
  rs = parallel::mix64(rs);
  const auto u = vertex_id(rs % n);
  rs = parallel::mix64(rs);
  return {kind, u, vertex_id(rs % n)};
}

// ---- the threads ---------------------------------------------------------

void reader_loop(const CliOptions& cli, std::uint16_t port, std::size_t id,
                 Clock::time_point deadline, OpClassStats& stats,
                 std::mutex& stats_mu, std::atomic<bool>& failed,
                 std::string& error, const bool biconn, std::size_t n) {
  try {
    service::Client client = service::Client::connect(cli.host, port);
    std::uint64_t rs = parallel::mix64(cli.seed + 0x9e37 * (id + 1));
    OpClassStats local;
    const auto tick =
        cli.open_qps > 0.0
            ? std::chrono::nanoseconds(std::uint64_t(1e9 / cli.open_qps))
            : std::chrono::nanoseconds(0);
    auto next_send = Clock::now();
    while (Clock::now() < deadline && !failed.load()) {
      service::QueryRequest request;
      request.queries.reserve(cli.queries_per_request);
      for (std::size_t i = 0; i < cli.queries_per_request; ++i) {
        request.queries.push_back(random_query(rs, n, biconn));
      }
      const auto t0 = Clock::now();
      const service::QueryResponse response = client.query(request);
      const auto t1 = Clock::now();
      if (response.status != service::Status::kOk) {
        throw std::runtime_error(std::string("query failed: ") +
                                 service::status_name(response.status));
      }
      local.record(
          std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            t1 - t0)
                            .count()),
          response.answers.size());
      if (tick.count() > 0) {
        next_send += tick;
        std::this_thread::sleep_until(next_send);
      }
    }
    const std::lock_guard<std::mutex> lock(stats_mu);
    stats.merge(local);
  } catch (const std::exception& e) {
    if (!failed.exchange(true)) {
      const std::lock_guard<std::mutex> lock(stats_mu);
      error = std::string("reader ") + std::to_string(id) + ": " + e.what();
    }
  }
}

/// One verification round: pin the writer's last acknowledged epoch and
/// cross-check a sampled mixed query vector against Hopcroft–Tarjan over
/// the mirror. Runs on the writer thread between batches, so the mirror is
/// quiescent — and the server keeps answering the readers throughout.
void verify_round(service::Client& client, const Mirror& mirror,
                  const CliOptions& cli, std::uint64_t& rs, bool biconn,
                  RunResult& result) {
  // The reference: the mirror's full surface derived from scratch by the
  // same persist::DerivedState engine perfbench checks against.
  const persist::DerivedState truth = persist::DerivedState::compute(
      mirror.num_vertices(), mirror.edges(), /*with_biconn=*/true);
  service::QueryRequest request;
  request.pin_epoch = mirror.epoch();
  request.queries.reserve(cli.verify_queries);
  for (std::size_t i = 0; i < cli.verify_queries; ++i) {
    dynamic::MixedQuery q = random_query(rs, mirror.num_vertices(), biconn);
    // Random endpoint pairs are almost never edges, so bias every fourth
    // biconn probe to a present edge: kEdgeBcc must answer true (and hand
    // back a block id) for edges the server only ever saw via the patch.
    if (biconn && i % 4 == 0 && !mirror.edges().empty()) {
      rs = parallel::mix64(rs + 7);
      const graph::Edge e = mirror.edges()[rs % mirror.edges().size()];
      q = {dynamic::MixedQuery::Kind::kEdgeBcc, e.u, e.v};
    }
    request.queries.push_back(q);
  }
  const service::QueryResponse response = client.query(request);
  if (response.status == service::Status::kEpochGone) {
    ++result.epoch_gone;  // evicted from the ring; nothing to compare
    return;
  }
  if (response.status != service::Status::kOk ||
      response.epoch != mirror.epoch()) {
    throw std::runtime_error("verification query failed");
  }
  ++result.verify_rounds;
  std::size_t block_id_idx = 0;
  for (std::size_t i = 0; i < request.queries.size(); ++i) {
    ++result.verified_answers;
    const auto& q = request.queries[i];
    const bool want = dynamic::answer(truth.view(), q);
    if (q.kind == dynamic::MixedQuery::Kind::kEdgeBcc) {
      // block_ids carries one id per kEdgeBcc query in order; a nonzero
      // id and a true boolean must come together.
      const bool id_nonzero = block_id_idx < response.block_ids.size() &&
                              response.block_ids[block_id_idx] != 0;
      ++block_id_idx;
      if (id_nonzero != want) {
        ++result.mismatches;
        std::fprintf(stderr,
                     "MISMATCH epoch %llu edge-bcc id (%u, %u): id %u "
                     "truth %u\n",
                     static_cast<unsigned long long>(mirror.epoch()),
                     q.u, q.v, unsigned(id_nonzero), unsigned(want));
      }
    }
    if ((response.answers[i] != 0) != want) {
      ++result.mismatches;
      std::fprintf(stderr,
                   "MISMATCH epoch %llu kind %u (%u, %u): server %u "
                   "truth %u\n",
                   static_cast<unsigned long long>(mirror.epoch()),
                   unsigned(q.kind), q.u, q.v, unsigned(response.answers[i]),
                   unsigned(want));
    }
  }
}

void writer_loop(const CliOptions& cli, std::uint16_t port, Mirror& mirror,
                 Clock::time_point deadline, RunResult& result,
                 std::mutex& stats_mu, std::atomic<bool>& failed) {
  try {
    service::Client client = service::Client::connect(cli.host, port);
    std::uint64_t rs = parallel::mix64(cli.seed + 0x5757);
    OpClassStats local;
    RunResult verify_local;
    const std::size_t n = mirror.num_vertices();
    const bool dense = cli.churn == "dense";
    // LIFO of this writer's own insertions (dense mode deletes from it);
    // every popped edge is still present — only this thread mutates the
    // edge set, and pops never repeat.
    std::vector<graph::Edge> inserted_stack;
    std::uint64_t round = 0;
    while (Clock::now() < deadline && !failed.load()) {
      ++round;
      dynamic::UpdateBatch batch;
      // Fresh insertions (never duplicating a present edge): half the
      // batch in mixed mode, three quarters in dense mode.
      const std::size_t ins_target =
          dense ? cli.batch_size - cli.batch_size / 4 : cli.batch_size / 2;
      for (std::size_t i = 0; i < ins_target; ++i) {
        for (int attempt = 0; attempt < 16; ++attempt) {
          rs = parallel::mix64(rs + 3);
          const auto u = vertex_id(rs % n);
          rs = parallel::mix64(rs);
          const auto v = vertex_id(rs % n);
          if (u == v || mirror.contains(u, v)) continue;
          bool in_batch = false;
          for (const graph::Edge& e : batch.insertions) {
            if (std::min(e.u, e.v) == std::min(u, v) &&
                std::max(e.u, e.v) == std::max(u, v)) {
              in_batch = true;
              break;
            }
          }
          if (in_batch) continue;
          batch.insertions.push_back({std::min(u, v), std::max(u, v)});
          break;
        }
      }
      if (dense) {
        // Dense churn: retract the most recent of our own insertions —
        // the LIFO shape deletion triage absorbs without rebuilding.
        const std::size_t dels =
            std::min(cli.batch_size / 4, inserted_stack.size());
        for (std::size_t i = 0; i < dels; ++i) {
          batch.deletions.push_back(inserted_stack.back());
          inserted_stack.pop_back();
        }
      } else if (round % 2 == 0 && !mirror.edges().empty()) {
        for (std::size_t i = 0; i < cli.batch_size / 2; ++i) {
          rs = parallel::mix64(rs + 5);
          const graph::Edge e = mirror.edges()[rs % mirror.edges().size()];
          bool in_batch = false;
          for (const graph::Edge& d : batch.deletions) {
            if (d.u == e.u && d.v == e.v) {
              in_batch = true;
              break;
            }
          }
          if (!in_batch) batch.deletions.push_back(e);
        }
      }
      if (batch.empty()) continue;
      if (dense) {
        inserted_stack.insert(inserted_stack.end(), batch.insertions.begin(),
                              batch.insertions.end());
      }

      service::ApplyRequest request;
      request.batch = std::move(batch);
      const auto t0 = Clock::now();
      const service::ApplyResult applied = client.apply(request);
      const auto t1 = Clock::now();
      local.record(
          std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            t1 - t0)
                            .count()),
          request.batch.size());
      mirror.apply(request.batch, applied.report.epoch);

      if (cli.verify_every > 0 && round % cli.verify_every == 0) {
        verify_round(client, mirror, cli, rs, cli.facade == "biconn",
                     verify_local);
      }
    }
    // One final verification so short runs always cross-check at least
    // once.
    if (cli.verify_every > 0) {
      verify_round(client, mirror, cli, rs, cli.facade == "biconn",
                   verify_local);
    }
    const std::lock_guard<std::mutex> lock(stats_mu);
    result.apply.merge(local);
    result.verified_answers += verify_local.verified_answers;
    result.verify_rounds += verify_local.verify_rounds;
    result.mismatches += verify_local.mismatches;
    result.epoch_gone += verify_local.epoch_gone;
  } catch (const std::exception& e) {
    if (!failed.exchange(true)) {
      const std::lock_guard<std::mutex> lock(stats_mu);
      result.error = std::string("writer: ") + e.what();
    }
  }
}

// ---- output --------------------------------------------------------------

void write_json(const CliOptions& cli, RunResult& result, std::size_t n) {
  std::FILE* f = std::fopen(cli.json_out.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("cannot write " + cli.json_out);
  }
  const bool ok = result.error.empty() && result.mismatches == 0;
  const auto row = [&](const char* name, OpClassStats& s,
                       std::uint64_t verified_answers, bool last) {
    const double elapsed = result.elapsed_s > 0 ? result.elapsed_s : 1.0;
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"run_type\": \"iteration\", "
        "\"iterations\": %llu, \"real_time\": %.1f, \"cpu_time\": 0.0, "
        "\"time_unit\": \"ns\", \"n\": %zu, "
        "\"ops_per_sec\": %.1f, \"requests_per_sec\": %.1f, "
        "\"p50_ns\": %llu, \"p99_ns\": %llu, \"p999_ns\": %llu, "
        "\"verified\": %llu%s%s%s}%s\n",
        name, static_cast<unsigned long long>(s.latencies_ns.size()),
        s.mean(), n, double(s.ops) / elapsed,
        double(s.latencies_ns.size()) / elapsed,
        static_cast<unsigned long long>(s.percentile(0.50)),
        static_cast<unsigned long long>(s.percentile(0.99)),
        static_cast<unsigned long long>(s.percentile(0.999)),
        static_cast<unsigned long long>(verified_answers),
        ok ? "" : ", \"error_message\": \"",
        ok ? "" : (result.error.empty() ? "answer mismatch"
                                        : result.error.c_str()),
        ok ? "" : "\"", last ? "" : ",");
  };
  std::fprintf(f, "{\n  \"context\": {\"executable\": \"wecc_loadgen\"},\n"
                  "  \"benchmarks\": [\n");
  row("service/query", result.query, result.verified_answers, false);
  row("service/apply", result.apply, result.verified_answers, true);
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli = parse_args(argc, argv);
  try {
    const std::uint16_t port =
        cli.port != 0 ? cli.port : wait_for_port_file(cli.port_file);
    if (cli.port == 0 && cli.port_file.empty()) usage(argv[0]);

    // The hello tells us what we are talking to; the mirror regenerates
    // the server's initial graph from the shared CLI parameters.
    service::Client probe = service::Client::connect(cli.host, port);
    const service::ServiceInfo info = probe.info();
    probe.close();
    const bool biconn = cli.facade == "biconn";
    if ((info.facade == service::FacadeKind::kBiconnectivity) != biconn) {
      throw std::runtime_error("server facade does not match --facade");
    }
    const graph::Graph g =
        graph::gen::percolation_grid(cli.rows, cli.cols, cli.p, cli.gseed);
    if (info.num_vertices != g.num_vertices()) {
      throw std::runtime_error(
          "server vertex count does not match --rows/--cols: got " +
          std::to_string(info.num_vertices));
    }
    Mirror mirror(g.num_vertices(), g.edge_list());

    RunResult result;
    std::mutex stats_mu;
    std::atomic<bool> failed{false};
    const auto t0 = Clock::now();
    const auto deadline =
        t0 + std::chrono::milliseconds(std::int64_t(cli.duration_s * 1e3));

    std::vector<std::thread> threads;
    threads.reserve(cli.readers + 1);
    for (std::size_t i = 0; i < cli.readers; ++i) {
      threads.emplace_back([&, i] {
        reader_loop(cli, port, i, deadline, result.query, stats_mu, failed,
                    result.error, biconn, g.num_vertices());
      });
    }
    threads.emplace_back([&] {
      writer_loop(cli, port, mirror, deadline, result, stats_mu, failed);
    });
    for (std::thread& t : threads) t.join();
    result.elapsed_s =
        std::chrono::duration<double>(Clock::now() - t0).count();

    std::printf(
        "loadgen: %.1fs, %zu readers: %llu query requests "
        "(%llu answers, %.0f/s), %llu applies (%llu edges, %.0f/s)\n",
        result.elapsed_s, cli.readers,
        static_cast<unsigned long long>(result.query.latencies_ns.size()),
        static_cast<unsigned long long>(result.query.ops),
        double(result.query.ops) / result.elapsed_s,
        static_cast<unsigned long long>(result.apply.latencies_ns.size()),
        static_cast<unsigned long long>(result.apply.ops),
        double(result.apply.ops) / result.elapsed_s);
    std::printf(
        "  query  p50 %8llu ns   p99 %8llu ns   p999 %8llu ns\n",
        static_cast<unsigned long long>(result.query.percentile(0.50)),
        static_cast<unsigned long long>(result.query.percentile(0.99)),
        static_cast<unsigned long long>(result.query.percentile(0.999)));
    std::printf(
        "  apply  p50 %8llu ns   p99 %8llu ns   p999 %8llu ns\n",
        static_cast<unsigned long long>(result.apply.percentile(0.50)),
        static_cast<unsigned long long>(result.apply.percentile(0.99)),
        static_cast<unsigned long long>(result.apply.percentile(0.999)));
    std::printf(
        "  verification: %llu rounds, %llu answers cross-checked, "
        "%llu mismatches, %llu epoch-gone skips\n",
        static_cast<unsigned long long>(result.verify_rounds),
        static_cast<unsigned long long>(result.verified_answers),
        static_cast<unsigned long long>(result.mismatches),
        static_cast<unsigned long long>(result.epoch_gone));
    if (!result.error.empty()) {
      std::fprintf(stderr, "loadgen: FAILED: %s\n", result.error.c_str());
    }

    if (!cli.json_out.empty()) write_json(cli, result, g.num_vertices());

    const bool ok = result.error.empty() && result.mismatches == 0 &&
                    !result.query.latencies_ns.empty() &&
                    (cli.verify_every == 0 || result.verify_rounds > 0);
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wecc_loadgen: fatal: %s\n", e.what());
    return 1;
  }
}
