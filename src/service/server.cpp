#include "service/server.hpp"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "service/protocol.hpp"
#include "service/socket.hpp"

namespace wecc::service {

namespace {

/// One admitted update waiting for the writer thread. The promise carries
/// the result (or the handler's exception) back to the session thread that
/// admitted it.
struct ApplyJob {
  ApplyRequest request;
  std::promise<ApplyResult> result;
};

}  // namespace

struct Server::Impl {
  explicit Impl(ServiceHandler& h, ServerOptions o)
      : handler(h), opt(std::move(o)) {}

  ServiceHandler& handler;
  ServerOptions opt;
  net::Socket listener;
  std::uint16_t bound_port = 0;

  std::atomic<bool> stopping{false};

  // Admission queue: session threads push, the single writer thread pops.
  std::mutex queue_mu;
  std::condition_variable queue_cv;
  std::deque<std::unique_ptr<ApplyJob>> queue;

  struct Session {
    net::Socket sock;
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::mutex sessions_mu;
  std::vector<std::unique_ptr<Session>> sessions;

  std::thread accept_thread;
  std::thread writer_thread;

  std::atomic<std::uint64_t> n_sessions{0};
  std::atomic<std::uint64_t> n_queries{0};
  std::atomic<std::uint64_t> n_applies{0};
  std::atomic<std::uint64_t> n_protocol_errors{0};
  // Written only by the writer thread (applies are already serialized
  // there), read by stats() — atomics, no extra lock.
  std::atomic<std::uint64_t> last_absorb_rate_ppm{1000000};
  std::array<std::atomic<std::uint64_t>, dynamic::kNumRebuildReasons>
      rebuild_reasons{};

  void start() {
    listener = net::listen_on(opt.bind_address, opt.port, opt.backlog);
    bound_port = net::local_port(listener);
    writer_thread = std::thread([this] { writer_loop(); });
    accept_thread = std::thread([this] { accept_loop(); });
  }

  void accept_loop() {
    for (;;) {
      net::Socket conn = net::accept_on(listener);
      if (!conn.valid()) return;  // listener shut down
      if (stopping.load(std::memory_order_acquire)) return;
      reap_finished_sessions();
      auto session = std::make_unique<Session>();
      session->sock = std::move(conn);
      Session* raw = session.get();
      n_sessions.fetch_add(1, std::memory_order_relaxed);
      {
        const std::lock_guard<std::mutex> lock(sessions_mu);
        sessions.push_back(std::move(session));
      }
      raw->thread = std::thread([this, raw] {
        session_loop(*raw);
        raw->done.store(true, std::memory_order_release);
      });
    }
  }

  /// The one writer: applies jobs in admission order. On stop, fails
  /// whatever is still queued.
  void writer_loop() {
    for (;;) {
      std::unique_ptr<ApplyJob> job;
      {
        std::unique_lock<std::mutex> lock(queue_mu);
        queue_cv.wait(lock, [this] {
          return stopping.load(std::memory_order_acquire) || !queue.empty();
        });
        if (queue.empty()) return;  // stopping and drained
        job = std::move(queue.front());
        queue.pop_front();
      }
      try {
        ApplyResult result = handler.apply(job->request);
        last_absorb_rate_ppm.store(result.absorb_rate_ppm,
                                   std::memory_order_relaxed);
        if (result.rebuild_reason < dynamic::kNumRebuildReasons) {
          rebuild_reasons[result.rebuild_reason].fetch_add(
              1, std::memory_order_relaxed);
        }
        job->result.set_value(std::move(result));
      } catch (...) {
        job->result.set_exception(std::current_exception());
      }
    }
  }

  void session_loop(Session& session) {
    wire::Message msg;
    try {
      // The hello lets a client size query streams before asking anything.
      wire::write_message(session.sock, handler.info());
      while (wire::read_message(session.sock, msg)) {
        if (const auto* query = std::get_if<QueryRequest>(&msg)) {
          n_queries.fetch_add(1, std::memory_order_relaxed);
          wire::write_message(session.sock, handler.query(*query));
        } else if (auto* apply = std::get_if<ApplyRequest>(&msg)) {
          n_applies.fetch_add(1, std::memory_order_relaxed);
          wire::write_message(session.sock, run_apply(std::move(*apply)));
        } else {
          // A frame only the server may send (hello / replies / errors).
          wire::write_message(
              session.sock,
              wire::WireError{Status::kBadRequest,
                              "client sent a server-only message type"});
          break;
        }
      }
    } catch (const wire::ProtocolError& e) {
      n_protocol_errors.fetch_add(1, std::memory_order_relaxed);
      try {
        wire::write_message(session.sock,
                            wire::WireError{Status::kBadRequest, e.what()});
      } catch (...) {
        // Peer already gone; nothing to report to.
      }
    } catch (...) {
      // Socket error (peer vanished, or our own shutdown unblocked the
      // recv). Either way the session is over.
    }
    session.sock.shutdown();
  }

  /// Admit one update to the writer queue and wait for its result. The
  /// session thread blocks here (its client sent the apply and awaits the
  /// reply), but other sessions' queries keep flowing on their own threads.
  wire::Message run_apply(ApplyRequest&& request) {
    auto job = std::make_unique<ApplyJob>();
    job->request = std::move(request);
    std::future<ApplyResult> result = job->result.get_future();
    {
      const std::lock_guard<std::mutex> lock(queue_mu);
      if (stopping.load(std::memory_order_acquire)) {
        return wire::WireError{Status::kBadRequest, "server is stopping"};
      }
      queue.push_back(std::move(job));
    }
    queue_cv.notify_one();
    try {
      return result.get();
    } catch (const std::exception& e) {
      return wire::WireError{Status::kBadRequest, e.what()};
    }
  }

  void reap_finished_sessions() {
    const std::lock_guard<std::mutex> lock(sessions_mu);
    for (auto it = sessions.begin(); it != sessions.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        (*it)->thread.join();
        it = sessions.erase(it);
      } else {
        ++it;
      }
    }
  }

  void stop() {
    if (stopping.exchange(true, std::memory_order_acq_rel)) return;
    // Unblock the accept loop, then every session's recv. The listener is
    // closed only once the accept thread is joined: it reads the fd.
    listener.shutdown();
    if (accept_thread.joinable()) accept_thread.join();
    listener.close();
    // Fail queued applies and drain the writer FIRST: a session blocked in
    // run_apply's result.get() must be unblocked (with its in-flight
    // result or this exception) before its thread can be joined. New
    // enqueues are already refused (run_apply checks stopping under
    // queue_mu).
    {
      const std::lock_guard<std::mutex> lock(queue_mu);
      for (const auto& job : queue) {
        job->result.set_exception(std::make_exception_ptr(
            std::runtime_error("server stopped before apply ran")));
      }
      queue.clear();
    }
    queue_cv.notify_all();
    if (writer_thread.joinable()) writer_thread.join();
    // Now every session is (at worst) parked in recv; shut the sockets
    // down to unblock them and join.
    {
      const std::lock_guard<std::mutex> lock(sessions_mu);
      for (const auto& session : sessions) session->sock.shutdown();
    }
    {
      const std::lock_guard<std::mutex> lock(sessions_mu);
      for (const auto& session : sessions) {
        if (session->thread.joinable()) session->thread.join();
      }
      sessions.clear();
    }
  }
};

Server::Server(ServiceHandler& handler, ServerOptions opt)
    : impl_(std::make_unique<Impl>(handler, std::move(opt))) {
  impl_->start();
}

Server::~Server() { stop(); }

std::uint16_t Server::port() const noexcept { return impl_->bound_port; }

void Server::stop() { impl_->stop(); }

Server::Stats Server::stats() const {
  Stats out;
  out.sessions = impl_->n_sessions.load(std::memory_order_relaxed);
  out.queries = impl_->n_queries.load(std::memory_order_relaxed);
  out.applies = impl_->n_applies.load(std::memory_order_relaxed);
  out.protocol_errors =
      impl_->n_protocol_errors.load(std::memory_order_relaxed);
  out.absorb_rate_ppm =
      impl_->last_absorb_rate_ppm.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < out.rebuild_reasons.size(); ++i) {
    out.rebuild_reasons[i] =
        impl_->rebuild_reasons[i].load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace wecc::service
