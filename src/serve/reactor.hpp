// Reactor — the single-threaded epoll front end for RepairServer.
//
// One thread multiplexes the listener, every connection, and an eventfd.
// Accepts are nonblocking; each connection feeds a wire::FrameReader that
// accumulates partial reads, so a request split across any number of TCP
// segments decodes incrementally without ever parking a thread. Complete
// frames are handed to RepairService::submit_async; workers finish the
// repair, render the response off the reactor thread, and hand the bytes
// back through a completion queue + eventfd wake. Responses are written
// back strictly in per-connection request order — a pipelined client that
// sent frames 0..N reads responses 0..N even when the worker pool finished
// them out of order — which is what keeps the deterministic-mode byte
// contract intact over pipelining (DESIGN.md §10). Writes go through a
// vectored buffered writer: queued response frames are flushed in batches
// of up to kMaxWriteIovecs with a single sendmsg (writev with
// MSG_NOSIGNAL), and when the kernel send buffer fills mid-batch the
// remainder — including a partially accepted frame mid-iovec — is kept
// and EPOLLOUT is armed, so a slow reader never blocks the loop or any
// other connection.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/service.hpp"
#include "serve/wire.hpp"

namespace rustbrain::serve {

struct ServerOptions;  // serve/server.hpp

/// Transient accept() failures (fd/buffer exhaustion) that deserve a
/// backoff-and-retry instead of ending the accept loop: EMFILE, ENFILE,
/// ENOBUFS, ENOMEM. ECONNABORTED and EINTR are retried immediately by the
/// reactor and are not classified here.
bool is_transient_accept_error(int error);

/// Per-connection socket setup for an accepted TCP connection: disables
/// Nagle (TCP_NODELAY), so a pipelined response is not held back behind
/// the peer's delayed ACK of the previous one, and requests SO_SNDBUF
/// when `send_buffer_bytes` > 0. Best effort: a failed setsockopt leaves
/// the kernel default.
void configure_connection(int fd, int send_buffer_bytes);

/// Front-end counters, filled by the reactor.
struct ServerStats {
    std::uint64_t loop_wakeups = 0;      // epoll_wait returns
    std::uint64_t frames_read = 0;       // complete request frames decoded
    std::uint64_t frames_written = 0;    // response frames queued for write
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_rejected = 0;  // over the connection cap
    std::uint64_t accept_retries = 0;    // EMFILE-class backoff rounds
    std::uint64_t epollout_arms = 0;     // kernel buffer filled mid-response
    std::uint64_t max_pipeline_depth = 0;  // most in-flight on one connection
    std::uint64_t writev_batches = 0;    // vectored flush syscalls issued
    std::uint64_t frames_per_writev_max = 0;  // largest iovec batch flushed
};

class Reactor {
  public:
    /// Takes ownership of `listen_fd` (already bound and listening) and
    /// starts the loop thread. Reads max_requests, max_connections and
    /// send_buffer_bytes from `options`, which must outlive the reactor.
    /// Throws std::runtime_error when the epoll or eventfd plumbing cannot
    /// be created (listen_fd is closed).
    Reactor(int listen_fd, RepairService& service,
            const ServerOptions& options);
    ~Reactor();
    Reactor(const Reactor&) = delete;
    Reactor& operator=(const Reactor&) = delete;

    /// Stop serving: close the listener and every connection, drain
    /// outstanding service completions, join the loop. Idempotent,
    /// including against concurrent callers.
    void stop();
    /// Block until the loop exited on its own (request budget drained) or
    /// stop() was called.
    void wait();

    [[nodiscard]] std::uint64_t requests_served() const {
        return requests_served_.load();
    }
    [[nodiscard]] ServerStats stats() const;

  private:
    struct Connection {
        int fd = -1;
        std::uint64_t id = 0;
        FrameReader reader;
        /// Framed responses not yet accepted by the kernel, one frame per
        /// entry so a flush can gather many with a single vectored write.
        std::deque<std::string> out;
        /// Bytes of out.front() the kernel already took (a partial write
        /// can stop mid-frame, including mid-iovec within a batch).
        std::size_t out_pos = 0;
        /// Sequence number handed to the next decoded frame.
        std::uint64_t next_request = 0;
        /// Sequence number the ordered writer owes next.
        std::uint64_t next_response = 0;
        /// Completed out-of-turn responses parked until their turn.
        std::map<std::uint64_t, std::string> ready;
        bool peer_closed = false;
        /// Unframeable stream or write error: the connection is dead;
        /// pending completions for it are discarded on arrival.
        bool broken = false;
        bool want_write = false;  // EPOLLOUT currently armed
    };

    struct Completion {
        std::uint64_t connection_id = 0;
        std::uint64_t sequence = 0;
        std::string payload;
    };

    void loop();
    void do_accepts();
    void handle_readable(Connection& connection);
    void handle_writable(Connection& connection);
    void process_frame(Connection& connection, const std::string& payload);
    void complete(Connection& connection, std::uint64_t sequence,
                  std::string payload);
    /// Move completed-in-order responses into the write buffer and flush.
    void flush_ready(Connection& connection);
    void write_pending(Connection& connection);
    void handle_completions();
    /// Re-register the connection's epoll interest from its current state
    /// (EPOLLIN unless the peer closed, EPOLLOUT while writes are pending).
    void update_interest(Connection& connection);
    /// Close-and-erase when the connection is broken, or when the peer
    /// closed and everything owed has been written.
    void reap(std::uint64_t connection_id);
    void close_connection(Connection& connection);
    void close_listener();
    void close_all_connections();
    [[nodiscard]] bool connections_drained() const;
    void drain_eventfd();
    void enqueue_completion(std::uint64_t connection_id,
                            std::uint64_t sequence, std::string payload);
    void wake();
    [[nodiscard]] std::uint64_t inflight(const Connection& connection) const {
        return connection.next_request - connection.next_response;
    }

    RepairService& service_;
    const ServerOptions& options_;
    int listen_fd_ = -1;
    int epoll_fd_ = -1;
    int event_fd_ = -1;
    std::thread thread_;
    std::mutex stop_mutex_;  // serializes stop() bodies

    /// Loop-thread state: connections keyed by id (epoll events carry the
    /// id, so a stale event for a closed fd cannot touch a reused one).
    std::map<std::uint64_t, std::unique_ptr<Connection>> connections_;
    std::uint64_t next_connection_id_ = 2;  // 0 = listener, 1 = eventfd
    /// Requests handed to the service whose completions the loop has not
    /// consumed yet; the loop never exits while this is nonzero, so a
    /// worker callback can never touch a destroyed reactor.
    std::uint64_t outstanding_ = 0;
    bool budget_reached_ = false;
    std::chrono::steady_clock::time_point accept_retry_at_{};
    int accept_backoff_ms_ = 0;

    std::mutex completions_mutex_;
    std::vector<Completion> completions_;

    std::atomic<bool> stopping_{false};
    std::atomic<std::uint64_t> requests_served_{0};

    mutable std::mutex stats_mutex_;
    ServerStats stats_;

    std::mutex done_mutex_;
    std::condition_variable done_cv_;
    bool done_ = false;
};

}  // namespace rustbrain::serve
