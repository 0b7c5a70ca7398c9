// RepairServer — the loopback socket front-end over RepairService.
//
// Binds 127.0.0.1:<port> (port 0 = ephemeral, the bound port is queryable
// for --port-file handoff), listens, and hands the listener to a Reactor
// (serve/reactor.hpp): a single-threaded epoll loop with nonblocking
// accepts, incremental per-connection frame decoding, pipelining with
// strictly in-request-order responses, and buffered writes so a slow
// reader never blocks anyone else.
//
// A malformed frame gets an ok=0 error response naming the parse failure —
// one bad client cannot take the service down — and only an unframeable
// stream closes the connection. Transient accept() failures (EMFILE-class
// fd exhaustion) are retried with capped exponential backoff and counted
// in stats(), never treated as fatal.
#pragma once

#include <cstdint>
#include <memory>

#include "serve/reactor.hpp"
#include "serve/service.hpp"

namespace rustbrain::serve {

struct ServerOptions {
    ServiceOptions service;
    /// 0 => ephemeral: bind whatever the kernel hands out, report it via
    /// port().
    std::uint16_t port = 0;
    /// Stop accepting after serving this many requests (0 => serve until
    /// stop()); in-flight pipelined requests are drained first. The CI
    /// smoke job uses this for a clean, deterministic shutdown.
    std::uint64_t max_requests = 0;
    /// Cap on concurrently open connections (0 = uncapped). Over-cap
    /// connections are accepted, sent one framed shed response with retry
    /// advice, and closed — never silently dropped.
    std::size_t max_connections = 0;
    /// SO_SNDBUF requested for accepted connections (0 = kernel default).
    /// Tests shrink it to force partial vectored writes deterministically.
    int send_buffer_bytes = 0;
};

class RepairServer {
  public:
    /// Binds and starts accepting. Throws std::runtime_error when the
    /// socket cannot be created or bound.
    explicit RepairServer(ServerOptions options = {});
    ~RepairServer();
    RepairServer(const RepairServer&) = delete;
    RepairServer& operator=(const RepairServer&) = delete;

    [[nodiscard]] std::uint16_t port() const { return port_; }
    [[nodiscard]] RepairService& service() { return service_; }
    [[nodiscard]] std::uint64_t requests_served() const {
        return reactor_->requests_served();
    }
    [[nodiscard]] ServerStats stats() const { return reactor_->stats(); }

    /// Stop accepting, close the listener and every connection, drain
    /// outstanding repairs. Idempotent, including against concurrent
    /// callers.
    void stop();
    /// Block until the server stopped (stop() called, or max_requests
    /// reached and the last connection drained).
    void wait();

  private:
    /// Frozen at construction; the reactor reads its fields from here.
    const ServerOptions options_;
    RepairService service_;
    std::uint16_t port_ = 0;
    /// Declared after service_ so it destructs first: the reactor drains
    /// its outstanding service completions before the service goes away.
    std::unique_ptr<Reactor> reactor_;
};

}  // namespace rustbrain::serve
