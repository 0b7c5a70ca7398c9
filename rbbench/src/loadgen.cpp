#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <stdexcept>

#include "serve/wire.hpp"

namespace rbbench {

namespace serve = rustbrain::serve;

namespace {

constexpr double kMissed = std::numeric_limits<double>::infinity();

/// One pipelined client connection. Owns its socket.
class Connection {
  public:
    explicit Connection(std::uint16_t port) {
        fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd_ < 0) throw std::runtime_error("loadgen: socket failed");
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr) != 0) {
            const int saved = errno;
            ::close(fd_);
            throw std::runtime_error(std::string("loadgen: connect failed: ") +
                                     std::strerror(saved));
        }
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        quick_ack();
        // Non-blocking from here on: neither a full send buffer nor an
        // empty receive buffer may stall the schedule.
        const int flags = ::fcntl(fd_, F_GETFL, 0);
        if (flags < 0 || ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) != 0) {
            ::close(fd_);
            throw std::runtime_error("loadgen: cannot make socket non-blocking");
        }
    }
    ~Connection() { ::close(fd_); }
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    [[nodiscard]] int fd() const { return fd_; }
    [[nodiscard]] bool wants_write() const { return out_pos < out.size(); }

    /// Writes as much queued output as the socket takes right now.
    void flush() {
        while (out_pos < out.size()) {
            const ssize_t n = ::send(fd_, out.data() + out_pos,
                                     out.size() - out_pos, MSG_NOSIGNAL);
            if (n > 0) {
                out_pos += static_cast<std::size_t>(n);
            } else if (n < 0 && errno == EINTR) {
                continue;
            } else {
                if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
                    closed = true;
                }
                break;
            }
        }
        if (out_pos == out.size()) {
            out.clear();
            out_pos = 0;
        }
    }

    /// Reads everything available into the frame reader.
    void drain() {
        char buffer[64 * 1024];
        for (;;) {
            const ssize_t n = ::recv(fd_, buffer, sizeof buffer, 0);
            if (n > 0) {
                reader.feed(buffer, static_cast<std::size_t>(n));
                quick_ack();
            } else if (n < 0 && errno == EINTR) {
                continue;
            } else {
                if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
                    closed = true;
                }
                return;
            }
        }
    }

    std::string out;
    std::size_t out_pos = 0;
    std::deque<std::size_t> pending;  // request indices in send order
    serve::FrameReader reader;
    bool closed = false;

  private:
    /// ACK every response at once. The kernel drops quick-ack mode on its
    /// own, so it is re-armed after each read; without it the client's
    /// delayed ACKs hold back pipelined responses that the server's
    /// Nagle-enabled sockets queue behind an unacknowledged one, and
    /// latency would measure ACK timers instead of the server.
    void quick_ack() {
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
    }

    int fd_ = -1;
};

}  // namespace

LoadReport drive_open_loop(std::uint16_t port, std::size_t connections,
                           const std::vector<std::string>& frames,
                           const std::vector<double>& due_ms,
                           double timeout_ms) {
    const std::size_t n = frames.size();
    LoadReport report;
    report.latency_ms.assign(n, kMissed);
    report.send_lag_ms.assign(n, 0.0);
    report.responses.resize(n);

    std::vector<std::unique_ptr<Connection>> conns;
    for (std::size_t i = 0; i < connections; ++i) {
        conns.push_back(std::make_unique<Connection>(port));
    }
    std::vector<pollfd> fds(conns.size());
    // Wake for each due time as exactly as the kernel allows (the default
    // 50 us timer slack would show up as send lag).
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    const double give_up_ms = (n == 0 ? 0.0 : due_ms.back()) + timeout_ms;

    const auto start = Clock::now();
    std::size_t next = 0;
    std::size_t answered = 0;
    std::string payload;
    while (answered < n) {
        double now = ms_since(start);
        while (next < n && due_ms[next] <= now) {
            Connection& conn = *conns[next % conns.size()];
            conn.out += frames[next];
            conn.pending.push_back(next);
            report.send_lag_ms[next] = now - due_ms[next];
            ++next;
        }
        for (auto& conn : conns) {
            if (conn->wants_write()) conn->flush();
        }
        if (now > give_up_ms) break;

        double wait_ms = give_up_ms - now;
        if (next < n) wait_ms = std::min(wait_ms, due_ms[next] - now);
        if (wait_ms < 0.0) wait_ms = 0.0;
        timespec timeout{};
        timeout.tv_sec = static_cast<time_t>(wait_ms / 1000.0);
        timeout.tv_nsec = static_cast<long>(
            std::fmod(wait_ms, 1000.0) * 1e6);
        for (std::size_t i = 0; i < conns.size(); ++i) {
            fds[i].fd = conns[i]->fd();
            fds[i].events = static_cast<short>(
                POLLIN | (conns[i]->wants_write() ? POLLOUT : 0));
            fds[i].revents = 0;
        }
        const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
        if (ready <= 0) continue;  // timeout (next send due) or EINTR

        for (std::size_t i = 0; i < conns.size(); ++i) {
            Connection& conn = *conns[i];
            if ((fds[i].revents & POLLOUT) != 0) conn.flush();
            if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
            conn.drain();
            now = ms_since(start);
            while (!conn.pending.empty() && conn.reader.next(payload)) {
                const std::size_t index = conn.pending.front();
                conn.pending.pop_front();
                ++answered;
                const auto parse_start = Clock::now();
                serve::RepairResponse response = serve::parse_response(payload);
                report.parse_ms += ms_since(parse_start);
                if (response.shed) {
                    ++report.shed;
                } else if (!response.ok) {
                    ++report.failed;
                } else {
                    ++report.ok;
                    report.latency_ms[index] = now - due_ms[index];
                }
                report.last_done_ms = now;
                report.responses[index] = std::move(response);
            }
            if (conn.closed) {
                // The server hung up: whatever this connection still owes
                // is lost.
                answered += conn.pending.size();
                report.failed += conn.pending.size();
                conn.pending.clear();
            }
        }
    }
    report.failed += n - answered;  // never answered before the timeout
    return report;
}

}  // namespace rbbench
