#include "serve/reactor.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace rustbrain::serve {

namespace {

constexpr std::uint64_t kListenerId = 0;
constexpr std::uint64_t kEventId = 1;

/// Most frames gathered into one vectored write. Comfortably under any
/// IOV_MAX (POSIX guarantees ≥ 16, Linux has 1024) while letting a deep
/// pipeline drain with a handful of syscalls.
constexpr std::size_t kMaxWriteIovecs = 64;

[[noreturn]] void fail_errno(const char* what) {
    throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

bool is_transient_accept_error(int error) {
    return error == EMFILE || error == ENFILE || error == ENOBUFS ||
           error == ENOMEM;
}

void configure_connection(int fd, int send_buffer_bytes) {
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (send_buffer_bytes > 0) {
        (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &send_buffer_bytes,
                           sizeof send_buffer_bytes);
    }
}

Reactor::Reactor(int listen_fd, RepairService& service, Options options)
    : service_(service), options_(options), listen_fd_(listen_fd) {
    const int flags = ::fcntl(listen_fd_, F_GETFL, 0);
    if (flags < 0 ||
        ::fcntl(listen_fd_, F_SETFL, flags | O_NONBLOCK) != 0) {
        const int saved = errno;
        ::close(listen_fd_);
        errno = saved;
        fail_errno("fcntl O_NONBLOCK");
    }
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) {
        const int saved = errno;
        ::close(listen_fd_);
        errno = saved;
        fail_errno("epoll_create1");
    }
    event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (event_fd_ < 0) {
        const int saved = errno;
        ::close(listen_fd_);
        ::close(epoll_fd_);
        errno = saved;
        fail_errno("eventfd");
    }
    epoll_event listen_event{};
    listen_event.events = EPOLLIN;
    listen_event.data.u64 = kListenerId;
    epoll_event wake_event{};
    wake_event.events = EPOLLIN;
    wake_event.data.u64 = kEventId;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &listen_event) !=
            0 ||
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &wake_event) != 0) {
        const int saved = errno;
        ::close(listen_fd_);
        ::close(epoll_fd_);
        ::close(event_fd_);
        errno = saved;
        fail_errno("epoll_ctl ADD");
    }
    thread_ = std::thread([this] { loop(); });
}

Reactor::~Reactor() {
    stop();
    if (event_fd_ >= 0) ::close(event_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void Reactor::stop() {
    const std::lock_guard<std::mutex> lock(stop_mutex_);
    stopping_.store(true);
    wake();
    if (thread_.joinable()) thread_.join();
}

void Reactor::wait() {
    std::unique_lock<std::mutex> lock(done_mutex_);
    done_cv_.wait(lock, [this] { return done_; });
}

ServerStats Reactor::stats() const {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    return stats_;
}

void Reactor::wake() {
    if (event_fd_ < 0) return;
    const std::uint64_t one = 1;
    // The counter saturating (EAGAIN) still leaves the fd readable, which
    // is all a wake needs.
    (void)!::write(event_fd_, &one, sizeof one);
}

void Reactor::drain_eventfd() {
    std::uint64_t counter = 0;
    while (::read(event_fd_, &counter, sizeof counter) > 0) {
    }
}

void Reactor::enqueue_completion(std::uint64_t connection_id,
                                 std::uint64_t sequence,
                                 std::string payload) {
    {
        const std::lock_guard<std::mutex> lock(completions_mutex_);
        completions_.push_back({connection_id, sequence, std::move(payload)});
    }
    wake();
}

void Reactor::loop() {
    std::vector<epoll_event> events(64);
    while (true) {
        int timeout = -1;
        if (accept_backoff_ms_ > 0 && listen_fd_ >= 0) {
            const auto now = std::chrono::steady_clock::now();
            if (now >= accept_retry_at_) {
                timeout = 0;
            } else {
                const auto remaining =
                    std::chrono::duration_cast<std::chrono::milliseconds>(
                        accept_retry_at_ - now)
                        .count();
                timeout = static_cast<int>(remaining) + 1;
            }
        }
        const int ready = ::epoll_wait(epoll_fd_, events.data(),
                                       static_cast<int>(events.size()),
                                       timeout);
        {
            const std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.loop_wakeups;
        }
        if (ready < 0) {
            if (errno == EINTR) continue;
            break;  // epoll itself failed: nothing sane left to wait on
        }
        bool accept_ready = false;
        for (int i = 0; i < ready; ++i) {
            const std::uint64_t id = events[i].data.u64;
            const std::uint32_t mask = events[i].events;
            if (id == kListenerId) {
                accept_ready = true;
                continue;
            }
            if (id == kEventId) {
                drain_eventfd();
                continue;
            }
            const auto it = connections_.find(id);
            if (it == connections_.end()) continue;  // closed this batch
            Connection& connection = *it->second;
            if ((mask & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
                handle_readable(connection);
            }
            if ((mask & EPOLLOUT) != 0 && !connection.broken) {
                handle_writable(connection);
            }
            reap(id);
        }
        handle_completions();

        if (stopping_.load()) {
            // stop() means now: discard every connection, then drain the
            // service completions still in flight — the loop must consume
            // every callback before it may exit (worker callbacks touch
            // the completion queue and eventfd).
            close_listener();
            close_all_connections();
            if (outstanding_ == 0) break;
            continue;
        }
        if (budget_reached_) {
            close_listener();
            if (outstanding_ == 0 && connections_drained()) {
                close_all_connections();
                break;
            }
            continue;
        }
        if (listen_fd_ >= 0 &&
            (accept_ready ||
             (accept_backoff_ms_ > 0 &&
              std::chrono::steady_clock::now() >= accept_retry_at_))) {
            do_accepts();
        }
    }
    close_all_connections();
    close_listener();
    {
        const std::lock_guard<std::mutex> lock(done_mutex_);
        done_ = true;
    }
    done_cv_.notify_all();
}

void Reactor::do_accepts() {
    while (true) {
        const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED) continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                accept_backoff_ms_ = 0;
                return;
            }
            if (is_transient_accept_error(errno)) {
                // Transient fd/buffer exhaustion: back off and retry
                // (exponential, capped) instead of silently ending the
                // accept path — connections already open keep being
                // served meanwhile.
                {
                    const std::lock_guard<std::mutex> lock(stats_mutex_);
                    ++stats_.accept_retries;
                }
                accept_backoff_ms_ = accept_backoff_ms_ == 0
                                         ? 10
                                         : std::min(accept_backoff_ms_ * 2,
                                                    200);
                accept_retry_at_ = std::chrono::steady_clock::now() +
                                   std::chrono::milliseconds(
                                       accept_backoff_ms_);
                return;
            }
            // Fatal (listener shut down or gone): stop accepting.
            close_listener();
            return;
        }
        accept_backoff_ms_ = 0;
        if (options_.max_connections > 0 &&
            connections_.size() >= options_.max_connections) {
            // Connection cap: same contract as request shedding — a
            // framed, well-typed refusal, never a silent drop.
            {
                const std::lock_guard<std::mutex> lock(stats_mutex_);
                ++stats_.connections_rejected;
            }
            RepairResponse refusal;
            refusal.ok = false;
            refusal.shed = true;
            refusal.retry_after_ms = 100.0;
            refusal.error =
                "server connection cap reached (" +
                std::to_string(connections_.size()) +
                " open); retry in ~100 ms";
            try {
                const std::string framed = frame(render_response(refusal));
                (void)::send(fd, framed.data(), framed.size(), MSG_NOSIGNAL);
            } catch (const std::exception&) {
                // Best effort only.
            }
            ::close(fd);
            continue;
        }
        configure_connection(fd, options_.send_buffer_bytes);
        auto connection = std::make_unique<Connection>();
        connection->fd = fd;
        connection->id = next_connection_id_++;
        epoll_event event{};
        event.events = EPOLLIN;
        event.data.u64 = connection->id;
        if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
            ::close(fd);
            continue;
        }
        {
            const std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.connections_accepted;
        }
        connections_.emplace(connection->id, std::move(connection));
    }
}

void Reactor::handle_readable(Connection& connection) {
    if (connection.peer_closed || connection.broken) return;
    char buffer[64 * 1024];
    while (true) {
        const ssize_t n = ::read(connection.fd, buffer, sizeof buffer);
        if (n > 0) {
            connection.reader.feed(buffer, static_cast<std::size_t>(n));
            std::string payload;
            while (!budget_reached_ && !stopping_.load()) {
                try {
                    if (!connection.reader.next(payload)) break;
                } catch (const std::exception&) {
                    // Unframeable stream: nothing sane left to answer on.
                    connection.broken = true;
                    return;
                }
                {
                    const std::lock_guard<std::mutex> lock(stats_mutex_);
                    ++stats_.frames_read;
                }
                process_frame(connection, payload);
                if (connection.broken) return;
            }
            continue;
        }
        if (n == 0) {
            // Peer sent FIN. Under level-triggered epoll an EOF'd fd stays
            // readable forever, so stop watching reads; responses still in
            // flight are written out before the reap.
            connection.peer_closed = true;
            update_interest(connection);
            return;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        connection.broken = true;  // reset or worse: discard
        return;
    }
}

void Reactor::process_frame(Connection& connection,
                            const std::string& payload) {
    const std::uint64_t sequence = connection.next_request++;
    {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        if (inflight(connection) > stats_.max_pipeline_depth) {
            stats_.max_pipeline_depth = inflight(connection);
        }
    }
    RepairRequest request;
    try {
        request = parse_request(payload);
    } catch (const std::exception& error) {
        // A frame that does not parse as a request still gets a framed
        // answer, in its pipeline slot, so later responses stay aligned.
        RepairResponse response;
        response.ok = false;
        response.error = error.what();
        complete(connection, sequence, render_response(response));
        return;
    }
    ++outstanding_;
    const std::uint64_t connection_id = connection.id;
    // The worker renders the response (the expensive half of the handoff)
    // before enqueueing; shed requests invoke the callback synchronously
    // on this thread, which lands in the same completion queue.
    service_.submit_async(
        std::move(request),
        [this, connection_id, sequence](RepairResponse response) {
            enqueue_completion(connection_id, sequence,
                               render_response(response));
        });
}

void Reactor::handle_completions() {
    std::vector<Completion> batch;
    {
        const std::lock_guard<std::mutex> lock(completions_mutex_);
        batch.swap(completions_);
    }
    for (Completion& completion : batch) {
        --outstanding_;
        const auto it = connections_.find(completion.connection_id);
        if (it == connections_.end()) continue;  // connection already gone
        Connection& connection = *it->second;
        if (connection.broken) continue;
        complete(connection, completion.sequence,
                 std::move(completion.payload));
        reap(completion.connection_id);
    }
}

void Reactor::complete(Connection& connection, std::uint64_t sequence,
                       std::string payload) {
    connection.ready.emplace(sequence, std::move(payload));
    flush_ready(connection);
}

void Reactor::flush_ready(Connection& connection) {
    bool queued = false;
    for (auto it = connection.ready.find(connection.next_response);
         it != connection.ready.end();
         it = connection.ready.find(connection.next_response)) {
        // In request order per connection: a response may only leave once
        // every earlier request on this connection has answered.
        try {
            connection.out.push_back(frame(it->second));
        } catch (const std::exception&) {
            connection.broken = true;
            return;
        }
        connection.ready.erase(it);
        ++connection.next_response;
        queued = true;
        {
            const std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.frames_written;
        }
        const std::uint64_t served = requests_served_.fetch_add(1) + 1;
        if (options_.max_requests != 0 && served >= options_.max_requests) {
            budget_reached_ = true;
        }
    }
    if (queued || !connection.out.empty()) {
        write_pending(connection);
    }
}

void Reactor::handle_writable(Connection& connection) {
    write_pending(connection);
}

void Reactor::write_pending(Connection& connection) {
    while (!connection.out.empty()) {
        // Gather up to kMaxWriteIovecs queued frames into one vectored
        // write; the first entry skips the bytes the kernel already took.
        iovec iov[kMaxWriteIovecs];
        std::size_t iov_count = 0;
        for (const std::string& pending : connection.out) {
            const std::size_t skip = iov_count == 0 ? connection.out_pos : 0;
            iov[iov_count].iov_base =
                const_cast<char*>(pending.data()) + skip;
            iov[iov_count].iov_len = pending.size() - skip;
            if (++iov_count == kMaxWriteIovecs) break;
        }
        msghdr msg{};
        msg.msg_iov = iov;
        msg.msg_iovlen = iov_count;
        const ssize_t n = ::sendmsg(connection.fd, &msg, MSG_NOSIGNAL);
        if (n >= 0) {
            {
                const std::lock_guard<std::mutex> lock(stats_mutex_);
                ++stats_.writev_batches;
                if (iov_count > stats_.frames_per_writev_max) {
                    stats_.frames_per_writev_max = iov_count;
                }
            }
            // A short write may stop anywhere in the batch — drop the
            // fully accepted frames, keep the partial one's offset.
            std::size_t taken = static_cast<std::size_t>(n);
            while (!connection.out.empty()) {
                const std::size_t remaining =
                    connection.out.front().size() - connection.out_pos;
                if (taken < remaining) {
                    connection.out_pos += taken;
                    break;
                }
                taken -= remaining;
                connection.out.pop_front();
                connection.out_pos = 0;
            }
            continue;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            // Kernel buffer full — the slow-reader path. Keep the
            // remainder and let EPOLLOUT resume it; the loop moves on.
            if (!connection.want_write) {
                connection.want_write = true;
                {
                    const std::lock_guard<std::mutex> lock(stats_mutex_);
                    ++stats_.epollout_arms;
                }
                update_interest(connection);
            }
            return;
        }
        connection.broken = true;  // EPIPE/ECONNRESET: reader went away
        return;
    }
    if (connection.want_write) {
        connection.want_write = false;
        update_interest(connection);
    }
}

void Reactor::update_interest(Connection& connection) {
    epoll_event event{};
    event.data.u64 = connection.id;
    event.events = 0;
    if (!connection.peer_closed) event.events |= EPOLLIN;
    if (connection.want_write) event.events |= EPOLLOUT;
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, connection.fd, &event);
}

void Reactor::reap(std::uint64_t connection_id) {
    const auto it = connections_.find(connection_id);
    if (it == connections_.end()) return;
    Connection& connection = *it->second;
    const bool drained =
        inflight(connection) == 0 && connection.out.empty();
    if (connection.broken || (connection.peer_closed && drained)) {
        close_connection(connection);
    }
}

void Reactor::close_connection(Connection& connection) {
    const std::uint64_t id = connection.id;
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, connection.fd, nullptr);
    ::shutdown(connection.fd, SHUT_RDWR);
    ::close(connection.fd);
    connections_.erase(id);  // invalidates `connection`
}

void Reactor::close_listener() {
    if (listen_fd_ < 0) return;
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
    accept_backoff_ms_ = 0;
}

void Reactor::close_all_connections() {
    while (!connections_.empty()) {
        close_connection(*connections_.begin()->second);
    }
}

bool Reactor::connections_drained() const {
    for (const auto& [id, connection] : connections_) {
        (void)id;
        if (inflight(*connection) != 0 || !connection->out.empty()) {
            return false;
        }
    }
    return true;
}

}  // namespace rustbrain::serve
