#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

namespace rustbrain::serve {

namespace {

/// Closes `fd` (keeping the failing call's errno) and throws.
[[noreturn]] void fail_closing(int fd, const char* what) {
    const int saved = errno;
    if (fd >= 0) ::close(fd);
    throw std::runtime_error(std::string(what) + ": " + std::strerror(saved));
}

/// A listening socket on 127.0.0.1:`port`; `bound_port` receives the port
/// the kernel actually assigned.
int listen_loopback(std::uint16_t port, std::uint16_t& bound_port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) fail_closing(fd, "socket");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
        0) {
        fail_closing(fd, "bind 127.0.0.1");
    }
    socklen_t addr_len = sizeof addr;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) !=
        0) {
        fail_closing(fd, "getsockname");
    }
    bound_port = ntohs(addr.sin_port);
    if (::listen(fd, 16) != 0) fail_closing(fd, "listen");
    return fd;
}

}  // namespace

RepairServer::RepairServer(ServerOptions options)
    : options_(std::move(options)), service_(options_.service) {
    const int listen_fd = listen_loopback(options_.port, port_);
    // The reactor takes ownership of the listening fd.
    reactor_ = std::make_unique<Reactor>(listen_fd, service_, options_);
}

RepairServer::~RepairServer() { stop(); }

void RepairServer::stop() { reactor_->stop(); }

void RepairServer::wait() {
    reactor_->wait();
    stop();
}

}  // namespace rustbrain::serve
