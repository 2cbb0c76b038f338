#include "ccq/net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "ccq/common/check.hpp"

namespace ccq {
namespace {

[[nodiscard]] std::string errno_text(const std::string& what)
{
    return what + ": " + std::strerror(errno);
}

[[nodiscard]] sockaddr_in make_address(const std::string& host, int port)
{
    CCQ_EXPECT(port >= 0 && port <= 65535, "make_address: port out of range");
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
    if (::inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1)
        throw net_error("unsupported address '" + host + "' (numeric IPv4 or localhost)");
    return addr;
}

} // namespace

// --- FdStream ---------------------------------------------------------------

FdStream::FdStream(int read_fd, int write_fd, bool owns)
    : read_fd_(read_fd), write_fd_(write_fd), owns_(owns)
{
    CCQ_EXPECT(read_fd >= 0 && write_fd >= 0, "FdStream: invalid descriptor");
}

FdStream::~FdStream()
{
    if (owns_) {
        ::close(read_fd_);
        if (write_fd_ != read_fd_) ::close(write_fd_);
    }
}

std::size_t FdStream::read_some(void* buffer, std::size_t count)
{
    while (true) {
        const ssize_t got = ::read(read_fd_, buffer, count);
        if (got >= 0) return static_cast<std::size_t>(got);
        if (errno == EINTR) continue;
        throw net_error(errno_text("read"));
    }
}

void FdStream::write_all(const void* buffer, std::size_t count)
{
    const char* cursor = static_cast<const char*>(buffer);
    while (count > 0) {
        const ssize_t wrote = ::write(write_fd_, cursor, count);
        if (wrote < 0) {
            if (errno == EINTR) continue;
            throw net_error(errno_text("write"));
        }
        cursor += wrote;
        count -= static_cast<std::size_t>(wrote);
    }
}

void FdStream::interrupt() noexcept
{
    // Only sockets support shutdown; for pipes this is a harmless no-op
    // (ENOTSOCK), and the owner unblocks the peer by closing its end.
    ::shutdown(read_fd_, SHUT_RDWR);
    if (write_fd_ != read_fd_) ::shutdown(write_fd_, SHUT_RDWR);
}

// --- TcpStream --------------------------------------------------------------

TcpStream::TcpStream(int fd) : fd_(fd)
{
    CCQ_EXPECT(fd >= 0, "TcpStream: invalid descriptor");
    // Request/response framing sends small frames; never batch them.
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

TcpStream::~TcpStream()
{
    if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<TcpStream> TcpStream::connect(const std::string& host, int port)
{
    const sockaddr_in addr = make_address(host, port);
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw net_error(errno_text("socket"));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        const std::string text = errno_text("connect to " + host + ":" +
                                            std::to_string(port));
        ::close(fd);
        throw net_error(text);
    }
    return std::make_unique<TcpStream>(fd);
}

std::size_t TcpStream::read_some(void* buffer, std::size_t count)
{
    while (true) {
        const ssize_t got = ::recv(fd_, buffer, count, 0);
        if (got >= 0) return static_cast<std::size_t>(got);
        if (errno == EINTR) continue;
        throw net_error(errno_text("recv"));
    }
}

void TcpStream::write_all(const void* buffer, std::size_t count)
{
    const char* cursor = static_cast<const char*>(buffer);
    while (count > 0) {
        // MSG_NOSIGNAL: a peer that vanished mid-reply must surface as
        // net_error (EPIPE), not kill the server process with SIGPIPE.
        const ssize_t wrote = ::send(fd_, cursor, count, MSG_NOSIGNAL);
        if (wrote < 0) {
            if (errno == EINTR) continue;
            throw net_error(errno_text("send"));
        }
        cursor += wrote;
        count -= static_cast<std::size_t>(wrote);
    }
}

void TcpStream::interrupt() noexcept { ::shutdown(fd_, SHUT_RDWR); }

void TcpStream::set_nonblocking(bool nonblocking) { set_fd_nonblocking(fd_, nonblocking); }

void set_fd_nonblocking(int fd, bool nonblocking)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0) throw net_error(errno_text("fcntl(F_GETFL)"));
    const int wanted = nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
    if (wanted != flags && ::fcntl(fd, F_SETFL, wanted) != 0)
        throw net_error(errno_text("fcntl(F_SETFL)"));
}

bool raise_fd_limit(std::size_t need) noexcept
{
    rlimit limit = {};
    if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return false;
    if (limit.rlim_cur == RLIM_INFINITY || limit.rlim_cur >= need) return true;
    rlimit raised = limit;
    raised.rlim_cur = limit.rlim_max == RLIM_INFINITY
                          ? static_cast<rlim_t>(need)
                          : std::min(static_cast<rlim_t>(need), limit.rlim_max);
    if (raised.rlim_cur <= limit.rlim_cur) return false;
    if (::setrlimit(RLIMIT_NOFILE, &raised) != 0) return false;
    return raised.rlim_cur >= need;
}

// --- TcpListener ------------------------------------------------------------

TcpListener::TcpListener(const std::string& host, int port)
{
    const sockaddr_in requested = make_address(host, port);
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd_ < 0) throw net_error(errno_text("socket"));
    const int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&requested), sizeof(requested)) != 0) {
        const std::string text =
            errno_text("bind to " + host + ":" + std::to_string(port));
        ::close(fd_);
        fd_ = -1;
        throw net_error(text);
    }
    if (::listen(fd_, 64) != 0) {
        const std::string text = errno_text("listen");
        ::close(fd_);
        fd_ = -1;
        throw net_error(text);
    }
    sockaddr_in bound = {};
    socklen_t length = sizeof(bound);
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &length) != 0) {
        const std::string text = errno_text("getsockname");
        ::close(fd_);
        fd_ = -1;
        throw net_error(text);
    }
    port_ = static_cast<int>(ntohs(bound.sin_port));
}

TcpListener::~TcpListener()
{
    if (fd_ >= 0) ::close(fd_);
}

void TcpListener::close() noexcept
{
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR); // async-signal-safe unblock
}

} // namespace ccq
