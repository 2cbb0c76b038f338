// Minimal transport for the serving protocol: a byte-stream abstraction
// plus POSIX TCP and file-descriptor implementations.
//
// The protocol layer (net/protocol.hpp) frames messages over a Stream.
// Streams are blocking — the client side and the stdin/stdout mode of
// the Server use them as is — and shutdown is cooperative: interrupt()
// unblocks a peer stuck in read()/write() so graceful teardown never
// hangs.  The Server's event loops take raw nonblocking descriptors
// from the TcpListener instead.
//
// IPv4 only, numeric addresses plus "localhost"; all errors surface as
// net_error with errno context.
#ifndef CCQ_NET_SOCKET_HPP
#define CCQ_NET_SOCKET_HPP

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>

namespace ccq {

/// Thrown on transport-level failures (connect/bind/read/write).
class net_error : public std::runtime_error {
public:
    explicit net_error(const std::string& what_arg) : std::runtime_error(what_arg) {}
};

/// A blocking, bidirectional byte stream.
class Stream {
public:
    virtual ~Stream() = default;

    /// Reads up to `count` bytes; returns the number read, 0 on clean EOF.
    [[nodiscard]] virtual std::size_t read_some(void* buffer, std::size_t count) = 0;

    /// Writes all `count` bytes (looping over partial writes).
    virtual void write_all(const void* buffer, std::size_t count) = 0;

    /// Unblocks any thread stuck in read_some/write_all on this stream
    /// (best effort; used for graceful server shutdown).
    virtual void interrupt() noexcept = 0;
};

/// Stream over a pair of plain file descriptors (e.g. stdin/stdout, or a
/// socketpair end).  Never closes borrowed descriptors.
class FdStream : public Stream {
public:
    /// `owns` transfers ownership of both descriptors (close on destroy).
    /// read_fd and write_fd may be equal (a socket) or distinct (pipes).
    FdStream(int read_fd, int write_fd, bool owns);
    ~FdStream() override;
    FdStream(const FdStream&) = delete;
    FdStream& operator=(const FdStream&) = delete;

    [[nodiscard]] std::size_t read_some(void* buffer, std::size_t count) override;
    void write_all(const void* buffer, std::size_t count) override;
    void interrupt() noexcept override;

private:
    int read_fd_;
    int write_fd_;
    bool owns_;
};

/// A connected TCP socket.
class TcpStream : public Stream {
public:
    explicit TcpStream(int fd); ///< takes ownership of a connected socket
    ~TcpStream() override;
    TcpStream(const TcpStream&) = delete;
    TcpStream& operator=(const TcpStream&) = delete;

    /// Connects to host:port ("localhost" or a numeric IPv4 address).
    [[nodiscard]] static std::unique_ptr<TcpStream> connect(const std::string& host, int port);

    [[nodiscard]] std::size_t read_some(void* buffer, std::size_t count) override;
    void write_all(const void* buffer, std::size_t count) override;
    void interrupt() noexcept override;

    /// The raw descriptor (still owned by this stream) — for callers
    /// that multiplex many streams through a readiness API.
    [[nodiscard]] int native_handle() const noexcept { return fd_; }

    /// Switches the socket between blocking (default) and nonblocking.
    void set_nonblocking(bool nonblocking);

    /// Gives up ownership of the descriptor: returns it and leaves the
    /// stream empty (the destructor then closes nothing).  For callers
    /// that keep only the fd, like the epoll connection table.
    [[nodiscard]] int release_fd() noexcept
    {
        const int fd = fd_;
        fd_ = -1;
        return fd;
    }

private:
    int fd_;
};

/// Sets O_NONBLOCK on any descriptor; throws net_error on failure.
void set_fd_nonblocking(int fd, bool nonblocking);

/// Best-effort bump of RLIMIT_NOFILE so `need` descriptors fit (load
/// generators and the >=1k-connection tests need more than the common
/// 1024 soft default).  Returns true when the limit already suffices or
/// was raised; never throws — callers surface EMFILE naturally later.
bool raise_fd_limit(std::size_t need) noexcept;

/// A nonblocking listening TCP socket for readiness loops (SO_REUSEADDR;
/// port 0 picks an ephemeral port).
class TcpListener {
public:
    TcpListener(const std::string& host, int port);
    ~TcpListener();
    TcpListener(const TcpListener&) = delete;
    TcpListener& operator=(const TcpListener&) = delete;

    /// The bound port (useful after binding port 0).
    [[nodiscard]] int port() const noexcept { return port_; }

    /// Stops accepting: shutdown(2), which also wakes every readiness
    /// loop watching the listener.  Async-signal-safe.
    void close() noexcept;

    /// The raw listening descriptor (owned) — for readiness loops.
    [[nodiscard]] int native_handle() const noexcept { return fd_; }

private:
    int fd_ = -1;
    int port_ = 0;
};

} // namespace ccq

#endif // CCQ_NET_SOCKET_HPP
