// One event loop of the serving front-end.
//
// Server::run() starts `ServerConfig::workers` of these, one thread
// each.  Every loop has its own epoll set and its own connections; all
// loops share the one listening socket, registered with EPOLLEXCLUSIVE
// so an incoming connection wakes one idle loop rather than all of
// them.  Whichever loop accepts, connections are dealt out round-robin
// in accept order (the others get theirs through hand_over()), so a
// burst of connects spreads over every loop; the owning loop keeps a
// connection for its whole life.
// Sockets are nonblocking and each connection reassembles frames
// incrementally (a frame may arrive across many EPOLLIN events).
// Connections are level-triggered, so a readiness event reads only
// until a short read: whatever arrives after it is reported again.  The
// loop answers each complete frame inline — Server::process_frame on
// the loop thread, no queue, no worker handoff — and appends the framed
// reply to the connection's output buffer, so replies leave in request
// order by construction.
//
// Backpressure is the output-byte cap alone: once `max_output_bytes`
// of replies are queued toward a connection, the loop stops reading and
// answering it (the kernel's receive window then pushes back on the
// peer) until the queue drains below half.  Slow readers therefore cost
// one bounded buffer, not unbounded memory.
#ifndef CCQ_NET_EPOLL_SERVER_HPP
#define CCQ_NET_EPOLL_SERVER_HPP

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ccq/net/protocol.hpp"
#include "ccq/net/server.hpp"

namespace ccq {

class EpollLoop {
public:
    /// Binds to a listening Server (friend access to its counters,
    /// config, and process_frame) as loop number `index`.  run() serves
    /// until the server stops.
    EpollLoop(Server& server, int index);
    ~EpollLoop();
    EpollLoop(const EpollLoop&) = delete;
    EpollLoop& operator=(const EpollLoop&) = delete;

    /// The readiness loop: accept, read, answer, flush — until
    /// Server::request_stop(), then flush what is owed and return.
    void run();

    /// Gives this loop a connection another loop accepted (connection
    /// `id`, nonblocking `fd`).  Callable from any thread.
    void hand_over(int fd, std::uint64_t id);

private:
    /// Per-connection state, owned exclusively by this loop's thread.
    struct Conn {
        int fd = -1;
        std::uint64_t id = 0;
        FrameDecoder decoder;
        std::string out;             ///< framed replies awaiting the socket
        std::size_t out_offset = 0;  ///< flushed prefix of `out`
        bool paused = false;  ///< reads stopped for backpressure
        bool peer_eof = false;  ///< peer sent EOF; flush replies, then close
        bool poisoned = false;  ///< framing desync; stop reading, flush, close
        bool broken = false;    ///< transport error; close immediately
        std::uint32_t armed_events = 0; ///< epoll interest currently registered
        /// Flight-recorder watermarks: bytes ever queued into / flushed
        /// out of `out`.  A request's record commits once the flushed
        /// total passes the queued total at its encode time; records on
        /// connections that die with unflushed replies are dropped.
        std::uint64_t bytes_queued_total = 0;
        std::uint64_t bytes_flushed_total = 0;
        std::deque<std::pair<std::uint64_t, PendingRequest>> awaiting_flush;
    };

    void accept_ready();
    /// Registers the connections other loops handed over.
    void adopt_handed();
    void adopt_conn(int fd, std::uint64_t id);
    void conn_readable(Conn& conn);
    /// Answers complete frames from the decoder, in order, while the
    /// connection's queued output is under the cap.
    void answer_frames(Conn& conn);
    void flush(Conn& conn);
    /// Answers and flushes what it can, reconciles epoll interest and
    /// pause state with the output queue, and closes the connection
    /// when it has nothing left to live for.
    void update_conn(Conn& conn);
    void close_conn(Conn& conn);
    /// False once the peer sent EOF, the framing desynced, or the
    /// server is draining: the connection only delivers what it owes.
    [[nodiscard]] bool reads_open(const Conn& conn) const
    {
        return !conn.peer_eof && !conn.poisoned && !draining_;
    }
    void set_interest(Conn& conn);
    void begin_drain();

    Server& server_;
    obs::Counter* dealt_; ///< ccq_loop_connections_total{loop=index}
    int epoll_fd_ = -1;
    int wakeup_fd_ = -1; ///< the Server's stop eventfd
    int handoff_fd_ = -1; ///< this loop's eventfd: hand_over() queued a connection
    std::mutex handed_mutex_;
    std::vector<std::pair<int, std::uint64_t>> handed_; ///< (fd, id), guarded
    int listener_fd_ = -1;
    bool listener_armed_ = false;
    std::chrono::steady_clock::time_point listener_rearm_at_{};
    bool draining_ = false;
    std::chrono::steady_clock::time_point drain_deadline_{};

    std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
};

} // namespace ccq

#endif // CCQ_NET_EPOLL_SERVER_HPP
