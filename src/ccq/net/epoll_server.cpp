#include "ccq/net/epoll_server.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "ccq/common/check.hpp"
#include "ccq/net/server.hpp"
#include "ccq/obs/log.hpp"

namespace ccq {
namespace {

// epoll_event.data.u64 identities no connection id reaches (connection
// ids count up from 1).
constexpr std::uint64_t kListenerId = ~std::uint64_t{0};
constexpr std::uint64_t kWakeupId = kListenerId - 1;
constexpr std::uint64_t kHandoffId = kListenerId - 2;
/// Every loop watches the shared listener; EPOLLEXCLUSIVE wakes one of
/// them per incoming connection instead of the whole herd.
constexpr std::uint32_t kListenerEvents = EPOLLIN | EPOLLEXCLUSIVE;

constexpr auto kListenerBackoff = std::chrono::milliseconds(50);
constexpr auto kDrainTimeout = std::chrono::seconds(5);
constexpr std::size_t kReadChunk = 64 * 1024;
/// Per-readiness-event read budget: level-triggered epoll re-reports a
/// socket with leftover bytes, so bounding one event's reads keeps a
/// firehose connection from starving the rest.
constexpr std::size_t kReadBudget = 4 * kReadChunk;

[[nodiscard]] std::string errno_text(const char* what)
{
    return std::string(what) + ": " + std::strerror(errno);
}

void epoll_apply(int epoll_fd, int op, int fd, std::uint32_t events, std::uint64_t id)
{
    epoll_event event = {};
    event.events = events;
    event.data.u64 = id;
    if (::epoll_ctl(epoll_fd, op, fd, &event) != 0)
        throw net_error(errno_text("epoll_ctl"));
}

[[nodiscard]] int timeout_ms_until(std::chrono::steady_clock::time_point when)
{
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        when - std::chrono::steady_clock::now());
    return left.count() <= 0 ? 0 : static_cast<int>(left.count());
}

} // namespace

EpollLoop::EpollLoop(Server& server, int index)
    : server_(server),
      dealt_(&server.registry_.counter("ccq_loop_connections_total",
                                          "Connections dealt to each event loop.",
                                          {{"loop", std::to_string(index)}}))
{
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) throw net_error(errno_text("epoll_create1"));
    // The stop eventfd is owned by the Server (created in Server::run,
    // closed in ~Server), not by the loop: request_stop() may write it
    // from any thread or signal handler at any point in the Server's
    // lifetime, so closing it here would race those writes.
    wakeup_fd_ = server_.loop_wakeup_fd_.load(std::memory_order_acquire);
    CCQ_EXPECT(wakeup_fd_ >= 0, "EpollLoop: server did not create the wakeup eventfd");
    handoff_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (handoff_fd_ < 0) {
        const std::string text = errno_text("eventfd");
        ::close(epoll_fd_);
        throw net_error(text);
    }
}

EpollLoop::~EpollLoop()
{
    for (auto& [id, conn] : conns_)
        if (conn->fd >= 0) ::close(conn->fd);
    // Connections handed over after this loop had returned from run():
    // every loop has joined by now, so nothing races these.
    for (const auto& [fd, id] : handed_) {
        ::close(fd);
        server_.active_connections_.fetch_sub(1, std::memory_order_acq_rel);
    }
    ::close(handoff_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EpollLoop::run()
{
    CCQ_EXPECT(server_.listener_.has_value(), "EpollLoop::run: server is not listening");
    listener_fd_ = server_.listener_->native_handle();
    epoll_apply(epoll_fd_, EPOLL_CTL_ADD, listener_fd_, kListenerEvents, kListenerId);
    listener_armed_ = true;
    epoll_apply(epoll_fd_, EPOLL_CTL_ADD, wakeup_fd_, EPOLLIN, kWakeupId);
    epoll_apply(epoll_fd_, EPOLL_CTL_ADD, handoff_fd_, EPOLLIN, kHandoffId);

    // The stop eventfd was published by Server::run() before this loop
    // was constructed; re-check the stop flag because a request_stop()
    // that ran before the publish could not have written the eventfd.
    if (server_.stopping()) begin_drain();

    epoll_event events[128];
    while (!(draining_ && conns_.empty())) {
        int timeout = -1;
        if (draining_)
            timeout = timeout_ms_until(drain_deadline_);
        else if (!listener_armed_)
            timeout = timeout_ms_until(listener_rearm_at_);

        const int ready =
            ::epoll_wait(epoll_fd_, events, static_cast<int>(sizeof(events) / sizeof(events[0])), timeout);
        if (ready < 0) {
            if (errno == EINTR) continue;
            throw net_error(errno_text("epoll_wait"));
        }
        for (int i = 0; i < ready; ++i) {
            const std::uint64_t id = events[i].data.u64;
            const std::uint32_t what = events[i].events;
            if (id == kWakeupId) continue; // stop: handled after the batch
            if (id == kHandoffId) {
                adopt_handed();
                continue;
            }
            if (id == kListenerId) {
                accept_ready();
                continue;
            }
            // Re-look up per event: an earlier event in this very batch
            // (a listener error, a drain) may have closed this
            // connection already.
            const auto it = conns_.find(id);
            if (it == conns_.end()) continue;
            Conn& conn = *it->second;
            if ((what & (EPOLLERR | EPOLLHUP)) != 0)
                conn.broken = true;
            else if ((what & (EPOLLIN | EPOLLRDHUP)) != 0)
                conn_readable(conn);
            update_conn(conn);
        }

        if (server_.stopping() && !draining_) begin_drain();
        if (!draining_ && !listener_armed_ &&
            std::chrono::steady_clock::now() >= listener_rearm_at_) {
            epoll_apply(epoll_fd_, EPOLL_CTL_ADD, listener_fd_, kListenerEvents, kListenerId);
            listener_armed_ = true;
        }
        if (draining_ && !conns_.empty() &&
            std::chrono::steady_clock::now() >= drain_deadline_) {
            // Drain timeout: whoever has not taken their reply by now
            // is not going to.
            while (!conns_.empty()) close_conn(*conns_.begin()->second);
        }
    }
}

void EpollLoop::begin_drain()
{
    draining_ = true;
    drain_deadline_ = std::chrono::steady_clock::now() + kDrainTimeout;
    server_.listener_->close(); // idempotent; also done by request_stop()
    if (listener_armed_) {
        epoll_apply(epoll_fd_, EPOLL_CTL_DEL, listener_fd_, 0, kListenerId);
        listener_armed_ = false;
    }
    // Nobody reads the stop eventfd, so it stays readable for every
    // loop; this one has seen it and stops watching.
    epoll_apply(epoll_fd_, EPOLL_CTL_DEL, wakeup_fd_, 0, kWakeupId);
    // Stop reading everywhere; already-buffered complete frames still get
    // answered (`shutting_down`, by process_frame), queued replies still
    // flush.  update_conn closes whoever is already idle.
    std::vector<std::uint64_t> ids;
    ids.reserve(conns_.size());
    for (const auto& [conn_id, conn] : conns_) ids.push_back(conn_id);
    for (const std::uint64_t conn_id : ids) {
        const auto it = conns_.find(conn_id);
        if (it != conns_.end()) update_conn(*it->second);
    }
}

void EpollLoop::accept_ready()
{
    while (!draining_) {
        const int fd = ::accept4(listener_fd_, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            // EAGAIN is also how a loop loses the race for a connection
            // another loop accepted first.
            if (errno == EAGAIN || errno == EWOULDBLOCK) return;
            if (errno == EINTR || errno == ECONNABORTED) continue;
            if (errno == EMFILE || errno == ENFILE) {
                // Out of descriptors: connections close and free some up,
                // so log and back off instead of spinning on a listener
                // that stays readable (level-triggered) the whole time.
                CCQ_LOG_WARN("accept failed (%s); still listening", std::strerror(errno));
                epoll_apply(epoll_fd_, EPOLL_CTL_DEL, listener_fd_, 0, kListenerId);
                listener_armed_ = false;
                listener_rearm_at_ = std::chrono::steady_clock::now() + kListenerBackoff;
                return;
            }
            if (server_.stopping()) return; // closed listener fails accept
            throw net_error(errno_text("accept4"));
        }
        TcpStream stream(fd); // owns fd, sets TCP_NODELAY
        // Reserve the slot server-wide before registering, so the limit
        // is exact however many loops accept at once.
        const std::uint64_t live =
            server_.active_connections_.fetch_add(1, std::memory_order_acq_rel) + 1;
        const int limit = server_.config_.max_connections;
        if (limit > 0 && live > static_cast<std::uint64_t>(limit)) {
            server_.active_connections_.fetch_sub(1, std::memory_order_acq_rel);
            // Fresh socket, empty send buffer: the busy frame fits
            // without blocking even though the fd is nonblocking.
            server_.shed_connection(stream);
            continue; // stream destruction closes the shed socket
        }
        // Deal connections round-robin in accept order, whichever loop
        // won the accept: a burst of connects that one loop drains from
        // the backlog still spreads over every loop.
        const std::uint64_t id =
            server_.connections_accepted_.fetch_add(1, std::memory_order_relaxed) + 1;
        EpollLoop& owner = *server_.loops_[(id - 1) % server_.loops_.size()];
        if (&owner == this)
            adopt_conn(stream.release_fd(), id);
        else
            owner.hand_over(stream.release_fd(), id);
    }
}

void EpollLoop::hand_over(int fd, std::uint64_t id)
{
    {
        std::lock_guard<std::mutex> lock(handed_mutex_);
        handed_.emplace_back(fd, id);
    }
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t ignored = ::write(handoff_fd_, &one, sizeof(one));
}

void EpollLoop::adopt_handed()
{
    std::uint64_t count = 0;
    [[maybe_unused]] const ssize_t ignored = ::read(handoff_fd_, &count, sizeof(count));
    std::vector<std::pair<int, std::uint64_t>> handed;
    {
        std::lock_guard<std::mutex> lock(handed_mutex_);
        handed.swap(handed_);
    }
    for (const auto& [fd, id] : handed) adopt_conn(fd, id);
}

void EpollLoop::adopt_conn(int fd, std::uint64_t id)
{
    auto owned = std::make_unique<Conn>();
    Conn& conn = *owned;
    conn.fd = fd;
    conn.id = id;
    conn.armed_events = EPOLLIN | EPOLLRDHUP;
    conns_.emplace(conn.id, std::move(owned));
    epoll_apply(epoll_fd_, EPOLL_CTL_ADD, conn.fd, conn.armed_events, conn.id);
    dealt_->add(1);
    server_.note_conn_opened(conn.id);
    if (draining_) close_conn(conn); // handed over after this loop began to drain
}

void EpollLoop::conn_readable(Conn& conn)
{
    if (conn.paused || conn.broken || !reads_open(conn)) return;
    char buffer[kReadChunk];
    std::size_t taken = 0;
    while (taken < kReadBudget) {
        const ssize_t got = ::recv(conn.fd, buffer, sizeof(buffer), 0);
        if (got > 0) {
            conn.decoder.feed(std::string_view(buffer, static_cast<std::size_t>(got)));
            taken += static_cast<std::size_t>(got);
            // A short read took everything the socket held.  Connections
            // are level-triggered, so bytes or an EOF arriving later are
            // reported by the next epoll_wait; probing for EAGAIN here
            // would only cost a recv.
            if (static_cast<std::size_t>(got) < sizeof(buffer)) break;
            continue;
        }
        if (got == 0) {
            conn.peer_eof = true;
            break;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        conn.broken = true;
        break;
    }
    if (taken > 0 && server_.config_.metrics) server_.add_bytes_read(taken);
}

void EpollLoop::answer_frames(Conn& conn)
{
    using clock = std::chrono::steady_clock;
    while (!conn.paused && conn.out.size() - conn.out_offset < server_.config_.max_output_bytes) {
        const std::optional<std::string> body = conn.decoder.next();
        if (!body.has_value()) return;
        PendingRequest pending;
        pending.rec.conn_id = conn.id;
        pending.enqueued = clock::now();
        bool shutdown_now = false;
        std::string reply;
        try {
            reply = server_.process_frame(*body, shutdown_now, &pending);
        } catch (const std::exception& error) {
            // process_frame answers its own failures; this is the
            // out-of-memory / logic-bug backstop.
            reply = encode_error_reply(Status::internal, error.what());
            pending.rec.status = static_cast<std::uint8_t>(Status::internal);
        }
        pending.encode_start = clock::now();
        conn.out += encode_frame(reply);
        pending.encode_end = clock::now();
        pending.rec.reply_bytes = static_cast<std::uint32_t>(4 + reply.size());
        conn.bytes_queued_total += 4 + reply.size();
        conn.awaiting_flush.emplace_back(conn.bytes_queued_total, std::move(pending));
        if (shutdown_now) server_.request_stop();
    }
}

void EpollLoop::flush(Conn& conn)
{
    std::size_t sent = 0;
    while (conn.out_offset < conn.out.size()) {
        const ssize_t wrote = ::send(conn.fd, conn.out.data() + conn.out_offset,
                                     conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
        if (wrote > 0) {
            conn.out_offset += static_cast<std::size_t>(wrote);
            sent += static_cast<std::size_t>(wrote);
            continue;
        }
        if (wrote < 0 && errno == EINTR) continue;
        if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        conn.broken = true; // EPIPE, ECONNRESET, ...
        break;
    }
    if (sent > 0 && server_.config_.metrics) server_.add_bytes_written(sent);
    if (sent > 0) {
        // Commit every request whose reply bytes are now fully on the
        // socket: its flush stage ends here.
        conn.bytes_flushed_total += sent;
        const auto flushed_at = std::chrono::steady_clock::now();
        while (!conn.awaiting_flush.empty() &&
               conn.awaiting_flush.front().first <= conn.bytes_flushed_total) {
            server_.commit_request(conn.awaiting_flush.front().second, flushed_at);
            conn.awaiting_flush.pop_front();
        }
    }
    if (conn.broken) return;
    if (conn.out_offset == conn.out.size()) {
        conn.out.clear();
        conn.out_offset = 0;
    } else if (conn.out_offset >= kReadChunk) {
        conn.out.erase(0, conn.out_offset);
        conn.out_offset = 0;
    }
}

void EpollLoop::update_conn(Conn& conn)
{
    const std::size_t cap = server_.config_.max_output_bytes;
    // Answer and flush in turns until the decoder holds no complete
    // frame or the socket pushes back.
    while (!conn.broken) {
        if (!conn.poisoned) {
            try {
                answer_frames(conn);
            } catch (const protocol_error& error) {
                // Framing desync (oversized length prefix): answer
                // everything before the bad frame, then drop the
                // connection.
                conn.poisoned = true;
                server_.note_conn_poisoned(conn.id, error.what());
            }
        }
        const std::size_t queued = conn.out.size() - conn.out_offset;
        if (queued == 0) break;
        if (!conn.paused && queued >= cap && reads_open(conn)) {
            // The output cap stopped answer_frames: reads pause until
            // the queue drains below half.
            conn.paused = true;
            server_.backpressure_pauses_.fetch_add(1, std::memory_order_relaxed);
        }
        flush(conn);
        if (conn.out_offset < conn.out.size()) break; // EPOLLOUT resumes
        conn.paused = false;
    }
    if (conn.broken) {
        close_conn(conn);
        return;
    }
    if (conn.paused && conn.out.size() - conn.out_offset <= cap / 2) conn.paused = false;

    // Once reads have ended (EOF, desync, or server drain), the
    // connection lives only to deliver what it is still owed; the loop
    // above left no complete frame unanswered unless the output is
    // still pending.
    if (!reads_open(conn) && conn.out_offset == conn.out.size()) {
        close_conn(conn);
        return;
    }
    set_interest(conn);
}

void EpollLoop::set_interest(Conn& conn)
{
    std::uint32_t wanted = EPOLLRDHUP;
    if (!conn.paused && reads_open(conn)) wanted |= EPOLLIN;
    if (conn.out_offset < conn.out.size()) wanted |= EPOLLOUT;
    if (wanted == conn.armed_events) return;
    epoll_apply(epoll_fd_, EPOLL_CTL_MOD, conn.fd, wanted, conn.id);
    conn.armed_events = wanted;
}

void EpollLoop::close_conn(Conn& conn)
{
    const std::uint64_t id = conn.id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    conn.fd = -1;
    server_.note_conn_closed(id);
    server_.active_connections_.fetch_sub(1, std::memory_order_acq_rel);
    conns_.erase(id); // destroys `conn`
}

} // namespace ccq
