#include "svc/poller.h"

#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>

#include "svc/socket.h"

#if defined(WRPT_POLLER_HAS_EPOLL)
#include <sys/epoll.h>
#endif

namespace wrpt::svc {

namespace {

bool env_forces_poll() {
    const char* v = std::getenv("WRPT_FORCE_POLL");
    return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

// Relaxed atomics: the flag is a coarse mode switch read once per poller
// construction; tests flip it between (not during) server lifetimes.
std::atomic<bool> force_poll_flag{env_forces_poll()};

}  // namespace

bool poller::poll_forced() {
#if defined(WRPT_POLLER_HAS_EPOLL)
    return force_poll_flag.load(std::memory_order_relaxed);
#else
    return true;  // no epoll on this platform
#endif
}

void poller::set_force_poll(bool force) {
    force_poll_flag.store(force, std::memory_order_relaxed);
}

const char* poller::backend_name() const {
    return use_poll_ ? "poll" : "epoll";
}

poller::poller() {
#if defined(WRPT_POLLER_HAS_EPOLL)
    if (!poll_forced()) {
        epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
        if (epoll_fd_ < 0)
            throw errno_error("poller: cannot create epoll instance", errno);
        use_poll_ = false;
        return;
    }
#endif
    use_poll_ = true;
}

poller::~poller() {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

// --- epoll backend ----------------------------------------------------------

#if defined(WRPT_POLLER_HAS_EPOLL)

namespace {

epoll_event make_event(std::uint64_t key, bool read, bool write) {
    epoll_event ev{};
    ev.events = 0;
    if (read) ev.events |= EPOLLIN;
    if (write) ev.events |= EPOLLOUT;
    ev.data.u64 = key;
    return ev;
}

}  // namespace

#endif  // WRPT_POLLER_HAS_EPOLL

void poller::add(int fd, std::uint64_t key, bool read, bool write) {
#if defined(WRPT_POLLER_HAS_EPOLL)
    if (!use_poll_) {
        epoll_event ev = make_event(key, read, write);
        if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0)
            throw errno_error("poller: cannot register fd", errno);
        return;
    }
#endif
    entries_.push_back({fd, key, read, write});
}

void poller::modify(int fd, std::uint64_t key, bool read, bool write) {
#if defined(WRPT_POLLER_HAS_EPOLL)
    if (!use_poll_) {
        epoll_event ev = make_event(key, read, write);
        if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0)
            throw errno_error("poller: cannot modify fd interest", errno);
        return;
    }
#endif
    for (entry& e : entries_) {
        if (e.fd == fd) {
            e.key = key;
            e.read = read;
            e.write = write;
            return;
        }
    }
    throw socket_error("poller: modify of an unregistered fd");
}

void poller::remove(int fd) {
#if defined(WRPT_POLLER_HAS_EPOLL)
    if (!use_poll_) {
        epoll_event ev{};
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, &ev);
        return;
    }
#endif
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (entries_[i].fd == fd) {
            entries_.erase(entries_.begin() +
                           static_cast<std::ptrdiff_t>(i));
            return;
        }
    }
}

std::size_t poller::wait(std::vector<event>& out, int timeout_ms) {
    out.clear();
#if defined(WRPT_POLLER_HAS_EPOLL)
    if (!use_poll_) {
        epoll_event events[128];
        int n;
        do {
            n = ::epoll_wait(epoll_fd_, events,
                             static_cast<int>(std::size(events)),
                             timeout_ms);
        } while (n < 0 && errno == EINTR);
        if (n < 0) throw errno_error("poller: epoll_wait failed", errno);
        out.reserve(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
            event e;
            e.key = events[i].data.u64;
            e.hangup = (events[i].events & (EPOLLHUP | EPOLLERR)) != 0;
            e.readable = (events[i].events & EPOLLIN) != 0 || e.hangup;
            e.writable = (events[i].events & EPOLLOUT) != 0 || e.hangup;
            out.push_back(e);
        }
        return out.size();
    }
#endif
    std::vector<pollfd> fds;
    fds.reserve(entries_.size());
    for (const entry& e : entries_) {
        pollfd p{};
        p.fd = e.fd;
        p.events = 0;
        if (e.read) p.events |= POLLIN;
        if (e.write) p.events |= POLLOUT;
        fds.push_back(p);
    }
    int n;
    do {
        n = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
    } while (n < 0 && errno == EINTR);
    if (n < 0) throw errno_error("poller: poll failed", errno);
    for (std::size_t i = 0; i < fds.size(); ++i) {
        if (fds[i].revents == 0) continue;
        event e;
        e.key = entries_[i].key;
        e.hangup = (fds[i].revents & (POLLHUP | POLLERR | POLLNVAL)) != 0;
        e.readable = (fds[i].revents & POLLIN) != 0 || e.hangup;
        e.writable = (fds[i].revents & POLLOUT) != 0 || e.hangup;
        out.push_back(e);
    }
    return out.size();
}

}  // namespace wrpt::svc
