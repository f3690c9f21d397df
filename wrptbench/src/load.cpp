#include "load.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <stdexcept>
#include <memory>
#include <thread>

#include "daemon.h"
#include "trace.h"
#include "svc/wire.h"

namespace wb {

const char* kind_name(kind k) {
    switch (k) {
        case kind::optimize: return "optimize";
        case kind::test_length: return "test_length";
        case kind::fault_sim: return "fault_sim";
        case kind::stats: return "stats";
        case kind::reload: return "reload_circuit";
        case kind::list: return "list_circuits";
    }
    return "?";
}

std::string wire_line(const wrpt::svc::request& q) {
    return wrpt::svc::encode(q) + "\n";
}

std::int32_t exemplars::intern(std::uint32_t key, std::uint64_t hash,
                               std::string_view line) {
    auto [it, fresh] =
        index_.try_emplace(hash, static_cast<std::int32_t>(entries.size()));
    if (fresh) entries.push_back({key, std::string(line)});
    return it->second;
}

void exemplars::note_error(std::string_view line) {
    if (errors.size() < 8) errors.emplace_back(line);
}

namespace {

/// Value text of `"field":` in `line` (up to the next ',' or '}').
std::string_view field(std::string_view line, std::string_view name,
                       std::size_t* at = nullptr) {
    const std::size_t p = line.find(name);
    if (p == std::string_view::npos) return {};
    const std::size_t b = p + name.size();
    std::size_t e = b;
    while (e < line.size() && line[e] != ',' && line[e] != '}') ++e;
    if (at) *at = p;
    return line.substr(b, e - b);
}

/// Hash of the response without its volatile fields; the key seeds it,
/// so equal text under different keys is kept apart.
std::uint64_t stable_hash(std::string_view line, std::uint32_t key_index,
                          kind k) {
    std::uint64_t h = fnv(std::string_view(
        reinterpret_cast<const char*>(&key_index), sizeof key_index));
    // Every field of a stats or catalog answer moves between calls; the
    // exemplar then checks the envelope shape only.
    if (k == kind::stats || k == kind::list) return fnv("ok", h);
    std::size_t pos = 0;
    for (std::string_view name : {std::string_view("\"cached\":"),
                                  std::string_view("\"elapsed_ms\":")}) {
        std::size_t at = 0;
        const std::string_view v = field(line.substr(pos), name, &at);
        if (v.data() == nullptr) continue;
        h = fnv(line.substr(pos, at), h);
        pos += at + name.size() + v.size();
    }
    return fnv(line.substr(pos), h);
}

}  // namespace

void record_response(std::string_view line, const std::vector<key>& keys,
                     sample& s, exemplars& ex) {
    s.bytes = static_cast<std::uint32_t>(line.size() + 1);
    if (line.substr(0, 64).find("\"ok\":true") == std::string_view::npos) {
        ex.note_error(line);
        return;
    }
    const std::string_view cached = field(line, "\"cached\":");
    s.cached = cached == "true";
    const std::string_view el = field(line, "\"elapsed_ms\":");
    if (!el.empty()) {
        double v = 0.0;
        std::from_chars(el.data(), el.data() + el.size(), v);
        s.elapsed_ms = static_cast<float>(v);
    }
    s.group = ex.intern(s.key, stable_hash(line, s.key, keys[s.key].k), line);
}

namespace {

/// One connection's share of an open-loop phase.
struct conn_state {
    int fd = -1;
    const std::vector<arrival>* plan = nullptr;
    sample* out = nullptr;
    std::string outbuf;
    std::size_t out_off = 0;
    std::string inbuf;
    std::size_t next = 0;  // next arrival to send
    std::size_t head = 0;  // oldest unanswered
    bool dead = false;

    bool done() const { return dead || head == plan->size(); }
};

/// Send what is due, flush, and read what has arrived; never blocks.
void step(conn_state& c, std::int64_t start, const std::vector<key>& keys,
          exemplars& ex, std::vector<char>& chunk, trace* tr,
          std::uint64_t conn_id) {
    const std::vector<arrival>& plan = *c.plan;
    std::int64_t now = now_ns();
    while (c.next < plan.size() && start + plan[c.next].t <= now) {
        sample& s = c.out[c.next];
        s.key = plan[c.next].key;
        s.due = start + plan[c.next].t;
        s.sent = now;
        c.outbuf += keys[s.key].line;
        ++c.next;
    }
    if (c.out_off < c.outbuf.size()) {
        const ssize_t w = ::send(c.fd, c.outbuf.data() + c.out_off,
                                 c.outbuf.size() - c.out_off,
                                 MSG_DONTWAIT | MSG_NOSIGNAL);
        if (w > 0) {
            c.out_off += static_cast<std::size_t>(w);
        } else if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR) {
            c.dead = true;
            return;
        }
        if (c.out_off == c.outbuf.size()) {
            c.outbuf.clear();
            c.out_off = 0;
        }
    }
    if (c.head == c.next) return;  // nothing in flight
    const ssize_t r = ::recv(c.fd, chunk.data(), chunk.size(), MSG_DONTWAIT);
    if (r == 0) {
        c.dead = true;
        return;
    }
    if (r < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
            c.dead = true;
        return;
    }
    now = now_ns();
    c.inbuf.append(chunk.data(), static_cast<std::size_t>(r));
    std::size_t off = 0;
    for (std::size_t nl; (nl = c.inbuf.find('\n', off)) != std::string::npos;
         off = nl + 1) {
        if (c.head >= c.next) {  // an answer to nothing sent
            c.dead = true;
            return;
        }
        sample& s = c.out[c.head++];
        s.recv = now;
        record_response(std::string_view(c.inbuf).substr(off, nl - off), keys,
                        s, ex);
        if (tr) {
            const std::uint64_t id = (conn_id << 32) | c.head;
            const std::int32_t parent = static_cast<std::int32_t>(tr->spans.size());
            tr->add(kind_name(keys[s.key].k), s.due, s.recv, -1, id);
            tr->add("generator.late", s.due, s.sent, parent, id);
        }
    }
    c.inbuf.erase(0, off);
}

}  // namespace

open_result run_open(const std::vector<int>& fds,
                     const std::vector<std::vector<arrival>>& plan,
                     double seconds, const std::vector<key>& keys,
                     exemplars& ex, trace* tr, double grace_s) {
    open_result res;
    std::vector<std::vector<sample>> per(plan.size());
    std::vector<conn_state> conns(plan.size());
    for (std::size_t c = 0; c < plan.size(); ++c) {
        per[c].resize(plan[c].size());
        conns[c].fd = fds[c];
        conns[c].plan = &plan[c];
        conns[c].out = per[c].data();
    }
    // One thread busy-polls every connection: a sleeping sender wakes late
    // by the scheduler's (on virtual machines, the hypervisor's) wake-up
    // latency, which would be charged to the daemon as queueing.
    std::vector<char> chunk(1 << 16);
    res.start = now_ns() + 1000000;
    const std::int64_t deadline =
        res.start + static_cast<std::int64_t>((seconds + grace_s) * 1e9);
    for (bool busy = true; busy && now_ns() < deadline;) {
        busy = false;
        for (conn_state& c : conns) {
            if (c.done()) continue;
            step(c, res.start, keys, ex, chunk, tr,
                 static_cast<std::uint64_t>(&c - conns.data()));
            busy = busy || !c.done();
        }
    }
    for (std::size_t c = 0; c < plan.size(); ++c) {
        // Arrivals never sent (the deadline passed first) stay unanswered.
        for (std::size_t i = conns[c].next; i < plan[c].size(); ++i) {
            per[c][i].key = plan[c][i].key;
            per[c][i].due = res.start + plan[c][i].t;
        }
        res.samples.insert(res.samples.end(), per[c].begin(), per[c].end());
    }
    return res;
}

line_conn::line_conn(const std::string& path) : fd_(connect_unix(path)) {
    if (fd_ < 0)
        throw std::runtime_error("cannot connect to " + path + ": " +
                                 std::strerror(errno));
}

line_conn::~line_conn() {
    if (fd_ >= 0) ::close(fd_);
}

int line_conn::release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
}

void line_conn::send(std::string_view line) {
    while (!line.empty()) {
        const ssize_t w = ::send(fd_, line.data(), line.size(), MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR) continue;
            throw std::runtime_error(std::string("send: ") + std::strerror(errno));
        }
        line.remove_prefix(static_cast<std::size_t>(w));
    }
}

std::string line_conn::recv() {
    char chunk[1 << 14];
    for (;;) {
        const std::size_t nl = buf_.find('\n');
        if (nl != std::string::npos) {
            std::string line = buf_.substr(0, nl);
            buf_.erase(0, nl + 1);
            return line;
        }
        const ssize_t r = ::recv(fd_, chunk, sizeof chunk, 0);
        if (r == 0) throw std::runtime_error("daemon closed the connection");
        if (r < 0) {
            if (errno == EINTR) continue;
            throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
        }
        buf_.append(chunk, static_cast<std::size_t>(r));
    }
}

std::vector<std::string> pipelined(const std::string& path,
                                   const std::vector<std::string>& lines,
                                   std::size_t conns) {
    std::vector<std::unique_ptr<line_conn>> cs;
    for (std::size_t c = 0; c < conns; ++c)
        cs.push_back(std::make_unique<line_conn>(path));
    // A writer thread per connection keeps a long pipelined send from
    // stalling on a full socket while answers wait to be read.
    std::vector<std::thread> writers;
    for (std::size_t c = 0; c < conns; ++c)
        writers.emplace_back([&, c] {
            try {
                for (std::size_t i = c; i < lines.size(); i += conns)
                    cs[c]->send(lines[i]);
            } catch (const std::exception&) {
                // The reader sees the closed connection and reports it.
            }
        });
    std::vector<std::string> out(lines.size());
    std::exception_ptr err;
    try {
        for (std::size_t c = 0; c < conns; ++c)
            for (std::size_t i = c; i < lines.size(); i += conns)
                out[i] = cs[c]->recv();
    } catch (...) {
        err = std::current_exception();
    }
    for (std::thread& t : writers) t.join();
    if (err) std::rethrow_exception(err);
    return out;
}

wrpt::svc::stats_response fetch_stats(const std::string& path) {
    line_conn c(path);
    const wrpt::svc::response r =
        wrpt::svc::decode_response(c.roundtrip("{\"req\":\"stats\",\"id\":0}\n"));
    if (!r.ok || r.kind() != wrpt::svc::response_kind::stats)
        throw std::runtime_error("stats request failed");
    return std::get<wrpt::svc::stats_response>(r.payload);
}

}  // namespace wb
