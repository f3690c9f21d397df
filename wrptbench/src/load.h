// Load generation over unix-socket connections to the daemon: an open
// loop (requests sent on a precomputed Poisson schedule, each timed from
// when it was due) and the blocking helpers the closed loop and set-up
// use. Responses are matched to requests in order per connection.
//
// Checking every response against the in-process reference after the
// timed window without keeping every response line: the connection
// thread hashes each response with its volatile fields ("cached",
// "elapsed_ms") left out, and keeps one exemplar line per distinct
// (request key, hash). After the window every exemplar is decoded and
// compared with the reference, and each response inherits the verdict of
// its exemplar — so every response is checked, byte for byte up to the
// volatile fields.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "svc/request.h"

namespace wb {

class trace;

/// Request kinds the checker distinguishes.
enum class kind : std::uint8_t {
    optimize,
    test_length,
    fault_sim,
    stats,
    reload,
    list,
};
const char* kind_name(kind k);

/// One distinct request: its wire line (newline-terminated), kind,
/// request id (echoed by the answer) and the latency class a workload
/// sorts it into.
struct key {
    std::string line;
    kind k = kind::test_length;
    std::uint64_t id = 0;
    std::uint32_t cls = 0;
};

/// One request sent. Times are steady-clock ns; recv == 0: unanswered.
struct sample {
    std::int64_t due = 0;
    std::int64_t sent = 0;
    std::int64_t recv = 0;
    std::uint32_t key = 0;
    std::int32_t group = -1;  ///< exemplar group; -1 = error or unanswered
    std::uint32_t bytes = 0;  ///< response line length
    float elapsed_ms = 0.0f;  ///< the response's own compute time
    bool cached = false;

    bool answered() const { return recv != 0; }
    double latency_ms() const { return static_cast<double>(recv - due) * 1e-6; }
};

/// The distinct responses seen so far.
class exemplars {
public:
    struct entry {
        std::uint32_t key = 0;
        std::string line;
    };
    /// Group id for (key, hash); stores `line` on first sight.
    std::int32_t intern(std::uint32_t key, std::uint64_t hash,
                        std::string_view line);
    /// First few error envelopes, for the diagnostics printout.
    void note_error(std::string_view line);

    std::vector<entry> entries;
    std::vector<std::string> errors;

private:
    std::unordered_map<std::uint64_t, std::int32_t> index_;  // keyed hash
};

/// Record one response line into `s` (ok flag, cached, elapsed, group).
void record_response(std::string_view line, const std::vector<key>& keys,
                     sample& s, exemplars& ex);

struct arrival {
    std::int64_t t = 0;  ///< due time, ns after the phase start
    std::uint32_t key = 0;
};

/// Poisson arrivals at `rate` per second for `seconds`, split round-robin
/// over `conns` connections; keys drawn by `draw`.
template <class Draw>
std::vector<std::vector<arrival>> poisson_plan(rng& r, double rate,
                                               double seconds,
                                               std::size_t conns, Draw draw) {
    std::vector<std::vector<arrival>> plan(conns);
    std::size_t n = 0;
    for (double t = r.exp_gap(rate); t < seconds; t += r.exp_gap(rate), ++n)
        plan[n % conns].push_back(
            {static_cast<std::int64_t>(t * 1e9),
             static_cast<std::uint32_t>(draw(r))});
    return plan;
}

struct open_result {
    std::vector<sample> samples;
    std::int64_t start = 0;  ///< steady-clock ns of the phase's time 0
};

/// Run one open-loop phase on the calling thread: every connection sends
/// its arrivals when due and reads its responses. Requests still
/// unanswered `grace_s` after the schedule ends count as unanswered.
/// With `tr`, each answered request also records a span (due -> answer)
/// with the generator's lateness (due -> sent) as its child.
open_result run_open(const std::vector<int>& fds,
                     const std::vector<std::vector<arrival>>& plan,
                     double seconds, const std::vector<key>& keys,
                     exemplars& ex, trace* tr = nullptr,
                     double grace_s = 2.0);

/// Blocking line connection for set-up, probes and the closed loop.
class line_conn {
public:
    explicit line_conn(const std::string& path);
    ~line_conn();
    line_conn(const line_conn&) = delete;
    line_conn& operator=(const line_conn&) = delete;
    int fd() const { return fd_; }
    int release();
    void send(std::string_view line);  ///< line must end in '\n'
    /// Next response line (without '\n'); throws on EOF.
    std::string recv();
    std::string roundtrip(std::string_view line) {
        send(line);
        return recv();
    }

private:
    int fd_ = -1;
    std::string buf_;
};

/// Send `lines` pipelined over `conns` connections (round-robin) and
/// return the responses in request order.
std::vector<std::string> pipelined(const std::string& path,
                                   const std::vector<std::string>& lines,
                                   std::size_t conns);

/// Decode a stats response from a fresh connection.
wrpt::svc::stats_response fetch_stats(const std::string& path);

/// Encode a request as a newline-terminated wire line.
std::string wire_line(const wrpt::svc::request& q);

}  // namespace wb
