#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "daemon.h"
#include "gen/random_circuit.h"
#include "gen/suite.h"
#include "io/bench_io.h"
#include "load.h"
#include "probes.h"
#include "svc/service.h"
#include "svc/wire.h"
#include "trace.h"

namespace wb {

namespace svc = wrpt::svc;

namespace {

// The daemon's fixed flags, sized with the generator (at most 4 threads,
// 4 connections) for a 4-CPU machine: 1 reactor + 2 workers + 2 compute.
constexpr unsigned kWorkers = 2;
constexpr unsigned kComputeThreads = 2;
constexpr std::size_t kConns = 4;

// ---------------------------------------------------------------------------
// Request builders

svc::request make(std::uint64_t id, auto payload) {
    svc::request q;
    q.id = id;
    q.payload = std::move(payload);
    return q;
}

svc::register_circuit_request reg_suite(const std::string& tenant,
                                        const std::string& name) {
    svc::register_circuit_request r;
    r.tenant = tenant;
    r.name = name;
    r.suite = name;
    return r;
}

std::size_t suite_inputs(const std::string& name) {
    return wrpt::build_suite_circuit(name).input_count();
}

std::uint64_t table4_patterns(const std::string& name) {
    for (const wrpt::suite_entry& e : wrpt::benchmark_suite())
        if (e.name == name) return e.paper_sim_patterns;
    throw std::runtime_error("no Table 4 pattern count for " + name);
}

// ---------------------------------------------------------------------------
// Response checking against the in-process reference

bool same_length(const svc::length_payload& a, const svc::length_payload& b) {
    return a.feasible == b.feasible && a.test_length == b.test_length &&
           a.relevant_faults == b.relevant_faults &&
           a.zero_prob_faults == b.zero_prob_faults &&
           a.hardest_probability == b.hardest_probability;
}

/// Served vs reference answer of the same job: every result field equal,
/// bit for bit (revision, cached and elapsed_ms are not results).
bool same_result(const svc::response& s, const svc::response& r) {
    if (!s.ok || !r.ok || s.kind() != r.kind()) return false;
    switch (s.kind()) {
        case svc::response_kind::test_length:
            return same_length(std::get<svc::test_length_response>(s.payload).length,
                               std::get<svc::test_length_response>(r.payload).length);
        case svc::response_kind::optimize: {
            const auto& a = std::get<svc::optimize_response>(s.payload);
            const auto& b = std::get<svc::optimize_response>(r.payload);
            return a.feasible == b.feasible &&
                   a.initial_length == b.initial_length &&
                   a.final_length == b.final_length && a.sweeps == b.sweeps &&
                   a.analysis_calls == b.analysis_calls &&
                   a.weights.size() == b.weights.size() &&
                   std::equal(a.weights.begin(), a.weights.end(),
                              b.weights.begin()) &&
                   same_length(a.length, b.length);
        }
        case svc::response_kind::fault_sim: {
            const auto& a = std::get<svc::fault_sim_response>(s.payload);
            const auto& b = std::get<svc::fault_sim_response>(r.payload);
            return a.patterns == b.patterns && a.faults == b.faults &&
                   a.detected == b.detected && a.coverage == b.coverage;
        }
        default:
            return false;
    }
}

std::unique_ptr<svc::service> reference_service(
    const std::vector<svc::register_circuit_request>& regs) {
    svc::service::options so;
    so.threads = 1;  // jobs run on the calling (checker) threads
    auto s = std::make_unique<svc::service>(so);
    for (const auto& r : regs)
        if (!s->handle(make(0, r)).ok)
            throw std::runtime_error("reference registration failed: " +
                                     r.tenant + "/" + r.name);
    return s;
}

// ---------------------------------------------------------------------------
// One run: keys, exemplars, verdicts and phases shared by the workloads

struct phase {
    std::string name;
    std::vector<sample> samples;
    std::int64_t start = 0;
    double seconds = 0.0;
    double late_p99_us = 0.0;
    bool valid = true;
};

/// The q-quantile of `value` over the samples passing `pick`, taken in
/// equal windows of the phase (by due time) and reported as the median
/// over windows. Each window holds at least 1000 picked samples, so its
/// p99 has ten beyond it; a phase too short for 3 such windows is one
/// window. The median over windows keeps one stall of the machine (a
/// descheduled virtual CPU) from moving the figure of a whole phase.
template <class Pick, class Value>
double windowed(const phase& p, Pick pick, Value value, double q) {
    std::size_t n = 0;
    for (const sample& s : p.samples) n += pick(s);
    const std::size_t windows = std::min<std::size_t>(8, n / 1000);
    std::vector<std::vector<double>> per(windows < 3 ? 1 : windows);
    const double span = p.seconds * 1e9 / static_cast<double>(per.size());
    for (const sample& s : p.samples) {
        if (!pick(s)) continue;
        const double at = static_cast<double>(s.due - p.start) / span;
        const std::size_t w = std::min(per.size() - 1,
                                       static_cast<std::size_t>(std::max(0.0, at)));
        per[w].push_back(value(s));
    }
    std::vector<double> qs;
    for (auto& v : per)
        if (!v.empty()) qs.push_back(percentile(std::move(v), q));
    return percentile(qs, 0.5);
}

/// How late the generator sent (p99, us), windowed like the latencies.
double lateness_us(const phase& p) {
    return windowed(
        p, [](const sample& s) { return s.sent != 0; },
        [](const sample& s) { return static_cast<double>(s.sent - s.due) * 1e-3; },
        0.99);
}

struct latency {
    std::size_t n = 0;
    std::size_t failed = 0;
    double p50 = 0, p90 = 0, p99 = 0;
};

class run_state {
public:
    explicit run_state(const options& o) : opt(o) {}

    const options& opt;
    std::vector<key> keys;
    exemplars ex;
    std::vector<char> verdict;  // per exemplar group
    std::vector<phase> phases;
    std::vector<double> setup_s;
    std::unique_ptr<daemon> d;
    std::vector<trace> traces;

    daemon_config config(std::size_t max_views) const {
        daemon_config c;
        c.cli = opt.cli;
        c.socket = opt.run_dir + "/d" + std::to_string(::getpid()) + ".sock";
        c.log = opt.run_dir + "/daemon.log";
        c.workers = kWorkers;
        c.threads = kComputeThreads;
        c.max_views = max_views;
        return c;
    }
    const std::string& socket() const { return d->config().socket; }

    bool failed(const sample& s) const {
        return !s.answered() || s.group < 0 ||
               !verdict[static_cast<std::size_t>(s.group)];
    }

    /// Latency of the samples passing `pick`; a failed request counts as
    /// missing every limit (infinite latency).
    template <class Pick>
    latency lat(const phase& p, Pick pick) const {
        latency l;
        for (const sample& s : p.samples)
            if (pick(s)) {
                ++l.n;
                l.failed += failed(s);
            }
        auto ms = [&](const sample& s) {
            return failed(s) ? INFINITY : s.latency_ms();
        };
        l.p50 = windowed(p, pick, ms, 0.5);
        l.p90 = windowed(p, pick, ms, 0.9);
        l.p99 = windowed(p, pick, ms, 0.99);
        return l;
    }
    latency lat(const phase& p) const {
        return lat(p, [](const sample&) { return true; });
    }
    double ok_rate(const phase& p) const {
        std::size_t ok = 0;
        for (const sample& s : p.samples) ok += !failed(s);
        return static_cast<double>(ok) / p.seconds;
    }

    /// Geometric mean, over the latency classes of `p`'s requests, of each
    /// class's q-quantile latency: every class weighs the same however slow
    /// its requests are, and a change in any one of them moves the figure.
    double class_geomean(const phase& p, double q) const {
        std::map<std::uint32_t, std::vector<double>> by_class;
        for (const sample& s : p.samples)
            by_class[keys[s.key].cls].push_back(failed(s) ? INFINITY
                                                           : s.latency_ms());
        double log_sum = 0.0;
        for (auto& [cls, v] : by_class) log_sum += std::log(percentile(std::move(v), q));
        return std::exp(log_sum / static_cast<double>(by_class.size()));
    }

    /// Decode every exemplar and compare it with the reference; `check`
    /// answers one (key, served response) pair. Runs on 4 threads (the
    /// caller and 3 more) once the daemon is idle.
    template <class Check>
    void check_all(Check check) {
        verdict.assign(ex.entries.size(), 0);
        std::atomic<std::size_t> next{0};
        auto work = [&] {
            for (std::size_t i; (i = next.fetch_add(1)) < ex.entries.size();) {
                const exemplars::entry& e = ex.entries[i];
                try {
                    const svc::response r = svc::decode_response(e.line);
                    verdict[i] = r.ok && r.id == keys[e.key].id && check(e.key, r);
                } catch (const std::exception&) {
                    verdict[i] = 0;
                }
            }
        };
        std::vector<std::thread> pool;
        for (unsigned t = 0; t < 3; ++t) pool.emplace_back(work);
        work();
        for (std::thread& t : pool) t.join();
    }

    /// Totals over every phase; fills attempted/failed of `rep`.
    void count(report& rep) const {
        for (const phase& p : phases)
            for (const sample& s : p.samples) {
                ++rep.attempted;
                rep.failed += failed(s);
            }
    }

    void print_phases() const {
        for (const phase& p : phases) {
            const latency l = lat(p);
            std::printf("phase %-10s n=%zu failed=%zu p50=%.4f ms p90=%.4f ms "
                        "p99=%.4f ms rate=%.1f/s late_p99=%.1f us%s\n",
                        p.name.c_str(), l.n, l.failed, l.p50, l.p90, l.p99,
                        static_cast<double>(p.samples.size()) / p.seconds,
                        p.late_p99_us, p.valid ? "" : " INVALID(generator late)");
        }
        for (const std::string& e : ex.errors)
            std::printf("error envelope: %.300s\n", e.c_str());
    }
};

/// Set up `setups` times (spawn -> listening -> registration -> warm-up);
/// every daemon but the last is stopped again. `body` does registration
/// and warm-up against the fresh daemon.
template <class Body>
void set_up(run_state& st, std::size_t max_views, Body body) {
    const unsigned n = st.opt.smoke ? 1 : st.opt.setups;
    for (unsigned i = 0; i < n; ++i) {
        st.d.reset();
        const std::int64_t t0 = now_ns();
        st.d = std::make_unique<daemon>(st.config(max_views));
        body();
        st.setup_s.push_back(seconds_since(t0));
    }
}

void register_all(run_state& st,
                  const std::vector<svc::register_circuit_request>& regs) {
    line_conn c(st.socket());
    for (const auto& r : regs) {
        const std::string resp = c.roundtrip(wire_line(make(0, r)));
        if (resp.find("\"ok\":true") == std::string::npos)
            throw std::runtime_error("registration failed: " + resp);
    }
}

std::vector<int> open_conns(const std::string& path, std::size_t n) {
    std::vector<int> fds;
    for (std::size_t i = 0; i < n; ++i) fds.push_back(line_conn(path).release());
    return fds;
}

void close_conns(std::vector<int>& fds) {
    for (int fd : fds) ::close(fd);
    fds.clear();
}

/// Run one open-loop phase over `fds` and keep its samples.
phase& open_phase(run_state& st, std::vector<int>& fds, const std::string& name,
                  const std::vector<std::vector<arrival>>& plan, double seconds,
                  double late_limit_us, trace* tr = nullptr) {
    open_result r = run_open(fds, plan, seconds, st.keys, st.ex, tr);
    phase p;
    p.name = name;
    p.samples = std::move(r.samples);
    p.seconds = seconds;
    p.start = r.start;
    p.late_p99_us = lateness_us(p);
    p.valid = p.late_p99_us <= late_limit_us;
    st.phases.push_back(std::move(p));
    return st.phases.back();
}

/// Common end-of-run: resource use of the daemon, then the traced run's
/// server/daemon/service/registry/engine_pool counters.
struct daemon_totals {
    proc_sample before, after;
    svc::stats_response stats_before, stats_after;
};

void add_stats_metrics(const run_state& st, const daemon_totals& dt,
                       std::size_t window_requests, report& rep) {
    const svc::stats_response& a = dt.stats_after;
    const svc::stats_response& b = dt.stats_before;
    const double req = static_cast<double>(std::max<std::size_t>(1, window_requests));
    rep.add("server.queue_drops", static_cast<double>(a.server.queue_drops), "count");
    rep.add("server.protocol_errors",
            static_cast<double>(a.server.protocol_errors), "count");
    rep.add("daemon.cpu_us_per_req",
            (dt.after.cpu_seconds - dt.before.cpu_seconds) * 1e6 / req, "us");
    rep.add("daemon.threads", static_cast<double>(dt.after.threads), "count");
    const double probes = static_cast<double>(a.cache_probes - b.cache_probes);
    rep.add("service.cache_hit_ratio",
            probes > 0 ? static_cast<double>(a.cache_hits - b.cache_hits) / probes
                       : 0.0,
            "ratio");
    rep.add("service.cache_bytes", static_cast<double>(a.cache_bytes), "B");
    rep.add("registry.view_rebuilds_per_1k",
            1000.0 * static_cast<double>(a.registry.view_rebuilds -
                                         b.registry.view_rebuilds) / req,
            "count");
    rep.add("registry.view_evictions_per_1k",
            1000.0 * static_cast<double>(a.registry.view_evictions -
                                         b.registry.view_evictions) / req,
            "count");
    rep.add("registry.resident", static_cast<double>(a.registry.resident), "count");
    double hits = 0, misses = 0, resyncs = 0, engines = 0;
    for (const auto& p : a.pools) {
        hits += static_cast<double>(p.hits);
        misses += static_cast<double>(p.misses);
        resyncs += static_cast<double>(p.resyncs);
        engines += static_cast<double>(p.engines);
    }
    rep.add("engine_pool.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
            "ratio");
    rep.add("engine_pool.resyncs_per_job",
            resyncs / static_cast<double>(std::max<std::uint64_t>(1, a.cache_misses)),
            "count");
    rep.add("engine_pool.engines", engines, "count");
    (void)st;
}

/// batch_session.* from served misses' own elapsed_ms, by kind.
void add_batch_session_metrics(const std::vector<std::pair<kind, double>>& elapsed,
                               report& rep) {
    std::vector<double> o, f, t;
    for (auto [k, ms] : elapsed) {
        if (k == kind::optimize) o.push_back(ms);
        if (k == kind::fault_sim) f.push_back(ms);
        if (k == kind::test_length) t.push_back(ms * 1e3);
    }
    rep.add("batch_session.optimize_ms", percentile(o, 0.5), "ms");
    rep.add("batch_session.fault_sim_ms", percentile(f, 0.5), "ms");
    rep.add("batch_session.test_length_us", percentile(t, 0.5), "us");
}

/// Served misses of a phase as (kind, elapsed_ms), and their mean
/// response size.
std::vector<std::pair<kind, double>> served_misses(const run_state& st,
                                                   const phase& p) {
    std::vector<std::pair<kind, double>> out;
    for (const sample& s : p.samples)
        if (s.answered() && !s.cached && s.group >= 0)
            out.emplace_back(st.keys[s.key].k, s.elapsed_ms);
    return out;
}

double mean_bytes(const phase& p) {
    double b = 0;
    std::size_t n = 0;
    for (const sample& s : p.samples)
        if (s.answered()) {
            b += s.bytes;
            ++n;
        }
    return n ? b / static_cast<double>(n) : 0.0;
}

double mean_request_bytes(const run_state& st) {
    double b = 0;
    for (const key& k : st.keys) b += static_cast<double>(k.line.size());
    return st.keys.empty() ? 128.0 : b / static_cast<double>(st.keys.size());
}

/// server.wait_ms: served misses' round trip minus their own compute.
double wait_ms(const phase& p) {
    std::vector<double> v;
    for (const sample& s : p.samples)
        if (s.answered() && !s.cached && s.group >= 0 && s.elapsed_ms > 0)
            v.push_back(static_cast<double>(s.recv - s.sent) * 1e-6 - s.elapsed_ms);
    return percentile(v, 0.5);
}

/// The probe inputs every workload fills the same way.
probe_inputs probe_base(const run_state& st, svc::service* ref) {
    probe_inputs in;
    in.ref = ref;
    in.socket = st.socket();
    in.workers = kWorkers;
    in.request_bytes = static_cast<std::size_t>(mean_request_bytes(st));
    in.smoke = st.opt.smoke;
    return in;
}

void write_traces(const run_state& st, const trace& main_trace) {
    const std::string path = st.opt.run_dir + "/trace-" + st.opt.workload +
                             "-s" + std::to_string(st.opt.seed) + ".jsonl";
    ::unlink(path.c_str());
    main_trace.write(path, 0);
    for (std::size_t i = 0; i < st.traces.size(); ++i)
        st.traces[i].write(path, static_cast<unsigned>(i + 1));
    std::printf("trace: %s\n", path.c_str());
}

// ---------------------------------------------------------------------------
// The open-loop workloads: hot-cached and catalog-churn share one shape.
// The window is cut into rounds of about 2.5 s; each round runs a segment
// at rate_lo, one at rate_hi and a short burst offered far above capacity.
// Every figure is the median over rounds, so a stall of the machine lasting
// a few seconds moves a round or two, not the result.

struct open_shape {
    double rate_lo = 0, rate_hi = 0;
    double rate_burst = 0;          ///< offered rate of the saturation burst
    double late_limit_us = 1000.0;  ///< generator lateness validity limit
};

struct round_plan {
    std::vector<std::vector<arrival>> lo, hi, burst;
};

struct open_plans {
    std::vector<round_plan> rounds;
    double t_lo = 0, t_hi = 0, t_burst = 0;
};

/// Rounds of about 2.5 s: 60% at rate_lo, 30% at rate_hi, 10% burst.
template <class Plan, class BurstPlan>
open_plans plan_open(const options& opt, const open_shape& sh, Plan plan,
                     BurstPlan burst) {
    open_plans p;
    const std::size_t rounds =
        std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(opt.seconds / 2.5)));
    const double round_s = opt.seconds / static_cast<double>(rounds);
    p.t_lo = 0.6 * round_s;
    p.t_hi = 0.3 * round_s;
    p.t_burst = 0.1 * round_s;
    rng r(opt.seed * 1000003 + 17);
    for (std::size_t i = 0; i < rounds; ++i) {
        round_plan rp;
        rp.lo = plan(r, sh.rate_lo, p.t_lo);
        rp.hi = plan(r, sh.rate_hi, p.t_hi);
        rp.burst = burst(r, sh.rate_burst, p.t_burst);
        p.rounds.push_back(std::move(rp));
    }
    return p;
}

/// Run every round. With `traced`, each round instead runs its rate_lo
/// segment twice, untraced then traced (the tracing-overhead pair).
void drive_rounds(run_state& st, std::vector<int>& fds, const open_shape& sh,
                  const open_plans& plans, trace* traced) {
    for (std::size_t i = 0; i < plans.rounds.size(); ++i) {
        const round_plan& rp = plans.rounds[i];
        const std::string n = "." + std::to_string(i);
        if (traced) {
            open_phase(st, fds, "untraced" + n, rp.lo, plans.t_lo, sh.late_limit_us);
            open_phase(st, fds, "lo" + n, rp.lo, plans.t_lo, sh.late_limit_us, traced);
            continue;
        }
        open_phase(st, fds, "lo" + n, rp.lo, plans.t_lo, sh.late_limit_us);
        open_phase(st, fds, "hi" + n, rp.hi, plans.t_hi, sh.late_limit_us);
        // Lateness is no concern of a burst: it measures throughput.
        open_phase(st, fds, "burst" + n, rp.burst, plans.t_burst, INFINITY);
    }
}

/// The q-quantile (default: median) over the rounds' valid segments
/// `prefix`.<i> of f(segment); over all of them when none is valid.
template <class F>
double over_rounds(const run_state& st, const std::string& prefix, F f,
                   double q = 0.5) {
    std::vector<double> v, all;
    for (const phase& p : st.phases)
        if (p.name.rfind(prefix + ".", 0) == 0) {
            all.push_back(f(p));
            if (p.valid) v.push_back(all.back());
        }
    return percentile(v.empty() ? all : v, q);
}

/// Latencies take the first quartile over rounds: the host's load comes
/// and goes over tens of seconds, and a quiet quarter of the rounds is
/// what two runs can be compared on. (Over ten runs of hot-cached, the
/// median over rounds spread 0.3 for the rate_lo p50 and 1.2 for the
/// rate_hi p90.)
constexpr double kLatencyQuantile = 0.25;

/// Report the kinds of segment in which the generator ran late. A late
/// generator says the machine was busy, not that an answer was wrong, so
/// it does not make the run incorrect; the figures leave those segments
/// out (see over_rounds).
void warn_invalid(const run_state& st) {
    std::map<std::string, std::pair<int, int>> by_kind;  // valid, total
    for (const phase& p : st.phases) {
        auto& [valid, total] = by_kind[p.name.substr(0, p.name.find('.'))];
        valid += p.valid;
        ++total;
    }
    for (const auto& [name, vt] : by_kind)
        if (vt.first < vt.second)
            std::printf("warning: %d of %d %s segments invalid (generator late)%s\n",
                        vt.second - vt.first, vt.second, name.c_str(),
                        vt.first == 0 ? "; figures taken over all of them" : "");
}

/// Answers per second of a burst: picked requests answered, over the time
/// from the segment's start to its last answer (the backlog's drain
/// included), i.e. the daemon's saturation throughput.
template <class Pick>
double completion_rate(const run_state& st, const phase& p, Pick pick) {
    std::size_t n = 0;
    std::int64_t end = p.start;
    for (const sample& s : p.samples)
        if (pick(s) && !st.failed(s)) {
            ++n;
            end = std::max(end, s.recv);
        }
    return end > p.start ? static_cast<double>(n) /
                               (static_cast<double>(end - p.start) * 1e-9)
                         : 0.0;
}

/// Traced minus untraced p50 of the picked requests, each the median over
/// rounds of the same rate_lo traffic.
template <class Pick>
double tracing_overhead_ms(const run_state& st, Pick pick) {
    auto p50 = [&](const phase& p) { return st.lat(p, pick).p50; };
    return over_rounds(st, "lo", p50) - over_rounds(st, "untraced", p50);
}

const phase& find_phase(const run_state& st, const std::string& name) {
    for (const phase& p : st.phases)
        if (p.name == name) return p;
    throw std::logic_error("no phase " + name);
}

// ---------------------------------------------------------------------------
// hot-cached

struct hot_cached {
    static constexpr const char* tenant = "hot";
    std::vector<std::string> circuits = {"S1", "c2670", "c7552"};
    std::vector<svc::register_circuit_request> regs;
    std::vector<std::vector<std::uint32_t>> by_kind;  // optimize, tl, fs, stats
    // The request mix: P(optimize, test_length, fault_sim, stats).
    std::vector<double> mix = {0.60, 0.30, 0.09, 0.01};
    open_shape shape;

    void build(run_state& st) {
        rng r(st.opt.seed);
        by_kind.assign(4, {});
        for (const std::string& c : circuits) regs.push_back(reg_suite(tenant, c));
        auto add = [&](kind k, std::size_t slot, const svc::request& q) {
            by_kind[slot].push_back(static_cast<std::uint32_t>(st.keys.size()));
            svc::request qq = q;
            qq.id = st.keys.size();
            st.keys.push_back({wire_line(qq), k, qq.id});
        };
        // 36 optimize, 18 test_length, 9 fault_sim keys (12/6/3 per
        // circuit) over several weight vectors, plus one stats key: 64.
        for (const std::string& c : circuits) {
            const std::size_t n = suite_inputs(c);
            const std::string name = std::string(tenant) + "/" + c;
            for (int i = 0; i < 12; ++i) {
                svc::optimize_request o;
                o.name = name;
                if (i > 0) o.weights = grid_weights(r, n);
                add(kind::optimize, 0, make(0, o));
            }
            for (int i = 0; i < 6; ++i) {
                svc::test_length_request t;
                t.name = name;
                if (i > 0) t.weights = grid_weights(r, n);
                add(kind::test_length, 1, make(0, t));
            }
            for (int i = 0; i < 3; ++i) {
                svc::fault_sim_request f;
                f.name = name;
                if (i > 0) f.weights = grid_weights(r, n);
                f.patterns = table4_patterns(c);
                f.seed = 1 + r.below(1000);
                add(kind::fault_sim, 2, make(0, f));
            }
        }
        add(kind::stats, 3, make(0, svc::stats_request{}));
        // rate_lo is unloaded, rate_hi about half the knee (40-50k/s on a
        // 4-vCPU machine), and the burst offers about twice the knee.
        shape.rate_lo = 2000;
        shape.rate_hi = 24000;
        shape.rate_burst = 80000;
        shape.late_limit_us = 1000;
    }

    std::uint32_t draw(rng& r) const {
        const auto& v = by_kind[r.pick(mix)];
        return v[r.below(v.size())];
    }

    open_plans plans(const options& opt) const {
        auto plan = [&](rng& r, double rate, double t) {
            return poisson_plan(r, rate, t, kConns,
                                [&](rng& rr) { return draw(rr); });
        };
        return plan_open(opt, shape, plan, plan);
    }
};

report run_hot(const options& opt) {
    run_state st(opt);
    hot_cached w;
    w.build(st);
    const open_plans plans = w.plans(opt);
    // The in-process reference is built after the window, so the generator
    // runs no more threads than it drives with.
    std::unique_ptr<svc::service> ref;

    std::vector<std::string> prime;
    for (const key& k : st.keys) prime.push_back(k.line);
    std::vector<std::string> primed;
    set_up(st, 0, [&] {
        register_all(st, w.regs);
        primed = pipelined(st.socket(), prime, 2);
    });

    daemon_totals dt;
    dt.stats_before = fetch_stats(st.socket());
    dt.before = st.d->sample();
    std::vector<int> fds = open_conns(st.socket(), kConns);
    auto check = [&](std::uint32_t k, const svc::response& served) {
        if (st.keys[k].k == kind::stats)
            return served.kind() == svc::response_kind::stats &&
                   std::get<svc::stats_response>(served.payload).registry.circuits ==
                       w.circuits.size();
        const svc::request q = svc::decode_request(st.keys[k].line);
        return same_result(served, ref->handle(q));
    };
    trace tr;
    drive_rounds(st, fds, w.shape, plans, opt.trace ? &tr : nullptr);
    dt.after = st.d->sample();
    dt.stats_after = fetch_stats(st.socket());
    close_conns(fds);
    ref = reference_service(w.regs);
    st.check_all(check);

    report rep;
    // Primed answers are checked too: they are the misses that filled the
    // cache the timed window reads.
    std::size_t prime_bad = 0;
    for (std::size_t i = 0; i < primed.size(); ++i) {
        try {
            const svc::response r = svc::decode_response(primed[i]);
            prime_bad += !(r.ok && (st.keys[i].k == kind::stats || check(i, r)));
        } catch (const std::exception&) {
            ++prime_bad;
        }
    }
    st.count(rep);
    rep.attempted += primed.size();
    rep.failed += prime_bad;
    st.print_phases();
    auto all = [](const sample&) { return true; };
    warn_invalid(st);
    if (!opt.trace) {
        rep.add("setup_s", percentile(st.setup_s, 0.5), "s");
        rep.add("rss_peak_mb", dt.after.vm_hwm_mb, "MiB");
        // The gated p50 is rate_hi's: at rate_lo the daemon's threads sleep
        // between requests, and the wake-ups follow the host's load.
        std::printf("lat_p50_ms_lo %.6g ms (rate_lo, not gated)\n",
                    over_rounds(st, "lo", [&](const phase& p) { return st.lat(p).p50; },
                                kLatencyQuantile));
        rep.add("lat_p50_ms", over_rounds(st, "hi", [&](const phase& p) { return st.lat(p).p50; },
                                          kLatencyQuantile), "ms");
        std::printf("lat_p90_ms_hi %.6g ms (rate_hi, not gated)\n",
                    over_rounds(st, "hi", [&](const phase& p) { return st.lat(p).p90; },
                                kLatencyQuantile));
        // Both rates are the burst's: what the daemon answers at saturation.
        // Job answers are gated; every answer (stats included) is printed.
        std::printf("max_rate_rps %.6g req/s (burst, all requests)\n",
                    over_rounds(st, "burst", [&](const phase& p) {
                        return completion_rate(st, p, all);
                    }));
        rep.add("jobs_per_s", over_rounds(st, "burst", [&](const phase& p) {
                    return completion_rate(st, p, [&](const sample& s) {
                        return st.keys[s.key].k != kind::stats;
                    });
                }), "jobs/s");
    } else {
        std::size_t window = 0;
        for (const phase& p : st.phases) window += p.samples.size();
        add_stats_metrics(st, dt, window, rep);
        // Priming answers are hot-cached's only misses.
        std::vector<std::pair<kind, double>> misses;
        std::vector<double> waits;
        for (std::size_t i = 0; i < primed.size(); ++i) {
            const svc::response r = svc::decode_response(primed[i]);
            std::visit([&](const auto& p) {
                if constexpr (requires { p.elapsed_ms; })
                    misses.emplace_back(st.keys[i].k, p.elapsed_ms);
            }, r.payload);
        }
        add_batch_session_metrics(misses, rep);
        probe_inputs in = probe_base(st, ref.get());
        in.first = w.regs[2];
        in.second = w.regs[1];
        for (std::uint32_t k : w.by_kind[1]) in.hit_lines.push_back(st.keys[k].line);
        for (std::uint32_t k : w.by_kind[0]) in.hit_lines.push_back(st.keys[k].line);
        layer_probes(in, rep, tr);
        // server.wait_ms: fresh test_length misses, one at a time.
        {
            line_conn c(st.socket());
            rng r(opt.seed + 99);
            const std::size_t n = suite_inputs("c7552");
            std::vector<double> v;
            for (int i = 0; i < (opt.smoke ? 5 : 50); ++i) {
                svc::test_length_request t;
                t.name = "hot/c7552";
                t.weights = grid_weights(r, n);
                const std::int64_t t0 = now_ns();
                const svc::response resp =
                    svc::decode_response(c.roundtrip(wire_line(make(1, t))));
                const double rtt = seconds_since(t0) * 1e3;
                v.push_back(rtt - std::get<svc::test_length_response>(resp.payload).elapsed_ms);
            }
            rep.add("server.wait_ms", percentile(v, 0.5), "ms");
        }
        rep.add("wire.bytes_per_resp", over_rounds(st, "lo", mean_bytes), "B");
        std::vector<replay_job> jobs;
        for (std::size_t i = 0; i < primed.size(); ++i) {
            if (st.keys[i].k != kind::optimize && st.keys[i].k != kind::fault_sim)
                continue;
            jobs.push_back({svc::decode_request(st.keys[i].line),
                            svc::decode_response(primed[i])});
        }
        const replay_totals rt = replay(*ref, jobs, kComputeThreads, rep, st.traces);
        rep.failed += rt.mismatches;
        rep.add("trace.overhead_ms", tracing_overhead_ms(st, all), "ms");
        std::printf("trace: replayed %zu optimize + %zu fault_sim jobs, %zu "
                    "mismatches\n",
                    rt.optimize_jobs, rt.fault_sim_jobs, rt.mismatches);
        write_traces(st, tr);
    }
    st.d->stop();
    rep.correct = rep.correct && rep.failed == 0;
    return rep;
}

// ---------------------------------------------------------------------------
// optimize-then-simulate: the paper's workflow, closed loop

struct ots_spec {
    static constexpr const char* tenant = "ots";
    std::vector<std::string> circuits = {"S1", "S2", "c2670", "c7552"};
    /// The closed loop's phases: "untraced" runs in the traced run only,
    /// before the traced "lo".
    static constexpr std::array<const char*, 2> phases = {"untraced", "lo"};
    std::vector<std::size_t> inputs;
    std::vector<std::uint64_t> patterns;  ///< Table 4 pattern counts
    std::vector<svc::register_circuit_request> regs;

    ots_spec() {
        for (const std::string& c : circuits) {
            inputs.push_back(suite_inputs(c));
            patterns.push_back(table4_patterns(c));
            regs.push_back(reg_suite(tenant, c));
        }
    }

    /// One iteration's choices: the circuit in turn (round-robin keeps each
    /// circuit's share of the phase fixed), a seeded start vector and
    /// simulation seed.
    struct step {
        std::size_t circuit = 0;
        wrpt::weight_vector start;
        std::uint64_t sim_seed = 1;
    };
    step next(rng& r, std::size_t turn) const {
        step s;
        s.circuit = turn % circuits.size();
        s.start = grid_weights(r, inputs[s.circuit]);
        s.sim_seed = 1 + (r.next() >> 20);
        return s;
    }
    /// Client `client`'s random stream in `phase` and its first turn.
    static std::uint64_t client_seed(std::uint64_t seed, const std::string& phase,
                                      unsigned client) {
        return fnv(phase, seed * 7919 + client);
    }
    std::size_t first_turn(std::uint64_t client_seed) const {
        return client_seed % circuits.size();
    }
    /// Latency class of a request: one per (circuit, kind).
    static std::uint32_t cls(std::size_t circuit, kind k) {
        return static_cast<std::uint32_t>(2 * circuit + (k == kind::fault_sim));
    }
};

struct exchange {
    std::string req, resp;
    std::int64_t sent = 0, recv = 0;  ///< recv == 0: no answer
    kind k = kind::optimize;
    std::uint64_t id = 0;
    std::uint32_t cls = 0;
};

/// One closed-loop client: optimize from a fresh start, then fault-simulate
/// the returned weights, round-robin over the circuits until the deadline.
/// A transport failure is kept as an unanswered exchange and ends the
/// client, so it counts as a failed request.
void ots_client(const std::string& socket, const ots_spec& w,
                std::uint64_t seed, std::int64_t deadline,
                std::vector<exchange>& out, trace* tr) {
    std::unique_ptr<line_conn> c;
    rng r(seed);
    std::uint64_t id = seed & 0xffffffff;
    // The answer line, or nullptr once the connection has failed.
    auto send = [&](kind k, std::size_t circuit,
                    const svc::request& q) -> const std::string* {
        exchange e;
        e.k = k;
        e.id = q.id;
        e.cls = ots_spec::cls(circuit, k);
        e.req = wire_line(q);
        e.sent = now_ns();
        try {
            if (!c) c = std::make_unique<line_conn>(socket);
            e.resp = c->roundtrip(e.req);
            e.recv = now_ns();
        } catch (const std::exception&) {
            out.push_back(std::move(e));
            return nullptr;
        }
        if (tr) tr->add(kind_name(k), e.sent, e.recv, -1, e.id);
        out.push_back(std::move(e));
        return &out.back().resp;
    };
    for (std::size_t turn = w.first_turn(seed); now_ns() < deadline; ++turn) {
        const ots_spec::step st = w.next(r, turn);
        const std::string name = std::string(ots_spec::tenant) + "/" +
                                 w.circuits[st.circuit];
        svc::optimize_request o;
        o.name = name;
        o.weights = st.start;
        const std::string* answer = send(kind::optimize, st.circuit, make(++id, o));
        if (!answer) return;
        // An undecodable or refused answer fails its own check; the client
        // goes on with the next circuit.
        svc::response resp;
        try {
            resp = svc::decode_response(*answer);
        } catch (const std::exception&) {
            continue;
        }
        if (!resp.ok || resp.kind() != svc::response_kind::optimize) continue;
        svc::fault_sim_request f;
        f.name = name;
        f.weights = std::get<svc::optimize_response>(resp.payload).weights;
        f.patterns = w.patterns[st.circuit];
        f.seed = st.sim_seed;
        if (!send(kind::fault_sim, st.circuit, make(++id, f))) return;
    }
}

/// Run `clients` closed-loop clients for `seconds`; the exchanges become
/// keys and samples of a new phase.
phase& closed_phase(run_state& st, const ots_spec& w, const std::string& name,
                    unsigned clients, double seconds, bool traced) {
    std::vector<std::vector<exchange>> per(clients);
    const std::size_t first_trace = st.traces.size();
    if (traced) st.traces.resize(first_trace + clients);
    auto trace_of = [&](unsigned c) {
        return traced ? &st.traces[first_trace + c] : nullptr;
    };
    const std::int64_t start = now_ns();
    const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
    {
        std::vector<std::thread> threads;
        for (unsigned c = 1; c < clients; ++c)
            threads.emplace_back(ots_client, std::cref(st.socket()), std::cref(w),
                                 ots_spec::client_seed(st.opt.seed, name, c),
                                 deadline, std::ref(per[c]), trace_of(c));
        ots_client(st.socket(), w, ots_spec::client_seed(st.opt.seed, name, 0),
                   deadline, per[0], trace_of(0));
        for (std::thread& t : threads) t.join();
    }
    phase p;
    p.name = name;
    std::int64_t end = deadline;
    for (auto& v : per)
        for (exchange& e : v) {
            sample s;
            s.key = static_cast<std::uint32_t>(st.keys.size());
            st.keys.push_back({std::move(e.req), e.k, e.id, e.cls});
            s.due = s.sent = e.sent;
            s.recv = e.recv;
            end = std::max(end, e.recv);
            if (s.answered()) record_response(e.resp, st.keys, s, st.ex);
            p.samples.push_back(s);
        }
    p.start = start;
    p.seconds = static_cast<double>(end - start) * 1e-9;
    st.phases.push_back(std::move(p));
    return st.phases.back();
}

report run_ots(const options& opt) {
    run_state st(opt);
    const ots_spec w;
    // Warm-up: one optimize at the uniform start and one fault simulation
    // per circuit, so engines and views are built before the window.
    std::vector<std::string> warm;
    for (std::size_t i = 0; i < w.circuits.size(); ++i) {
        const std::string name = std::string(ots_spec::tenant) + "/" + w.circuits[i];
        svc::optimize_request o;
        o.name = name;
        svc::fault_sim_request f;
        f.name = name;
        f.patterns = w.patterns[i];
        warm.push_back(wire_line(make(1, o)));
        warm.push_back(wire_line(make(2, f)));
    }
    set_up(st, 0, [&] {
        register_all(st, w.regs);
        for (const std::string& r : pipelined(st.socket(), warm, 2))
            if (r.find("\"ok\":true") == std::string::npos)
                throw std::runtime_error("warm-up failed: " + r);
    });
    daemon_totals dt;
    dt.stats_before = fetch_stats(st.socket());
    dt.before = st.d->sample();
    // One load level: two clients keep both compute threads busy, so the
    // closed loop is already saturated (rate_hi and the burst are
    // open-loop notions; see the README).
    const double lo_s = opt.seconds * (opt.trace ? 0.4 : 1.0);
    const auto& [untraced, traced] = ots_spec::phases;
    if (opt.trace) closed_phase(st, w, untraced, kComputeThreads, lo_s, false);
    closed_phase(st, w, traced, kComputeThreads, lo_s, opt.trace);
    dt.after = st.d->sample();
    dt.stats_after = fetch_stats(st.socket());
    auto ref = reference_service(w.regs);

    st.check_all([&](std::uint32_t k, const svc::response& served) {
        return same_result(served, ref->handle(svc::decode_request(st.keys[k].line)));
    });
    report rep;
    st.count(rep);
    st.print_phases();
    const phase& lo = find_phase(st, "lo");
    if (!opt.trace) {
        const latency l = st.lat(lo);
        std::printf("closed loop, all requests: n=%zu p50=%.4f ms p90=%.4f ms "
                    "p99=%.4f ms\n", l.n, l.p50, l.p90, l.p99);
        for (std::size_t c = 0; c < w.circuits.size(); ++c)
            for (kind k : {kind::optimize, kind::fault_sim}) {
                const latency lc = st.lat(lo, [&](const sample& s) {
                    return st.keys[s.key].cls == ots_spec::cls(c, k);
                });
                std::printf("  %-6s %-9s n=%zu p50=%.4f ms p90=%.4f ms\n",
                            w.circuits[c].c_str(), kind_name(k), lc.n, lc.p50,
                            lc.p90);
            }
        rep.add("setup_s", percentile(st.setup_s, 0.5), "s");
        rep.add("rss_peak_mb", dt.after.vm_hwm_mb, "MiB");
        rep.add("lat_p50_ms", st.class_geomean(lo, 0.5), "ms");
        std::printf("lat_p90_ms_hi %.6g ms (geometric mean of the class p90s, "
                    "not gated)\n", st.class_geomean(lo, 0.9));
        rep.add("jobs_per_s", st.ok_rate(lo), "jobs/s");
    } else {
        trace tr;
        std::size_t window = 0;
        for (const phase& p : st.phases) window += p.samples.size();
        add_stats_metrics(st, dt, window, rep);
        add_batch_session_metrics(served_misses(st, lo), rep);
        rep.add("server.wait_ms", wait_ms(lo), "ms");
        rep.add("wire.bytes_per_resp", mean_bytes(lo), "B");
        probe_inputs in = probe_base(st, ref.get());
        in.first = w.regs[3];
        in.second = w.regs[2];
        // The last served requests of the window are cached by now.
        for (std::size_t i = lo.samples.size(); i-- > 0 && in.hit_lines.size() < 16;)
            if (!st.failed(lo.samples[i]))
                in.hit_lines.push_back(st.keys[lo.samples[i].key].line);
        layer_probes(in, rep, tr);
        std::vector<replay_job> jobs;
        for (const sample& s : lo.samples) {
            if (st.failed(s)) continue;
            jobs.push_back({svc::decode_request(st.keys[s.key].line),
                            svc::decode_response(
                                st.ex.entries[static_cast<std::size_t>(s.group)].line)});
        }
        const replay_totals rt = replay(*ref, jobs, kComputeThreads, rep, st.traces);
        rep.failed += rt.mismatches;
        rep.correct = rt.mismatches == 0;
        rep.add("trace.overhead_ms",
                st.class_geomean(lo, 0.5) -
                    st.class_geomean(find_phase(st, "untraced"), 0.5),
                "ms");
        std::printf("trace: replayed %zu optimize + %zu fault_sim jobs, %zu "
                    "mismatches\n",
                    rt.optimize_jobs, rt.fault_sim_jobs, rt.mismatches);
        write_traces(st, tr);
    }
    st.d->stop();
    rep.correct = rep.correct && rep.failed == 0;
    return rep;
}

// ---------------------------------------------------------------------------
// catalog-churn: many small registered circuits, reads and reloads

struct churn_spec {
    static constexpr std::size_t kCircuits = 200;
    static constexpr std::size_t kTenants = 8;
    static constexpr std::size_t kRepeats = 4;  ///< repeated vectors per circuit
    std::vector<std::string> tenants, names;    ///< per circuit
    std::vector<std::array<std::string, 2>> bench;  ///< two variants' sources
    std::vector<std::size_t> inputs;
    std::vector<double> zipf;  ///< circuit c is Zipf rank c: weight 1/(c+1)
    std::vector<std::vector<std::uint32_t>> repeat_keys;  ///< per circuit
    std::vector<unsigned> variant;     ///< current variant per circuit (planning)
    std::vector<std::uint32_t> list_keys;  ///< one per tenant
    open_shape shape;

    std::string address(std::size_t c) const { return tenants[c] + "/" + names[c]; }

    svc::register_circuit_request reg(std::size_t c, unsigned v) const {
        svc::register_circuit_request r;
        r.tenant = tenants[c];
        r.name = names[c];
        r.bench = bench[c][v];
        return r;
    }
    std::vector<svc::register_circuit_request> regs(unsigned v) const {
        std::vector<svc::register_circuit_request> out;
        for (std::size_t c = 0; c < kCircuits; ++c) out.push_back(reg(c, v));
        return out;
    }

    void build(run_state& st) {
        rng r(st.opt.seed);
        for (std::size_t c = 0; c < kCircuits; ++c) {
            wrpt::random_circuit_spec spec;
            // Sizes follow the Zipf rank, not the seed, so every seed puts
            // the same amount of work on the hot circuits.
            spec.inputs = 10 + (c * 7) % 15;
            spec.gates = 100 + (c * 131) % 300;
            std::array<std::string, 2> src;
            for (std::string& s : src) {
                spec.seed = r.next();
                s = wrpt::write_bench_string(wrpt::make_random_circuit(spec));
            }
            tenants.push_back("t" + std::to_string(c % kTenants));
            char name[16];
            std::snprintf(name, sizeof name, "c%03zu", c);
            names.push_back(name);
            bench.push_back(std::move(src));
            inputs.push_back(spec.inputs);
            zipf.push_back(1.0 / static_cast<double>(c + 1));
        }
        variant.assign(kCircuits, 0);
        repeat_keys.resize(kCircuits);
        for (std::size_t c = 0; c < kCircuits; ++c)
            for (std::size_t i = 0; i < kRepeats; ++i) {
                svc::test_length_request t;
                t.name = address(c);
                if (i > 0) t.weights = grid_weights(r, inputs[c]);
                repeat_keys[c].push_back(add(st, kind::test_length, t));
            }
        for (std::size_t t = 0; t < kTenants; ++t) {
            svc::list_circuits_request l;
            l.tenant = "t" + std::to_string(t);
            list_keys.push_back(add(st, kind::list, l));
        }
        // The knee is near 1700 reads/s on a 4-vCPU machine.
        shape.rate_lo = 400;
        shape.rate_hi = 800;
        shape.rate_burst = 4000;
        shape.late_limit_us = 1000;
    }

    static std::uint32_t add(run_state& st, kind k, auto payload) {
        const std::uint64_t id = st.keys.size();
        st.keys.push_back({wire_line(make(id, std::move(payload))), k, id});
        return static_cast<std::uint32_t>(id);
    }

    /// A read: a Zipf-ranked circuit, half repeated and half fresh vectors.
    std::uint32_t read(run_state& st, rng& r) {
        const std::size_t c = r.pick(zipf);
        if (r.uniform() < 0.5) return repeat_keys[c][r.below(kRepeats)];
        svc::test_length_request t;
        t.name = address(c);
        t.weights = grid_weights(r, inputs[c]);
        return add(st, kind::test_length, t);
    }

    open_plans plans(run_state& st) {
        // A burst is reads only, on the read connections.
        auto burst = [&](rng& r, double rate, double t) {
            auto p = poisson_plan(r, rate, t, 3, [&](rng& rr) { return read(st, rr); });
            p.emplace_back();
            return p;
        };
        return plan_open(st.opt, shape, [&](rng& r, double rate, double t) {
            return plan(st, r, rate, t);
        }, burst);
    }

    /// One phase: reads on three connections, catalog writes on the
    /// fourth — a reload every 100 ms (alternating each circuit between
    /// its two variants) and a list_circuits every 2 s.
    std::vector<std::vector<arrival>> plan(run_state& st, rng& r, double rate,
                                           double seconds) {
        auto p = poisson_plan(r, rate, seconds, 3,
                              [&](rng& rr) { return read(st, rr); });
        std::vector<arrival> writes;
        for (double t = 0.05; t < seconds; t += 0.1) {
            const std::size_t c = r.pick(zipf);
            variant[c] ^= 1;
            svc::reload_circuit_request rl;
            rl.tenant = tenants[c];
            rl.name = names[c];
            rl.bench = bench[c][variant[c]];
            writes.push_back({static_cast<std::int64_t>(t * 1e9),
                              add(st, kind::reload, rl)});
            if (std::fmod(t + 1.0, 2.0) < 0.1)
                writes.push_back({static_cast<std::int64_t>((t + 0.01) * 1e9),
                                  list_keys[r.below(kTenants)]});
        }
        p.push_back(std::move(writes));
        return p;
    }
};

report run_churn(const options& opt) {
    run_state st(opt);
    churn_spec w;
    w.build(st);
    const open_plans plans = w.plans(st);
    std::array<std::unique_ptr<svc::service>, 2> ref;  // built after the window

    std::vector<std::string> reg_lines, warm;
    for (const auto& r : w.regs(0)) reg_lines.push_back(wire_line(make(0, r)));
    for (std::size_t i = 0; i < 16; ++i)
        warm.push_back(st.keys[w.repeat_keys[i][0]].line);
    std::map<std::uint64_t, unsigned> rev_variant;
    set_up(st, 16, [&] {
        rev_variant.clear();
        for (const std::string& resp : pipelined(st.socket(), reg_lines, 2)) {
            const svc::response r = svc::decode_response(resp);
            if (!r.ok) throw std::runtime_error("registration failed: " + resp);
            rev_variant[std::get<svc::register_circuit_response>(r.payload).revision] = 0;
        }
        for (const std::string& r : pipelined(st.socket(), warm, 2))
            if (r.find("\"ok\":true") == std::string::npos)
                throw std::runtime_error("warm-up failed: " + r);
    });

    daemon_totals dt;
    dt.stats_before = fetch_stats(st.socket());
    dt.before = st.d->sample();
    std::vector<int> fds = open_conns(st.socket(), kConns);
    auto check = [&](std::uint32_t k, const svc::response& served) {
        switch (st.keys[k].k) {
            case kind::reload:
                return served.kind() == svc::response_kind::reload_circuit;
            case kind::list:
                return served.kind() == svc::response_kind::list_circuits &&
                       std::get<svc::list_circuits_response>(served.payload)
                               .entries.size() ==
                           churn_spec::kCircuits / churn_spec::kTenants;
            default: {
                const auto it = rev_variant.find(
                    std::get<svc::test_length_response>(served.payload).revision);
                if (it == rev_variant.end()) return false;
                return same_result(served, ref[it->second]->handle(
                                               svc::decode_request(st.keys[k].line)));
            }
        }
    };
    // Reloads first: their answers name the revision each variant got.
    auto check_run = [&] {
        for (const exemplars::entry& e : st.ex.entries) {
            if (st.keys[e.key].k != kind::reload) continue;
            const svc::response r = svc::decode_response(e.line);
            const svc::reload_circuit_request q = std::get<svc::reload_circuit_request>(
                svc::decode_request(st.keys[e.key].line).payload);
            if (!r.ok) continue;
            const std::size_t c = static_cast<std::size_t>(std::stoul(q.name.substr(1)));
            rev_variant[std::get<svc::reload_circuit_response>(r.payload).revision] =
                q.bench == w.bench[c][0] ? 0 : 1;
        }
        st.check_all(check);
    };
    auto is_read = [&](const sample& s) { return st.keys[s.key].k == kind::test_length; };
    trace tr;
    drive_rounds(st, fds, w.shape, plans, opt.trace ? &tr : nullptr);
    dt.after = st.d->sample();
    dt.stats_after = fetch_stats(st.socket());
    close_conns(fds);
    ref = {reference_service(w.regs(0)), reference_service(w.regs(1))};
    check_run();

    report rep;
    st.count(rep);
    st.print_phases();
    warn_invalid(st);
    auto read_stat = [&](double latency::*q) {
        return [&, q](const phase& p) { return st.lat(p, is_read).*q; };
    };
    if (!opt.trace) {
        auto write_p50 = [&](const phase& p) {
            std::vector<double> v;
            for (const sample& s : p.samples)
                if (st.keys[s.key].k == kind::reload)
                    v.push_back(st.failed(s) ? INFINITY : s.latency_ms());
            return percentile(v, 0.5);
        };
        rep.add("setup_s", percentile(st.setup_s, 0.5), "s");
        rep.add("rss_peak_mb", dt.after.vm_hwm_mb, "MiB");
        rep.add("lat_p50_ms", over_rounds(st, "lo", read_stat(&latency::p50), kLatencyQuantile),
                "ms");
        std::printf("lat_p90_ms_hi %.6g ms (reads at rate_hi, not gated)\n",
                    over_rounds(st, "hi", read_stat(&latency::p90), kLatencyQuantile));
        // The burst is reads only: its answers per second are the read
        // jobs the daemon completes at saturation.
        rep.add("jobs_per_s", over_rounds(st, "burst", [&](const phase& p) {
                    return completion_rate(st, p, is_read);
                }), "jobs/s");
        std::printf("write_p50_ms %.6g ms (reloads at rate_lo, not gated)\n",
                    over_rounds(st, "lo", write_p50, kLatencyQuantile));
    } else {
        std::size_t window = 0;
        for (const phase& p : st.phases) window += p.samples.size();
        add_stats_metrics(st, dt, window, rep);
        // The reload probe must not change what the reference answers.
        auto probe_ref = reference_service(w.regs(0));
        probe_inputs in = probe_base(st, probe_ref.get());
        in.first = w.reg(0, 0);
        in.second = w.reg(1, 0);
        for (std::size_t i = 0; i < 8; ++i)
            for (std::uint32_t k : w.repeat_keys[i])
                in.hit_lines.push_back(st.keys[k].line);
        layer_probes(in, rep, tr);
        rep.add("server.wait_ms", over_rounds(st, "lo", wait_ms), "ms");
        rep.add("wire.bytes_per_resp", over_rounds(st, "lo", mean_bytes), "B");
        // catalog-churn sends no optimize or fault_sim: its pipeline and
        // fault_sim rows replay both on its 8 hottest circuits, checked
        // against the in-process service's own answers.
        std::vector<replay_job> jobs;
        std::vector<std::pair<kind, double>> misses;
        for (const phase& p : st.phases)
            if (p.name.rfind("lo.", 0) == 0) {
                auto m = served_misses(st, p);
                misses.insert(misses.end(), m.begin(), m.end());
            }
        for (std::size_t i = 0; i < 8; ++i) {
            svc::optimize_request o;
            o.name = w.address(i);
            svc::fault_sim_request f;
            f.name = o.name;
            for (svc::request q : {make(1, o), make(2, f)}) {
                const svc::response r = probe_ref->handle(q);
                std::visit([&](const auto& p) {
                    if constexpr (requires { p.elapsed_ms; })
                        misses.emplace_back(q.kind() == svc::request_kind::optimize
                                                ? kind::optimize : kind::fault_sim,
                                            p.elapsed_ms);
                }, r.payload);
                jobs.push_back({q, r});
            }
        }
        add_batch_session_metrics(misses, rep);
        const replay_totals rt = replay(*probe_ref, jobs, kComputeThreads, rep, st.traces);
        rep.failed += rt.mismatches;
        rep.add("trace.overhead_ms", tracing_overhead_ms(st, is_read), "ms");
        std::printf("trace: replayed %zu optimize + %zu fault_sim jobs, %zu "
                    "mismatches\n",
                    rt.optimize_jobs, rt.fault_sim_jobs, rt.mismatches);
        write_traces(st, tr);
    }
    st.d->stop();
    rep.correct = rep.correct && rep.failed == 0;
    return rep;
}

void mix_plan(std::uint64_t& h, const std::vector<std::vector<arrival>>& plan) {
    for (const auto& c : plan)
        for (const arrival& a : c) {
            h = fnv(std::to_string(a.t), h);
            h = fnv(std::to_string(a.key), h);
        }
}

void mix_plans(std::uint64_t& h, const open_plans& p) {
    for (const round_plan& r : p.rounds) {
        mix_plan(h, r.lo);
        mix_plan(h, r.hi);
        mix_plan(h, r.burst);
    }
}

}  // namespace

report run_workload(const options& opt) {
    if (opt.workload == "hot-cached") return run_hot(opt);
    if (opt.workload == "optimize-then-simulate") return run_ots(opt);
    if (opt.workload == "catalog-churn") return run_churn(opt);
    throw std::runtime_error("unknown workload '" + opt.workload + "'");
}

std::uint64_t stream_digest(const options& opt) {
    run_state st(opt);
    std::uint64_t h = fnv(opt.workload);
    if (opt.workload == "hot-cached") {
        hot_cached w;
        w.build(st);
        mix_plans(h, w.plans(opt));
    } else if (opt.workload == "catalog-churn") {
        churn_spec w;
        w.build(st);
        mix_plans(h, w.plans(st));
    } else if (opt.workload == "optimize-then-simulate") {
        // The closed loop's seeded choices; the fault_sim weights are the
        // daemon's answers and so not part of the stream.
        const ots_spec w;
        for (const char* phase : ots_spec::phases)
            for (unsigned c = 0; c < kComputeThreads; ++c) {
                const std::uint64_t seed = ots_spec::client_seed(opt.seed, phase, c);
                rng r(seed);
                for (std::size_t i = 0; i < 64; ++i) {
                    const ots_spec::step s = w.next(r, w.first_turn(seed) + i);
                    h = fnv(std::to_string(s.circuit) + ":" +
                                std::to_string(s.sim_seed), h);
                    for (double x : s.start) h = fnv(std::to_string(x), h);
                }
            }
    } else {
        throw std::runtime_error("unknown workload '" + opt.workload + "'");
    }
    for (const key& k : st.keys) h = fnv(k.line, h);
    return h;
}

}  // namespace wb
