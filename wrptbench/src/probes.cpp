#include "probes.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <thread>

#include "exec/batch_session.h"
#include "exec/thread_pool.h"
#include "load.h"
#include "opt/optimizer.h"
#include "sim/fault_sim.h"
#include "sim/patterns.h"
#include "svc/wire.h"

namespace wb {

namespace svc = wrpt::svc;

namespace {

/// Time `fn` once as a span under `parent`; returns microseconds.
template <class Fn>
double timed_us(trace& tr, const char* name, std::int32_t parent, Fn&& fn) {
    const std::int32_t s = tr.begin(name, parent, 0);
    fn();
    tr.end(s);
    const span& sp = tr.spans[static_cast<std::size_t>(s)];
    return static_cast<double>(sp.end - sp.start) * 1e-3;
}

/// svc/socket floor: a raw unix-socket ping-pong of one request-sized
/// message between two threads of this process.
double socket_floor_us(std::size_t bytes, int reps, trace& tr) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
        throw std::runtime_error("socketpair failed");
    auto xfer = [bytes](int fd, char* buf, bool reading) {
        for (std::size_t done = 0; done < bytes;) {
            const ssize_t n = reading ? ::read(fd, buf + done, bytes - done)
                                      : ::write(fd, buf + done, bytes - done);
            if (n <= 0) return false;
            done += static_cast<std::size_t>(n);
        }
        return true;
    };
    std::thread echo([&] {
        std::string buf(bytes, 'x');
        for (int i = 0; i < reps; ++i)
            if (!xfer(sv[1], buf.data(), true) || !xfer(sv[1], buf.data(), false))
                return;
    });
    std::string buf(bytes, 'x');
    std::vector<double> rtt;
    const std::int32_t root = tr.begin("probe.socket_floor", -1, 0);
    for (int i = 0; i < reps; ++i)
        rtt.push_back(timed_us(tr, "socket.rtt", root, [&] {
            xfer(sv[0], buf.data(), false);
            xfer(sv[0], buf.data(), true);
        }));
    tr.end(root);
    echo.join();
    ::close(sv[0]);
    ::close(sv[1]);
    return percentile(rtt, 0.5);
}

/// exec/thread_pool: submit -> start latency on an idle pool.
double pool_handoff_us(unsigned workers, int reps, trace& tr) {
    wrpt::thread_pool pool(workers);
    std::vector<double> v;
    const std::int32_t root = tr.begin("probe.thread_pool", -1, 0);
    for (int i = 0; i < reps; ++i) {
        std::atomic<std::int64_t> started{0};
        const std::int64_t t0 = now_ns();
        pool.submit([&started] { started.store(now_ns()); });
        pool.wait_idle();
        tr.add("thread_pool.handoff", t0, started.load(), root, 0);
        v.push_back(static_cast<double>(started.load() - t0) * 1e-3);
        // Let the workers park again so every handoff meets an idle pool.
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    tr.end(root);
    return percentile(v, 0.5);
}

svc::request named_test_length(const std::string& address,
                               const wrpt::weight_vector& w) {
    svc::test_length_request p;
    p.name = address;
    p.weights = w;
    svc::request q;
    q.payload = p;
    return q;
}

std::string address_of(const svc::register_circuit_request& r) {
    return r.tenant + "/" + r.name;
}

std::size_t inputs_of(svc::service& s, const std::string& address) {
    const svc::response r = s.handle(named_test_length(address, {}));
    if (!r.ok) throw std::runtime_error("probe circuit " + address + " failed");
    const auto res = s.catalog().resolve(address);
    return s.session().circuit(res.handle).input_count();
}

}  // namespace

void layer_probes(const probe_inputs& in, report& rep, trace& tr) {
    const int reps = in.smoke ? 100 : 2000;
    svc::service& ref = *in.ref;

    rep.add("socket.floor_rtt_us",
            socket_floor_us(in.request_bytes, 2 * reps, tr), "us");
    rep.add("thread_pool.handoff_us", pool_handoff_us(in.workers, reps, tr),
            "us");

    // svc/wire decode and svc/service hits over the workload's cached
    // request lines, in-process on the reference service.
    std::vector<double> decode_us, hit_us, encode_hit_us;
    std::uint64_t hit_allocs = 0, hits = 0;
    std::string scratch;
    const std::int32_t root = tr.begin("probe.service", -1, 0);
    const int per_line = std::max<int>(4, reps / static_cast<int>(
                                                 std::max<std::size_t>(1, in.hit_lines.size())));
    double first_decode = 0, first_hit = 0, first_encode = 0;
    for (std::size_t li = 0; li < in.hit_lines.size(); ++li) {
        const std::string_view line(in.hit_lines[li].data(),
                                    in.hit_lines[li].size() - 1);
        svc::request q;
        std::vector<double> d, h, e;
        for (int i = 0; i < per_line; ++i)
            d.push_back(timed_us(tr, "wire.decode", root,
                                 [&] { q = svc::decode_request(line); }));
        svc::response r = ref.handle(q);  // make sure the next ones hit
        for (int i = 0; i < per_line; ++i) {
            const std::uint64_t a0 = allocations();
            h.push_back(timed_us(tr, "service.handle", root,
                                 [&] { r = ref.handle(q); }));
            hit_allocs += allocations() - a0;
            ++hits;
            e.push_back(timed_us(tr, "wire.encode", root,
                                 [&] { svc::encode_into(r, scratch); }));
        }
        if (li == 0) {
            first_decode = percentile(d, 0.5);
            first_hit = percentile(h, 0.5);
            first_encode = percentile(e, 0.5);
        }
        decode_us.insert(decode_us.end(), d.begin(), d.end());
        hit_us.insert(hit_us.end(), h.begin(), h.end());
    }
    tr.end(root);
    rep.add("wire.decode_us", percentile(decode_us, 0.5), "us");

    // svc/wire encode per response kind, on the probe circuit.
    const std::string probe = address_of(in.first);
    const std::size_t inputs = inputs_of(ref, probe);
    std::vector<std::pair<const char*, svc::request>> kinds;
    {
        svc::optimize_request o;
        o.name = probe;
        svc::fault_sim_request f;
        f.name = probe;
        svc::request qo, qf, qs;
        qo.payload = o;
        qf.payload = f;
        qs.payload = svc::stats_request{};
        kinds = {{"wire.encode_us.optimize", qo},
                 {"wire.encode_us.test_length", named_test_length(probe, {})},
                 {"wire.encode_us.fault_sim", qf},
                 {"wire.encode_us.stats", qs}};
    }
    std::uint64_t enc_allocs = 0, encodes = 0;
    const std::int32_t enc_root = tr.begin("probe.encode", -1, 0);
    for (auto& [name, q] : kinds) {
        const svc::response r = ref.handle(q);
        svc::encode_into(r, scratch);  // grow the buffer once
        std::vector<double> e;
        for (int i = 0; i < reps / 4; ++i) {
            const std::uint64_t a0 = allocations();
            e.push_back(timed_us(tr, "wire.encode", enc_root,
                                 [&] { svc::encode_into(r, scratch); }));
            enc_allocs += allocations() - a0;
            ++encodes;
        }
        rep.add(name, percentile(e, 0.5), "us");
    }
    tr.end(enc_root);
    rep.add("wire.allocs_per_encode",
            static_cast<double>(enc_allocs) / static_cast<double>(encodes),
            "count");

    rep.add("service.hit_us", percentile(hit_us, 0.5), "us");
    rep.add("service.allocs_per_hit",
            hits ? static_cast<double>(hit_allocs) / static_cast<double>(hits)
                 : 0.0,
            "count");
    {
        rng r(0x5e41ce);
        std::vector<double> miss;
        const std::int32_t s = tr.begin("probe.service_miss", -1, 0);
        for (int i = 0; i < std::max(5, reps / 100); ++i) {
            const svc::request q =
                named_test_length(probe, grid_weights(r, inputs));
            miss.push_back(
                timed_us(tr, "service.handle", s, [&] { ref.handle(q); }) *
                1e-3);
        }
        tr.end(s);
        rep.add("service.miss_ms", percentile(miss, 0.5), "ms");
    }

    // server.self_us: the daemon's cached round trip minus the in-process
    // decode + handle + encode of the same request.
    {
        line_conn c(in.socket);
        const std::string& line = in.hit_lines.front();
        c.roundtrip(line);
        std::vector<double> rtt;
        const std::int32_t s = tr.begin("probe.daemon_hit", -1, 0);
        for (int i = 0; i < reps; ++i)
            rtt.push_back(timed_us(tr, "server.rtt", s, [&] { c.roundtrip(line); }));
        tr.end(s);
        rep.add("server.self_us",
                percentile(rtt, 0.5) - first_decode - first_hit - first_encode,
                "us");
    }

    // svc/registry: a one-view catalog over two circuits, so every other
    // named job on the probe circuit compiles its view.
    {
        svc::service::options so;
        so.threads = 1;
        so.max_views = 1;
        svc::service s(so);
        for (const auto* reg : {&in.first, &in.second}) {
            svc::request q;
            q.payload = *reg;
            if (!s.handle(q).ok)
                throw std::runtime_error("registry probe registration failed");
        }
        const std::string other = address_of(in.second);
        const std::size_t other_inputs = inputs_of(s, other);
        rng r(0xc0ffee);
        std::vector<double> nonres, res, reload;
        const std::int32_t root2 = tr.begin("probe.registry", -1, 0);
        const int n = in.smoke ? 2 : 8;
        for (int i = 0; i < n; ++i) {
            s.handle(named_test_length(other, grid_weights(r, other_inputs)));
            const svc::request a = named_test_length(probe, grid_weights(r, inputs));
            const svc::request b = named_test_length(probe, grid_weights(r, inputs));
            nonres.push_back(timed_us(tr, "registry.compile_job", root2,
                                      [&] { s.handle(a); }) * 1e-3);
            res.push_back(timed_us(tr, "registry.resident_job", root2,
                                   [&] { s.handle(b); }) * 1e-3);
        }
        svc::reload_circuit_request rl;
        rl.tenant = in.first.tenant;
        rl.name = in.first.name;
        rl.bench = in.first.bench;
        rl.path = in.first.path;
        rl.suite = in.first.suite;
        svc::request q;
        q.payload = rl;
        for (int i = 0; i < n; ++i)
            reload.push_back(timed_us(tr, "registry.reload", root2, [&] {
                                 if (!s.handle(q).ok)
                                     throw std::runtime_error("reload probe failed");
                             }) * 1e-3);
        tr.end(root2);
        rep.add("registry.compile_ms",
                percentile(nonres, 0.5) - percentile(res, 0.5), "ms");
        rep.add("registry.reload_ms", percentile(reload, 0.5), "ms");
    }
}

namespace {

struct replay_acc {
    std::size_t opt_jobs = 0, sim_jobs = 0, mismatches = 0;
    double analysis_calls = 0, probes = 0, sweeps = 0, builds = 0,
           engine_probes = 0, faults = 0, patterns = 0, sim_ms = 0;
};

bool same_weights(const wrpt::weight_vector& a, const wrpt::weight_vector& b) {
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

void replay_one(svc::service& ref, const replay_job& job, std::uint64_t id,
                trace& tr, replay_acc& acc) {
    wrpt::batch_session& s = ref.session();
    if (const auto* o = std::get_if<svc::optimize_request>(&job.req.payload)) {
        const std::size_t h = ref.catalog().resolve(o->name).handle;
        const wrpt::netlist& nl = s.circuit(h);
        const wrpt::weight_vector start =
            o->weights.empty() ? wrpt::uniform_weights(nl) : o->weights;
        timed_estimator est(tr, id);
        est.inner().adopt_pool(s.pool(h));
        est.set_threads(o->options.threads);
        const std::int32_t js = tr.begin("job.optimize", -1, id);
        const std::int32_t ps = tr.begin("pipeline.optimize", js, id);
        est.set_parent(ps);
        const wrpt::optimize_result r =
            wrpt::optimize_weights(nl, s.faults(h), est, start, o->options);
        tr.end(ps);
        const std::int32_t ls = tr.begin("job.final_length", js, id);
        const wrpt::test_length_report len = wrpt::required_test_length(
            nl, s.faults(h), est.inner(), r.weights, o->options.confidence,
            o->options.threads);
        tr.end(ls);
        tr.end(js);
        const auto& served = std::get<svc::optimize_response>(job.served.payload);
        if (!same_weights(r.weights, served.weights) ||
            r.final_test_length != served.final_length ||
            len.test_length != served.length.test_length)
            ++acc.mismatches;
        ++acc.opt_jobs;
        acc.analysis_calls += static_cast<double>(est.analysis_calls);
        acc.probes += static_cast<double>(est.probes);
        acc.sweeps += static_cast<double>(r.history.size());
        acc.builds += static_cast<double>(est.inner().stats().engine_builds);
        acc.engine_probes += static_cast<double>(est.inner().stats().engine_probes);
        acc.faults += static_cast<double>(est.faults_estimated);
    } else if (const auto* f =
                   std::get_if<svc::fault_sim_request>(&job.req.payload)) {
        const std::size_t h = ref.catalog().resolve(f->name).handle;
        const wrpt::netlist& nl = s.circuit(h);
        wrpt::fault_sim_options fo;
        fo.max_patterns = f->patterns;
        fo.threads = 1;
        wrpt::weighted_random_source source(
            f->weights.empty() ? wrpt::uniform_weights(nl) : f->weights, f->seed);
        const std::int32_t js = tr.begin("job.fault_sim", -1, id);
        const wrpt::fault_sim_result sim =
            wrpt::run_fault_simulation(s.view(h), s.faults(h), source, fo);
        tr.end(js);
        const span& sp = tr.spans[static_cast<std::size_t>(js)];
        const auto& served = std::get<svc::fault_sim_response>(job.served.payload);
        if (sim.detected_count != served.detected ||
            sim.patterns_applied != served.patterns)
            ++acc.mismatches;
        ++acc.sim_jobs;
        acc.patterns += static_cast<double>(sim.patterns_applied);
        acc.sim_ms += static_cast<double>(sp.end - sp.start) * 1e-6;
    }
}

}  // namespace

replay_totals replay(svc::service& ref, const std::vector<replay_job>& jobs,
                     unsigned threads, report& rep,
                     std::vector<trace>& traces) {
    // Make every replayed circuit resident first (single-threaded), so
    // the replay threads only read the session's circuit table.
    for (const replay_job& j : jobs) {
        const std::string& name = std::visit(
            [](const auto& p) -> const std::string& {
                if constexpr (requires { p.name; }) return p.name;
                else throw std::logic_error("replay of a non-job request");
            },
            j.req.payload);
        if (!ref.catalog().resolve(name).resident ||
            !ref.session().has_circuit(ref.catalog().resolve(name).handle))
            ref.handle(named_test_length(name, {}));
    }
    const std::size_t first = traces.size();
    traces.resize(first + threads);
    std::vector<replay_acc> acc(threads);
    {
        std::vector<std::thread> pool;
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back([&, t] {
                for (std::size_t i = t; i < jobs.size(); i += threads)
                    replay_one(ref, jobs[i], i + 1, traces[first + t], acc[t]);
            });
        for (std::thread& t : pool) t.join();
    }
    replay_acc all;
    double analysis_ms = 0, prepare_ms = 0, other_ms = 0;
    for (unsigned t = 0; t < threads; ++t) {
        const replay_acc& a = acc[t];
        all.opt_jobs += a.opt_jobs;
        all.sim_jobs += a.sim_jobs;
        all.mismatches += a.mismatches;
        all.analysis_calls += a.analysis_calls;
        all.probes += a.probes;
        all.sweeps += a.sweeps;
        all.builds += a.builds;
        all.engine_probes += a.engine_probes;
        all.faults += a.faults;
        all.patterns += a.patterns;
        all.sim_ms += a.sim_ms;
        const trace& tr = traces[first + t];
        analysis_ms += tr.total_ms("pipeline.analysis");
        prepare_ms += tr.total_ms("pipeline.prepare");
        other_ms += tr.self_ms("pipeline.optimize");
    }
    const double oj = static_cast<double>(std::max<std::size_t>(1, all.opt_jobs));
    const double sj = static_cast<double>(std::max<std::size_t>(1, all.sim_jobs));
    rep.add("pipeline.analysis_ms", analysis_ms / oj, "ms");
    rep.add("pipeline.prepare_ms", prepare_ms / oj, "ms");
    rep.add("pipeline.other_ms", other_ms / oj, "ms");
    rep.add("pipeline.analysis_calls", all.analysis_calls / oj, "count");
    rep.add("pipeline.probes", all.probes / oj, "count");
    rep.add("pipeline.sweeps", all.sweeps / oj, "count");
    rep.add("prob.engine_builds", all.builds / oj, "count");
    rep.add("prob.engine_probes_per_job", all.engine_probes / oj, "count");
    rep.add("prob.faults_per_s",
            analysis_ms > 0 ? all.faults / (analysis_ms * 1e-3) : 0.0, "1/s");
    rep.add("fault_sim.ms", all.sim_ms / sj, "ms");
    rep.add("fault_sim.patterns_per_s",
            all.sim_ms > 0 ? all.patterns / (all.sim_ms * 1e-3) : 0.0, "1/s");
    rep.add("fault_sim.patterns_applied", all.patterns / sj, "count");
    return {all.opt_jobs, all.sim_jobs, all.mismatches};
}

}  // namespace wb
