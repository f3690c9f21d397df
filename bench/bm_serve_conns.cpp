// Connection-scale rows for BENCH_serve.json: request latency through a
// daemon that is simultaneously holding a crowd of idle connections.
//
// Each row opens `idle` connections that never send a byte (the parked
// fleet an event-driven daemon must carry for free), then runs `active`
// concurrent clients issuing cached optimize requests over persistent
// connections, and reports per-request p50/p99 latency alongside the
// daemon's own thread count — the direct evidence that the reactor holds
// 10k sessions without one thread per connection (threads stays at
// reactor + fixed workers however large `idle` grows; under the old
// session-per-connection model it would read 10k+).
//
// The custom main raises RLIM_NOFILE to the hard limit first: the 10k
// row needs ~2x idle fds (client + server side of every connection).
// Rows whose fd budget still does not fit are skipped, not failed, so
// constrained environments keep the 100/1k rows.

#include <benchmark/benchmark.h>

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "svc/server.h"
#include "svc/service.h"
#include "svc/socket.h"
#include "util/sync.h"

namespace {

using namespace wrpt;

// The daemon's own thread count, from /proc/self/status (0 where the
// procfs field is unavailable). The server runs in-process, so this
// counts reactor + workers (+ the bench's own threads, a known constant).
double process_thread_count() {
#ifdef __linux__
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (!f) return 0.0;
    char line[256];
    double threads = 0.0;
    while (std::fgets(line, sizeof line, f)) {
        int value = 0;
        if (std::sscanf(line, "Threads: %d", &value) == 1) {
            threads = static_cast<double>(value);
            break;
        }
    }
    std::fclose(f);
    return threads;
#else
    return 0.0;
#endif
}

bool fd_budget_fits(std::size_t idle, std::size_t active) {
    rlimit rl{};
    if (getrlimit(RLIMIT_NOFILE, &rl) != 0) return false;
    // Client + server side per connection, plus slack for the service,
    // the poller, the wake channel and stdio.
    const rlim_t needed = static_cast<rlim_t>(2 * (idle + active) + 64);
    return rl.rlim_cur >= needed;
}

void bm_serve_conns(benchmark::State& state) {
    const std::size_t idle = static_cast<std::size_t>(state.range(0));
    const std::size_t active = static_cast<std::size_t>(state.range(1));
    if (!fd_budget_fits(idle, active)) {
        state.SkipWithError("RLIMIT_NOFILE too low for this row");
        return;
    }

    svc::service service;
    {
        svc::request load;
        svc::load_circuit_request lp;
        lp.suite = "S1";
        load.payload = std::move(lp);
        if (!service.handle(load).ok) {
            state.SkipWithError("load failed");
            return;
        }
    }
    svc::request q;
    svc::optimize_request op;
    op.options.max_sweeps = 3;
    q.payload = op;
    service.handle(q);  // the active clients measure the cache-hit path

    const svc::endpoint ep = svc::endpoint::unix_at(
        (std::filesystem::temp_directory_path() /
         ("wrpt_bm_conns_" + std::to_string(::getpid()) + ".sock"))
            .string());
    svc::server server(service, ep);

    // The parked fleet: connected, never sends, never read from. Opened
    // outside the timing loop — rows price the steady state, not the
    // connect storm.
    std::vector<svc::client> parked(idle);
    for (std::size_t i = 0; i < idle; ++i) {
        try {
            parked[i].connect(server.where(), 2000);
        } catch (const svc::socket_error& e) {
            state.SkipWithError(e.what());
            return;
        }
    }

    std::vector<svc::client> actives(active);
    for (std::size_t i = 0; i < active; ++i)
        actives[i].connect(server.where(), 2000);

    wrpt::mutex latency_mutex;
    std::vector<double> latencies_us;  // appended under latency_mutex
    for (auto _ : state) {
        std::vector<std::thread> threads;
        threads.reserve(active);
        for (std::size_t c = 0; c < active; ++c) {
            threads.emplace_back([&, c] {
                const auto t0 = std::chrono::steady_clock::now();
                const svc::response r = actives[c].roundtrip(q);
                const auto t1 = std::chrono::steady_clock::now();
                benchmark::DoNotOptimize(r.ok);
                const double us =
                    std::chrono::duration<double, std::micro>(t1 - t0)
                        .count();
                wrpt::lock_guard lock(latency_mutex);
                latencies_us.push_back(us);
            });
        }
        for (std::thread& t : threads) t.join();
    }

    const double daemon_threads = process_thread_count();
    const svc::server::counters sc = server.stats();
    state.counters["idle_conns"] = static_cast<double>(idle);
    state.counters["active_conns"] = static_cast<double>(active);
    state.counters["held_conns"] = static_cast<double>(sc.active);
    state.counters["accepted"] = static_cast<double>(sc.accepted);
    state.counters["workers"] = static_cast<double>(sc.workers);
    state.counters["process_threads"] = daemon_threads;
    state.counters["p50_us"] = bench::percentile(latencies_us, 0.50);
    state.counters["p99_us"] = bench::percentile(latencies_us, 0.99);

    parked.clear();
    actives.clear();
    server.stop();
    server.wait();
}

BENCHMARK(bm_serve_conns)
    ->Args({100, 8})
    ->Args({1000, 8})
    ->Args({10000, 8})
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(50)
    ->UseRealTime();

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): the 10k-connection row only
// fits after raising the soft fd limit to the hard one.
int main(int argc, char** argv) {
    rlimit rl{};
    if (getrlimit(RLIMIT_NOFILE, &rl) == 0) {
        // With CAP_SYS_RESOURCE the hard limit itself can move — try
        // for a 10k-row-sized budget first, then settle for the hard
        // limit as found.
        const rlim_t want = 1 << 16;
        if (rl.rlim_max < want) {
            rlimit big{want, want};
            if (setrlimit(RLIMIT_NOFILE, &big) == 0) rl = big;
        }
        if (rl.rlim_cur < rl.rlim_max) {
            rl.rlim_cur = rl.rlim_max;
            setrlimit(RLIMIT_NOFILE, &rl);
        }
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
