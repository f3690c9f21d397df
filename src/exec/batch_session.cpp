#include "exec/batch_session.h"

#include "exec/engine_pool.h"
#include "exec/thread_pool.h"
#include "prob/detect.h"
#include "sim/fault_sim.h"
#include "util/error.h"
#include "util/timer.h"

namespace wrpt {

batch_session::batch_session() : batch_session(options{}) {}

batch_session::batch_session(options opt)
    : options_(opt), pool_(std::make_unique<thread_pool>(opt.threads)) {}

batch_session::~batch_session() = default;

void batch_session::compile(entry& e) const {
    circuit_view::compile_options co;
    co.input_cones = true;
    co.driven_pins = true;
    co.lane_groups = true;
    auto view = std::make_unique<circuit_view>(circuit_view::compile(*e.nl, co));
    std::vector<fault> faults = generate_full_faults(*e.nl);
    auto pool = std::make_unique<engine_pool>(*view);
    pool->set_capacity(options_.max_engines);
    e.view = std::move(view);
    e.faults = std::move(faults);
    e.pool = std::move(pool);
}

std::size_t batch_session::add_circuit(netlist nl, bool resident) {
    entry e;
    e.nl = std::make_unique<netlist>(std::move(nl));
    if (resident) compile(e);
    const std::size_t handle = next_handle_++;
    circuits_.try_emplace(handle, std::move(e));
    return handle;
}

bool batch_session::make_resident(std::size_t handle) {
    entry& e = at(handle);
    if (e.view != nullptr) return false;
    compile(e);
    return true;
}

void batch_session::unload(std::size_t handle) {
    entry& e = at(handle);
    e.pool.reset();
    e.view.reset();
    e.faults = std::vector<fault>();  // `= {}` would keep the capacity
}

void batch_session::reload(std::size_t handle, netlist nl) {
    entry& e = at(handle);
    entry fresh;
    fresh.nl = std::make_unique<netlist>(std::move(nl));
    if (e.view != nullptr) compile(fresh);
    unload(handle);  // the pool points into the view: free it first
    e = std::move(fresh);
}

std::size_t batch_session::circuit_count() const {
    std::size_t n = 0;
    circuits_.for_each([&](std::size_t, const entry& e) {
        if (e.view != nullptr) ++n;
    });
    return n;
}

std::vector<std::size_t> batch_session::handles() const {
    std::vector<std::size_t> out;
    out.reserve(circuits_.size());
    circuits_.for_each([&](std::size_t handle, const entry&) {
        out.push_back(handle);  // ascending-handle iteration order
    });
    return out;
}

const batch_session::entry& batch_session::at(std::size_t handle) const {
    // Const (count-free) lookup: run_one() calls this concurrently from
    // every pool worker.
    const entry* e = circuits_.find(handle);
    require(e != nullptr, "batch_session: bad circuit handle");
    return *e;
}

batch_session::entry& batch_session::at(std::size_t handle) {
    entry* e = circuits_.find(handle);
    require(e != nullptr, "batch_session: bad circuit handle");
    return *e;
}

const batch_session::entry& batch_session::resident(std::size_t handle) const {
    const entry& e = at(handle);
    require(e.view != nullptr, "batch_session: circuit is not resident");
    return e;
}

const netlist& batch_session::circuit(std::size_t handle) const {
    return *at(handle).nl;
}

const circuit_view& batch_session::view(std::size_t handle) const {
    return *resident(handle).view;
}

const std::vector<fault>& batch_session::faults(std::size_t handle) const {
    return resident(handle).faults;
}

const engine_pool& batch_session::pool(std::size_t handle) const {
    return *resident(handle).pool;
}

engine_pool& batch_session::pool(std::size_t handle) {
    return *resident(handle).pool;
}

batch_session::result batch_session::run_one(const svc::job_request& j) const {
    const std::size_t handle = std::visit(
        [](const auto& p) { return p.circuit; }, j);
    const entry& cc = resident(handle);
    const netlist& nl = *cc.nl;

    result r;
    r.circuit = handle;
    r.revision = nl.revision();
    r.kind = svc::kind_of(j);

    const weight_vector& requested = std::visit(
        [](const auto& p) -> const weight_vector& { return p.weights; }, j);
    const weight_vector weights =
        requested.empty() ? uniform_weights(nl) : requested;
    require(weights.size() == nl.input_count(),
            "batch_session: weight count mismatch");

    stopwatch sw;
    std::visit(
        [&](const auto& p) {
            using T = std::decay_t<decltype(p)>;
            if constexpr (std::is_same_v<T, svc::test_length_request>) {
                cop_detect_estimator analysis;
                // Adopting the circuit's warm pool shares engines built by
                // earlier jobs and earlier run() calls; the estimator's
                // own state stays private.
                analysis.adopt_pool(*cc.pool);
                const double conf =
                    p.confidence > 0.0 ? p.confidence : options_.confidence;
                r.length = required_test_length(nl, cc.faults, analysis,
                                                weights, conf, p.threads);
            } else if constexpr (std::is_same_v<T, svc::optimize_request>) {
                cop_detect_estimator analysis;
                analysis.adopt_pool(*cc.pool);
                // Stage/probe parallelism stays inside the job's own slice
                // of the pool: jobs are the outer parallel dimension here,
                // so each job defaults to sequential stages (threads 1).
                analysis.set_threads(p.options.threads);
                r.optimized = optimize_weights(nl, cc.faults, analysis,
                                               weights, p.options);
                r.length = required_test_length(
                    nl, cc.faults, analysis, r.optimized.weights,
                    p.options.confidence, p.options.threads);
            } else if constexpr (std::is_same_v<T, svc::fault_sim_request>) {
                fault_sim_options fo;
                fo.max_patterns = p.patterns;
                // Jobs fill the pool; block-level parallelism inside one
                // simulation would oversubscribe it.
                fo.threads = 1;
                weighted_random_source source(weights, p.seed);
                const fault_sim_result sim =
                    run_fault_simulation(*cc.view, cc.faults, source, fo);
                r.patterns_applied = sim.patterns_applied;
                r.fault_count = cc.faults.size();
                r.detected = sim.detected_count;
                r.coverage_percent = sim.coverage_percent(cc.faults.size());
            }
        },
        j);
    r.elapsed_seconds = sw.seconds();
    return r;
}

std::vector<batch_session::result> batch_session::run(
    const std::vector<svc::job_request>& requests) {
    std::vector<result> results(requests.size());
    // One parallel item per job; results are written by job index, so the
    // batch output is identical to a sequential loop for every pool size.
    pool_->parallel_for(requests.size(), [&](std::size_t i) {
        results[i] = run_one(requests[i]);
    });
    return results;
}

std::vector<svc::job_request> batch_session::expand_matrix(
    const svc::matrix_request& m) const {
    const std::vector<std::size_t> targets =
        m.circuits.empty() ? handles() : m.circuits;
    std::vector<svc::job_request> requests;
    requests.reserve(targets.size() * m.weight_sets.size());
    for (std::size_t c : targets) {
        for (const weight_vector& w : m.weight_sets) {
            switch (m.kind) {
                case job_kind::test_length: {
                    svc::test_length_request p;
                    p.circuit = c;
                    p.weights = w;
                    p.confidence = m.confidence;
                    p.threads = m.options.threads;
                    requests.push_back(std::move(p));
                    break;
                }
                case job_kind::optimize: {
                    svc::optimize_request p;
                    p.circuit = c;
                    p.weights = w;
                    p.options = m.options;
                    requests.push_back(std::move(p));
                    break;
                }
                case job_kind::fault_sim: {
                    svc::fault_sim_request p;
                    p.circuit = c;
                    p.weights = w;
                    p.patterns = m.patterns;
                    p.seed = m.seed;
                    requests.push_back(std::move(p));
                    break;
                }
            }
        }
    }
    return requests;
}

}  // namespace wrpt
