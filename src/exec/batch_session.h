// Multi-circuit optimization service — the serving-shaped engine layer.
//
// A deployment tests many circuit variants under many candidate weight
// vectors at once: N circuits x M weight vectors per request, millions of
// requests over the same compiled structures. batch_session is that
// surface: add circuits once, then submit batches of jobs — OPTIMIZE
// runs, required-test-length queries, weighted fault simulations — that
// execute concurrently on the work-stealing pool. Every job gets private
// estimator/simulator state over the shared immutable view, so the only
// mutable sharing is the per-circuit engine_pool (mutex-guarded
// checkout/return); results are written into a slot per job, keyed by
// the circuit's revision stamp, and are bit-identical to running the same
// jobs sequentially.
//
// One table holds every circuit: a handle's entry owns the netlist (whose
// own revision stamps every result) and, while resident, the view with
// input cones, the full fault list and the warm engine pool compiled over
// it. make_resident / unload / reload move an entry through that
// lifecycle under the same handle; svc/registry names entries and runs
// the view LRU on top.
//
// Cross-request reuse: a resident circuit keeps one warm engine_pool.
// Engines built by one run() call go back warm and serve the next call
// after an incremental re-sync, so a long-lived session never pays the
// full-analysis build twice for the same concurrency level — asserted via
// pool(h).stats().hits in the tests.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/circuit_view.h"
#include "fault/fault.h"
#include "io/weights_io.h"
#include "netlist/netlist.h"
#include "opt/optimizer.h"
#include "svc/request.h"
#include "util/dense_map.h"

namespace wrpt {

class engine_pool;
class thread_pool;

class batch_session {
public:
    struct options {
        /// Worker threads for the session pool (0 = hardware threads).
        unsigned threads = 0;
        /// Confidence for test_length jobs that leave their own at 0.
        double confidence = 0.999;
        /// Per-circuit engine-pool capacity: at most this many warm
        /// engines are retained per circuit (0 = unbounded) — see
        /// engine_pool::set_capacity.
        std::size_t max_engines = 0;
    };

    batch_session();  // default options (defined out of line: the nested
                      // aggregate is incomplete at this point)
    explicit batch_session(options opt);
    ~batch_session();

    batch_session(const batch_session&) = delete;
    batch_session& operator=(const batch_session&) = delete;

    /// Add a circuit entry. The session owns the netlist (the entry's
    /// only copy, at a stable address) and keeps its revision; with
    /// `resident` the entry's view, full fault list and warm engine pool
    /// are compiled at once, otherwise on the first make_resident.
    /// Returns the handle used in jobs; handles are never reissued.
    std::size_t add_circuit(netlist nl, bool resident = true);

    /// The three lifecycle verbs. Each reshapes the circuit table, so the
    /// caller must hold it exclusive against run() and every reader.
    /// make_resident compiles `handle`'s view, faults and pool over its
    /// netlist and returns true, or returns false if already resident.
    bool make_resident(std::size_t handle);
    /// Drop `handle`'s compiled state; the netlist, its revision and the
    /// handle stay, so make_resident rebuilds it unchanged.
    void unload(std::size_t handle);
    /// Hot reload: swap `handle`'s netlist for `nl` (a new revision, so
    /// results cached under the old one are orphaned) and recompile it if
    /// resident. The replacement compiles before the old state is freed,
    /// so a failure leaves the entry serviceable.
    void reload(std::size_t handle, netlist nl);

    /// True while `handle` names an entry, resident or not.
    bool has_entry(std::size_t handle) const {
        return circuits_.contains(handle);
    }
    /// True while `handle` names a resident (compiled) entry.
    bool has_circuit(std::size_t handle) const {
        const entry* e = circuits_.find(handle);
        return e != nullptr && e->view != nullptr;
    }
    /// Resident entries.
    std::size_t circuit_count() const;
    /// Ascending handles of every entry, resident or not.
    std::vector<std::size_t> handles() const;
    /// The entry's netlist, resident or not.
    const netlist& circuit(std::size_t handle) const;
    /// The compiled state below needs a resident entry.
    const circuit_view& view(std::size_t handle) const;
    const std::vector<fault>& faults(std::size_t handle) const;
    /// The circuit's warm engine pool (shared by every job working it;
    /// stats() exposes the cross-run hit/miss/eviction counters). The
    /// non-const overload allows capacity changes and explicit eviction
    /// (svc::service's evict request rides it).
    const engine_pool& pool(std::size_t handle) const;
    engine_pool& pool(std::size_t handle);

    /// The job vocabulary is the typed request layer (svc/request.h):
    /// svc::job_request — test_length_request, optimize_request or
    /// fault_sim_request — is what run() executes natively.
    using job_kind = svc::job_kind;

    struct result {
        std::size_t circuit = 0;
        std::uint64_t revision = 0;  ///< revision stamp the job ran against
        job_kind kind = job_kind::test_length;
        double elapsed_seconds = 0.0;  ///< wall time of this job alone
        /// test_length (also filled for optimize: the final length).
        test_length_report length;
        /// optimize jobs.
        optimize_result optimized;
        /// fault_sim jobs.
        std::uint64_t patterns_applied = 0;
        std::size_t fault_count = 0;
        std::size_t detected = 0;
        double coverage_percent = 0.0;
    };

    /// Execute all requests concurrently; results[i] answers requests[i].
    /// Bit-identical to running the requests one by one in order.
    std::vector<result> run(const std::vector<svc::job_request>& requests);

    /// Expand a matrix request into its job list (circuit-major order:
    /// jobs[c * weight_sets.size() + w]; an empty circuit list means
    /// every entry, resident or not) — the single definition of the N x M
    /// request shape. svc::service::handle(matrix_request) runs it with
    /// caching on top.
    std::vector<svc::job_request> expand_matrix(
        const svc::matrix_request& m) const;

private:
    struct entry {
        std::unique_ptr<netlist> nl;  // stable address: the view points in
        // Compiled over *nl while resident, null otherwise.
        std::unique_ptr<circuit_view> view;
        std::vector<fault> faults;
        // Warm engines over `view`, kept across run() calls; every job's
        // estimator adopts this pool instead of growing its own.
        std::unique_ptr<engine_pool> pool;
    };

    result run_one(const svc::job_request& j) const;
    const entry& at(std::size_t handle) const;
    entry& at(std::size_t handle);
    /// at(), but the entry must be resident.
    const entry& resident(std::size_t handle) const;
    /// Compile `e`'s view, faults and pool over its netlist.
    void compile(entry& e) const;

    options options_;
    // Handle -> entry. Handles come from a monotonic counter, so every
    // probe lands in the map's direct-index array region; const lookups
    // are count-free, which keeps concurrent run_one() jobs race-free.
    util::dense_map<entry, std::size_t> circuits_;
    std::size_t next_handle_ = 0;
    std::unique_ptr<thread_pool> pool_;
};

}  // namespace wrpt
