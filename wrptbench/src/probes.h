// The traced run's per-layer measurements. Each one calls a layer's
// public functions from the benchmark itself, on the workload's own
// circuits and requests, and records spans around the calls:
//
//   layer_probes   svc/socket (raw ping-pong floor), exec/thread_pool
//                  (idle-pool handoff), svc/wire (decode, encode per kind,
//                  allocations), svc/service (cache hit and miss),
//                  svc/registry (view compile, reload), and the daemon's
//                  own cached round trip for server.self_us
//   replay         opt/pipeline and prob through optimize_weights with a
//                  timing estimator, sim/fault_sim through
//                  run_fault_simulation, each checked bit for bit against
//                  the served answer
#pragma once

#include <string>
#include <vector>

#include "common.h"
#include "svc/request.h"
#include "svc/service.h"
#include "trace.h"

namespace wb {

struct probe_inputs {
    wrpt::svc::service* ref = nullptr;  ///< in-process reference service
    /// Registration requests of two of the workload's circuits: the first
    /// is the probe circuit, the second the eviction partner for the
    /// registry compile probe.
    wrpt::svc::register_circuit_request first, second;
    /// Cached request lines of the workload (decode and hit timing).
    std::vector<std::string> hit_lines;
    std::string socket;   ///< the daemon's socket
    unsigned workers = 2; ///< the daemon's worker count
    std::size_t request_bytes = 128;  ///< mean request line length
    bool smoke = false;   ///< fewer repetitions
};

/// Adds the socket, thread_pool, wire, service, registry and
/// server.self_us metrics to `rep`; spans go to `tr`.
void layer_probes(const probe_inputs& in, report& rep, trace& tr);

/// One served optimize or fault_sim job to replay in-process.
struct replay_job {
    wrpt::svc::request req;      ///< as sent (named circuit)
    wrpt::svc::response served;  ///< as answered by the daemon
};

struct replay_totals {
    std::size_t optimize_jobs = 0;
    std::size_t fault_sim_jobs = 0;
    std::size_t mismatches = 0;
};

/// Replay `jobs` on `threads` threads through the pipeline and the fault
/// simulator over `ref`'s compiled views; adds the pipeline, prob and
/// fault_sim metrics. Each thread's spans go to its own trace in `traces`.
replay_totals replay(wrpt::svc::service& ref,
                     const std::vector<replay_job>& jobs, unsigned threads,
                     report& rep, std::vector<trace>& traces);

}  // namespace wb
