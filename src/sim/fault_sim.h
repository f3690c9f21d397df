// Parallel-pattern single-fault-propagation (PPSFP) fault simulation with
// fault dropping over fanout-free regions (block_simulator::detect_group)
// — regenerates the paper's Tables 2/4 and Fig. 2.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "fault/fault.h"
#include "netlist/netlist.h"
#include "sim/patterns.h"

namespace wrpt {

class circuit_view;

struct fault_sim_options {
    std::uint64_t max_patterns = 4096;
    /// Worker threads: 0 = one per shared_thread_pool() worker, 1 = run
    /// on the calling thread without touching the pool. Workers pull
    /// superblocks of 256 patterns off one shared counter, so the
    /// effective count is capped by the number of superblocks in the
    /// budget and by the pool size plus the calling thread. Per-fault
    /// first detections combine by atomic minimum, so the result is
    /// identical for every thread count. Blocks are drawn from `source`
    /// lazily in pull order; a run may draw up to one superblock per
    /// worker beyond the patterns it applies before the all-detected
    /// early exit stops it.
    unsigned threads = 0;
};

struct fault_sim_result {
    std::uint64_t patterns_applied = 0;
    /// Per fault (parallel to the input fault list): pattern index (0-based)
    /// of first detection, or nullopt if never detected.
    std::vector<std::optional<std::uint64_t>> first_detected;
    std::size_t detected_count = 0;

    /// Fault coverage in percent over the given fault universe size.
    double coverage_percent(std::size_t universe) const {
        return universe == 0
                   ? 100.0
                   : 100.0 * static_cast<double>(detected_count) /
                         static_cast<double>(universe);
    }

    /// Number of faults detected by the first `n` patterns.
    std::size_t detected_within(std::uint64_t n) const;
};

/// Simulate `faults` against patterns from `source`.
fault_sim_result run_fault_simulation(const netlist& nl,
                                      const std::vector<fault>& faults,
                                      pattern_source& source,
                                      const fault_sim_options& options);

/// Same, over an already compiled view — the batch_session path, where
/// every job on a circuit shares one compiled view instead of each run
/// recompiling it.
fault_sim_result run_fault_simulation(const circuit_view& cv,
                                      const std::vector<fault>& faults,
                                      pattern_source& source,
                                      const fault_sim_options& options);

/// Convenience: weighted random patterns with the given weights and seed.
fault_sim_result run_weighted_fault_simulation(
    const netlist& nl, const std::vector<fault>& faults,
    const weight_vector& weights, std::uint64_t seed,
    const fault_sim_options& options);

/// Coverage curve: (pattern count, coverage percent) at power-of-two-ish
/// sample points up to patterns_applied — the data behind Fig. 2.
std::vector<std::pair<std::uint64_t, double>> coverage_curve(
    const fault_sim_result& result, std::size_t universe);

}  // namespace wrpt
