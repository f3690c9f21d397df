// Parallel-pattern single-fault-propagation (PPSFP) fault simulation with
// fault dropping — regenerates the paper's Tables 2/4 and Fig. 2.

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
    bool drop_detected = true;  ///< stop simulating a fault once detected
    /// Worker threads for block-parallel PPSFP: 0 = one per hardware
    /// thread, 1 = sequential. Workers share one compiled circuit_view and
    /// pull 64-pattern blocks off an atomic work queue; per-fault first
    /// detections combine by atomic minimum, so the result is identical to
    /// the sequential run for the same pattern source. The parallel path
    /// draws blocks from `source` lazily in pull order and may draw up to
    /// `threads` blocks more than the sequential path before the
    /// all-detected early exit stops the workers.
    unsigned threads = 0;
    /// Machine words per PPSFP pass (clamped to [1, 8]): each pass
    /// simulates 64 * block_words patterns. block_words >= 2 selects the
    /// fanout-free-region kernel (block_simulator::detect_group): live
    /// faults are grouped by their region's stem, each fault's effect is
    /// traced to the stem with bit operations, and one event-driven
    /// wavefront per group and pass replaces one per fault. It is exact
    /// per bit, so first detections are bit-identical to block_words = 1
    /// (the per-fault scalar reference path), and the word-sequential
    /// early-exit accounting is replayed exactly — patterns_applied
    /// matches the one-word run. Like the parallel path, a blocked run
    /// may draw up to block_words - 1 blocks more from `source` than the
    /// one-word run before stopping.
    unsigned block_words = 4;
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
