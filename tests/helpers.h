// Shared test helpers: random-vector equivalence checking between
// netlists, and the one-word per-fault fault-simulation reference.

#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/circuit_view.h"
#include "fault/fault.h"
#include "netlist/netlist.h"
#include "sim/fault_sim.h"
#include "sim/logic_sim.h"
#include "sim/patterns.h"
#include "util/rng.h"
#include "util/label.h"

namespace wrpt::testing {

/// Synthesized input label "x<i>" (see util/label.h for why not "x" +).
inline std::string label_x(int i) {
    return label("x", static_cast<std::size_t>(i));
}

/// Simulate `nl` on one 64-pattern random block; returns output words keyed
/// by output name.
inline std::map<std::string, std::uint64_t> random_block_outputs(
    const netlist& nl, rng& r) {
    simulator sim(nl);
    std::vector<std::uint64_t> words(nl.input_count());
    for (auto& w : words) w = r.next_word();
    sim.simulate(words);
    std::map<std::string, std::uint64_t> out;
    for (node_id o : nl.outputs()) out[nl.output_name(o)] = sim.value(o);
    return out;
}

/// Check functional equivalence of two netlists with identical input names
/// (same order) and identical output names, over `blocks` random blocks.
inline void expect_equivalent(const netlist& a, const netlist& b,
                              int blocks = 8, std::uint64_t seed = 0xe9123) {
    ASSERT_EQ(a.input_count(), b.input_count());
    ASSERT_EQ(a.output_count(), b.output_count());
    for (std::size_t i = 0; i < a.input_count(); ++i)
        ASSERT_EQ(a.node_name(a.inputs()[i]), b.node_name(b.inputs()[i]));
    rng ra(seed), rb(seed);
    for (int t = 0; t < blocks; ++t) {
        const auto oa = random_block_outputs(a, ra);
        const auto ob = random_block_outputs(b, rb);
        ASSERT_EQ(oa.size(), ob.size());
        for (const auto& [name, word] : oa) {
            auto it = ob.find(name);
            ASSERT_NE(it, ob.end()) << "missing output " << name;
            EXPECT_EQ(word, it->second) << "output " << name << " differs";
        }
    }
}

/// Drive a circuit with integer-encoded buses: helper building one pattern.
/// Bus inputs must be named <prefix>0..<prefix><n-1>.
inline void set_bus(const netlist& nl, std::vector<bool>& pattern,
                    const std::string& prefix, std::uint64_t value,
                    std::size_t width) {
    for (std::size_t i = 0; i < width; ++i) {
        const node_id n = nl.find(prefix + std::to_string(i));
        ASSERT_NE(n, null_node) << prefix << i;
        pattern[nl.input_index(n)] = ((value >> i) & 1ULL) != 0;
    }
}

inline void set_bit(const netlist& nl, std::vector<bool>& pattern,
                    const std::string& name, bool value) {
    const node_id n = nl.find(name);
    ASSERT_NE(n, null_node) << name;
    pattern[nl.input_index(n)] = value;
}

/// Read an integer off named outputs <prefix>0..<prefix><n-1>.
inline std::uint64_t get_bus(const netlist& nl, const std::vector<bool>& outs,
                             const std::string& prefix, std::size_t width) {
    // Build output name -> position map once per call (tests only).
    std::map<std::string, std::size_t> pos;
    for (std::size_t o = 0; o < nl.output_count(); ++o)
        pos[nl.output_name(nl.outputs()[o])] = o;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < width; ++i) {
        const auto it = pos.find(prefix + std::to_string(i));
        EXPECT_NE(it, pos.end()) << prefix << i;
        if (it != pos.end() && outs[it->second]) v |= (1ULL << i);
    }
    return v;
}

inline bool get_bit(const netlist& nl, const std::vector<bool>& outs,
                    const std::string& name) {
    for (std::size_t o = 0; o < nl.output_count(); ++o)
        if (nl.output_name(nl.outputs()[o]) == name) return outs[o];
    ADD_FAILURE() << "no output named " << name;
    return false;
}

/// Sequential PPSFP with fault dropping: one simulator, blocks in order,
/// the live list shrinks as faults are detected. One
/// simulator::detect_mask call per live fault and 64-pattern block — the
/// per-fault reference that run_fault_simulation's fanout-free-region
/// kernel must match bit for bit (options.threads is ignored).
inline fault_sim_result reference_fault_simulation(
    const circuit_view& cv, const std::vector<fault>& faults,
    pattern_source& source, const fault_sim_options& options) {
    simulator sim(cv);
    fault_sim_result res;
    res.first_detected.assign(faults.size(), std::nullopt);

    // Live list holds indices of still-undetected faults (fault dropping).
    std::vector<std::size_t> live(faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i) live[i] = i;

    std::vector<std::uint64_t> words;
    std::uint64_t applied = 0;
    while (applied < options.max_patterns && !live.empty()) {
        source.next_block(words);
        sim.simulate(words);
        const std::uint64_t block_size =
            std::min<std::uint64_t>(64, options.max_patterns - applied);
        const std::uint64_t valid_mask =
            block_size == 64 ? ~0ULL : ((1ULL << block_size) - 1);

        std::size_t keep = 0;
        for (std::size_t idx = 0; idx < live.size(); ++idx) {
            const std::size_t fi = live[idx];
            const std::uint64_t mask = sim.detect_mask(faults[fi]) & valid_mask;
            if (mask == 0) {
                live[keep++] = fi;
                continue;
            }
            if (!res.first_detected[fi].has_value()) {
                const int bit = std::countr_zero(mask);
                res.first_detected[fi] =
                    applied + static_cast<std::uint64_t>(bit);
                ++res.detected_count;
            }
        }
        live.resize(keep);
        applied += block_size;
    }
    res.patterns_applied = applied;
    return res;
}

/// reference_fault_simulation over weighted random patterns, the
/// counterpart of run_weighted_fault_simulation.
inline fault_sim_result reference_weighted_fault_simulation(
    const netlist& nl, const std::vector<fault>& faults,
    const weight_vector& weights, std::uint64_t seed,
    const fault_sim_options& options) {
    const circuit_view cv = circuit_view::compile(nl);
    weighted_random_source source(weights, seed);
    return reference_fault_simulation(cv, faults, source, options);
}

}  // namespace wrpt::testing
