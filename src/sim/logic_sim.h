// Levelized 64-bit parallel-pattern logic simulation with event-driven
// single-fault propagation (the PPSFP kernel), over a compiled
// circuit_view.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/circuit_view.h"
#include "fault/fault.h"
#include "netlist/netlist.h"

namespace wrpt {

/// Compiled simulator for one netlist. One machine word carries 64 patterns.
///
/// All traversal structure comes from a circuit_view; the view-sharing
/// constructor lets many simulators (one per worker thread) run over the
/// same compiled view without rebuilding it.
class simulator {
public:
    /// Compile a private view of `nl` (which must outlive the simulator).
    explicit simulator(const netlist& nl);
    /// Share an already compiled view (which must outlive the simulator).
    explicit simulator(const circuit_view& view);

    const netlist& circuit() const { return view_->source(); }
    const circuit_view& view() const { return *view_; }

    /// Simulate a block of 64 patterns. `input_words` has one word per
    /// primary input, ordered like netlist::inputs(); bit b of each word is
    /// pattern b of the block. All node values become available.
    void simulate(std::span<const std::uint64_t> input_words);

    /// Fault-free value words after simulate().
    std::uint64_t value(node_id n) const { return good_[n]; }
    std::span<const std::uint64_t> values() const { return good_; }

    /// 64-bit mask of block patterns whose primary-output response differs
    /// under `f` from the fault-free response (event-driven levelized
    /// resimulation of the fault's fanout cone). Requires a prior
    /// simulate() call.
    std::uint64_t detect_mask(const fault& f);

    /// Word of output differences per output index (parallel to
    /// circuit().outputs()) for the last detect_mask call. Used by
    /// signature-analysis clients that need per-output faulty responses.
    std::span<const std::uint64_t> last_output_diff() const {
        return output_diff_;
    }

private:
    void init_scratch();
    std::uint64_t eval_node(node_id n);
    void schedule(node_id n);

    std::unique_ptr<const circuit_view> owned_view_;  // null when sharing
    const circuit_view* view_;
    std::vector<std::uint64_t> good_;

    // Scratch state for event-driven faulty propagation.
    std::vector<std::uint64_t> args_;  // gather buffer, max_arity words
    std::vector<std::uint64_t> faulty_;
    std::vector<std::uint8_t> has_faulty_;
    std::vector<std::uint8_t> queued_;
    std::vector<std::vector<node_id>> buckets_;  // by level
    std::vector<node_id> touched_;
    std::vector<std::uint64_t> output_diff_;
};

/// Multi-word PPSFP simulator with fanout-free-region (FFR) fault
/// simulation: B machine words (64*B patterns) per node per pass, and one
/// event-driven wavefront per group of faults that share a stem instead
/// of one per fault.
///
/// A group's faults share the stem s = circuit_view::ffr_stem(f.where).
/// detect_group() first computes each fault's local mask L_f at s with
/// bit operations only: the activation word (good ^ forced for a stem
/// fault; the gate re-evaluated with its pin forced, XOR its good value,
/// for a branch fault), ANDed with the side-input sensitization of every
/// gate on the unique path to s (AND/NAND side inputs at 1, OR/NOR side
/// inputs at 0; BUF/NOT/XOR/XNOR always pass). It then runs the
/// levelized wavefront once, from s flipped on U = the union of the L_f
/// (for a primary-output s, obs_U(s) = U), and reports L_f & obs_U(s).
///
/// This is exact per word and per bit. A path's side inputs lie outside
/// the fault's cone, so they keep their good values. Beyond s, the faulty
/// machine is the good machine with s flipped on L_f, a subset of U, and
/// bitwise ops never mix bits or words. So word w of every mask is
/// bit-identical to simulator::detect_mask() run on block w alone. The
/// fault simulator rests on that equivalence; tests/test_simd.cpp
/// asserts it for every fault and every word.
///
/// Scratch is O(nodes * B); the caller's group masks add O(group * B).
class block_simulator {
public:
    /// Share a compiled view; `words` is B, the block width (>= 1).
    block_simulator(const circuit_view& view, unsigned words);

    unsigned words() const { return words_; }

    /// Simulate B blocks of 64 patterns. `input_words` has B consecutive
    /// words per primary input — input i's word for block w is
    /// input_words[i * words() + w] — ordered like netlist::inputs().
    void simulate(std::span<const std::uint64_t> input_words);

    /// Fault-free value of node n in block w.
    std::uint64_t value(node_id n, unsigned w) const {
        return good_[static_cast<std::size_t>(n) * words_ + w];
    }

    /// Detection masks of the faults faults[members[j]], which must all
    /// have the same fanout-free-region stem (throws invalid_input
    /// otherwise): masks[j * words() + w] is the 64-bit mask of block-w
    /// patterns whose output response differs under that fault. `masks`
    /// must hold members.size() * words() entries. Requires a prior
    /// simulate().
    void detect_group(std::span<const fault> faults,
                      std::span<const std::size_t> members,
                      std::uint64_t* masks);

private:
    std::uint64_t* node_words(std::vector<std::uint64_t>& v, node_id n) {
        return v.data() + static_cast<std::size_t>(n) * words_;
    }
    std::uint64_t local_mask(const fault& f, node_id stem,
                             std::uint64_t* local);
    void observe(node_id stem);
    void schedule(node_id n);

    const circuit_view* view_;
    unsigned words_;
    std::vector<std::uint64_t> good_;    // node-major, words_ per node
    std::vector<std::uint64_t> faulty_;  // same layout
    std::vector<std::uint64_t> vbuf_;    // one node's candidate words
    std::vector<std::uint64_t> forced_;  // a branch fault's pin words
    std::vector<std::uint64_t> flip_;    // U: the group's union at the stem
    std::vector<std::uint64_t> obs_;     // obs_U(stem)
    std::vector<const std::uint64_t*> srcs_;  // fanin word rows, max_arity
    std::vector<std::uint8_t> has_faulty_;
    std::vector<std::uint8_t> queued_;
    std::vector<std::vector<node_id>> buckets_;  // by level
    std::size_t pending_ = 0;                    // queued, not yet evaluated
    std::vector<node_id> touched_;
};

/// Single-pattern convenience evaluation (reference path for tests):
/// returns output values, ordered like nl.outputs().
std::vector<bool> evaluate(const netlist& nl, const std::vector<bool>& inputs);

/// Single-pattern faulty evaluation under fault `f`.
std::vector<bool> evaluate_with_fault(const netlist& nl,
                                      const std::vector<bool>& inputs,
                                      const fault& f);

}  // namespace wrpt
