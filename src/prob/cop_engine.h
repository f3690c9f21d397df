// Incremental COP testability engine — PREPARE's path on circuits with
// small input cones.
//
// The paper's efficiency accounting says one coordinate step costs "two
// testability analyses per input"; with a full recompute each analysis is
// O(nodes). This engine keeps the complete COP state (signal
// probabilities, stem and pin observabilities) for one weight vector and
// re-propagates a single-input change incrementally. That wins only while
// input cones are small: cop_detect_estimator rides the engine when the
// mean cone fraction is at most its cone limit (0.15 by default; S1 and
// c2670 in the suite) and otherwise takes the full-recompute path — one
// vectorized forward sweep plus a backward sweep over the fanout region
// of the queried faults (S2 and c7552; see detect.h). The engine works:
//
//   forward   — restricted to the input's precomputed fanout cone (exact:
//               nothing outside the cone can change),
//   backward  — event-driven from the gates whose pin sensitization or
//               stem observability actually changed, processed in
//               descending level order so every node is finalized once.
//
// Every changed cell is recorded in an undo log, so a probe (PREPARE
// evaluates x_i = lo and x_i = hi, then moves on) rolls back in O(changes).
// All arithmetic goes through the shared cop_rules primitives, so the
// incrementally maintained state is bit-identical to a full recompute —
// tested in test_circuit_view.cpp.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/circuit_view.h"
#include "fault/fault.h"
#include "io/weights_io.h"
#include "prob/probe.h"

namespace wrpt {

class cop_engine {
public:
    /// Full analysis at `weights`. The view must outlive the engine and be
    /// compiled with input_cones.
    cop_engine(const circuit_view& cv, weight_vector weights);

    const circuit_view& view() const { return *cv_; }
    const weight_vector& weights() const { return weights_; }

    std::span<const double> probabilities() const { return p_; }
    std::span<const double> stem_observability() const { return stem_; }
    double pin_observability(node_id gate, std::size_t k) const {
        return pin_[cv_->pin_offset(gate) + k];
    }

    /// COP detection probability of one fault under the current state:
    /// activation (the line carries the opposite of the stuck value) times
    /// line observability.
    double fault_probability(const fault& f) const;

    /// Move input `input_idx` to probability `value` and re-propagate
    /// incrementally. Changes are appended to the undo log.
    void set_input(std::size_t input_idx, double value) {
        const input_move m{input_idx, value};
        set_inputs({&m, 1});
    }

    /// Apply several input moves as one incremental transaction: one
    /// forward pass over the union of the moved inputs' fanout cones, one
    /// event-driven backward pass, all changes in the same undo log. This
    /// is how multi-input probes (saddle-escape candidates) avoid a full
    /// rebuild: the transaction costs O(union of cones) and rolls back in
    /// O(changes) like any single-input move.
    void set_inputs(std::span<const input_move> moves);

    /// Undo log positions: mark() before a probe, rollback() to restore
    /// the exact prior state. commit() forgets history instead (after a
    /// permanent base move).
    using checkpoint = std::size_t;
    checkpoint mark() const { return log_.size(); }
    void rollback(checkpoint mark);
    void commit() { log_.clear(); }

private:
    enum class cell : std::uint8_t { prob, stem, pin, weight };
    struct undo_entry {
        cell where;
        std::uint32_t index;
        double old_value;
    };
    void record(cell where, std::uint32_t index, double old_value) {
        log_.push_back({where, index, old_value});
    }
    void schedule(node_id n);

    const circuit_view* cv_;
    weight_vector weights_;
    std::vector<double> p_;     // signal probability per node
    std::vector<double> stem_;  // stem observability per node
    std::vector<double> pin_;   // pin observability, view pin layout
    std::vector<undo_entry> log_;

    // Scratch for one set_inputs call.
    std::vector<node_id> union_nodes_;       // merged cones, topological
    std::vector<std::uint8_t> in_union_;
    std::vector<node_id> changed_nodes_;
    std::vector<std::uint8_t> queued_;
    std::vector<std::uint8_t> stem_dirty_;
    std::vector<std::uint8_t> pin_dirty_;
    std::vector<std::vector<node_id>> buckets_;  // by level
    std::size_t max_scheduled_level_ = 0;
};

}  // namespace wrpt
