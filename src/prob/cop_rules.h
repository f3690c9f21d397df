// COP propagation rules over a compiled circuit_view — the shared
// primitives behind the full forward/backward analyses and the optimizer's
// incremental engine.
//
// The full sweeps (cop_signal_probabilities, cop_observabilities), the
// fanout-region backward sweep of cop_detect_estimator's full-recompute
// path and the event-driven incremental updates (cop_engine) all evaluate
// exactly these functions, in the same per-gate argument order, so every
// PREPARE path is bit-identical to a full recompute.

#pragma once

#include <span>

#include "core/circuit_view.h"
#include "core/gate_eval.h"
#include "fault/fault.h"

namespace wrpt::cop {

/// Forward rule: signal probability of node `n` from its fanins'
/// probabilities (inputs read their weight).
inline double node_probability(const circuit_view& cv,
                               std::span<const double> p,
                               std::span<const double> weights, node_id n) {
    if (cv.kind(n) == gate_kind::input) return weights[cv.input_index(n)];
    const auto fi = cv.fanins(n);
    return eval_gate_with(cop_algebra{}, cv.kind(n),
                          [&](std::size_t k) { return p[fi[k]]; }, fi.size());
}

/// One-level sensitization probability of fanin pin `k` of node `n`: the
/// probability that toggling the pin toggles the node's output, under the
/// independence assumption. 1 for buf/not/xor/xnor; for and/nand/or/nor
/// the probability that every other pin holds the non-controlling value.
inline double pin_sensitization(const circuit_view& cv,
                                std::span<const double> p, node_id n,
                                std::size_t k) {
    const gate_kind kind = cv.kind(n);
    switch (kind) {
        case gate_kind::buf:
        case gate_kind::not_:
        case gate_kind::xor_:
        case gate_kind::xnor_:
            return 1.0;
        case gate_kind::and_:
        case gate_kind::nand_:
        case gate_kind::or_:
        case gate_kind::nor_: {
            const auto fi = cv.fanins(n);
            const double noncontrolling = controlling_value(kind) ? 0.0 : 1.0;
            double sens = 1.0;
            for (std::size_t j = 0; j < fi.size(); ++j) {
                if (j == k) continue;
                const double pj = p[fi[j]];
                sens *= (noncontrolling == 1.0) ? pj : 1.0 - pj;
            }
            return sens;
        }
        default:
            return 0.0;  // input/const have no pins
    }
}

/// Backward rule: stem observability of node `n` from the pin
/// observabilities of its consumers. A stem is observed if any of its
/// branches is (OR-combined under independence); an output stem is
/// observed directly. When the view precompiled the driven-pin transpose
/// it supplies the branch pins directly; otherwise the consumer fanin
/// arrays are scanned. Both visit the same pins in the same order, so
/// the two paths are bit-identical.
inline double stem_observability(const circuit_view& cv,
                                 std::span<const double> pin, node_id n) {
    double miss = cv.is_output(n) ? 0.0 : 1.0;
    if (cv.has_driven_pins()) {
        for (std::uint32_t pin_index : cv.driven_pins(n))
            miss *= 1.0 - pin[pin_index];
        return 1.0 - miss;
    }
    for (node_id g : cv.fanouts(n)) {
        // Locate the pins of g driven by n (a gate may use a stem on
        // several pins).
        const auto fi = cv.fanins(g);
        for (std::size_t k = 0; k < fi.size(); ++k) {
            if (fi[k] != n) continue;
            miss *= 1.0 - pin[cv.pin_offset(g) + k];
        }
    }
    return 1.0 - miss;
}

/// COP detection probability of fault `f`: activation (the line carries
/// the opposite of the stuck value) times line observability, read from
/// a state whose p/stem/pin cover the fault.
inline double fault_probability(const circuit_view& cv,
                                std::span<const double> p,
                                std::span<const double> stem,
                                std::span<const double> pin, const fault& f) {
    const node_id site =
        f.is_stem() ? f.where
                    : cv.fanins(f.where)[static_cast<std::size_t>(f.pin)];
    const double act = stuck_value(f.value) ? 1.0 - p[site] : p[site];
    const double o =
        f.is_stem()
            ? stem[f.where]
            : pin[cv.pin_offset(f.where) + static_cast<std::size_t>(f.pin)];
    return act * o;
}

/// One backward step at node `n`: stem[n] from the consumers' pins, then
/// pin[pin_offset(n)+k] = stem[n] * sens(n, k). `sens(n, k)` supplies the
/// one-level pin sensitization — analytic (pin_sensitization) for COP,
/// counted for STAFAN. Every consumer of `n` must have been chained
/// already (consumers have larger ids).
template <class PinSens>
void chain_node(const circuit_view& cv, PinSens&& sens, std::span<double> stem,
                std::span<double> pin, node_id n) {
    stem[n] = stem_observability(cv, pin, n);
    const std::size_t arity = cv.fanin_count(n);
    const std::uint32_t off = cv.pin_offset(n);
    for (std::size_t k = 0; k < arity; ++k)
        pin[off + k] = stem[n] * sens(n, k);
}

/// Chain observabilities backward over the whole view. stem/pin must be
/// sized node_count()/pin_count().
template <class PinSens>
void chain_observabilities(const circuit_view& cv, PinSens&& sens,
                           std::span<double> stem, std::span<double> pin) {
    backward_sweep(cv, [&](node_id n) { chain_node(cv, sens, stem, pin, n); });
}

}  // namespace wrpt::cop
