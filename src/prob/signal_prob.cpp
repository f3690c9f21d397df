#include "prob/signal_prob.h"

#include <cmath>

#include "prob/cop_kernels.h"
#include "prob/cop_rules.h"
#include "sim/logic_sim.h"
#include "util/error.h"

namespace wrpt {

std::vector<double> cop_signal_probabilities(const circuit_view& cv,
                                             const weight_vector& weights) {
    std::vector<double> p(cv.node_count(), 0.0);
    cop_signal_probabilities(cv, weights, p);
    return p;
}

void cop_signal_probabilities(const circuit_view& cv,
                              std::span<const double> weights,
                              std::span<double> p) {
    require(weights.size() == cv.input_count(),
            "cop_signal_probabilities: weight count mismatch");
    require(p.size() == cv.node_count(),
            "cop_signal_probabilities: output size mismatch");
    // Lane-blocked sweep when the view precompiled lane groups and a
    // vector ISA is active; the scalar forward sweep is the reference
    // (and the fallback), bit-identical by construction.
    if (!cop::forward_sweep_vectorized(cv, weights, p)) {
        forward_sweep(cv, [&](node_id n) {
            p[n] = cop::node_probability(cv, p, weights, n);
        });
    }
}

std::vector<double> cop_signal_probabilities(const netlist& nl,
                                             const weight_vector& weights) {
    return cop_signal_probabilities(circuit_view::compile(nl), weights);
}

std::vector<double> exact_signal_probabilities_enum(const netlist& nl,
                                                    const weight_vector& weights) {
    require(weights.size() == nl.input_count(),
            "exact_signal_probabilities_enum: weight count mismatch");
    require(nl.input_count() <= 24,
            "exact_signal_probabilities_enum: too many inputs for enumeration");
    const std::size_t ins = nl.input_count();
    std::vector<double> p(nl.node_count(), 0.0);
    simulator sim(nl);
    std::vector<std::uint64_t> words(ins);
    const std::uint64_t total = 1ULL << ins;
    // Evaluate 64 assignments per block; weight each assignment by the
    // product of its input-literal probabilities.
    for (std::uint64_t base = 0; base < total; base += 64) {
        const std::uint64_t block =
            std::min<std::uint64_t>(64, total - base);
        for (std::size_t i = 0; i < ins; ++i) {
            std::uint64_t w = 0;
            for (std::uint64_t b = 0; b < block; ++b)
                if (((base + b) >> i) & 1ULL) w |= (1ULL << b);
            words[i] = w;
        }
        sim.simulate(words);
        for (std::uint64_t b = 0; b < block; ++b) {
            double weight = 1.0;
            for (std::size_t i = 0; i < ins; ++i)
                weight *= (((base + b) >> i) & 1ULL) ? weights[i]
                                                     : 1.0 - weights[i];
            for (node_id n = 0; n < nl.node_count(); ++n)
                if ((sim.value(n) >> b) & 1ULL) p[n] += weight;
        }
    }
    return p;
}

}  // namespace wrpt
