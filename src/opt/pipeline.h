// The staged OPTIMIZE pipeline — the paper's loop as plain stage
// functions over a shared context.
//
// The paper prints OPTIMIZE as a fixed stage sequence:
//
//   ANALYSIS(X,F) -> SORT(F) -> NORMALIZE(N, nf)
//   while improving:  PREPARE -> MINIMIZE  (per coordinate block)
//                     ANALYSIS -> SORT -> NORMALIZE
//   stalled?          SADDLE_ESCAPE, then continue
//
// Every stage is a function on optimize_context, and optimize_weights
// (defined in pipeline.cpp, declared in optimizer.h) is the loop over
// them. Three stages shard their work and stay bit-identical for every
// thread count:
//
//   ANALYSIS    shards the fault list across pool engines
//               (detect_estimator::estimate_faults),
//   NORMALIZE   shards the objective-term evaluation (normalize_exec)
//               with an element-ordered reduction,
//   PREPARE     issues its probe batches to per-engine workers
//               (detect_estimator::estimate_probes).
//
// SORT, MINIMIZE and SADDLE_ESCAPE stay sequential (cheap or inherently
// serial).

#pragma once

#include <array>
#include <cstddef>
#include <string_view>
#include <vector>

#include "fault/fault.h"
#include "io/weights_io.h"
#include "netlist/netlist.h"
#include "opt/normalize.h"
#include "opt/optimizer.h"
#include "prob/detect.h"
#include "prob/probe.h"

namespace wrpt {

/// Everything the stages share; stages communicate only through it.
struct optimize_context {
    optimize_context(const netlist& nl_, const std::vector<fault>& faults_,
                     detect_estimator& analysis_,
                     const optimize_options& options_, double q_)
        : nl(nl_), faults(faults_), analysis(analysis_), options(options_),
          q(q_) {}

    // Immutable problem statement.
    const netlist& nl;
    const std::vector<fault>& faults;
    detect_estimator& analysis;
    const optimize_options& options;
    double q;                 ///< -ln(1 - confidence)
    normalize_exec exec{};    ///< sharding for ANALYSIS/NORMALIZE

    // Current iterate (res.weights is the live weight vector).
    optimize_result res;
    std::vector<double> probs;        ///< ANALYSIS output, by fault index
    std::vector<std::size_t> order;   ///< SORT output (ascending p, p>0)
    normalize_result norm;            ///< NORMALIZE output
    double n_old = 0.0;
    double n_new = 0.0;

    // Best iterate seen so far (a sweep on estimated affine models can
    // overshoot; the pipeline never returns worse than the best).
    weight_vector best_weights;
    double best_n = 0.0;

    // Sweep state.
    std::vector<fault> hard;          ///< F^ of the current sweep
    std::size_t block_begin = 0;      ///< coordinate block for PREPARE/
    std::size_t block_end = 0;        ///< MINIMIZE, [begin, end)
    std::vector<probe> block_probes;  ///< PREPARE's probes for the block
    std::vector<std::vector<double>> prepared;  ///< estimate_probes output
    bool escaped = false;             ///< saddle escape used up
    bool stop = false;                ///< a stage ended the optimization
};

/// The stage names, in pipeline order — the paper's vocabulary, and the
/// keys for per-stage reporting.
inline constexpr std::array<std::string_view, 6> optimize_stage_names = {
    "ANALYSIS", "SORT", "NORMALIZE", "PREPARE", "MINIMIZE", "SADDLE_ESCAPE"};

/// ANALYSIS: one detection probability per fault at the current weights
/// (probs), sharded across pool engines.
void run_analysis(optimize_context& cx);
/// SORT: detectable faults ordered by ascending probability (order).
void run_sort(optimize_context& cx);
/// NORMALIZE: minimal N with J_N <= Q plus nf (norm).
void run_normalize(optimize_context& cx);
/// PREPARE: p_f at the two ends of the admissible interval for every
/// coordinate of [block_begin, block_end), issued as one probe batch.
void run_prepare(optimize_context& cx);
/// MINIMIZE: fit the affine models from PREPARE and step the block's
/// coordinates simultaneously (trust region + grid snap).
void run_minimize(optimize_context& cx);
/// SADDLE_ESCAPE: on a stalled sweep, probe five deterministic wholesale
/// perturbations and continue from the best improving one; sets stop
/// when none improves.
void run_saddle_escape(optimize_context& cx);

}  // namespace wrpt
