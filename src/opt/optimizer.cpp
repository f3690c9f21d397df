#include "opt/optimizer.h"

#include <algorithm>

#include "opt/normalize.h"
#include "opt/objective.h"
#include "exec/thread_pool.h"

namespace wrpt {

test_length_report required_test_length(const netlist& nl,
                                        const std::vector<fault>& faults,
                                        detect_estimator& analysis,
                                        const weight_vector& weights,
                                        double confidence, unsigned threads) {
    const double q = confidence_to_q(confidence);
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    const std::vector<double> probs = analysis.estimate_faults(
        nl, {faults.data(), faults.size()}, weights, threads);

    // SORT + sharded NORMALIZE (same exec contract as the pipeline's
    // stages: element-ordered reduction, thread-count invariant).
    normalize_exec exec;
    exec.threads = threads;
    exec.pool = threads > 1 ? &shared_thread_pool() : nullptr;
    const normalize_result norm = normalize_detection_probs(probs, q, exec);

    test_length_report rep;
    rep.feasible = norm.feasible;
    rep.test_length = norm.test_length;
    rep.relevant_faults = norm.relevant_faults;
    rep.zero_prob_faults = norm.zero_prob_faults;
    double hardest = 1.0;
    for (double p : probs)
        if (p > 0.0) hardest = std::min(hardest, p);
    rep.hardest_probability = hardest;
    return rep;
}

}  // namespace wrpt
