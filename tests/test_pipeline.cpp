// Tests for the staged OPTIMIZE pipeline: the stage sequence, the sharded
// ANALYSIS surface, the sharded NORMALIZE reduction, and the headline
// guarantee — optimized weights, sweep history, and test-length reports
// bit-identical across thread counts {1, 2, 8}.

#include "opt/pipeline.h"

#include <string>

#include <gtest/gtest.h>

#include "exec/thread_pool.h"
#include "gen/comparator.h"
#include "gen/random_circuit.h"
#include "gen/sharded.h"
#include "opt/normalize.h"
#include "prob/detect.h"
#include "util/rng.h"

namespace wrpt {
namespace {

netlist make_test_circuit(std::uint64_t seed, std::size_t inputs = 10,
                          std::size_t gates = 120) {
    random_circuit_spec spec;
    spec.inputs = inputs;
    spec.gates = gates;
    spec.seed = seed;
    return make_random_circuit(spec);
}

// --- stage sequence ------------------------------------------------------

TEST(pipeline, stage_sequence_matches_the_paper) {
    const char* expected[] = {"ANALYSIS", "SORT",     "NORMALIZE",
                              "PREPARE",  "MINIMIZE", "SADDLE_ESCAPE"};
    ASSERT_EQ(optimize_stage_names.size(), 6u);
    for (std::size_t s = 0; s < optimize_stage_names.size(); ++s)
        EXPECT_EQ(optimize_stage_names[s], expected[s]);
}

// --- sharded ANALYSIS ----------------------------------------------------

TEST(sharded_analysis, estimate_faults_matches_estimate_on_engine_path) {
    const netlist nl = make_sharded_comparators(8, 4);
    const auto faults = generate_full_faults(nl);
    const weight_vector w = uniform_weights(nl);

    cop_detect_estimator seq;
    seq.set_engine_cone_limit(1.0);
    const std::vector<double> reference = seq.estimate(nl, faults, w);

    for (unsigned threads : {1u, 2u, 8u}) {
        cop_detect_estimator cop;
        cop.set_engine_cone_limit(1.0);
        const std::vector<double> sharded = cop.estimate_faults(
            nl, {faults.data(), faults.size()}, w, threads);
        ASSERT_EQ(sharded.size(), reference.size());
        for (std::size_t j = 0; j < reference.size(); ++j)
            ASSERT_EQ(sharded[j], reference[j])
                << "threads " << threads << " fault " << j;
    }
}

TEST(sharded_analysis, estimate_faults_matches_on_full_recompute_path) {
    // Circuits above the cone limit take the full-recompute path, whose
    // per-fault read shards too.
    const netlist nl = make_test_circuit(51, 10, 140);
    const auto faults = generate_full_faults(nl);
    const weight_vector w = uniform_weights(nl);

    cop_detect_estimator seq;
    seq.set_incremental(false);
    const std::vector<double> reference = seq.estimate(nl, faults, w);

    for (unsigned threads : {2u, 8u}) {
        cop_detect_estimator cop;
        cop.set_incremental(false);
        const std::vector<double> sharded = cop.estimate_faults(
            nl, {faults.data(), faults.size()}, w, threads);
        ASSERT_EQ(sharded.size(), reference.size());
        for (std::size_t j = 0; j < reference.size(); ++j)
            ASSERT_EQ(sharded[j], reference[j])
                << "threads " << threads << " fault " << j;
    }
}

TEST(sharded_analysis, fault_shard_spans_answer_subqueries) {
    // The span surface works on shards, not just the full list — the
    // contract the ANALYSIS stage's partitioning rests on.
    const netlist nl = make_sharded_comparators(6, 3);
    const auto faults = generate_full_faults(nl);
    const weight_vector w = uniform_weights(nl);
    cop_detect_estimator cop;
    cop.set_engine_cone_limit(1.0);
    const std::vector<double> full =
        cop.estimate_faults(nl, {faults.data(), faults.size()}, w, 1);
    const std::size_t half = faults.size() / 2;
    const std::vector<double> lo =
        cop.estimate_faults(nl, {faults.data(), half}, w, 2);
    const std::vector<double> hi = cop.estimate_faults(
        nl, {faults.data() + half, faults.size() - half}, w, 2);
    for (std::size_t j = 0; j < half; ++j) ASSERT_EQ(lo[j], full[j]);
    for (std::size_t j = half; j < faults.size(); ++j)
        ASSERT_EQ(hi[j - half], full[j]);
}

TEST(sharded_analysis, estimator_pool_counters_track_warm_reuse) {
    const netlist nl = make_sharded_comparators(6, 3);
    const auto faults = generate_full_faults(nl);
    cop_detect_estimator cop;
    cop.set_engine_cone_limit(1.0);

    weight_vector w = uniform_weights(nl);
    (void)cop.estimate(nl, faults, w);
    EXPECT_EQ(cop.stats().pool_misses, 1u);
    EXPECT_EQ(cop.stats().pool_hits, 0u);

    w[0] = 0.9;  // base move: the warm engine re-syncs, no rebuild
    (void)cop.estimate(nl, faults, w);
    EXPECT_EQ(cop.stats().pool_misses, 1u);
    EXPECT_EQ(cop.stats().pool_hits, 1u);
    EXPECT_EQ(cop.stats().engine_builds, 1u);
}

// --- sharded NORMALIZE ---------------------------------------------------

TEST(sharded_normalize, matches_sequential_for_every_thread_count) {
    // Large sorted lists (forcing several window extensions) with many
    // near-equal hard faults, so the scan inspects thousands of terms.
    rng r(99);
    std::vector<double> sorted;
    for (std::size_t i = 0; i < 20000; ++i)
        sorted.push_back(1e-4 * (1.0 + 1e-6 * static_cast<double>(i)) +
                         1e-9 * r.next_double());
    std::sort(sorted.begin(), sorted.end());

    const double q = 0.001;
    const normalize_result reference = normalize_sorted(sorted, q);
    ASSERT_TRUE(reference.feasible);
    EXPECT_GT(reference.relevant_faults, 1000u);  // the scan went deep

    for (unsigned threads : {1u, 2u, 8u}) {
        normalize_exec exec;
        exec.pool = &shared_thread_pool();
        exec.threads = threads;
        exec.shard = 512;
        const normalize_result sharded = normalize_sorted(sorted, q, exec);
        EXPECT_EQ(sharded.feasible, reference.feasible);
        EXPECT_EQ(sharded.test_length, reference.test_length);
        EXPECT_EQ(sharded.relevant_faults, reference.relevant_faults);
    }
}

TEST(sharded_normalize, small_lists_and_edge_cases_unchanged) {
    normalize_exec exec;
    exec.pool = &shared_thread_pool();
    exec.threads = 8;
    exec.shard = 4;

    const std::vector<double> empty;
    EXPECT_TRUE(normalize_sorted(empty, 0.01, exec).feasible);
    EXPECT_EQ(normalize_sorted(empty, 0.01, exec).test_length, 0.0);

    const std::vector<double> undetectable{0.0, 0.5};
    EXPECT_FALSE(normalize_sorted(undetectable, 0.01, exec).feasible);

    const std::vector<double> simple{0.01, 0.2, 0.9};
    const normalize_result a = normalize_sorted(simple, 0.001);
    const normalize_result b = normalize_sorted(simple, 0.001, exec);
    EXPECT_EQ(a.test_length, b.test_length);
    EXPECT_EQ(a.relevant_faults, b.relevant_faults);
}

// --- the headline guarantee ---------------------------------------------

TEST(sharded_pipeline, optimize_bit_identical_across_thread_counts) {
    const netlist nl = make_sharded_comparators(6, 4);
    const auto faults = generate_full_faults(nl);

    std::vector<optimize_result> runs;
    for (unsigned threads : {1u, 2u, 8u}) {
        cop_detect_estimator cop;
        cop.set_engine_cone_limit(1.0);
        cop.set_threads(threads);  // PREPARE probe sharding
        optimize_options opt;
        opt.threads = threads;     // ANALYSIS/NORMALIZE stage sharding
        runs.push_back(
            optimize_weights(nl, faults, cop, uniform_weights(nl), opt));
    }
    for (std::size_t t = 1; t < runs.size(); ++t) {
        EXPECT_EQ(runs[t].weights, runs[0].weights) << "threads variant " << t;
        EXPECT_EQ(runs[t].initial_test_length, runs[0].initial_test_length);
        EXPECT_EQ(runs[t].final_test_length, runs[0].final_test_length);
        EXPECT_EQ(runs[t].analysis_calls, runs[0].analysis_calls);
        ASSERT_EQ(runs[t].history.size(), runs[0].history.size());
        for (std::size_t s = 0; s < runs[0].history.size(); ++s) {
            EXPECT_EQ(runs[t].history[s].test_length,
                      runs[0].history[s].test_length)
                << "sweep " << s;
            EXPECT_EQ(runs[t].history[s].relevant_faults,
                      runs[0].history[s].relevant_faults);
        }
    }
}

TEST(sharded_pipeline, test_length_report_bit_identical_across_threads) {
    const netlist nl = make_sharded_comparators(8, 4);
    const auto faults = generate_full_faults(nl);
    const weight_vector w = uniform_weights(nl);

    std::vector<test_length_report> reports;
    for (unsigned threads : {1u, 2u, 8u}) {
        cop_detect_estimator cop;
        cop.set_engine_cone_limit(1.0);
        reports.push_back(
            required_test_length(nl, faults, cop, w, 0.999, threads));
    }
    for (std::size_t t = 1; t < reports.size(); ++t) {
        EXPECT_EQ(reports[t].feasible, reports[0].feasible);
        EXPECT_EQ(reports[t].test_length, reports[0].test_length);
        EXPECT_EQ(reports[t].relevant_faults, reports[0].relevant_faults);
        EXPECT_EQ(reports[t].zero_prob_faults, reports[0].zero_prob_faults);
        EXPECT_EQ(reports[t].hardest_probability,
                  reports[0].hardest_probability);
    }
}

}  // namespace
}  // namespace wrpt
