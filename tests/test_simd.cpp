// Kernel-equivalence suite for the vectorized compute paths (core/simd.h
// and friends): every SIMD kernel must be bit-identical to its scalar
// reference, on every circuit of the gen/ suite, for every dispatch mode
// (compiled-best ISA and the forced scalar fallback), for every thread
// count, and on odd-sized tails that don't fill a vector register.
//
// Under -DWRPT_FORCE_SCALAR the vector variants are compiled out and
// every check here degenerates to scalar-vs-scalar — still asserted, so
// the CI fallback leg runs the same suite.

#include "core/simd.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/circuit_view.h"
#include "exec/thread_pool.h"
#include "fault/fault.h"
#include "gen/random_circuit.h"
#include "gen/suite.h"
#include "io/weights_io.h"
#include "opt/normalize.h"
#include "prob/cop_kernels.h"
#include "prob/cop_rules.h"
#include "prob/signal_prob.h"
#include "sim/fault_sim.h"
#include "sim/logic_sim.h"
#include "sim/patterns.h"
#include "svc/request.h"
#include "svc/service.h"
#include "util/rng.h"

namespace wrpt {
namespace {

// Restore the dispatch switch even when an assertion bails out of a test.
struct scalar_guard {
    explicit scalar_guard(bool on) : prev_(simd::scalar_forced()) {
        simd::set_force_scalar(on);
    }
    ~scalar_guard() { simd::set_force_scalar(prev_); }
    scalar_guard(const scalar_guard&) = delete;
    scalar_guard& operator=(const scalar_guard&) = delete;

private:
    bool prev_;
};

// EXPECT_EQ on doubles compares values (0.0 == -0.0, NaN != NaN); the
// kernels promise bit-identity, so compare the representation.
void expect_bits_equal(const std::vector<double>& a,
                       const std::vector<double>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
                  std::bit_cast<std::uint64_t>(b[i]))
            << "node " << i << ": " << a[i] << " vs " << b[i];
    }
}

weight_vector varied_weights(std::size_t inputs, std::uint64_t seed) {
    rng r(seed);
    weight_vector w(inputs);
    for (auto& x : w) x = r.next_double();
    return w;
}

// --- COP forward sweep -------------------------------------------------------

TEST(SimdDispatch, ReportsConsistentIsaAndLanes) {
    const simd::isa compiled = simd::compiled_isa();
    const simd::isa active = simd::active_isa();
    // Active is the compiled ISA or a runtime step up/down from it; the
    // lane width is 1 exactly for scalar.
    EXPECT_GE(simd::lane_width(compiled), 1u);
    EXPECT_GE(simd::lane_width(active), 1u);
    EXPECT_EQ(simd::lane_width(simd::isa::scalar), 1u);
    EXPECT_STRNE(simd::isa_name(active), "");

    scalar_guard forced(true);
    EXPECT_EQ(simd::active_isa(), simd::isa::scalar);
}

// The vectorized sweep and the scalar forward sweep agree bit-for-bit on
// every suite circuit, at uniform and at varied weights.
TEST(SimdCopSweep, BitIdenticalOnSuite) {
    for (const suite_entry& e : benchmark_suite()) {
        const netlist nl = e.build();

        circuit_view::compile_options lanes;
        lanes.lane_groups = true;
        const circuit_view grouped = circuit_view::compile(nl, lanes);
        const circuit_view plain = circuit_view::compile(nl);  // no lane groups

        for (std::uint64_t seed : {0u, 17u}) {
            const weight_vector w =
                seed == 0 ? uniform_weights(nl)
                          : varied_weights(nl.input_count(), seed);
            const std::vector<double> scalar_p =
                cop_signal_probabilities(plain, w);
            const std::vector<double> vec_p =
                cop_signal_probabilities(grouped, w);
            SCOPED_TRACE(e.name + (seed ? " varied" : " uniform"));
            expect_bits_equal(scalar_p, vec_p);
        }
    }
}

// Forcing the scalar fallback makes the vectorized entry point decline
// (leaving the output untouched), and the public API still answers the
// same probabilities through the reference sweep.
TEST(SimdCopSweep, ForcedFallbackDeclinesAndMatches) {
    const netlist nl = build_suite_circuit("c432");
    circuit_view::compile_options lanes;
    lanes.lane_groups = true;
    const circuit_view grouped = circuit_view::compile(nl, lanes);
    const weight_vector w = varied_weights(nl.input_count(), 99);

    const std::vector<double> reference = cop_signal_probabilities(grouped, w);

    scalar_guard forced(true);
    std::vector<double> p(grouped.node_count(), -1.0);
    EXPECT_FALSE(cop::forward_sweep_vectorized(grouped, w, p));
    for (double x : p) EXPECT_EQ(x, -1.0);  // untouched
    expect_bits_equal(reference, cop_signal_probabilities(grouped, w));
}

// Random circuits of many shapes: bucket sizes here are arbitrary, so the
// scalar tail (count % lanes) of every lane group gets exercised.
TEST(SimdCopSweep, OddTailsOnRandomCircuits) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        random_circuit_spec spec;
        spec.inputs = 5 + seed;
        spec.gates = 11 * seed + 3;  // deliberately never a lane multiple
        spec.seed = seed;
        const netlist nl = make_random_circuit(spec);

        circuit_view::compile_options lanes;
        lanes.lane_groups = true;
        const circuit_view grouped = circuit_view::compile(nl, lanes);
        const circuit_view plain = circuit_view::compile(nl);
        const weight_vector w = varied_weights(nl.input_count(), seed);

        SCOPED_TRACE(seed);
        expect_bits_equal(cop_signal_probabilities(plain, w),
                          cop_signal_probabilities(grouped, w));
    }
}

// --- batched exp(-p N) -------------------------------------------------------

TEST(SimdExpNegScale, BitIdenticalIncludingOddLengths) {
    rng r(0xabcdef);
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                          std::size_t{3}, std::size_t{5}, std::size_t{7},
                          std::size_t{63}, std::size_t{64}, std::size_t{65},
                          std::size_t{1000}}) {
        std::vector<double> x(n), got(n, -1.0), want(n, -1.0);
        for (auto& v : x) v = r.next_double();
        const double m = 52384.0 + static_cast<double>(n);

        for (std::size_t i = 0; i < n; ++i) want[i] = std::exp(-x[i] * m);
        simd::exp_neg_scale(x.data(), m, got.data(), n);
        SCOPED_TRACE(n);
        expect_bits_equal(want, got);

        scalar_guard forced(true);
        std::fill(got.begin(), got.end(), -1.0);
        simd::exp_neg_scale(x.data(), m, got.data(), n);
        expect_bits_equal(want, got);
    }
}

// NORMALIZE rides on exp_neg_scale; the sharded/pooled run must stay
// bit-identical to the sequential one (same fixed-order reduction).
TEST(SimdExpNegScale, NormalizeMatchesAcrossThreads) {
    rng r(7);
    std::vector<double> probs(5000);
    for (auto& p : probs) p = 1e-6 + 0.2 * r.next_double();

    const normalize_result seq = normalize_detection_probs(probs, 0.999);
    for (unsigned threads : {2u, 8u}) {
        normalize_exec ex;
        ex.pool = &shared_thread_pool();
        ex.threads = threads;
        ex.shard = 256;
        const normalize_result par =
            normalize_detection_probs(probs, 0.999, ex);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(seq.test_length),
                  std::bit_cast<std::uint64_t>(par.test_length))
            << threads;
        EXPECT_EQ(seq.relevant_faults, par.relevant_faults);
        EXPECT_EQ(seq.feasible, par.feasible);
    }
}

// --- blocked PPSFP -----------------------------------------------------------

/// Every line of `nl` as a fault site, stuck-at 0 and 1: the output of
/// every node (dead ones included) and every fanin pin of every gate,
/// whether or not its driver fans out.
std::vector<fault> every_line_fault(const netlist& nl) {
    std::vector<fault> out;
    for (node_id n = 0; n < nl.node_count(); ++n) {
        for (const stuck_at v : {stuck_at::zero, stuck_at::one}) {
            out.push_back({n, -1, v});
            for (std::size_t k = 0; k < nl.fanin_count(n); ++k)
                out.push_back({n, static_cast<std::int32_t>(k), v});
        }
    }
    return out;
}

/// block_simulator word w == simulator on block w: the good value of
/// every node, and for every fault and every word the detection mask of
/// detect_group over the fault alone, over the fault's whole stem group,
/// and over every other member of that group (the blocked fault
/// simulator hands over the live subset of a group).
void expect_block_words_match(const netlist& nl,
                              const std::vector<fault>& faults,
                              std::uint64_t seed, unsigned words) {
    const circuit_view cv = circuit_view::compile(nl);
    rng r(seed);
    std::vector<std::uint64_t> blocks(nl.input_count() * words);
    for (auto& w : blocks) w = r.next_word();

    block_simulator bsim(cv, words);
    bsim.simulate(blocks);

    // Stem groups in fault-list order.
    std::vector<std::vector<std::size_t>> groups;
    {
        std::vector<std::size_t> group_of(cv.node_count(), SIZE_MAX);
        for (std::size_t fi = 0; fi < faults.size(); ++fi) {
            const node_id stem = cv.ffr_stem(faults[fi].where);
            if (group_of[stem] == SIZE_MAX) {
                group_of[stem] = groups.size();
                groups.emplace_back();
            }
            groups[group_of[stem]].push_back(fi);
        }
    }
    // grouped[fi * words + w] / subset[...]: the group kernel's masks;
    // in_subset[fi] says whether the subset call covered fault fi.
    std::vector<std::uint64_t> grouped(faults.size() * words);
    std::vector<std::uint64_t> subset(faults.size() * words);
    std::vector<std::uint8_t> in_subset(faults.size(), 0);
    std::vector<std::uint64_t> scratch;
    for (const auto& members : groups) {
        scratch.assign(members.size() * words, 0);
        bsim.detect_group(faults, members, scratch.data());
        for (std::size_t j = 0; j < members.size(); ++j)
            std::copy_n(scratch.data() + j * words, words,
                        grouped.data() + members[j] * words);
        std::vector<std::size_t> half;
        for (std::size_t j = 0; j < members.size(); j += 2)
            half.push_back(members[j]);
        scratch.assign(half.size() * words, 0);
        bsim.detect_group(faults, half, scratch.data());
        for (std::size_t j = 0; j < half.size(); ++j) {
            std::copy_n(scratch.data() + j * words, words,
                        subset.data() + half[j] * words);
            in_subset[half[j]] = 1;
        }
    }

    simulator ssim(cv);
    std::vector<std::uint64_t> one(nl.input_count());
    std::vector<std::uint64_t> masks(words);
    for (unsigned w = 0; w < words; ++w) {
        for (std::size_t i = 0; i < one.size(); ++i)
            one[i] = blocks[i * words + w];
        ssim.simulate(one);
        for (node_id o : nl.outputs())
            ASSERT_EQ(ssim.value(o), bsim.value(o, w)) << "word " << w;
        for (node_id n = 0; n < nl.node_count(); ++n)
            ASSERT_EQ(ssim.value(n), bsim.value(n, w))
                << "node " << n << " word " << w;
        for (std::size_t fi = 0; fi < faults.size(); ++fi) {
            const std::uint64_t want = ssim.detect_mask(faults[fi]);
            const std::size_t only = fi;
            bsim.detect_group(faults, {&only, 1}, masks.data());
            ASSERT_EQ(want, masks[w])
                << "fault " << fi << " word " << w;
            ASSERT_EQ(want, grouped[fi * words + w])
                << "group kernel: fault " << fi << " word " << w;
            if (in_subset[fi]) {
                ASSERT_EQ(want, subset[fi * words + w])
                    << "group subset: fault " << fi << " word " << w;
            }
        }
    }
}

TEST(SimdBlockSim, WordsMatchSingleWordSimulator) {
    const netlist nl = build_suite_circuit("S1");
    const std::vector<fault> faults = generate_full_faults(nl);

    constexpr unsigned kWords = 4;
    expect_block_words_match(nl, faults, 0x5151, kWords);
}

// The same oracle over the deep and XOR-heavy suite circuits, block
// widths 1, 3 and 8, and seeded random netlists with every line as a
// fault site.
TEST(SimdBlockSim, FfrKernelMatchesOnSuiteAndRandomCircuits) {
    for (const char* name : {"S2", "c432", "c499", "c6288"}) {
        SCOPED_TRACE(name);
        const netlist nl = build_suite_circuit(name);
        expect_block_words_match(nl, generate_full_faults(nl), 0x5151, 4);
    }
    for (const unsigned words : {1u, 3u, 8u}) {
        SCOPED_TRACE(words);
        const netlist nl = build_suite_circuit("S1");
        expect_block_words_match(nl, generate_full_faults(nl), 0x77, words);
    }
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(seed);
        random_circuit_spec spec;
        spec.inputs = 6 + seed;
        spec.gates = 60 + 30 * seed;
        spec.seed = seed;
        spec.allow_xor = seed % 2 == 0;
        const netlist nl = make_random_circuit(spec);
        expect_block_words_match(nl, every_line_fault(nl), seed, 4);
    }
}

// Hand-built corner cases for the stem map and the path walk: one driver
// on two pins of one gate (fanout count 2, so a stem), a primary output
// that also fans out, a fanout-1 primary output, BUF/NOT chains, const
// gates, and a dead node.
TEST(SimdBlockSim, FfrKernelMatchesOnCornerCases) {
    netlist nl("ffr_corners");
    const node_id a = nl.add_input("a");
    const node_id b = nl.add_input("b");
    const node_id c = nl.add_input("c");
    const node_id d = nl.add_input("d");
    const node_id dup = nl.add_binary(gate_kind::and_, a, a, "dup");
    const node_id po = nl.add_binary(gate_kind::or_, dup, b, "po");
    nl.mark_output(po, "po");
    const node_id g2 = nl.add_binary(gate_kind::nand_, po, c, "g2");
    const node_id b1 = nl.add_unary(gate_kind::buf, g2, "b1");
    const node_id n1 = nl.add_unary(gate_kind::not_, b1, "n1");
    const node_id b2 = nl.add_unary(gate_kind::buf, n1, "b2");
    const node_id k0 = nl.add_const(false, "k0");
    const node_id k1 = nl.add_const(true, "k1");
    const node_id g3 = nl.add_binary(gate_kind::xor_, po, k1, "g3");
    const node_id g4 = nl.add_binary(gate_kind::nor_, b2, k0, "g4");
    const node_id o2 = nl.add_unary(gate_kind::not_, d, "o2");
    nl.mark_output(o2, "o2");
    const node_id g6 = nl.add_binary(gate_kind::and_, o2, c, "g6");
    const node_id g5 = nl.add_gate(gate_kind::xnor_, {g3, g4, g6}, "g5");
    nl.mark_output(g5, "g5");
    const node_id dead = nl.add_binary(gate_kind::and_, c, d, "dead");

    const circuit_view cv = circuit_view::compile(nl);
    EXPECT_TRUE(cv.is_stem(a));       // two pins of one gate
    EXPECT_EQ(cv.ffr_stem(dup), po);  // fanout-1 node below an output
    EXPECT_TRUE(cv.is_stem(po));      // primary output with fanout 2
    EXPECT_TRUE(cv.is_stem(o2));      // fanout-1 primary output
    EXPECT_EQ(cv.ffr_stem(b1), g5);   // BUF/NOT chain into the XNOR
    EXPECT_EQ(cv.ffr_stem(k0), g5);
    EXPECT_TRUE(cv.is_stem(dead));    // fanout 0
    EXPECT_TRUE(cv.is_stem(g5));

    for (const unsigned words : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE(words);
        expect_block_words_match(nl, every_line_fault(nl), 0xc0de + words,
                                 words);
    }
}

// The full fault-simulation result — first_detected per fault AND
// patterns_applied — is invariant across block widths and thread counts,
// including budgets that are not multiples of the block size.
void expect_fault_sim_paths_agree(const char* name, std::uint64_t budget,
                                  bool drop) {
    const netlist nl = build_suite_circuit(name);
    const std::vector<fault> faults = generate_full_faults(nl);
    const weight_vector w = uniform_weights(nl);

    fault_sim_options ref;
    ref.max_patterns = budget;
    ref.threads = 1;
    ref.block_words = 1;
    ref.drop_detected = drop;
    const fault_sim_result want =
        run_weighted_fault_simulation(nl, faults, w, 0xfeed, ref);

    for (unsigned block : {1u, 4u, 8u}) {
        for (unsigned threads : {1u, 2u, 8u}) {
            fault_sim_options o = ref;
            o.block_words = block;
            o.threads = threads;
            const fault_sim_result got =
                run_weighted_fault_simulation(nl, faults, w, 0xfeed, o);
            SCOPED_TRACE(std::string(name) + " budget " +
                         std::to_string(budget) + " drop " +
                         std::to_string(drop) + " B" + std::to_string(block) +
                         " t" + std::to_string(threads));
            EXPECT_EQ(want.patterns_applied, got.patterns_applied);
            EXPECT_EQ(want.detected_count, got.detected_count);
            ASSERT_EQ(want.first_detected.size(), got.first_detected.size());
            for (std::size_t i = 0; i < want.first_detected.size(); ++i)
                ASSERT_EQ(want.first_detected[i], got.first_detected[i])
                    << "fault " << i;
        }
    }
}

TEST(SimdFaultSim, BlockedAndParallelBitIdentical) {
    for (const bool drop : {true, false})
        for (const char* name : {"S1", "c432"})
            for (std::uint64_t budget : {320u, 832u})
                expect_fault_sim_paths_agree(name, budget, drop);
    // S2 with dropping only: without it, the per-fault one-word runs
    // keep all 21k faults live through S2's deep divider array on every
    // block, about 30 CPU-seconds per call, and the TSan leg runs this
    // suite too.
    expect_fault_sim_paths_agree("S2", 832, true);
}

// --- radix SORT ----------------------------------------------------------------

namespace {

// SORT's reference: a stable sort of the positive entries by value.
std::vector<std::size_t> stable_sorted_positive(const std::vector<double>& p) {
    std::vector<std::size_t> want;
    for (std::size_t i = 0; i < p.size(); ++i)
        if (p[i] > 0.0) want.push_back(i);
    std::stable_sort(want.begin(), want.end(),
                     [&](std::size_t a, std::size_t b) { return p[a] < p[b]; });
    return want;
}

}  // namespace

// The radix pass reproduces std::stable_sort exactly: a tie-heavy list
// (211 distinct values over 50k faults) with excluded p <= 0 entries.
TEST(SimdSort, RadixSortFaultsMatchesStableSort) {
    rng r(0xdead);
    std::vector<double> probs(50000);
    for (auto& p : probs) {
        const double d = r.next_double();
        p = d < 0.03 ? 0.0 : static_cast<double>(r.next_below(211)) / 211.0;
    }
    EXPECT_EQ(stable_sorted_positive(probs), sort_faults(probs));
}

// Extreme magnitudes: denormals, 1e-300, values straddling every radix
// digit, negative entries and ties among all of them, from a handful of
// keys up.
TEST(SimdSort, RadixSortFaultsExtremeValues) {
    rng r(0x50f7);
    const double denorm = std::numeric_limits<double>::denorm_min();
    const std::vector<double> pool = {
        denorm,          2 * denorm,   1e-310,  1e-300, 1e-300 * (1 + 1e-15),
        1e-200,          1e-30,        1e-9,    0.5,    0.5 + 1e-16,
        1.0,             -1e-300,      0.0,     -0.0,   0.25};
    for (const std::size_t n : {std::size_t{7}, std::size_t{255},
                                std::size_t{256}, std::size_t{20000}}) {
        std::vector<double> probs(n);
        for (auto& p : probs) {
            const double d = r.next_double();
            p = d < 0.5 ? pool[r.next_below(pool.size())]
                        : r.next_double() * std::pow(10.0, -300 * d);
        }
        EXPECT_EQ(stable_sorted_positive(probs), sort_faults(probs)) << n;
    }
    // Keys equal but for one 11-bit window each (mantissa or exponent):
    // every digit pass decides part of the order.
    std::vector<double> windows(6000);
    for (auto& p : windows) {
        const unsigned lo = static_cast<unsigned>(r.next_below(6)) * 11;
        const std::uint64_t window = std::uint64_t{0x7ff} << lo;
        std::uint64_t bits = 0x3fd5555555555555ULL;  // ~1/3
        bits = (bits & ~window) | (r.next_word() & window);
        bits &= ~(std::uint64_t{1} << 63);             // positive
        if ((bits >> 52) == 0x7ff) bits &= ~(std::uint64_t{1} << 62);  // finite
        p = std::bit_cast<double>(bits);
    }
    EXPECT_EQ(stable_sorted_positive(windows), sort_faults(windows));
    EXPECT_TRUE(sort_faults(std::vector<double>{}).empty());
    EXPECT_TRUE(sort_faults(std::vector<double>(300, 0.0)).empty());
    // Every key equal: every digit pass is skipped.
    const std::vector<double> same(1000, 1e-300);
    EXPECT_EQ(stable_sorted_positive(same), sort_faults(same));
}

// --- svc stats surface -------------------------------------------------------

TEST(SimdStats, StatsResponseCarriesDispatch) {
    svc::service s;
    svc::request q;
    q.id = 1;
    q.payload = svc::stats_request{};
    const svc::response resp = s.handle(q);
    ASSERT_TRUE(resp.ok);
    const auto& st = std::get<svc::stats_response>(resp.payload);
    EXPECT_EQ(st.simd_isa, simd::isa_name(simd::active_isa()));
    EXPECT_EQ(st.simd_lanes, simd::lane_width(simd::active_isa()));
    EXPECT_GE(st.simd_lanes, 1u);
}

}  // namespace
}  // namespace wrpt
