#include "sim/fault_sim.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <deque>
#include <thread>
#include <utility>

#include "core/circuit_view.h"
#include "sim/logic_sim.h"
#include "util/error.h"
#include "util/sync.h"

namespace wrpt {

std::size_t fault_sim_result::detected_within(std::uint64_t n) const {
    std::size_t count = 0;
    for (const auto& fd : first_detected)
        if (fd.has_value() && *fd < n) ++count;
    return count;
}

namespace {

constexpr std::uint64_t never = ~0ULL;

/// ceil(n / d) without the n + d - 1 wrap near 2^64 (a budget of
/// UINT64_MAX patterns is legal and must not round down to 0 words).
constexpr std::uint64_t ceil_div(std::uint64_t n, std::uint64_t d) {
    return n / d + (n % d != 0);
}

/// Fault indices grouped by fanout-free-region stem (ascending stem id,
/// list order within a stem): group g is order[bounds[g], bounds[g+1]).
/// The blocked paths hand each group to block_simulator::detect_group.
struct stem_groups {
    std::vector<std::size_t> order;
    std::vector<std::size_t> bounds;
    std::size_t largest = 0;
};

stem_groups group_by_stem(const circuit_view& cv,
                          const std::vector<fault>& faults) {
    auto stem_of = [&](std::size_t fi) {
        return cv.ffr_stem(faults[fi].where);
    };
    stem_groups g;
    g.order.resize(faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i) g.order[i] = i;
    std::stable_sort(g.order.begin(), g.order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return stem_of(a) < stem_of(b);
                     });
    for (std::size_t i = 0; i < g.order.size(); ++i)
        if (i == 0 || stem_of(g.order[i]) != stem_of(g.order[i - 1]))
            g.bounds.push_back(i);
    g.bounds.push_back(g.order.size());
    for (std::size_t k = 0; k + 1 < g.bounds.size(); ++k)
        g.largest = std::max(g.largest, g.bounds[k + 1] - g.bounds[k]);
    return g;
}

/// First detecting pattern among the `nw` words of one blocked pass
/// whose first pattern is `base`, or `never`. Patterns at or past the
/// budget do not count.
std::uint64_t first_detection(const std::uint64_t* masks, unsigned nw,
                              std::uint64_t base,
                              std::uint64_t max_patterns) {
    for (unsigned w = 0; w < nw; ++w) {
        const std::uint64_t start = base + w * 64ULL;
        const std::uint64_t size =
            std::min<std::uint64_t>(64, max_patterns - start);
        const std::uint64_t valid = size == 64 ? ~0ULL : ((1ULL << size) - 1);
        const std::uint64_t m = masks[w] & valid;
        if (m != 0)
            return start + static_cast<std::uint64_t>(std::countr_zero(m));
    }
    return never;
}

/// Lower `first` to t by atomic minimum; true when this call took the
/// fault from undetected to detected.
bool claim_first(std::atomic<std::uint64_t>& first, std::uint64_t t) {
    std::uint64_t cur = first.load(std::memory_order_relaxed);
    while (t < cur)
        if (first.compare_exchange_weak(cur, t, std::memory_order_relaxed))
            return cur == never;
    return false;
}

/// The parallel paths' result from the per-fault atomic minima. With
/// dropping, the run stops after the 64-pattern block in which the last
/// fault was first detected, as the sequential run does; otherwise the
/// full budget is applied.
fault_sim_result collect_parallel(
    const std::vector<std::atomic<std::uint64_t>>& first,
    const fault_sim_options& options) {
    fault_sim_result res;
    res.first_detected.assign(first.size(), std::nullopt);
    std::uint64_t last = 0;
    bool all_detected = true;
    for (std::size_t fi = 0; fi < first.size(); ++fi) {
        const std::uint64_t t = first[fi].load(std::memory_order_relaxed);
        if (t == never) {
            all_detected = false;
            continue;
        }
        res.first_detected[fi] = t;
        ++res.detected_count;
        last = std::max(last, t);
    }
    res.patterns_applied = options.max_patterns;
    if (options.drop_detected && all_detected && !first.empty()) {
        const std::uint64_t block_start = last - last % 64;
        if (options.max_patterns - block_start > 64)
            res.patterns_applied = block_start + 64;
    }
    return res;
}

/// The shared pattern window of one parallel run: blocks are drawn from
/// the (stateful, single-threaded) source lazily and in order under the
/// mutex, so workers see exactly the patterns the sequential path would.
/// `base` is the block index of blocks.front().
struct block_queue {
    wrpt::mutex mutex;
    std::deque<std::vector<std::uint64_t>> blocks WRPT_GUARDED_BY(mutex);
    std::uint64_t base WRPT_GUARDED_BY(mutex) = 0;
};

/// First exception a worker raised, rethrown on the caller's thread
/// after join (an exception escaping a std::thread body would
/// std::terminate).
struct error_slot {
    wrpt::mutex mutex;
    std::exception_ptr first WRPT_GUARDED_BY(mutex);
};

/// Sequential PPSFP with fault dropping: one simulator, blocks in order,
/// the live list shrinks as faults are detected.
fault_sim_result run_sequential(const circuit_view& cv,
                                const std::vector<fault>& faults,
                                pattern_source& source,
                                const fault_sim_options& options) {
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
            if (!options.drop_detected) live[keep++] = fi;
        }
        live.resize(keep);
        applied += block_size;
    }
    res.patterns_applied = applied;
    return res;
}

/// Block-parallel PPSFP: workers pull 64-pattern blocks off an atomic
/// queue, each with a private simulator over the shared view. Per-fault
/// first detections combine by atomic minimum, which makes the result
/// independent of worker scheduling and identical to the sequential run.
///
/// Early exit matches the sequential accounting: workers stop pulling new
/// blocks once every fault is detected. Blocks are pulled in ascending
/// index order, so by then every block below the last detecting one has
/// been (or is being) processed, and first detections are exact minima.
fault_sim_result run_parallel(const circuit_view& cv,
                              const std::vector<fault>& faults,
                              pattern_source& source,
                              const fault_sim_options& options,
                              unsigned threads) {
    const std::uint64_t block_count = ceil_div(options.max_patterns, 64);
    const std::size_t input_count = cv.input_count();

    // Consumed blocks (moved out, hence empty) are popped from the
    // window's front, bounding live memory to the not-yet-pulled window —
    // without materializing blocks the run may never reach.
    block_queue window;

    std::vector<std::atomic<std::uint64_t>> first(faults.size());
    for (auto& f : first) f.store(never, std::memory_order_relaxed);
    std::atomic<std::uint64_t> next_block{0};
    std::atomic<std::size_t> undetected{faults.size()};

    // The parallel path surfaces the same catchable errors (bad pattern
    // source, word-count mismatch) the sequential path does.
    error_slot error;

    auto worker_body = [&]() {
        simulator sim(cv);
        for (;;) {
            if (options.drop_detected &&
                undetected.load(std::memory_order_acquire) == 0)
                return;
            const std::uint64_t b =
                next_block.fetch_add(1, std::memory_order_relaxed);
            if (b >= block_count) return;
            // The puller of block b is its sole consumer: move the words
            // out and drop the emptied leading slots.
            std::vector<std::uint64_t> words;
            {
                lock_guard lock(window.mutex);
                while (window.base + window.blocks.size() <= b) {
                    std::vector<std::uint64_t>& fresh =
                        window.blocks.emplace_back();
                    source.next_block(fresh);
                    require(fresh.size() == input_count,
                            "fault sim: pattern source word count != "
                            "input count");
                }
                words = std::move(
                    window.blocks[static_cast<std::size_t>(b - window.base)]);
                while (!window.blocks.empty() &&
                       window.blocks.front().empty()) {
                    window.blocks.pop_front();
                    ++window.base;
                }
            }
            const std::uint64_t block_start = b * 64;
            const std::uint64_t block_size = std::min<std::uint64_t>(
                64, options.max_patterns - block_start);
            const std::uint64_t valid_mask =
                block_size == 64 ? ~0ULL : ((1ULL << block_size) - 1);
            sim.simulate(words);
            for (std::size_t fi = 0; fi < faults.size(); ++fi) {
                // Fault dropping across blocks: a detection in an earlier
                // block can never be improved by this one.
                if (options.drop_detected &&
                    first[fi].load(std::memory_order_relaxed) < block_start)
                    continue;
                const std::uint64_t mask =
                    sim.detect_mask(faults[fi]) & valid_mask;
                if (mask == 0) continue;
                const std::uint64_t t =
                    block_start +
                    static_cast<std::uint64_t>(std::countr_zero(mask));
                if (claim_first(first[fi], t))
                    undetected.fetch_sub(1, std::memory_order_release);
            }
        }
    };

    auto worker = [&]() {
        try {
            worker_body();
        } catch (...) {
            lock_guard lock(error.mutex);
            if (!error.first) error.first = std::current_exception();
            // Drain the queue so the other workers wind down promptly.
            next_block.store(block_count, std::memory_order_relaxed);
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
    std::exception_ptr first_error;
    {
        lock_guard lock(error.mutex);
        first_error = error.first;
    }
    if (first_error) std::rethrow_exception(first_error);
    return collect_parallel(first, options);
}

/// Blocked sequential PPSFP: B 64-pattern words per pass through the
/// live list, one block_simulator::detect_group call per stem group of
/// live faults. Detections are read out word by word in pattern order,
/// and the budget advances word by word, stopping after the word in
/// which the live list drained — so first_detected and patterns_applied
/// are exactly the one-word run's (only the pattern-source draw-ahead
/// differs, by at most B-1 blocks).
fault_sim_result run_sequential_blocked(const circuit_view& cv,
                                        const std::vector<fault>& faults,
                                        pattern_source& source,
                                        const fault_sim_options& options,
                                        unsigned B) {
    block_simulator sim(cv, B);
    fault_sim_result res;
    res.first_detected.assign(faults.size(), std::nullopt);

    // Live faults in stem-group order. The in-place compaction below
    // keeps that order, so each stem's live faults stay contiguous.
    stem_groups groups = group_by_stem(cv, faults);
    std::vector<std::size_t> live = std::move(groups.order);
    std::vector<std::uint64_t> masks(groups.largest * B);
    auto stem_of = [&](std::size_t fi) {
        return cv.ffr_stem(faults[fi].where);
    };

    const std::size_t input_count = cv.input_count();
    std::vector<std::uint64_t> input(input_count * B);
    std::vector<std::uint64_t> block;
    std::uint64_t applied = 0;
    while (applied < options.max_patterns && !live.empty()) {
        const unsigned nw = static_cast<unsigned>(std::min<std::uint64_t>(
            B, ceil_div(options.max_patterns - applied, 64)));
        for (unsigned w = 0; w < nw; ++w) {
            source.next_block(block);
            require(block.size() == input_count,
                    "fault sim: pattern source word count != input count");
            for (std::size_t i = 0; i < input_count; ++i)
                input[i * B + w] = block[i];
        }
        for (unsigned w = nw; w < B; ++w)
            for (std::size_t i = 0; i < input_count; ++i)
                input[i * B + w] = 0;
        sim.simulate(input);

        std::size_t keep = 0;
        unsigned stop_word = 0;  // last word with a first detection
        for (std::size_t lo = 0; lo < live.size();) {
            std::size_t hi = lo + 1;
            while (hi < live.size() && stem_of(live[hi]) == stem_of(live[lo]))
                ++hi;
            sim.detect_group(faults, {live.data() + lo, hi - lo},
                             masks.data());
            // keep <= idx: compaction never overwrites an unread entry.
            for (std::size_t idx = lo; idx < hi; ++idx) {
                const std::size_t fi = live[idx];
                const std::uint64_t t = first_detection(
                    masks.data() + (idx - lo) * B, nw, applied,
                    options.max_patterns);
                if (t == never) {
                    live[keep++] = fi;
                    continue;
                }
                if (!res.first_detected[fi].has_value()) {
                    res.first_detected[fi] = t;
                    ++res.detected_count;
                }
                stop_word = std::max(
                    stop_word, static_cast<unsigned>((t - applied) / 64));
                if (!options.drop_detected) live[keep++] = fi;
            }
            lo = hi;
        }
        const bool drained = options.drop_detected && keep == 0;
        live.resize(keep);
        // Replay the word-sequential budget: the one-word run stops
        // after the word where the live list drained.
        const unsigned consumed = drained ? stop_word + 1 : nw;
        for (unsigned w = 0; w < consumed; ++w)
            applied += std::min<std::uint64_t>(
                64, options.max_patterns - applied);
    }
    res.patterns_applied = applied;
    return res;
}

/// Blocked block-parallel PPSFP: run_parallel with superblocks of B
/// words per pull, each worker running detect_group over the shared stem
/// groups (minus the faults already detected in an earlier superblock).
/// First detections combine by atomic minimum exactly as in the one-word
/// path, and the closing accounting is shared, so the result is
/// identical to the sequential runs.
fault_sim_result run_parallel_blocked(const circuit_view& cv,
                                      const std::vector<fault>& faults,
                                      pattern_source& source,
                                      const fault_sim_options& options,
                                      unsigned threads, unsigned B) {
    const std::uint64_t word_count = ceil_div(options.max_patterns, 64);
    const std::uint64_t super_count = ceil_div(word_count, B);
    const std::size_t input_count = cv.input_count();
    const stem_groups groups = group_by_stem(cv, faults);

    block_queue window;

    std::vector<std::atomic<std::uint64_t>> first(faults.size());
    for (auto& f : first) f.store(never, std::memory_order_relaxed);
    std::atomic<std::uint64_t> next_super{0};
    std::atomic<std::size_t> undetected{faults.size()};

    error_slot error;

    auto worker_body = [&]() {
        block_simulator sim(cv, B);
        std::vector<std::uint64_t> input(input_count * B);
        std::vector<std::size_t> members;
        members.reserve(groups.largest);
        std::vector<std::uint64_t> masks(groups.largest * B);
        for (;;) {
            if (options.drop_detected &&
                undetected.load(std::memory_order_acquire) == 0)
                return;
            const std::uint64_t s =
                next_super.fetch_add(1, std::memory_order_relaxed);
            if (s >= super_count) return;
            const std::uint64_t wb0 = s * B;
            const unsigned nw = static_cast<unsigned>(
                std::min<std::uint64_t>(B, word_count - wb0));
            {
                lock_guard lock(window.mutex);
                while (window.base + window.blocks.size() < wb0 + nw) {
                    std::vector<std::uint64_t>& fresh =
                        window.blocks.emplace_back();
                    source.next_block(fresh);
                    require(fresh.size() == input_count,
                            "fault sim: pattern source word count != "
                            "input count");
                }
                for (unsigned w = 0; w < nw; ++w) {
                    std::vector<std::uint64_t>& src = window.blocks[
                        static_cast<std::size_t>(wb0 + w - window.base)];
                    for (std::size_t i = 0; i < input_count; ++i)
                        input[i * B + w] = src[i];
                    src.clear();  // consumed; the pop loop drops it
                }
                while (!window.blocks.empty() &&
                       window.blocks.front().empty()) {
                    window.blocks.pop_front();
                    ++window.base;
                }
            }
            for (unsigned w = nw; w < B; ++w)
                for (std::size_t i = 0; i < input_count; ++i)
                    input[i * B + w] = 0;
            sim.simulate(input);
            const std::uint64_t super_start = wb0 * 64;
            for (std::size_t g = 0; g + 1 < groups.bounds.size(); ++g) {
                members.clear();
                for (std::size_t idx = groups.bounds[g];
                     idx < groups.bounds[g + 1]; ++idx) {
                    const std::size_t fi = groups.order[idx];
                    // Fault dropping across superblocks: a detection in
                    // an earlier one can never be improved by this one.
                    if (options.drop_detected &&
                        first[fi].load(std::memory_order_relaxed) <
                            super_start)
                        continue;
                    members.push_back(fi);
                }
                if (members.empty()) continue;
                sim.detect_group(faults, members, masks.data());
                for (std::size_t j = 0; j < members.size(); ++j) {
                    const std::uint64_t t =
                        first_detection(masks.data() + j * B, nw, super_start,
                                        options.max_patterns);
                    if (t != never && claim_first(first[members[j]], t))
                        undetected.fetch_sub(1, std::memory_order_release);
                }
            }
        }
    };

    auto worker = [&]() {
        try {
            worker_body();
        } catch (...) {
            lock_guard lock(error.mutex);
            if (!error.first) error.first = std::current_exception();
            next_super.store(super_count, std::memory_order_relaxed);
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
    std::exception_ptr first_error;
    {
        lock_guard lock(error.mutex);
        first_error = error.first;
    }
    if (first_error) std::rethrow_exception(first_error);
    return collect_parallel(first, options);
}

}  // namespace

fault_sim_result run_fault_simulation(const circuit_view& cv,
                                      const std::vector<fault>& faults,
                                      pattern_source& source,
                                      const fault_sim_options& options) {
    require(options.max_patterns > 0, "fault sim: max_patterns must be > 0");
    unsigned threads = options.threads;
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    // No point spinning up more workers (each with its own simulator
    // scratch) than there are work pulls — 64-pattern blocks, or
    // B-word superblocks on the blocked paths.
    const unsigned B = std::clamp(options.block_words, 1u, 8u);
    const std::uint64_t pulls =
        ceil_div(ceil_div(options.max_patterns, 64), B);
    threads = static_cast<unsigned>(std::min<std::uint64_t>(threads, pulls));

    // All four paths produce identical results; block_words == 1 is the
    // per-fault scalar reference pair.
    if (threads <= 1 || faults.empty())
        return B <= 1 ? run_sequential(cv, faults, source, options)
                      : run_sequential_blocked(cv, faults, source, options, B);
    return B <= 1 ? run_parallel(cv, faults, source, options, threads)
                  : run_parallel_blocked(cv, faults, source, options, threads,
                                         B);
}

fault_sim_result run_fault_simulation(const netlist& nl,
                                      const std::vector<fault>& faults,
                                      pattern_source& source,
                                      const fault_sim_options& options) {
    const circuit_view cv = circuit_view::compile(nl);
    return run_fault_simulation(cv, faults, source, options);
}

fault_sim_result run_weighted_fault_simulation(
    const netlist& nl, const std::vector<fault>& faults,
    const weight_vector& weights, std::uint64_t seed,
    const fault_sim_options& options) {
    require(weights.size() == nl.input_count(),
            "fault sim: weight count != input count");
    weighted_random_source source(weights, seed);
    return run_fault_simulation(nl, faults, source, options);
}

std::vector<std::pair<std::uint64_t, double>> coverage_curve(
    const fault_sim_result& result, std::size_t universe) {
    std::vector<std::pair<std::uint64_t, double>> curve;
    std::uint64_t n = 16;
    while (n < result.patterns_applied) {
        curve.emplace_back(n, 100.0 *
                                  static_cast<double>(result.detected_within(n)) /
                                  static_cast<double>(universe == 0 ? 1 : universe));
        n *= 2;
    }
    curve.emplace_back(result.patterns_applied,
                       100.0 *
                           static_cast<double>(
                               result.detected_within(result.patterns_applied)) /
                           static_cast<double>(universe == 0 ? 1 : universe));
    return curve;
}

}  // namespace wrpt
