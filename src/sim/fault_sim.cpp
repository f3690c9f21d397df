#include "sim/fault_sim.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <utility>

#include "core/circuit_view.h"
#include "exec/thread_pool.h"
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

/// 64-pattern words per superblock: each pass of the FFR kernel
/// simulates 256 patterns.
constexpr unsigned block_words = 4;

/// ceil(n / d) without the n + d - 1 wrap near 2^64 (a budget of
/// UINT64_MAX patterns is legal and must not round down to 0 words).
constexpr std::uint64_t ceil_div(std::uint64_t n, std::uint64_t d) {
    return n / d + (n % d != 0);
}

/// Fault indices ordered by fanout-free-region stem (ascending stem id,
/// list order within a stem), so each stem's faults are contiguous and
/// go to block_simulator::detect_group together; `largest` is the size
/// of the biggest group.
struct stem_groups {
    std::vector<std::size_t> order;
    std::size_t largest = 0;
};

stem_groups group_by_stem(const circuit_view& cv,
                          const std::vector<fault>& faults) {
    // A counting sort on the stem id: stable, and O(faults + nodes).
    std::vector<std::size_t> next(cv.node_count() + 1, 0);
    for (const fault& f : faults) ++next[cv.ffr_stem(f.where) + 1];
    stem_groups g;
    for (std::size_t n = 1; n < next.size(); ++n) {
        g.largest = std::max(g.largest, next[n]);
        next[n] += next[n - 1];
    }
    g.order.resize(faults.size());
    for (std::size_t fi = 0; fi < faults.size(); ++fi)
        g.order[next[cv.ffr_stem(faults[fi].where)]++] = fi;
    return g;
}

/// First detecting pattern among the `nw` words of one superblock whose
/// first pattern is `base`, or `never`. Patterns at or past the budget
/// do not count.
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

/// The result from the per-fault minima. Once every fault is detected
/// the run stops after the 64-pattern word in which the last one was
/// first detected, as a word-by-word run with fault dropping does;
/// otherwise the full budget is applied.
fault_sim_result collect(const std::vector<std::atomic<std::uint64_t>>& first,
                         std::uint64_t max_patterns) {
    fault_sim_result res;
    res.first_detected.assign(first.size(), std::nullopt);
    std::uint64_t last = 0;
    for (std::size_t fi = 0; fi < first.size(); ++fi) {
        const std::uint64_t t = first[fi].load(std::memory_order_relaxed);
        if (t == never) continue;
        res.first_detected[fi] = t;
        ++res.detected_count;
        last = std::max(last, t);
    }
    res.patterns_applied = max_patterns;
    if (res.detected_count == first.size()) {
        const std::uint64_t word_start = last - last % 64;
        if (max_patterns - word_start > 64)
            res.patterns_applied = word_start + 64;
    }
    return res;
}

/// The next superblock to pull. The pattern source is stateful and
/// single-threaded, so a worker pulls a superblock and draws its blocks
/// in one critical section: superblock s always gets the source's blocks
/// from s * block_words on, whichever worker pulls it.
struct superblock_queue {
    wrpt::mutex mutex;
    std::uint64_t next WRPT_GUARDED_BY(mutex) = 0;
};

}  // namespace

/// PPSFP with the fanout-free-region kernel. Workers pull superblocks of
/// block_words 64-pattern words off one counter, in ascending order,
/// each with its own block_simulator over the shared view and its own
/// live list in stem-group order. A worker hands each stem's live faults
/// to one detect_group call, reads the masks out word by word in pattern
/// order (words past the budget are never read), and lowers each fault's
/// first detection by atomic minimum. The result is therefore the exact per-fault minimum
/// whatever the scheduling, and identical for every thread count.
///
/// Fault dropping: a worker drops from its live list the faults it
/// detects itself and those another worker detected in an earlier
/// superblock; neither can be improved by a later superblock. Workers
/// stop pulling once every fault is detected. Superblocks are pulled in
/// ascending order, so by then every superblock below the last detecting
/// one has been (or is being) processed, and the minima are exact.
fault_sim_result run_fault_simulation(const circuit_view& cv,
                                      const std::vector<fault>& faults,
                                      pattern_source& source,
                                      const fault_sim_options& options) {
    require(options.max_patterns > 0, "fault sim: max_patterns must be > 0");
    if (faults.empty()) return {};
    const std::uint64_t word_count = ceil_div(options.max_patterns, 64);
    const std::uint64_t super_count = ceil_div(word_count, block_words);
    // No more workers (each with its own simulator scratch) than there
    // are superblocks to pull.
    const unsigned threads = static_cast<unsigned>(std::min<std::uint64_t>(
        options.threads == 0 ? shared_thread_pool().size() : options.threads,
        super_count));

    const stem_groups groups = group_by_stem(cv, faults);
    auto stem_of = [&](std::size_t fi) {
        return cv.ffr_stem(faults[fi].where);
    };
    const std::size_t input_count = cv.input_count();
    superblock_queue queue;
    std::vector<std::atomic<std::uint64_t>> first(faults.size());
    for (auto& f : first) f.store(never, std::memory_order_relaxed);
    std::atomic<std::size_t> undetected{faults.size()};

    auto work = [&] {
        block_simulator sim(cv, block_words);
        std::vector<std::uint64_t> input(input_count * block_words);
        std::vector<std::uint64_t> block;
        std::vector<std::uint64_t> masks(groups.largest * block_words);
        std::vector<std::size_t> live = groups.order;
        while (!live.empty() &&
               undetected.load(std::memory_order_acquire) != 0) {
            std::uint64_t word0 = 0;
            unsigned nw = 0;
            {
                lock_guard lock(queue.mutex);
                if (queue.next >= super_count) return;
                word0 = queue.next++ * block_words;
                nw = static_cast<unsigned>(
                    std::min<std::uint64_t>(block_words, word_count - word0));
                for (unsigned w = 0; w < nw; ++w) {
                    source.next_block(block);
                    require(block.size() == input_count,
                            "fault sim: pattern source word count != "
                            "input count");
                    for (std::size_t i = 0; i < input_count; ++i)
                        input[i * block_words + w] = block[i];
                }
            }
            sim.simulate(input);
            const std::uint64_t super_start = word0 * 64;

            // In-place compaction keeps the stem-group order; keep <= lo,
            // so it never overwrites an unread entry.
            std::size_t keep = 0;
            std::size_t claimed = 0;
            for (std::size_t lo = 0; lo < live.size();) {
                const node_id stem = stem_of(live[lo]);
                const std::size_t group = keep;
                for (; lo < live.size() && stem_of(live[lo]) == stem; ++lo)
                    if (first[live[lo]].load(std::memory_order_relaxed) >=
                        super_start)
                        live[keep++] = live[lo];
                if (keep == group) continue;
                sim.detect_group(faults, {live.data() + group, keep - group},
                                 masks.data());
                const std::size_t end = keep;
                keep = group;
                for (std::size_t idx = group; idx < end; ++idx) {
                    const std::size_t fi = live[idx];
                    const std::uint64_t t = first_detection(
                        masks.data() + (idx - group) * block_words, nw,
                        super_start, options.max_patterns);
                    if (t == never)
                        live[keep++] = fi;
                    else if (claim_first(first[fi], t))
                        ++claimed;
                }
            }
            live.resize(keep);
            // One decrement per superblock, not per detection: a shared
            // counter bumped by every worker on every detection bounces
            // its cache line between cores (c7552 at four threads was
            // 20% slower that way).
            if (claimed != 0)
                undetected.fetch_sub(claimed, std::memory_order_release);
        }
    };

    if (threads == 1) {
        work();
    } else {
        shared_thread_pool().parallel_for(threads, [&](std::size_t) {
            try {
                work();
            } catch (...) {
                // Drain the counter so the other workers wind down;
                // parallel_for rethrows on the calling thread.
                lock_guard lock(queue.mutex);
                queue.next = super_count;
                throw;
            }
        });
    }
    return collect(first, options.max_patterns);
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
