#include "sim/logic_sim.h"

#include <algorithm>

#include "core/gate_eval.h"
#include "util/error.h"

namespace wrpt {

simulator::simulator(const netlist& nl)
    : owned_view_(std::make_unique<circuit_view>(circuit_view::compile(nl))),
      view_(owned_view_.get()) {
    init_scratch();
}

simulator::simulator(const circuit_view& view) : view_(&view) {
    init_scratch();
}

void simulator::init_scratch() {
    const std::size_t n = view_->node_count();
    good_.assign(n, 0);
    args_.assign(view_->max_arity(), 0);
    faulty_.assign(n, 0);
    has_faulty_.assign(n, 0);
    queued_.assign(n, 0);
    buckets_.resize(view_->depth() + 1);
    output_diff_.assign(view_->output_count(), 0);
}

void simulator::simulate(std::span<const std::uint64_t> input_words) {
    require(input_words.size() == view_->input_count(),
            "simulator::simulate: word count != input count");
    const circuit_view& cv = *view_;
    const auto inputs = cv.inputs();
    for (std::size_t i = 0; i < input_words.size(); ++i)
        good_[inputs[i]] = input_words[i];
    // Forward sweep in topological id order (every fanin id is smaller).
    const node_id count = static_cast<node_id>(cv.node_count());
    for (node_id n = 0; n < count; ++n) {
        if (cv.kind(n) == gate_kind::input) continue;
        const auto fi = cv.fanins(n);
        good_[n] = eval_gate_with(
            word_algebra{}, cv.kind(n),
            [&](std::size_t k) { return good_[fi[k]]; }, fi.size());
    }
}

std::uint64_t simulator::eval_node(node_id n) {
    const circuit_view& cv = *view_;
    const auto fi = cv.fanins(n);
    return eval_gate_with(
        word_algebra{}, cv.kind(n),
        [&](std::size_t k) {
            const node_id f = fi[k];
            return has_faulty_[f] ? faulty_[f] : good_[f];
        },
        fi.size());
}

void simulator::schedule(node_id n) {
    if (!queued_[n]) {
        queued_[n] = 1;
        buckets_[view_->level(n)].push_back(n);
    }
}

std::uint64_t simulator::detect_mask(const fault& f) {
    const circuit_view& cv = *view_;
    std::fill(output_diff_.begin(), output_diff_.end(), 0);

    const std::uint64_t forced = stuck_value(f.value) ? ~0ULL : 0ULL;
    std::uint64_t detected = 0;
    std::size_t start_level = 0;

    auto mark = [&](node_id n, std::uint64_t value) {
        faulty_[n] = value;
        has_faulty_[n] = 1;
        touched_.push_back(n);
        for (node_id fo : cv.fanouts(n)) schedule(fo);
    };

    if (f.is_stem()) {
        const node_id n = f.where;
        if ((good_[n] ^ forced) == 0) return 0;  // fault never activated
        mark(n, forced);
        if (cv.is_output(n)) detected |= good_[n] ^ forced;
        start_level = cv.level(n);
    } else {
        // Branch fault: only gate f.where sees the forced value on pin f.pin.
        const node_id g = f.where;
        const auto fi = cv.fanins(g);
        for (std::size_t k = 0; k < fi.size(); ++k) args_[k] = good_[fi[k]];
        args_[static_cast<std::size_t>(f.pin)] = forced;
        const std::uint64_t v =
            eval_gate(word_algebra{}, cv.kind(g), args_.data(), fi.size());
        if (v == good_[g]) return 0;
        mark(g, v);
        queued_[g] = 0;  // g itself is final; only its fanouts propagate
        if (cv.is_output(g)) detected |= good_[g] ^ v;
        start_level = cv.level(g);
    }

    // Levelized wavefront: every edge increases the level, so processing
    // buckets in ascending level order finalizes each node exactly once.
    for (std::size_t lvl = start_level; lvl < buckets_.size(); ++lvl) {
        auto& bucket = buckets_[lvl];
        for (std::size_t idx = 0; idx < bucket.size(); ++idx) {
            const node_id n = bucket[idx];
            queued_[n] = 0;
            if (has_faulty_[n]) continue;  // the injected node stays forced
            const std::uint64_t v = eval_node(n);
            if (v == good_[n]) continue;
            mark(n, v);
            if (cv.is_output(n)) detected |= good_[n] ^ v;
        }
        bucket.clear();
    }

    // Record per-output differences, then reset scratch state.
    if (detected != 0) {
        const auto outputs = cv.outputs();
        for (std::size_t o = 0; o < outputs.size(); ++o) {
            const node_id out = outputs[o];
            if (has_faulty_[out]) output_diff_[o] = good_[out] ^ faulty_[out];
        }
    }
    for (node_id n : touched_) has_faulty_[n] = 0;
    touched_.clear();
    return detected;
}

namespace {

/// The word-algebra gate function over B-word rows:
/// out[w] = kind(src[0][w], ..., src[count-1][w]).
void eval_words(gate_kind kind, const std::uint64_t* const* src,
                std::size_t count, unsigned B, std::uint64_t* out) {
    for (unsigned w = 0; w < B; ++w)
        out[w] = eval_gate_with(
            word_algebra{}, kind, [&](std::size_t k) { return src[k][w]; },
            count);
}

}  // namespace

block_simulator::block_simulator(const circuit_view& view, unsigned words)
    : view_(&view), words_(words) {
    require(words_ >= 1, "block_simulator: words must be >= 1");
    const std::size_t n = view_->node_count();
    good_.assign(n * words_, 0);
    faulty_.assign(n * words_, 0);
    vbuf_.assign(words_, 0);
    forced_.assign(words_, 0);
    flip_.assign(words_, 0);
    obs_.assign(words_, 0);
    srcs_.assign(view_->max_arity(), nullptr);
    has_faulty_.assign(n, 0);
    queued_.assign(n, 0);
    buckets_.resize(view_->depth() + 1);
}

void block_simulator::simulate(std::span<const std::uint64_t> input_words) {
    require(input_words.size() == view_->input_count() * words_,
            "block_simulator::simulate: word count != input count * words");
    const circuit_view& cv = *view_;
    const unsigned B = words_;
    const auto inputs = cv.inputs();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        std::uint64_t* dst = node_words(good_, inputs[i]);
        for (unsigned w = 0; w < B; ++w) dst[w] = input_words[i * B + w];
    }
    const node_id count = static_cast<node_id>(cv.node_count());
    for (node_id n = 0; n < count; ++n) {
        if (cv.kind(n) == gate_kind::input) continue;
        const auto fi = cv.fanins(n);
        for (std::size_t k = 0; k < fi.size(); ++k)
            srcs_[k] = node_words(good_, fi[k]);
        eval_words(cv.kind(n), srcs_.data(), fi.size(), B,
                   node_words(good_, n));
    }
}

void block_simulator::schedule(node_id n) {
    if (!queued_[n]) {
        queued_[n] = 1;
        ++pending_;
        buckets_[view_->level(n)].push_back(n);
    }
}

/// L_f at `stem` into local[0..B): activation at the fault site, ANDed
/// with the side-input sensitization of each gate on the unique path
/// from the site to the stem. Returns the OR of the words (0: no block
/// pattern carries the fault effect to the stem).
std::uint64_t block_simulator::local_mask(const fault& f, node_id stem,
                                          std::uint64_t* local) {
    const circuit_view& cv = *view_;
    const unsigned B = words_;
    const std::uint64_t forced = stuck_value(f.value) ? ~0ULL : 0ULL;
    node_id n = f.where;
    const std::uint64_t* g = node_words(good_, n);
    if (f.is_stem()) {
        for (unsigned w = 0; w < B; ++w) local[w] = g[w] ^ forced;
    } else {
        // Branch fault: only gate n sees the forced value on pin f.pin.
        const auto fi = cv.fanins(n);
        for (std::size_t k = 0; k < fi.size(); ++k)
            srcs_[k] = node_words(good_, fi[k]);
        std::fill(forced_.begin(), forced_.end(), forced);
        srcs_[static_cast<std::size_t>(f.pin)] = forced_.data();
        eval_words(cv.kind(n), srcs_.data(), fi.size(), B, local);
        for (unsigned w = 0; w < B; ++w) local[w] ^= g[w];
    }
    std::uint64_t any = 0;
    for (unsigned w = 0; w < B; ++w) any |= local[w];
    // Every node before the stem has exactly one consumer, reached on
    // exactly one pin; the other pins are the path's side inputs.
    while (any != 0 && n != stem) {
        const node_id c = cv.fanouts(n)[0];
        const gate_kind kind = cv.kind(c);
        const bool and_like =
            kind == gate_kind::and_ || kind == gate_kind::nand_;
        const bool or_like = kind == gate_kind::or_ || kind == gate_kind::nor_;
        if (and_like || or_like) {
            // Non-controlling side values: 1 for AND/NAND, 0 for OR/NOR.
            const std::uint64_t to_one = or_like ? ~0ULL : 0ULL;
            for (node_id x : cv.fanins(c)) {
                if (x == n) continue;
                const std::uint64_t* gx = node_words(good_, x);
                for (unsigned w = 0; w < B; ++w) local[w] &= gx[w] ^ to_one;
            }
            any = 0;
            for (unsigned w = 0; w < B; ++w) any |= local[w];
        }
        n = c;
    }
    return any;
}

/// obs_U(stem) into obs_: the levelized wavefront from the stem flipped
/// on flip_ (= U) only. Flipping the stem's full complement instead would
/// launch events on patterns no group member activates.
void block_simulator::observe(node_id stem) {
    const circuit_view& cv = *view_;
    const unsigned B = words_;
    std::fill(obs_.begin(), obs_.end(), 0);

    auto mark = [&](node_id n, const std::uint64_t* v) {
        std::uint64_t* dst = node_words(faulty_, n);
        for (unsigned w = 0; w < B; ++w) dst[w] = v[w];
        has_faulty_[n] = 1;
        touched_.push_back(n);
        for (node_id fo : cv.fanouts(n)) schedule(fo);
    };

    const std::uint64_t* gs = node_words(good_, stem);
    for (unsigned w = 0; w < B; ++w) vbuf_[w] = gs[w] ^ flip_[w];
    mark(stem, vbuf_.data());

    // Every edge increases the level, so ascending buckets finalize each
    // node exactly once. A word in which a node's faulty value equals its
    // good value carries the good value downstream, exactly as in the
    // one-word simulator, so each word propagates as if simulated alone.
    // Once every flipped bit is observed (obs == U), nothing downstream
    // can add to obs, and the remaining events are discarded.
    bool done = false;
    for (std::size_t lvl = cv.level(stem) + 1; pending_ != 0; ++lvl) {
        auto& bucket = buckets_[lvl];
        pending_ -= bucket.size();
        for (const node_id n : bucket) {
            queued_[n] = 0;
            if (done) continue;
            const auto fi = cv.fanins(n);
            for (std::size_t k = 0; k < fi.size(); ++k)
                srcs_[k] = node_words(has_faulty_[fi[k]] ? faulty_ : good_,
                                      fi[k]);
            eval_words(cv.kind(n), srcs_.data(), fi.size(), B, vbuf_.data());
            const std::uint64_t* g = node_words(good_, n);
            std::uint64_t any = 0;
            for (unsigned w = 0; w < B; ++w) any |= vbuf_[w] ^ g[w];
            if (any == 0) continue;
            mark(n, vbuf_.data());
            if (cv.is_output(n)) {
                std::uint64_t missed = 0;
                for (unsigned w = 0; w < B; ++w) {
                    obs_[w] |= g[w] ^ vbuf_[w];
                    missed |= flip_[w] & ~obs_[w];
                }
                done = missed == 0;
            }
        }
        bucket.clear();
    }

    for (node_id n : touched_) has_faulty_[n] = 0;
    touched_.clear();
}

void block_simulator::detect_group(std::span<const fault> faults,
                                   std::span<const std::size_t> members,
                                   std::uint64_t* masks) {
    if (members.empty()) return;
    const circuit_view& cv = *view_;
    const unsigned B = words_;
    const node_id stem = cv.ffr_stem(faults[members[0]].where);
    std::fill(flip_.begin(), flip_.end(), 0);
    std::uint64_t any = 0;
    for (std::size_t j = 0; j < members.size(); ++j) {
        const fault& f = faults[members[j]];
        if (cv.ffr_stem(f.where) != stem)
            throw invalid_input(
                "block_simulator::detect_group: faults with different stems");
        std::uint64_t* local = masks + j * B;
        any |= local_mask(f, stem, local);
        for (unsigned w = 0; w < B; ++w) flip_[w] |= local[w];
    }
    // A primary-output stem observes every flipped bit: obs_U = U.
    if (any == 0 || cv.is_output(stem)) return;
    observe(stem);
    for (std::size_t j = 0; j < members.size(); ++j)
        for (unsigned w = 0; w < B; ++w) masks[j * B + w] &= obs_[w];
}

std::vector<bool> evaluate(const netlist& nl, const std::vector<bool>& inputs) {
    require(inputs.size() == nl.input_count(),
            "evaluate: input size mismatch");
    simulator sim(nl);
    std::vector<std::uint64_t> words(inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i)
        words[i] = inputs[i] ? 1ULL : 0ULL;
    sim.simulate(words);
    std::vector<bool> out;
    out.reserve(nl.output_count());
    for (node_id o : nl.outputs()) out.push_back((sim.value(o) & 1ULL) != 0);
    return out;
}

std::vector<bool> evaluate_with_fault(const netlist& nl,
                                      const std::vector<bool>& inputs,
                                      const fault& f) {
    require(inputs.size() == nl.input_count(),
            "evaluate_with_fault: input size mismatch");
    simulator sim(nl);
    std::vector<std::uint64_t> words(inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i)
        words[i] = inputs[i] ? 1ULL : 0ULL;
    sim.simulate(words);
    const std::uint64_t mask = sim.detect_mask(f);
    std::vector<bool> out;
    out.reserve(nl.output_count());
    for (std::size_t o = 0; o < nl.output_count(); ++o) {
        bool good_bit = (sim.value(nl.outputs()[o]) & 1ULL) != 0;
        const bool flipped = (sim.last_output_diff()[o] & 1ULL) != 0;
        out.push_back(flipped ? !good_bit : good_bit);
    }
    (void)mask;
    return out;
}

}  // namespace wrpt
