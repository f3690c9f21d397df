#include "prob/cop_engine.h"

#include <algorithm>

#include "prob/cop_rules.h"
#include "prob/observability.h"
#include "prob/signal_prob.h"
#include "util/error.h"

namespace wrpt {

cop_engine::cop_engine(const circuit_view& cv, weight_vector weights)
    : cv_(&cv), weights_(std::move(weights)) {
    require(cv.has_input_cones(),
            "cop_engine: view compiled without input cones");
    require(weights_.size() == cv.input_count(),
            "cop_engine: weight count mismatch");
    p_ = cop_signal_probabilities(cv, weights_);
    observability_result obs = cop_observabilities(cv, p_);
    stem_ = std::move(obs.stem);
    pin_ = std::move(obs.pin);

    queued_.assign(cv.node_count(), 0);
    in_union_.assign(cv.node_count(), 0);
    stem_dirty_.assign(cv.node_count(), 0);
    pin_dirty_.assign(cv.node_count(), 0);
    buckets_.resize(cv.depth() + 1);
    // A probe can touch ~(p + stem + pin) cells; reserving up front keeps
    // the hot set_input path reallocation-free.
    log_.reserve(2 * cv.node_count() + cv.pin_count());
}

double cop_engine::fault_probability(const fault& f) const {
    return cop::fault_probability(*cv_, p_, stem_, pin_, f);
}

void cop_engine::schedule(node_id n) {
    if (!queued_[n]) {
        queued_[n] = 1;
        const std::size_t lvl = cv_->level(n);
        buckets_[lvl].push_back(n);
        max_scheduled_level_ = std::max(max_scheduled_level_, lvl);
    }
}

void cop_engine::set_inputs(std::span<const input_move> moves) {
    const circuit_view& cv = *cv_;
    for (const input_move& m : moves) {
        require(m.input < weights_.size(),
                "cop_engine::set_inputs: input index out of range");
        record(cell::weight, static_cast<std::uint32_t>(m.input),
               weights_[m.input]);
        weights_[m.input] = m.value;
    }

    // Forward: re-propagate signal probabilities over the union of the
    // moved inputs' fanout cones, in topological (ascending id) order.
    // node_probability reads the already updated weights_ for input
    // nodes, so the union sweep needs no per-move special case.
    // Recomputing a cone node whose fanins kept their values reproduces
    // its old value exactly, so no pre-check is needed; only genuine
    // changes are recorded and propagated backward.
    std::span<const node_id> cone;
    if (moves.size() == 1) {
        cone = cv.input_cone(moves.front().input);
    } else {
        union_nodes_.clear();
        for (const input_move& m : moves)
            for (node_id n : cv.input_cone(m.input))
                if (!in_union_[n]) {
                    in_union_[n] = 1;
                    union_nodes_.push_back(n);
                }
        std::sort(union_nodes_.begin(), union_nodes_.end());
        for (node_id n : union_nodes_) in_union_[n] = 0;
        cone = union_nodes_;
    }
    changed_nodes_.clear();
    for (node_id n : cone) {
        const double nv = cop::node_probability(cv, p_, weights_, n);
        if (nv == p_[n]) continue;
        record(cell::prob, n, p_[n]);
        p_[n] = nv;
        changed_nodes_.push_back(n);
    }

    // Backward: a probability change invalidates the pin observabilities
    // of consumers whose sensitization reads the changed value — only
    // and/nand/or/nor gates; buf/not/xor pins have sensitization 1 and
    // follow their stem alone. From there, changes travel stem-by-stem
    // toward the inputs. Seed the wavefront, then process levels
    // descending — a stem depends only on consumer pins at strictly
    // higher levels, so one pass finalizes every affected node.
    max_scheduled_level_ = 0;
    for (node_id x : changed_nodes_) {
        for (node_id g : cv.fanouts(x)) {
            if (!kind_has_controlling_value(cv.kind(g))) continue;
            pin_dirty_[g] = 1;
            schedule(g);
        }
    }
    for (std::size_t lvl = max_scheduled_level_ + 1; lvl-- > 0;) {
        auto& bucket = buckets_[lvl];
        for (std::size_t idx = 0; idx < bucket.size(); ++idx) {
            const node_id n = bucket[idx];
            queued_[n] = 0;
            bool stem_changed = false;
            if (stem_dirty_[n]) {
                stem_dirty_[n] = 0;
                const double ns = cop::stem_observability(cv, pin_, n);
                if (ns != stem_[n]) {
                    record(cell::stem, n, stem_[n]);
                    stem_[n] = ns;
                    stem_changed = true;
                }
            }
            if (pin_dirty_[n] || stem_changed) {
                pin_dirty_[n] = 0;
                const auto fi = cv.fanins(n);
                const std::uint32_t off = cv.pin_offset(n);
                for (std::size_t k = 0; k < fi.size(); ++k) {
                    const double np =
                        stem_[n] * cop::pin_sensitization(cv, p_, n, k);
                    if (np == pin_[off + k]) continue;
                    record(cell::pin, off + static_cast<std::uint32_t>(k),
                           pin_[off + k]);
                    pin_[off + k] = np;
                    stem_dirty_[fi[k]] = 1;
                    schedule(fi[k]);
                }
            }
        }
        bucket.clear();
    }

    changed_nodes_.clear();
}

void cop_engine::rollback(checkpoint mark) {
    require(mark <= log_.size(), "cop_engine::rollback: bad checkpoint");
    while (log_.size() > mark) {
        const undo_entry& e = log_.back();
        switch (e.where) {
            case cell::prob: p_[e.index] = e.old_value; break;
            case cell::stem: stem_[e.index] = e.old_value; break;
            case cell::pin: pin_[e.index] = e.old_value; break;
            case cell::weight: weights_[e.index] = e.old_value; break;
        }
        log_.pop_back();
    }
}

}  // namespace wrpt
