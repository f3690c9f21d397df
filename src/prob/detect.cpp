#include "prob/detect.h"

#include <bit>
#include <thread>

#include "bdd/bdd.h"
#include "core/circuit_view.h"
#include "core/gate_eval.h"
#include "exec/engine_pool.h"
#include "exec/thread_pool.h"
#include "prob/cop_engine.h"
#include "prob/cop_rules.h"
#include "prob/signal_prob.h"
#include "prob/stafan.h"
#include "sim/logic_sim.h"
#include "sim/patterns.h"
#include "util/error.h"
#include "util/rng.h"

namespace wrpt {

cop_detect_estimator::cop_detect_estimator() = default;
cop_detect_estimator::~cop_detect_estimator() = default;

void cop_detect_estimator::adopt_view(const circuit_view& cv) {
    require(cv.has_input_cones(),
            "cop estimator: adopted view compiled without input cones");
    adopted_view_ = &cv;
    own_pool_.reset();
    view_.reset();
    cached_revision_ = cv.source().revision();
}

void cop_detect_estimator::adopt_pool(engine_pool& pool) {
    adopt_view(pool.view());
    shared_pool_ = &pool;
}

const circuit_view& cop_detect_estimator::ensure_view(const netlist& nl,
                                                      bool engine_structures) {
    // An adopted view (batch_session: compile once, share across every
    // estimator working the circuit) short-circuits the cache, but only
    // for the circuit it was compiled from.
    if (adopted_view_ &&
        adopted_view_->source().revision() == nl.revision())
        return *adopted_view_;
    // Cache key is the netlist's structural revision stamp — exact under
    // address reuse and in-place mutation. The cone/transpose arrays only
    // exist for the incremental engine; the full-recompute path compiles
    // (and pays for) the plain view alone.
    const bool stale = !view_ || cached_revision_ != nl.revision() ||
                       (engine_structures && !view_->has_input_cones());
    if (stale) {
        // The pool borrows the view, so it dies before the view does.
        own_pool_.reset();
        circuit_view::compile_options co;
        co.input_cones = engine_structures;
        co.driven_pins = engine_structures;
        co.lane_groups = true;
        view_ = std::make_unique<circuit_view>(circuit_view::compile(nl, co));
        cached_revision_ = nl.revision();
    }
    return *view_;
}

engine_pool& cop_detect_estimator::ensure_pool(const netlist& nl) {
    const circuit_view& cv = ensure_view(nl, true);
    if (shared_pool_ && shared_pool_->revision() == nl.revision())
        return *shared_pool_;
    if (!own_pool_ || own_pool_->revision() != nl.revision())
        own_pool_ = std::make_unique<engine_pool>(cv);
    return *own_pool_;
}

bool cop_detect_estimator::engine_applies(const netlist& nl) {
    if (!incremental_) return false;
    return ensure_view(nl, true).mean_cone_fraction() <= engine_cone_limit_;
}

std::vector<double> cop_detect_estimator::read_faults(
    const cop_engine& engine, std::span<const fault> faults) const {
    std::vector<double> out;
    out.reserve(faults.size());
    for (const fault& f : faults) out.push_back(engine.fault_probability(f));
    return out;
}

const circuit_view& cop_detect_estimator::mark_region(
    const netlist& nl, std::span<const fault> faults) {
    const circuit_view& cv = ensure_view(nl, false);
    region_scratch& s = full_;
    const std::size_t n = cv.node_count();
    s.p.resize(n);
    s.stem.resize(n);
    s.pin.resize(cv.pin_count());
    s.mark.assign(n, 0);
    // R(F): every fault site and its transitive fanout. `region` serves
    // as the traversal stack first, then holds R in descending node id —
    // the backward sweep's order restricted to R.
    s.region.clear();
    for (const fault& f : faults) {
        if (s.mark[f.where]) continue;
        s.mark[f.where] = 1;
        s.region.push_back(f.where);
    }
    while (!s.region.empty()) {
        const node_id m = s.region.back();
        s.region.pop_back();
        for (const node_id c : cv.fanouts(m)) {
            if (s.mark[c]) continue;
            s.mark[c] = 1;
            s.region.push_back(c);
        }
    }
    for (node_id m = static_cast<node_id>(n); m-- > 0;)
        if (s.mark[m]) s.region.push_back(m);
    return cv;
}

void cop_detect_estimator::sweep_region(const circuit_view& cv,
                                        std::span<const double> weights) {
    // R is closed under fanout, so every pin a stem in R folds over was
    // chained earlier in this sweep, by the same cop_rules calls in the
    // same order as the full backward sweep: R's values are bit-identical
    // to the full analysis.
    region_scratch& s = full_;
    cop_signal_probabilities(cv, weights, s.p);
    const auto sens = [&](node_id n, std::size_t k) {
        return cop::pin_sensitization(cv, s.p, n, k);
    };
    for (const node_id n : s.region) cop::chain_node(cv, sens, s.stem, s.pin, n);
}

std::vector<double> cop_detect_estimator::estimate(
    const netlist& nl, const std::vector<fault>& faults,
    const weight_vector& weights) {
    return estimate_faults(nl, {faults.data(), faults.size()}, weights, 1);
}

std::vector<double> cop_detect_estimator::estimate_faults(
    const netlist& nl, std::span<const fault> faults,
    const weight_vector& weights, unsigned threads) {
    require(weights.size() == nl.input_count(),
            "cop estimator: weight count mismatch");
    threads = threads == 0
                  ? std::max(1u, std::thread::hardware_concurrency())
                  : threads;
    if (!engine_applies(nl)) {
        // Full-recompute path (the fast path for circuits with
        // near-global cones): one sweep over the cached view; the
        // per-fault read shards over the pool (each fault's value is a
        // pure function of the shared sweep, so the output is
        // index-keyed and thread-count independent).
        ++stats_.full_estimates;
        const circuit_view& cv = mark_region(nl, faults);
        sweep_region(cv, weights);
        std::vector<double> out(faults.size());
        const auto read_one = [&](std::size_t j) {
            out[j] = cop::fault_probability(cv, full_.p, full_.stem,
                                            full_.pin, faults[j]);
        };
        if (threads <= 1 || faults.size() < 2) {
            for (std::size_t j = 0; j < faults.size(); ++j) read_one(j);
        } else {
            shared_thread_pool().parallel_for(faults.size(), read_one);
        }
        return out;
    }

    engine_pool& pool = ensure_pool(nl);
    if (threads <= 1 || faults.size() < 2) {
        const engine_pool::lease lease = pool.checkout(weights);
        note_checkout(lease.fresh());
        return read_faults(lease.engine(), faults);
    }

    // Sharded ANALYSIS: contiguous fault chunks, one pool engine per
    // chunk, every engine synced to `weights`. The engines' states are
    // bit-identical (cop_engine invariant) and results are keyed by
    // fault index, so the output matches the sequential read exactly.
    std::vector<double> out(faults.size());
    const std::size_t chunk = (faults.size() + threads - 1) / threads;
    const std::size_t chunk_count = (faults.size() + chunk - 1) / chunk;
    std::vector<std::uint8_t> fresh(chunk_count, 0);
    shared_thread_pool().parallel_for(chunk_count, [&](std::size_t c) {
        const engine_pool::lease lease = pool.checkout(weights);
        fresh[c] = lease.fresh() ? 1 : 0;
        const std::size_t begin = c * chunk;
        const std::size_t end = std::min(begin + chunk, faults.size());
        for (std::size_t j = begin; j < end; ++j)
            out[j] = lease.engine().fault_probability(faults[j]);
    });
    for (std::uint8_t f : fresh) note_checkout(f != 0);
    return out;
}

std::vector<std::vector<double>> cop_detect_estimator::estimate_probes(
    const netlist& nl, const std::vector<fault>& faults,
    const weight_vector& base, std::span<const probe> probes) {
    std::vector<std::vector<double>> out(probes.size());
    if (!engine_applies(nl)) {
        // Full-recompute path: R(F) is marked once for the whole batch;
        // each probe moves its inputs in the scratch weights, sweeps,
        // reads, and moves them back.
        require(base.size() == nl.input_count(),
                "cop estimator: weight count mismatch");
        stats_.full_estimates += probes.size();
        const circuit_view& cv = mark_region(nl, faults);
        weight_vector& w = full_.weights;
        w.assign(base.begin(), base.end());
        for (std::size_t k = 0; k < probes.size(); ++k) {
            for (const input_move& m : probes[k]) w[m.input] = m.value;
            sweep_region(cv, w);
            out[k].resize(faults.size());
            for (std::size_t j = 0; j < faults.size(); ++j)
                out[k][j] = cop::fault_probability(cv, full_.p, full_.stem,
                                                   full_.pin, faults[j]);
            for (const input_move& m : probes[k]) w[m.input] = base[m.input];
        }
        return out;
    }
    unsigned threads = threads_ == 0
                           ? std::max(1u, std::thread::hardware_concurrency())
                           : threads_;
    threads = static_cast<unsigned>(
        std::min<std::size_t>(threads, probes.size()));

    for (const probe& p : probes)
        if (p.size() > 1) ++stats_.batched_moves;
    stats_.engine_probes += probes.size();

    engine_pool& pool = ensure_pool(nl);
    if (threads <= 1) {
        // Sequential: every probe is a transaction on one pool engine —
        // apply the moves, read the faults, roll back. The engine goes
        // back warm, so the next call (or the next estimator adopting
        // the same shared pool) re-syncs instead of rebuilding.
        engine_pool::lease lease = pool.checkout(base);
        note_checkout(lease.fresh());
        cop_engine& engine = lease.engine();
        for (std::size_t k = 0; k < probes.size(); ++k) {
            const cop_engine::checkpoint ck = engine.mark();
            engine.set_inputs(probes[k]);
            out[k] = read_faults(engine, faults);
            engine.rollback(ck);
        }
        return out;
    }

    // Parallel: contiguous probe chunks, one pool engine per chunk over
    // the shared compiled view. Returned engines stay warm in the pool
    // and re-sync to the batch base by an incremental union-of-cones
    // move, so a sweep issued as many small batches builds each engine
    // once ever. An engine's state at `base` is bit-identical to the
    // sequential engine's (the cop_engine invariant), so results do not
    // depend on the thread count; they are keyed by probe index, so they
    // do not depend on scheduling either.
    const std::size_t chunk =
        (probes.size() + threads - 1) / threads;
    const std::size_t chunk_count = (probes.size() + chunk - 1) / chunk;
    std::vector<std::uint8_t> fresh(chunk_count, 0);
    shared_thread_pool().parallel_for(chunk_count, [&](std::size_t c) {
        engine_pool::lease lease = pool.checkout(base);
        fresh[c] = lease.fresh() ? 1 : 0;
        cop_engine& engine = lease.engine();
        const std::size_t begin = c * chunk;
        const std::size_t end = std::min(begin + chunk, probes.size());
        for (std::size_t k = begin; k < end; ++k) {
            const cop_engine::checkpoint ck = engine.mark();
            engine.set_inputs(probes[k]);
            out[k] = read_faults(engine, faults);
            engine.rollback(ck);
        }
    });
    for (std::uint8_t f : fresh) note_checkout(f != 0);
    return out;
}

exact_detect_estimator::exact_detect_estimator(std::size_t node_limit)
    : node_limit_(node_limit) {}

exact_detect_estimator::~exact_detect_estimator() = default;

namespace {

std::uint64_t fault_cache_key(const fault& f) {
    return (static_cast<std::uint64_t>(f.where) << 32) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(f.pin + 1))
            << 1) |
           (stuck_value(f.value) ? 1u : 0u);
}

}  // namespace

std::vector<double> exact_detect_estimator::estimate(
    const netlist& nl, const std::vector<fault>& faults,
    const weight_vector& weights) {
    require(weights.size() == nl.input_count(),
            "exact estimator: weight count mismatch");
    bool cached = cached_revision_ == nl.revision() && mgr_ != nullptr;
    if (cached) {
        for (const fault& f : faults) {
            if (!ref_by_fault_.contains(fault_cache_key(f))) {
                cached = false;
                break;
            }
        }
    }
    if (!cached) rebuild(nl, faults);
    std::vector<double> out;
    out.reserve(faults.size());
    for (const fault& f : faults)
        out.push_back(
            mgr_->sat_probability(ref_by_fault_.at(fault_cache_key(f)), weights));
    return out;
}

void exact_detect_estimator::rebuild(const netlist& nl,
                                     const std::vector<fault>& faults) {
    mgr_ = std::make_unique<bdd_manager>(
        static_cast<std::uint32_t>(nl.input_count()), node_limit_);
    bdd_manager& mgr = *mgr_;
    const bdd_algebra alg{&mgr};
    const std::vector<bdd_manager::ref> good = build_node_bdds(mgr, nl);

    ref_by_fault_.clear();
    ref_by_fault_.reserve(faults.size() * 2);
    std::vector<bdd_manager::ref> fval(nl.node_count());
    std::vector<bool> changed(nl.node_count());
    std::vector<bdd_manager::ref> args;

    for (const fault& f : faults) {
        // Rebuild the fanout cone of the fault with the line forced.
        std::fill(changed.begin(), changed.end(), false);
        const bdd_manager::ref forced =
            stuck_value(f.value) ? bdd_manager::one() : bdd_manager::zero();

        const node_id start = f.where;
        if (f.is_stem()) {
            fval[start] = forced;
        } else {
            // Re-evaluate the gate with pin f.pin forced.
            const auto fi = nl.fanins(start);
            args.resize(fi.size());
            for (std::size_t k = 0; k < fi.size(); ++k) args[k] = good[fi[k]];
            args[static_cast<std::size_t>(f.pin)] = forced;
            fval[start] =
                eval_gate(alg, nl.kind(start), args.data(), args.size());
        }
        changed[start] = true;

        for (node_id n = start + 1; n < nl.node_count(); ++n) {
            const auto fi = nl.fanins(n);
            if (fi.empty()) continue;  // inputs/consts unaffected
            bool touched = false;
            for (node_id x : fi)
                if (changed[x]) {
                    touched = true;
                    break;
                }
            if (!touched) continue;
            args.resize(fi.size());
            for (std::size_t k = 0; k < fi.size(); ++k) {
                const node_id x = fi[k];
                args[k] = changed[x] ? fval[x] : good[x];
            }
            const bdd_manager::ref acc =
                eval_gate(alg, nl.kind(n), args.data(), args.size());
            if (acc != good[n]) {
                fval[n] = acc;
                changed[n] = true;
            }
        }

        bdd_manager::ref detect = bdd_manager::zero();
        for (node_id o : nl.outputs())
            if (changed[o]) detect = mgr.lor(detect, mgr.lxor(good[o], fval[o]));
        ref_by_fault_[fault_cache_key(f)] = detect;
    }
    cached_revision_ = nl.revision();
}

std::vector<double> mc_detect_estimator::estimate(
    const netlist& nl, const std::vector<fault>& faults,
    const weight_vector& weights) {
    return estimate_seeded(nl, faults, weights, seed_);
}

std::vector<std::vector<double>> mc_detect_estimator::estimate_probes(
    const netlist& nl, const std::vector<fault>& faults,
    const weight_vector& base, std::span<const probe> probes) {
    std::vector<std::vector<double>> out(probes.size());
    for (std::size_t k = 0; k < probes.size(); ++k) {
        // Private stream per probe, derived from (seed, probe index):
        // answers are a pure function of the probe's position in the
        // batch, never of what other probes ran before it (or on which
        // thread).
        std::uint64_t state = seed_ ^ (0x9e3779b97f4a7c15ULL * (k + 1));
        const std::uint64_t probe_seed = splitmix64_next(state);
        out[k] = estimate_seeded(nl, faults, apply_probe(base, probes[k]),
                                 probe_seed);
    }
    return out;
}

std::vector<double> mc_detect_estimator::estimate_seeded(
    const netlist& nl, const std::vector<fault>& faults,
    const weight_vector& weights, std::uint64_t seed) const {
    require(weights.size() == nl.input_count(),
            "mc estimator: weight count mismatch");
    simulator sim(nl);
    weighted_random_source source(weights, seed);
    std::vector<std::uint64_t> hits(faults.size(), 0);
    std::vector<std::uint64_t> words;
    std::uint64_t applied = 0;
    while (applied < patterns_) {
        source.next_block(words);
        sim.simulate(words);
        const std::uint64_t block =
            std::min<std::uint64_t>(64, patterns_ - applied);
        const std::uint64_t valid =
            block == 64 ? ~0ULL : ((1ULL << block) - 1);
        for (std::size_t i = 0; i < faults.size(); ++i)
            hits[i] += static_cast<std::uint64_t>(
                std::popcount(sim.detect_mask(faults[i]) & valid));
        applied += block;
    }
    std::vector<double> out(faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i)
        out[i] = static_cast<double>(hits[i]) / static_cast<double>(applied);
    return out;
}

std::unique_ptr<detect_estimator> make_estimator(const std::string& name) {
    if (name == "cop") return std::make_unique<cop_detect_estimator>();
    if (name == "exact-bdd") return std::make_unique<exact_detect_estimator>();
    if (name == "monte-carlo") return std::make_unique<mc_detect_estimator>();
    if (name == "stafan") return std::make_unique<stafan_detect_estimator>();
    throw invalid_input("make_estimator: unknown estimator '" + name + "'");
}

}  // namespace wrpt
