#include "budget/solvers.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "core/logging.h"

namespace echo::budget {

const char *
solverName(Solver solver)
{
    switch (solver) {
      case Solver::kGreedy:
        return "greedy";
      case Solver::kChainDp:
        return "dp";
      case Solver::kLagrange:
        return "lagrange";
    }
    return "?";
}

bool
parseSolver(const std::string &name, Solver *out)
{
    if (name == "greedy")
        *out = Solver::kGreedy;
    else if (name == "dp" || name == "chain_dp")
        *out = Solver::kChainDp;
    else if (name == "lagrange" || name == "relax")
        *out = Solver::kLagrange;
    else
        return false;
    return true;
}

namespace {

using pass::SetCost;

/**
 * Incremental evaluator of the joint full-charge objective.  Mirrors
 * pass::evaluateAcceptedSet element by element — the objective
 * decomposes as a sum over values (saved iff recomputed by some member
 * and stashed by none; charged iff stashed and not a feature map) and
 * over replayed nodes (each node's kernels once) — so a marginal can be
 * previewed in O(|item|) instead of re-evaluating the whole set.
 */
class JointCost
{
  public:
    explicit JointCost(const ItemSet &set) : index_(&set.index) {}

    /** What item sets which bits (precomputed once per ItemSet). */
    struct ItemEffect
    {
        std::vector<Val> stash;   ///< values noteAccepted would stash
        std::vector<Val> recomp;  ///< subgraph outputs
        std::vector<Node *> nodes;
        std::vector<double> node_replay_us; ///< per nodes[] entry
    };

    static std::vector<ItemEffect>
    effectsOf(const ItemSet &set)
    {
        std::vector<ItemEffect> effects(set.items.size());
        for (size_t i = 0; i < set.items.size(); ++i) {
            const pass::Candidate &cand = set.items[i].cand;
            ItemEffect &e = effects[i];
            std::unordered_set<Val, graph::ValHash> seen;
            for (const Val &v : cand.frontier)
                if (v.node->kind == graph::NodeKind::kOp &&
                    seen.insert(v).second)
                    e.stash.push_back(v);
            if (set.config.fuse_replay)
                for (const Val &v : cand.pinned_interior)
                    if (seen.insert(v).second)
                        e.stash.push_back(v);
            for (Node *n : cand.subgraph) {
                for (int o = 0; o < n->numOutputs(); ++o)
                    e.recomp.push_back(n->out(o));
                e.nodes.push_back(n);
                double us = 0.0;
                for (const double kernel_us : set.index.kernelTimes(n))
                    us += kernel_us;
                e.node_replay_us.push_back(us);
            }
        }
        return effects;
    }

    const SetCost &cost() const { return cost_; }
    const std::vector<int> &chosen() const { return chosen_; }

    /** Cost after also choosing @p i, without mutating. */
    SetCost
    preview(const ItemEffect &e) const
    {
        SetCost c = cost_;
        applyEffect(e, c, nullptr, nullptr, nullptr);
        return c;
    }

    void
    add(int i, const ItemEffect &e)
    {
        applyEffect(e, cost_, &stashed_, &recomputed_, &replayed_);
        chosen_.push_back(i);
    }

    const std::unordered_set<Val, graph::ValHash> &stashed() const
    {
        return stashed_;
    }
    const std::unordered_set<Val, graph::ValHash> &recomputed() const
    {
        return recomputed_;
    }
    const std::unordered_set<const Node *> &replayed() const
    {
        return replayed_;
    }

  private:
    /** The per-value objective contribution given its two bits. */
    int64_t
    contribution(const pass::FeatureMap *fm, const Val &v, bool stashed,
                 bool recomputed) const
    {
        if (fm != nullptr)
            return (recomputed && !stashed) ? fm->bytes : 0;
        return stashed ? -graph::Graph::shapeOf(v).bytes() : 0;
    }

    void
    applyEffect(const ItemEffect &e, SetCost &c,
                std::unordered_set<Val, graph::ValHash> *stashed,
                std::unordered_set<Val, graph::ValHash> *recomputed,
                std::unordered_set<const Node *> *replayed) const
    {
        // Per touched value: subtract the old contribution, flip the
        // bits, add the new one.  Splitting net into saved/added keeps
        // the reported components exact, not just their difference.
        // Within one effect application both of a value's bits may
        // flip (stashed by the frontier, recomputed by the subgraph);
        // pending_ overlays the committed sets so the update stays
        // idempotent and order-free.
        auto flip = [&](const Val &v, bool set_stash, bool set_recomp) {
            const bool was_stashed = stashed_.count(v) != 0;
            const bool was_recomp = recomputed_.count(v) != 0;
            auto it = pending_.find(v);
            const bool pend_stashed =
                it != pending_.end() ? it->second.first : was_stashed;
            const bool pend_recomp =
                it != pending_.end() ? it->second.second : was_recomp;
            const bool new_stashed = pend_stashed || set_stash;
            const bool new_recomp = pend_recomp || set_recomp;
            if (new_stashed == pend_stashed && new_recomp == pend_recomp)
                return;
            const pass::FeatureMap *fm = index_->featureMap(v);
            const int64_t before =
                contribution(fm, v, pend_stashed, pend_recomp);
            const int64_t after =
                contribution(fm, v, new_stashed, new_recomp);
            const int64_t delta = after - before;
            if (fm != nullptr) {
                c.bytes_saved += delta;
            } else {
                c.bytes_added -= delta; // contribution is -bytes_added
            }
            pending_[v] = {new_stashed, new_recomp};
        };
        pending_.clear();
        for (const Val &v : e.stash)
            flip(v, true, false);
        for (const Val &v : e.recomp)
            flip(v, false, true);
        if (stashed != nullptr)
            for (const Val &v : e.stash)
                stashed->insert(v);
        if (recomputed != nullptr)
            for (const Val &v : e.recomp)
                recomputed->insert(v);
        for (size_t n = 0; n < e.nodes.size(); ++n) {
            if (replayed_.count(e.nodes[n]))
                continue;
            if (replayed != nullptr) {
                if (replayed->insert(e.nodes[n]).second)
                    c.replay_time_us += e.node_replay_us[n];
            } else {
                // Preview: charge once per distinct new node.
                if (preview_nodes_.insert(e.nodes[n]).second)
                    c.replay_time_us += e.node_replay_us[n];
            }
        }
        if (replayed == nullptr)
            preview_nodes_.clear();
        pending_.clear();
    }

    /** The ItemSet's pricing data: shared, never copied per state. */
    const pass::CostIndex *index_;
    std::unordered_set<Val, graph::ValHash> stashed_;
    std::unordered_set<Val, graph::ValHash> recomputed_;
    std::unordered_set<const Node *> replayed_;
    std::vector<int> chosen_;
    SetCost cost_;
    /** Scratch for applyEffect (bit state mid-application). */
    mutable std::unordered_map<Val, std::pair<bool, bool>,
                               graph::ValHash>
        pending_;
    mutable std::unordered_set<const Node *> preview_nodes_;
};

/** Items coupled by a shared stash value, evaluated as one acceptance
 *  unit.  A family's first member alone is often net-negative (it pays
 *  the full shared stash — e.g. every decoder step's attention region
 *  stashes the same projected-keys tensor), while the family jointly
 *  is strongly positive; a one-item-at-a-time marginal greedy can
 *  never start such a family.  Jointly-negative families (the chained
 *  LSTM cell regions, whose union stashes every step's GEMM
 *  pre-activations) evaluate negative as a unit and stay rejected. */
std::vector<std::vector<int>>
stashFamilies(const ItemSet &set,
              const std::vector<JointCost::ItemEffect> &effects)
{
    std::map<std::pair<int64_t, int>, std::vector<int>> by_val;
    for (size_t i = 0; i < set.items.size(); ++i)
        for (const Val &v : effects[i].stash)
            by_val[{v.node->id, v.index}].push_back(
                static_cast<int>(i));
    std::vector<std::vector<int>> families;
    std::set<std::vector<int>> seen;
    for (auto &[key, members] : by_val) {
        if (members.size() < 2)
            continue;
        std::sort(members.begin(), members.end());
        members.erase(std::unique(members.begin(), members.end()),
                      members.end());
        if (members.size() < 2)
            continue;
        if (seen.insert(members).second)
            families.push_back(members);
    }
    return families;
}

/** Marginal-gain greedy at a fixed multiplier: repeatedly accept the
 *  unchosen item — or the whole remainder of a shared-stash family,
 *  evaluated at exact joint charge — maximizing
 *  marginal_net - lambda * marginal_replay while that gain is
 *  positive.  lambda = 0 maximizes net savings. */
JointCost
greedyAtLambda(const ItemSet &set,
               const std::vector<JointCost::ItemEffect> &effects,
               double lambda, int *selections)
{
    JointCost jc(set);
    const std::vector<std::vector<int>> families =
        stashFamilies(set, effects);
    std::vector<bool> taken(set.items.size(), false);
    std::vector<int> scratch;
    for (;;) {
        int best = -1;
        const std::vector<int> *best_family = nullptr;
        double best_gain = 0.0;
        for (size_t i = 0; i < set.items.size(); ++i) {
            if (taken[i])
                continue;
            const SetCost c = jc.preview(effects[i]);
            const double gain =
                static_cast<double>(c.netSavings() -
                                    jc.cost().netSavings()) -
                lambda * (c.replay_time_us - jc.cost().replay_time_us);
            if (gain > best_gain) {
                best = static_cast<int>(i);
                best_family = nullptr;
                best_gain = gain;
            }
        }
        for (const std::vector<int> &family : families) {
            scratch.clear();
            for (int i : family)
                if (!taken[static_cast<size_t>(i)])
                    scratch.push_back(i);
            if (scratch.size() < 2)
                continue;
            JointCost trial = jc;
            for (int i : scratch)
                trial.add(i, effects[static_cast<size_t>(i)]);
            const double gain =
                static_cast<double>(trial.cost().netSavings() -
                                    jc.cost().netSavings()) -
                lambda * (trial.cost().replay_time_us -
                          jc.cost().replay_time_us);
            if (gain > best_gain) {
                best = -1;
                best_family = &family;
                best_gain = gain;
            }
        }
        if (best >= 0) {
            jc.add(best, effects[static_cast<size_t>(best)]);
            taken[static_cast<size_t>(best)] = true;
            if (selections != nullptr)
                ++*selections;
        } else if (best_family != nullptr) {
            for (int i : *best_family) {
                if (taken[static_cast<size_t>(i)])
                    continue;
                jc.add(i, effects[static_cast<size_t>(i)]);
                taken[static_cast<size_t>(i)] = true;
                if (selections != nullptr)
                    ++*selections;
            }
        } else {
            break;
        }
    }
    return jc;
}

SolveResult
resultOf(const JointCost &jc, int64_t required_reduction, int states)
{
    SolveResult r;
    r.chosen = jc.chosen();
    std::sort(r.chosen.begin(), r.chosen.end());
    r.cost = jc.cost();
    r.reached = r.cost.netSavings() >= required_reduction;
    r.states = states;
    return r;
}

} // namespace

SolveResult
solveGreedy(const ItemSet &set, int64_t required_reduction)
{
    // The Echo pass's selection, re-targeted: amortized multiplicity
    // ranking, provisional acceptance against the evolving state, but
    // stopping at the reduction target instead of a replay-time budget.
    std::vector<const pass::Candidate *> cands;
    cands.reserve(set.items.size());
    for (const Item &item : set.items)
        cands.push_back(&item.cand);
    pass::SelectionState state;
    const std::vector<size_t> ranked = pass::rankByRatio(
        cands, set.index, set.config.fuse_replay, state);

    const std::vector<JointCost::ItemEffect> effects =
        JointCost::effectsOf(set);
    JointCost jc(set);
    int steps = 0;
    for (const size_t index : ranked) {
        if (jc.cost().netSavings() >= required_reduction)
            break;
        const pass::CandidateCost cost = pass::evaluateCandidate(
            *cands[index], set.index, state, set.config.fuse_replay);
        if (cost.netSavings() <= 0)
            continue;
        pass::noteAccepted(state, *cands[index], set.config.fuse_replay);
        jc.add(static_cast<int>(index), effects[index]);
        ++steps;
    }
    return resultOf(jc, required_reduction, steps);
}

SolveResult
solveChainDp(const ItemSet &set, int64_t required_reduction,
             int max_states)
{
    const std::vector<JointCost::ItemEffect> effects =
        JointCost::effectsOf(set);

    // The take/skip sweep is exponential before pruning; above this
    // many items the sweep runs over a filtered pool instead of every
    // item, and the result is no longer certified optimal.
    constexpr size_t kExactLimit = 64;

    // Pool: the items the sweep branches over, in chain order.  Small
    // sets take everything (the brute-force-equivalence regime); large
    // sets keep the plausibly-useful items — solo-positive ones,
    // members of jointly-positive shared-stash families (see
    // stashFamilies), and whatever the greedy baseline picked, so the
    // DP result can never model worse than greedy's.
    std::vector<int> pool;
    bool filtered = false;
    SolveResult greedy_seed;
    bool have_seed = false;
    if (set.items.size() <= kExactLimit) {
        pool.resize(set.items.size());
        for (size_t i = 0; i < set.items.size(); ++i)
            pool[i] = static_cast<int>(i);
    } else {
        filtered = true;
        std::set<int> keep;
        for (size_t i = 0; i < set.items.size(); ++i)
            if (set.items[i].soloNet() > 0)
                keep.insert(static_cast<int>(i));
        for (const std::vector<int> &family :
             stashFamilies(set, effects)) {
            JointCost trial(set);
            for (int i : family)
                trial.add(i, effects[static_cast<size_t>(i)]);
            if (trial.cost().netSavings() > 0)
                keep.insert(family.begin(), family.end());
        }
        greedy_seed = solveGreedy(set, required_reduction);
        have_seed = true;
        keep.insert(greedy_seed.chosen.begin(),
                    greedy_seed.chosen.end());
        pool.assign(keep.begin(), keep.end());
        if (pool.size() == set.items.size())
            filtered = false;
    }
    const size_t n = pool.size();

    // Last pool position touching each value / node: a bit is part of
    // an entry's signature only while some not-yet-processed item can
    // still read or write it.  Once nothing ahead touches it, its
    // contribution is already final inside the entry's cost and two
    // entries differing only there are interchangeable.
    std::unordered_map<Val, size_t, graph::ValHash> val_last;
    std::unordered_map<const Node *, size_t> node_last;
    for (size_t i = 0; i < n; ++i) {
        const JointCost::ItemEffect &e =
            effects[static_cast<size_t>(pool[i])];
        for (const Val &v : e.stash)
            val_last[v] = i;
        for (const Val &v : e.recomp)
            val_last[v] = i;
        for (const Node *nd : e.nodes)
            node_last[nd] = i;
    }

    struct Entry
    {
        JointCost jc;
    };
    std::vector<Entry> entries;
    entries.push_back(Entry{JointCost(set)});

    SolveResult result;
    int explored = 1;

    auto signature = [&](const JointCost &jc, size_t next) {
        // (value, bits) pairs still visible to items >= next, plus the
        // still-shareable replayed nodes; sorted for canonical form.
        std::vector<std::string> parts;
        for (const Val &v : jc.stashed()) {
            auto it = val_last.find(v);
            if (it != val_last.end() && it->second >= next) {
                std::ostringstream p;
                p << "s" << v.node->id << "." << v.index;
                parts.push_back(p.str());
            }
        }
        for (const Val &v : jc.recomputed()) {
            auto it = val_last.find(v);
            if (it != val_last.end() && it->second >= next) {
                std::ostringstream p;
                p << "r" << v.node->id << "." << v.index;
                parts.push_back(p.str());
            }
        }
        for (const Node *nd : jc.replayed()) {
            auto it = node_last.find(nd);
            if (it != node_last.end() && it->second >= next) {
                std::ostringstream p;
                p << "n" << nd->id;
                parts.push_back(p.str());
            }
        }
        std::sort(parts.begin(), parts.end());
        std::string sig;
        for (const std::string &p : parts) {
            sig += p;
            sig += '|';
        }
        return sig;
    };

    for (size_t i = 0; i < n; ++i) {
        std::vector<Entry> next;
        next.reserve(entries.size() * 2);
        for (Entry &e : entries) {
            Entry take{e.jc}; // copy, then extend
            take.jc.add(pool[i],
                        effects[static_cast<size_t>(pool[i])]);
            next.push_back(std::move(take));
            next.push_back(std::move(e)); // skip branch, moved last
        }
        explored += static_cast<int>(next.size());

        // Lossless prune: bucket by sufficient-statistic signature,
        // keep only the (net, replay) Pareto frontier per bucket.
        std::map<std::string, std::vector<size_t>> buckets;
        for (size_t k = 0; k < next.size(); ++k)
            buckets[signature(next[k].jc, i + 1)].push_back(k);

        std::vector<Entry> pruned;
        for (auto &[sig, members] : buckets) {
            std::sort(members.begin(), members.end(),
                      [&](size_t a, size_t b) {
                          const SetCost &ca = next[a].jc.cost();
                          const SetCost &cb = next[b].jc.cost();
                          if (ca.netSavings() != cb.netSavings())
                              return ca.netSavings() > cb.netSavings();
                          if (ca.replay_time_us != cb.replay_time_us)
                              return ca.replay_time_us <
                                     cb.replay_time_us;
                          // Cost ties: prefer the smaller selection
                          // (zero-marginal members only add rewrite
                          // churn), then determinism.
                          if (next[a].jc.chosen().size() !=
                              next[b].jc.chosen().size())
                              return next[a].jc.chosen().size() <
                                     next[b].jc.chosen().size();
                          return next[a].jc.chosen() <
                                 next[b].jc.chosen();
                      });
            double best_replay = -1.0;
            for (size_t m : members) {
                const SetCost &c = next[m].jc.cost();
                if (best_replay >= 0.0 &&
                    c.replay_time_us >= best_replay)
                    continue; // dominated (net is non-increasing)
                best_replay = c.replay_time_us;
                pruned.push_back(std::move(next[m]));
            }
        }

        if (pruned.size() > static_cast<size_t>(max_states)) {
            // Lossy coarsening: bucket by net-savings quantile and keep
            // the cheapest entry per bucket.  The result may no longer
            // be optimal — flag it.
            result.exact = false;
            std::sort(pruned.begin(), pruned.end(),
                      [](const Entry &a, const Entry &b) {
                          return a.jc.cost().netSavings() <
                                 b.jc.cost().netSavings();
                      });
            std::vector<Entry> coarse;
            const size_t stride =
                (pruned.size() + static_cast<size_t>(max_states) - 1) /
                static_cast<size_t>(max_states);
            for (size_t k = 0; k < pruned.size(); k += stride) {
                size_t best = k;
                for (size_t j = k;
                     j < std::min(k + stride, pruned.size()); ++j)
                    if (pruned[j].jc.cost().replay_time_us <
                        pruned[best].jc.cost().replay_time_us)
                        best = j;
                coarse.push_back(std::move(pruned[best]));
            }
            pruned = std::move(coarse);
        }
        entries = std::move(pruned);
    }

    // Cheapest feasible entry; when the target is unreachable, the
    // largest reduction (cheapest among ties).
    const Entry *best = nullptr;
    const Entry *fallback = nullptr;
    for (const Entry &e : entries) {
        const SetCost &c = e.jc.cost();
        if (c.netSavings() >= required_reduction) {
            if (best == nullptr ||
                c.replay_time_us < best->jc.cost().replay_time_us ||
                (c.replay_time_us == best->jc.cost().replay_time_us &&
                 (c.netSavings() > best->jc.cost().netSavings() ||
                  (c.netSavings() == best->jc.cost().netSavings() &&
                   e.jc.chosen().size() <
                       best->jc.chosen().size()))))
                best = &e;
        }
        if (fallback == nullptr ||
            c.netSavings() > fallback->jc.cost().netSavings() ||
            (c.netSavings() == fallback->jc.cost().netSavings() &&
             c.replay_time_us < fallback->jc.cost().replay_time_us))
            fallback = &e;
    }
    const Entry *pick = best != nullptr ? best : fallback;
    ECHO_CHECK(pick != nullptr, "chain DP lost every entry");
    SolveResult r = resultOf(pick->jc, required_reduction, explored);
    r.exact = result.exact && !filtered;
    // Filtered or coarsened sweeps carry no optimality certificate, so
    // fall back to the greedy seed whenever it is strictly better
    // (feasible and cheaper, or further when both are infeasible).
    if (have_seed) {
        const bool seed_wins =
            greedy_seed.reached
                ? (!r.reached ||
                   greedy_seed.cost.replay_time_us <
                       r.cost.replay_time_us)
                : (!r.reached && greedy_seed.cost.netSavings() >
                                     r.cost.netSavings());
        if (seed_wins) {
            r.chosen = greedy_seed.chosen;
            r.cost = greedy_seed.cost;
            r.reached = greedy_seed.reached;
        }
    }
    return r;
}

SolveResult
solveLagrange(const ItemSet &set, int64_t required_reduction,
              int max_bisect)
{
    const std::vector<JointCost::ItemEffect> effects =
        JointCost::effectsOf(set);
    int selections = 0;

    // lambda = 0: maximum modelled reduction.  If even that misses the
    // target, the target is unreachable for this solver.
    JointCost max_red = greedyAtLambda(set, effects, 0.0, &selections);
    if (max_red.cost().netSavings() < required_reduction)
        return resultOf(max_red, required_reduction, selections);

    JointCost best = max_red; // feasible; bisection tries to cheapen it

    // Find a multiplier high enough to land infeasible.
    double lo = 0.0;
    double hi = 1.0;
    bool hi_infeasible = false;
    for (int d = 0; d < 48 && !hi_infeasible; ++d, hi *= 2.0) {
        JointCost jc = greedyAtLambda(set, effects, hi, &selections);
        if (jc.cost().netSavings() < required_reduction) {
            hi_infeasible = true;
            break;
        }
        if (jc.cost().replay_time_us < best.cost().replay_time_us)
            best = std::move(jc);
    }

    if (hi_infeasible) {
        for (int b = 0; b < max_bisect; ++b) {
            const double mid = 0.5 * (lo + hi);
            JointCost jc = greedyAtLambda(set, effects, mid, &selections);
            if (jc.cost().netSavings() >= required_reduction) {
                lo = mid;
                if (jc.cost().replay_time_us <
                    best.cost().replay_time_us)
                    best = std::move(jc);
            } else {
                hi = mid;
            }
        }
    }

    // Trim: the relaxation can keep members the constraint does not
    // need; drop any whose removal stays feasible and no costlier.
    std::vector<int> chosen = best.chosen();
    std::sort(chosen.begin(), chosen.end());
    for (bool changed = true; changed;) {
        changed = false;
        for (size_t k = 0; k < chosen.size(); ++k) {
            JointCost trial(set);
            for (size_t j = 0; j < chosen.size(); ++j)
                if (j != k)
                    trial.add(chosen[j],
                              effects[static_cast<size_t>(chosen[j])]);
            ++selections;
            if (trial.cost().netSavings() >= required_reduction &&
                trial.cost().replay_time_us <=
                    best.cost().replay_time_us) {
                chosen.erase(chosen.begin() +
                             static_cast<ptrdiff_t>(k));
                best = std::move(trial);
                changed = true;
                break;
            }
        }
    }
    return resultOf(best, required_reduction, selections);
}

SolveResult
solve(const ItemSet &set, int64_t required_reduction, Solver solver)
{
    switch (solver) {
      case Solver::kGreedy:
        return solveGreedy(set, required_reduction);
      case Solver::kChainDp:
        return solveChainDp(set, required_reduction);
      case Solver::kLagrange:
        return solveLagrange(set, required_reduction);
    }
    ECHO_FATAL("unknown solver");
}

SolveResult
maxReductionSet(const ItemSet &set)
{
    const std::vector<JointCost::ItemEffect> effects =
        JointCost::effectsOf(set);
    int selections = 0;
    JointCost jc = greedyAtLambda(set, effects, 0.0, &selections);
    // "Required reduction" of whatever it achieved: reached by
    // construction, so callers can treat it like any other solve.
    return resultOf(jc, jc.cost().netSavings(), selections);
}

} // namespace echo::budget
