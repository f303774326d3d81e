#include "echo/cost_model.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "core/logging.h"

namespace echo::pass {

namespace {

/** Candidate value order: producing node id, then output index. */
bool
valLess(const Val &a, const Val &b)
{
    if (a.node->id != b.node->id)
        return a.node->id < b.node->id;
    return a.index < b.index;
}

} // namespace

CostIndex::CostIndex(std::vector<FeatureMap> feature_maps,
                     const std::vector<Candidate> &candidates,
                     const gpusim::GpuSpec &gpu)
    : fms_(std::move(feature_maps))
{
    fm_slot_.reserve(fms_.size());
    for (size_t i = 0; i < fms_.size(); ++i)
        fm_slot_.emplace(fms_[i].val, i);

    replay_us_.reserve(candidates.size());
    for (const Candidate &cand : candidates) {
        double replay_us = 0.0;
        for (const Node *n : cand.subgraph) {
            auto [it, fresh] = node_times_.try_emplace(n);
            NodeTimes &times = it->second;
            if (fresh) {
                std::vector<Shape> in_shapes;
                in_shapes.reserve(n->inputs.size());
                for (const Val &v : n->inputs)
                    in_shapes.push_back(graph::Graph::shapeOf(v));
                times.first = kernel_us_.size();
                for (const graph::KernelDesc &d :
                     n->op->kernels(in_shapes, n->out_shapes))
                    kernel_us_.push_back(
                        gpusim::estimateKernel(d, gpu).time_us);
                times.count = kernel_us_.size() - times.first;
            }
            for (size_t k = 0; k < times.count; ++k)
                replay_us += kernel_us_[times.first + k];
        }
        replay_us_[cand.target.val] = replay_us;
    }
}

const FeatureMap *
CostIndex::featureMap(const Val &v) const
{
    auto it = fm_slot_.find(v);
    return it == fm_slot_.end() ? nullptr : &fms_[it->second];
}

std::span<const double>
CostIndex::kernelTimes(const Node *n) const
{
    auto it = node_times_.find(n);
    ECHO_CHECK(it != node_times_.end(), "cost index has no kernels for "
               "node ", n->id, " (", n->name, ")");
    return {kernel_us_.data() + it->second.first, it->second.count};
}

double
CostIndex::replayTime(const Candidate &cand) const
{
    auto it = replay_us_.find(cand.target.val);
    ECHO_CHECK(it != replay_us_.end(), "cost index has no candidate "
               "targeting node ", cand.target.val.node->id, " (",
               cand.target.val.node->name, ")");
    return it->second;
}

CandidateCost
evaluateCandidate(const Candidate &cand, const CostIndex &index,
                  const SelectionState &state, bool per_step_fusion)
{
    CandidateCost cost;
    if (!cand.admissible)
        return cost;

    // With per-step fusion, cross-step interior values survive the
    // rewrite as the consuming step's kernel frontier (see
    // Candidate::pinned_interior); the unfused ablation chains clones
    // instead, so there the set is empty and they really die.
    static const std::vector<Val> kNoPins;
    const std::vector<Val> &pinned =
        per_step_fusion ? cand.pinned_interior : kNoPins;
    auto isPinned = [&](const Val &v) {
        return std::binary_search(pinned.begin(), pinned.end(), v,
                                  valLess);
    };

    // Bytes saved: every feature map produced inside the subgraph stops
    // being stashed across the forward/backward boundary — after the
    // rewrite it dies at its last *forward* consumer, so it no longer
    // occupies the pool during the backward pass (where the footprint
    // peaks).  Not counted: values an earlier accepted candidate
    // already recomputes, values pinned by another step's replay kernel
    // (the liveness interaction that makes chained LSTM cell-state
    // regions unprofitable — each step's c_t is pinned by step t+1's
    // replay), and values an accepted candidate keeps stashed as its
    // frontier.
    for (Node *n : cand.subgraph) {
        for (int i = 0; i < n->numOutputs(); ++i) {
            const Val v = n->out(i);
            const FeatureMap *fm = index.featureMap(v);
            if (fm == nullptr)
                continue;
            if (state.recomputed.count(v))
                continue;
            if (isPinned(v))
                continue;
            if (state.stashed.count(v))
                continue;
            cost.bytes_saved += fm->bytes;
        }
    }

    // Bytes added: values the replay reads from the stash — the
    // frontier, plus (under per-step fusion) the cross-step interior
    // values — that are not already kept alive into the backward pass
    // for some other reason.  Shared values are amortized across the
    // candidates that could share them (frontier_multiplicity): that
    // keeps jointly-profitable families alive in the ranking (no
    // attention step breaks even against the full projected-keys
    // tensor alone), while the caller is expected to re-check accepted
    // candidates and report totals at full charge (empty multiplicity
    // map == full charge).
    auto chargeStash = [&](const Val &v) {
        if (v.node->kind != graph::NodeKind::kOp)
            return; // weights/placeholders are resident anyway
        if (state.stashed.count(v))
            return; // another accepted candidate already stashes it
        if (index.featureMap(v) != nullptr && !state.recomputed.count(v))
            return; // still a live feature map on its own
        int sharers = 1;
        auto mit = state.frontier_multiplicity.find(v);
        if (mit != state.frontier_multiplicity.end())
            sharers = std::max(1, mit->second);
        cost.bytes_added += graph::Graph::shapeOf(v).bytes() / sharers;
    };
    for (const Val &v : cand.frontier)
        chargeStash(v);
    for (const Val &v : pinned)
        chargeStash(v);

    // Replay time: the subgraph's kernels on the GPU model, priced
    // once when the index was built.
    cost.replay_time_us = index.replayTime(cand);
    return cost;
}

void
noteAccepted(SelectionState &state, const Candidate &cand,
             bool per_step_fusion)
{
    for (const Val &v : cand.frontier)
        if (v.node->kind == graph::NodeKind::kOp)
            state.stashed.insert(v);
    if (per_step_fusion)
        for (const Val &v : cand.pinned_interior)
            state.stashed.insert(v);
    for (Node *n : cand.subgraph)
        for (int i = 0; i < n->numOutputs(); ++i)
            state.recomputed.insert(n->out(i));
}

std::vector<size_t>
rankByRatio(const std::vector<const Candidate *> &cands,
            const CostIndex &index, bool per_step_fusion,
            SelectionState &state)
{
    for (const Candidate *cand : cands) {
        for (const Val &v : cand->frontier)
            ++state.frontier_multiplicity[v];
        if (per_step_fusion)
            for (const Val &v : cand->pinned_interior)
                ++state.frontier_multiplicity[v];
    }

    std::vector<double> ratio(cands.size(), 0.0);
    std::vector<size_t> order;
    for (size_t i = 0; i < cands.size(); ++i) {
        const CandidateCost cost =
            evaluateCandidate(*cands[i], index, state, per_step_fusion);
        if (cost.netSavings() <= 0)
            continue;
        // Savings per microsecond of replay; replay below the kernel
        // overhead floor is effectively free.
        ratio[i] = static_cast<double>(cost.netSavings()) /
                   std::max(0.5, cost.replay_time_us);
        order.push_back(i);
    }
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        if (ratio[a] != ratio[b])
            return ratio[a] > ratio[b];
        return cands[a]->target.val.node->id < cands[b]->target.val.node->id;
    });
    return order;
}

SetCost
evaluateAcceptedSet(const std::vector<const Candidate *> &accepted,
                    const CostIndex &index, bool per_step_fusion)
{
    SetCost cost;
    SelectionState joint;
    for (const Candidate *cand : accepted)
        noteAccepted(joint, *cand, per_step_fusion);

    // Saved: feature maps the set recomputes and no member keeps
    // stashed (as a frontier or a cross-step pinned interior value).
    for (const Val &v : joint.recomputed) {
        const FeatureMap *fm = index.featureMap(v);
        if (fm != nullptr && !joint.stashed.count(v))
            cost.bytes_saved += fm->bytes;
    }

    // Added: replay-read values that were not stashed anyway, each
    // charged once regardless of how many members share them.
    for (const Val &v : joint.stashed)
        if (index.featureMap(v) == nullptr)
            cost.bytes_added += graph::Graph::shapeOf(v).bytes();

    // Replay: the union of subgraph nodes, each node's kernels once.
    std::unordered_set<const Node *> replayed;
    for (const Candidate *cand : accepted)
        for (const Node *n : cand->subgraph)
            if (replayed.insert(n).second)
                for (const double us : index.kernelTimes(n))
                    cost.replay_time_us += us;
    return cost;
}

} // namespace echo::pass
