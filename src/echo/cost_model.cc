#include "echo/cost_model.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "core/logging.h"

namespace echo::pass {

CandidateCost
evaluateCandidate(const Candidate &cand,
                  const std::vector<FeatureMap> &all_feature_maps,
                  const SelectionState &state,
                  const gpusim::GpuSpec &gpu,
                  bool per_step_fusion)
{
    CandidateCost cost;
    if (!cand.admissible)
        return cost;

    std::unordered_map<Val, const FeatureMap *, graph::ValHash> fm_index;
    for (const FeatureMap &fm : all_feature_maps)
        fm_index[fm.val] = &fm;

    // With per-step fusion, cross-step interior values survive the
    // rewrite as the consuming step's kernel frontier (see
    // Candidate::pinned_interior); the unfused ablation chains clones
    // instead, so there the set is empty and they really die.
    std::unordered_set<Val, graph::ValHash> pinned;
    if (per_step_fusion)
        pinned.insert(cand.pinned_interior.begin(),
                      cand.pinned_interior.end());

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
    for (const Node *n : cand.subgraph) {
        for (int i = 0; i < const_cast<Node *>(n)->numOutputs(); ++i) {
            const Val v = const_cast<Node *>(n)->out(i);
            auto it = fm_index.find(v);
            if (it == fm_index.end())
                continue;
            if (state.recomputed.count(v))
                continue;
            if (pinned.count(v))
                continue;
            if (state.stashed.count(v))
                continue;
            cost.bytes_saved += it->second->bytes;
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
        auto it = fm_index.find(v);
        if (it != fm_index.end() && !state.recomputed.count(v))
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

    // Replay time: the subgraph's kernels, costed on the GPU model.
    for (const Node *n : cand.subgraph) {
        std::vector<Shape> in_shapes;
        for (const Val &v : n->inputs)
            in_shapes.push_back(graph::Graph::shapeOf(v));
        for (const graph::KernelDesc &d :
             n->op->kernels(in_shapes, n->out_shapes)) {
            cost.replay_time_us += gpusim::estimateKernel(d, gpu).time_us;
        }
    }
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
            const std::vector<FeatureMap> &all_feature_maps,
            const gpusim::GpuSpec &gpu, bool per_step_fusion,
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
        const CandidateCost cost = evaluateCandidate(
            *cands[i], all_feature_maps, state, gpu, per_step_fusion);
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
                    const std::vector<FeatureMap> &all_feature_maps,
                    const gpusim::GpuSpec &gpu, bool per_step_fusion)
{
    SetCost cost;
    SelectionState joint;
    for (const Candidate *cand : accepted)
        noteAccepted(joint, *cand, per_step_fusion);

    // Saved: feature maps the set recomputes and no member keeps
    // stashed (as a frontier or a cross-step pinned interior value).
    std::unordered_set<Val, graph::ValHash> fm_set;
    for (const FeatureMap &fm : all_feature_maps)
        fm_set.insert(fm.val);
    for (const FeatureMap &fm : all_feature_maps)
        if (joint.recomputed.count(fm.val) &&
            !joint.stashed.count(fm.val))
            cost.bytes_saved += fm.bytes;

    // Added: replay-read values that were not stashed anyway, each
    // charged once regardless of how many members share them.
    for (const Val &v : joint.stashed)
        if (!fm_set.count(v))
            cost.bytes_added += graph::Graph::shapeOf(v).bytes();

    // Replay: the union of subgraph nodes, each node's kernels once.
    std::unordered_set<const Node *> replayed;
    for (const Candidate *cand : accepted) {
        for (const Node *n : cand->subgraph) {
            if (!replayed.insert(n).second)
                continue;
            std::vector<Shape> in_shapes;
            for (const Val &v : n->inputs)
                in_shapes.push_back(graph::Graph::shapeOf(v));
            for (const graph::KernelDesc &d :
                 n->op->kernels(in_shapes, n->out_shapes))
                cost.replay_time_us +=
                    gpusim::estimateKernel(d, gpu).time_us;
        }
    }
    return cost;
}

} // namespace echo::pass
