#include "echo/candidate.h"

#include <algorithm>
#include <unordered_set>

#include "core/logging.h"

namespace echo::pass {

Candidate
buildCandidate(const FeatureMap &target, bool respect_gemm_boundary)
{
    Candidate cand;
    cand.target = target;

    Node *root = target.val.node;
    if (root->kind != graph::NodeKind::kOp ||
        (respect_gemm_boundary && !root->op->cheapToRecompute())) {
        // The producing op itself cannot be replayed.
        cand.admissible = false;
        return cand;
    }
    // A per-step value read by a cross-step backward node (autodiff's
    // stack of a shared weight's A_t operands) would be replayed for
    // every step before that one node: T steps' replay buffers live at
    // once instead of one shared workspace (paper §4.1.2).  It stays
    // stashed.
    if (root->time_step >= 0) {
        for (const Node *c : target.bwd_consumers) {
            if (c->time_step < 0) {
                cand.admissible = false;
                return cand;
            }
        }
    }

    // Grow the cheap region backwards from the root.  A forward op node
    // joins the region when it is cheap; anything else (weights,
    // placeholders, GEMM outputs) becomes frontier.
    std::unordered_set<Node *> in_region;
    std::unordered_set<Val, graph::ValHash> frontier_set;
    std::vector<Node *> stack{root};
    in_region.insert(root);
    while (!stack.empty()) {
        Node *n = stack.back();
        stack.pop_back();
        for (const Val &v : n->inputs) {
            Node *p = v.node;
            const bool expandable =
                p->kind == graph::NodeKind::kOp &&
                p->phase == graph::Phase::kForward &&
                (!respect_gemm_boundary ||
                 p->op->cheapToRecompute());
            if (expandable) {
                if (in_region.insert(p).second)
                    stack.push_back(p);
            } else {
                frontier_set.insert(v);
            }
        }
    }

    cand.subgraph.assign(in_region.begin(), in_region.end());
    std::sort(cand.subgraph.begin(), cand.subgraph.end(),
              [](const Node *a, const Node *b) { return a->id < b->id; });

    // Interior values read across time-step boundaries stay stashed
    // after the per-step fused rewrite (see the field's doc comment).
    std::unordered_set<Val, graph::ValHash> pinned_set;
    for (const Node *n : cand.subgraph)
        for (const Val &v : n->inputs)
            if (in_region.count(v.node) &&
                v.node->time_step != n->time_step)
                pinned_set.insert(v);
    cand.pinned_interior.assign(pinned_set.begin(), pinned_set.end());
    std::sort(cand.pinned_interior.begin(), cand.pinned_interior.end(),
              [](const Val &a, const Val &b) {
                  if (a.node->id != b.node->id)
                      return a.node->id < b.node->id;
                  return a.index < b.index;
              });
    cand.frontier.assign(frontier_set.begin(), frontier_set.end());
    std::sort(cand.frontier.begin(), cand.frontier.end(),
              [](const Val &a, const Val &b) {
                  if (a.node->id != b.node->id)
                      return a.node->id < b.node->id;
                  return a.index < b.index;
              });
    cand.admissible = true;
    return cand;
}

} // namespace echo::pass
