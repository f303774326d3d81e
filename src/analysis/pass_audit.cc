#include "analysis/pass_audit.h"

#include <algorithm>
#include <cstdlib>
#include <set>

namespace echo::analysis {

namespace {

using graph::Node;
using graph::NodeKind;
using graph::Phase;
using graph::Val;

/** Stashed feature-map bytes per the liveness ground truth. */
int64_t
stashedBytes(const memory::LivenessResult &live)
{
    int64_t bytes = 0;
    for (const memory::ValueInfo &info : live.values)
        if (!info.persistent &&
            info.category == memory::DataStructure::kFeatureMaps)
            bytes += info.bytes;
    return bytes;
}

/** The pass may only append recompute nodes and redirect backward edges. */
void
checkDiff(const GraphSnapshot &snap, const graph::Graph &g,
          AnalysisReport &report)
{
    const auto &nodes = g.nodes();
    if (nodes.size() < snap.records.size()) {
        report.add(Check::kMutatedForward, Severity::kError,
                   "the pass removed nodes (" +
                       std::to_string(snap.records.size()) + " -> " +
                       std::to_string(nodes.size()) + ")");
        return;
    }
    for (size_t i = 0; i < snap.records.size(); ++i) {
        const GraphSnapshot::NodeRecord &rec = snap.records[i];
        const Node *n = nodes[i].get();
        if (n != rec.node || n->kind != rec.kind ||
            n->phase != rec.phase || n->op.get() != rec.op ||
            n->name != rec.name) {
            report.add(Check::kMutatedForward, Severity::kError,
                       "pre-existing node was replaced or retyped",
                       {NodeRef::of(n)});
            continue;
        }
        if (n->inputs.size() != rec.inputs.size()) {
            report.add(Check::kMutatedForward, Severity::kError,
                       "pre-existing node gained or lost input edges",
                       {NodeRef::of(n)});
            continue;
        }
        for (size_t e = 0; e < n->inputs.size(); ++e) {
            const Val &now = n->inputs[e];
            const Val &then = rec.inputs[e];
            if (now == then)
                continue;
            if (n->phase != Phase::kBackward) {
                report.add(Check::kMutatedForward, Severity::kError,
                           "the pass redirected an input of a "
                           "non-backward node",
                           {NodeRef::of(now.node), NodeRef::of(n)});
                continue;
            }
            // A backward redirect must land on a recompute value of the
            // original's shape; anything else is a stale edge.
            if (!now.defined() ||
                now.node->phase != Phase::kRecompute) {
                report.add(Check::kStaleEdge, Severity::kError,
                           "backward input was redirected to a "
                           "non-recompute value",
                           {NodeRef::of(now.node), NodeRef::of(n)});
            } else if (!(graph::Graph::shapeOf(now) ==
                         graph::Graph::shapeOf(then))) {
                report.add(Check::kStaleEdge, Severity::kError,
                           "backward input was redirected to a value "
                           "of shape " +
                               graph::Graph::shapeOf(now).toString() +
                               ", original was " +
                               graph::Graph::shapeOf(then).toString(),
                           {NodeRef::of(now.node), NodeRef::of(n)});
            }
        }
    }
    for (size_t i = snap.records.size(); i < nodes.size(); ++i) {
        if (nodes[i]->phase != Phase::kRecompute) {
            report.add(Check::kMutatedForward, Severity::kError,
                       "the pass appended a non-recompute node",
                       {NodeRef::of(nodes[i].get())});
        }
    }
}

/** GEMM-free and pure recompute subgraphs. */
void
checkRecomputeNodes(const graph::Graph &g, const AuditOptions &opts,
                    AnalysisReport &report)
{
    for (const auto &node_ptr : g.nodes()) {
        const Node *n = node_ptr.get();
        if (n->phase != Phase::kRecompute || n->kind != NodeKind::kOp)
            continue;
        for (const Val &v : n->inputs) {
            if (v.defined() && v.node->phase == Phase::kBackward) {
                report.add(Check::kImpureRecompute, Severity::kError,
                           "recompute node reads a backward value; the "
                           "replay is not a pure forward replay",
                           {NodeRef::of(v.node), NodeRef::of(n)});
            }
        }
        if (!opts.expect_gemm_free || n->op == nullptr)
            continue;
        // A fused region hides its interior ops, but the kernels it
        // lowers to tell the truth about what it replays (is_gemm is
        // set by the GEMM-class ops themselves).  cheapToRecompute()
        // alone is not evidence: fusion composites return false there
        // to stop the pass from recomputing them twice, not because
        // they contain a GEMM — so it only counts for ops that lower
        // to no kernels at all and hence can't be judged by them.
        std::vector<Shape> in_shapes;
        for (const Val &v : n->inputs)
            in_shapes.push_back(graph::Graph::shapeOf(v));
        const std::vector<graph::KernelDesc> descs =
            n->op->kernels(in_shapes, n->out_shapes);
        bool has_gemm = descs.empty() && !n->op->cheapToRecompute();
        for (const graph::KernelDesc &d : descs)
            has_gemm = has_gemm || d.is_gemm;
        if (has_gemm) {
            report.add(Check::kRecomputedGemm, Severity::kError,
                       "compute-heavy GEMM-class work in the recompute "
                       "set (op " +
                           n->op->name() + ")",
                       {NodeRef::of(n)});
        }
    }
}

/**
 * Workspace sharing: at any schedule position, recompute buffers of at
 * most a few adjacent time steps may be live.  If many steps' replay
 * buffers coexist, the scheduler or the fusion welded steps together
 * and the O(B·T·H) arena of paper §4.1.2 silently became O(B·T²·H).
 */
void
checkWorkspaceSharing(const memory::LivenessResult &live,
                      const AuditOptions &opts, AnalysisReport &report)
{
    struct Interval
    {
        int def, last;
        int step;
        const Node *node;
    };
    std::vector<Interval> intervals;
    for (const memory::ValueInfo &info : live.values) {
        const Node *n = info.val.node;
        if (n->phase != Phase::kRecompute || n->time_step < 0 ||
            info.persistent)
            continue;
        intervals.push_back(
            {info.def_pos, info.last_use_pos, n->time_step, n});
    }
    if (intervals.empty())
        return;

    // Sweep: at each def, count distinct steps among live intervals.
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval &a, const Interval &b) {
                  return a.def < b.def;
              });
    int worst = 0;
    const Interval *worst_interval = nullptr;
    for (size_t i = 0; i < intervals.size(); ++i) {
        std::set<int> steps;
        for (size_t j = 0; j <= i; ++j)
            if (intervals[j].last >= intervals[i].def)
                steps.insert(intervals[j].step);
        if (static_cast<int>(steps.size()) > worst) {
            worst = static_cast<int>(steps.size());
            worst_interval = &intervals[i];
        }
    }
    if (worst > opts.max_concurrent_recompute_steps) {
        report.add(Check::kWorkspaceOverlap, Severity::kError,
                   "recompute buffers of " + std::to_string(worst) +
                       " time steps are live simultaneously (max " +
                       std::to_string(
                           opts.max_concurrent_recompute_steps) +
                       "); the shared workspace arena is broken",
                   {NodeRef::of(worst_interval->node,
                                worst_interval->def)});
    }
}

/** Cost-model savings vs liveness ground truth. */
void
checkFootprint(const GraphSnapshot &snap,
               const memory::LivenessResult &live_after,
               const memory::MemoryPlan &plan_after,
               const pass::PassResult &result, const AuditOptions &opts,
               AnalysisReport &report)
{
    const int64_t modeled = result.bytes_saved - result.bytes_added;
    if (result.num_regions == 0)
        return;
    const int64_t actual = snap.stashed_bytes - stashedBytes(live_after);
    if (modeled > 0 && actual <= 0) {
        report.add(Check::kFootprintMismatch, Severity::kError,
                   "cost model claims " + std::to_string(modeled) +
                       " stash bytes saved but liveness measures " +
                       std::to_string(actual));
        return;
    }
    const int64_t gap = std::abs(actual - modeled);
    const int64_t scale = std::max(std::abs(actual), std::abs(modeled));
    if (gap > static_cast<int64_t>(opts.footprint_rel_tol *
                                   static_cast<double>(scale)) +
                  opts.footprint_abs_slack) {
        report.add(Check::kFootprintMismatch, Severity::kWarning,
                   "cost model claims " + std::to_string(modeled) +
                       " stash bytes saved, liveness measures " +
                       std::to_string(actual));
    }
    if (modeled > 0 &&
        plan_after.pool_peak_bytes > snap.planned_peak_bytes) {
        report.add(Check::kFootprintMismatch, Severity::kWarning,
                   "pool peak grew from " +
                       std::to_string(snap.planned_peak_bytes) + " to " +
                       std::to_string(plan_after.pool_peak_bytes) +
                       " despite modeled savings");
    }
}

} // namespace

GraphSnapshot
snapshotGraph(const graph::Graph &g, const std::vector<Val> &fetches,
              const std::vector<Val> &weight_grads)
{
    GraphSnapshot snap;
    snap.records.reserve(g.numNodes());
    for (const auto &node_ptr : g.nodes()) {
        const Node *n = node_ptr.get();
        GraphSnapshot::NodeRecord rec;
        rec.node = n;
        rec.kind = n->kind;
        rec.phase = n->phase;
        rec.op = n->op.get();
        rec.name = n->name;
        rec.inputs = n->inputs;
        snap.records.push_back(std::move(rec));
    }
    const memory::PlannedSchedule s =
        memory::planSchedule(fetches, weight_grads);
    snap.stashed_bytes = stashedBytes(s.liveness);
    snap.planned_peak_bytes = s.plan.pool_peak_bytes;
    return snap;
}

AnalysisReport
auditRecomputePass(const GraphSnapshot &snapshot, const graph::Graph &g,
                   const memory::LivenessResult &live,
                   const memory::MemoryPlan &plan,
                   const pass::PassResult &result,
                   const AuditOptions &opts)
{
    AnalysisReport report;
    checkDiff(snapshot, g, report);
    checkRecomputeNodes(g, opts, report);
    checkWorkspaceSharing(live, opts, report);
    checkFootprint(snapshot, live, plan, result, opts, report);
    return report;
}

} // namespace echo::analysis
