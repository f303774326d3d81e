/**
 * @file
 * Echo pass auditor: diffs a graph against its pre-pass snapshot and
 * checks the rewrite's invariants without executing anything.
 *
 *  - the pass only appends recompute-phase nodes and only edits
 *    backward-node inputs, and every edited edge points at a
 *    recompute value of the same shape as the original,
 *  - the recompute set contains no GEMM-class op (Echo's central rule;
 *    checked through the kernels a fused region lowers to),
 *  - recompute subgraphs are pure: they read forward, weight,
 *    placeholder, or recompute values, never backward ones,
 *  - workspace sharing holds: recompute buffers of at most a couple of
 *    adjacent time steps are live at once (paper §4.1.2 — one shared
 *    arena, not one arena per step),
 *  - the cost model's claimed savings agree with the memory/liveness
 *    ground truth within tolerance.
 */
#ifndef ECHO_ANALYSIS_PASS_AUDIT_H
#define ECHO_ANALYSIS_PASS_AUDIT_H

#include "analysis/report.h"
#include "echo/recompute_pass.h"
#include "memory/planner.h"

namespace echo::analysis {

/** Pre-pass state needed to audit the rewrite afterwards. */
struct GraphSnapshot
{
    struct NodeRecord
    {
        const graph::Node *node = nullptr;
        graph::NodeKind kind = graph::NodeKind::kOp;
        graph::Phase phase = graph::Phase::kForward;
        const graph::Op *op = nullptr;
        std::string name;
        std::vector<graph::Val> inputs;
    };

    std::vector<NodeRecord> records;
    /** Stashed feature-map bytes (liveness ground truth, pre-pass). */
    int64_t stashed_bytes = 0;
    /** Planned transient-pool peak, pre-pass. */
    int64_t planned_peak_bytes = 0;
};

/** Capture @p g before running the recompute pass. */
GraphSnapshot snapshotGraph(const graph::Graph &g,
                            const std::vector<graph::Val> &fetches,
                            const std::vector<graph::Val> &weight_grads);

/** Auditor knobs. */
struct AuditOptions
{
    /** False for the respect_gemm_boundary=false ablation. */
    bool expect_gemm_free = true;
    /** Max distinct time steps with live recompute buffers at once. */
    int max_concurrent_recompute_steps = 3;
    /** Modeled-vs-measured stash savings tolerance (warning above). */
    double footprint_rel_tol = 0.5;
    int64_t footprint_abs_slack = 4096;
};

/** Audit the pass's rewrite of @p g against @p snapshot; @p live and
 *  @p plan are the rewritten graph's liveness and memory plan. */
AnalysisReport
auditRecomputePass(const GraphSnapshot &snapshot, const graph::Graph &g,
                   const memory::LivenessResult &live,
                   const memory::MemoryPlan &plan,
                   const pass::PassResult &result,
                   const AuditOptions &opts = {});

} // namespace echo::analysis

#endif // ECHO_ANALYSIS_PASS_AUDIT_H
