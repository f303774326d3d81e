/**
 * @file
 * Fusion auditor: verifies that the element-wise fusion pass
 * (graph/fusion.h) preserved value equality.
 *
 * For every journaled group it checks, independently of the pass's own
 * bookkeeping:
 *  - structure: the sink really carries a FusedElementwiseOp, its
 *    inputs match the journaled frontier, and the recorded program
 *    signature re-derives from the original members' lowerings
 *    (the "fusion preserved value-equality metadata" check);
 *  - legality: interior members are unreachable from the fetches
 *    (no escaping interior value) and share the sink's phase;
 *  - values: on deterministic pseudo-random inputs, replaying the
 *    ORIGINAL ops node-by-node over the intact orphaned members is
 *    byte-identical to one fused forward() call.  Groups with equal
 *    replay keys (re-derived program, scalar bits, frontier shapes and
 *    op types; the same cell at another time step) share one replay,
 *    of the first such group.
 */
#ifndef ECHO_ANALYSIS_FUSION_AUDIT_H
#define ECHO_ANALYSIS_FUSION_AUDIT_H

#include "analysis/report.h"
#include "graph/fusion.h"

namespace echo::analysis {

/**
 * Audit every group of @p result against the post-fusion @p fetches.
 * Diagnostics use kFusionIllegalGroup / kFusionValueMismatch.
 */
AnalysisReport
auditFusion(const std::vector<graph::Val> &fetches,
            const fusion::FusionResult &result);

} // namespace echo::analysis

#endif // ECHO_ANALYSIS_FUSION_AUDIT_H
