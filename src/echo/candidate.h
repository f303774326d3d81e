/**
 * @file
 * Recomputation candidates.
 *
 * For a feature map t, the candidate is the maximal subgraph of
 * cheap-to-recompute forward ops that ends at t, together with its
 * frontier — the values crossing into the subgraph, which must stay
 * stashed.  A candidate is admissible only when the subgraph contains no
 * compute-heavy op (GEMM class): Echo's central rule, which is what
 * keeps the recomputation overhead at the sub-percent level the paper
 * measures (§6.2), unlike generic sublinear checkpointing.
 *
 * A per-step target (time step >= 0) with a cross-step backward
 * consumer (time step -1) is not admissible either: replaying it ahead
 * of that consumer would keep every step's replay live at once.
 *
 * For the paper's attention scoring function the candidate is exactly
 * the O-shape interior (broadcast + layer norm + tanh), and the frontier
 * is the projected query / encoder state — the small inputs §4.1 stashes.
 */
#ifndef ECHO_ECHO_CANDIDATE_H
#define ECHO_ECHO_CANDIDATE_H

#include <vector>

#include "echo/feature_maps.h"

namespace echo::pass {

/** A recomputation candidate for one feature map. */
struct Candidate
{
    /** The feature map this candidate eliminates from the stash. */
    FeatureMap target;
    /** Forward nodes to replay, in ascending id (topological) order. */
    std::vector<Node *> subgraph;
    /** Values crossing into the subgraph (stay stashed), sorted by
     *  producing node id, then output index. */
    std::vector<Val> frontier;
    /**
     * Interior values consumed by a subgraph node of a different time
     * step.  The rewrite emits one fused kernel per time step (to keep
     * the cross-step workspace shared), so these values are read from
     * the stash by the consuming step's kernel and survive the rewrite
     * exactly like frontier values — recomputing them saves nothing.
     * This is the liveness interaction that makes chained LSTM
     * cell-state regions unprofitable.  Sorted like frontier (the
     * cost model binary-searches it).
     */
    std::vector<Val> pinned_interior;
    /** False when the region would contain a non-recomputable op. */
    bool admissible = false;
};

/**
 * Build the candidate for @p target.
 *
 * @param respect_gemm_boundary when false, GEMM-class ops may be
 *        recomputed too (the Chen-et-al ablation); candidates are then
 *        bounded at graph inputs only.
 */
Candidate buildCandidate(const FeatureMap &target,
                         bool respect_gemm_boundary = true);

} // namespace echo::pass

#endif // ECHO_ECHO_CANDIDATE_H
