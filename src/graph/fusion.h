/**
 * @file
 * Automatic element-wise fusion pass.
 *
 * Scans the (already differentiated) training graph for maximal
 * single-consumer chains/DAGs of same-shape element-wise ops — every op
 * that provides Op::elementwiseLowering — and rewrites each group's
 * sink node in place into one FusedElementwiseOp that evaluates the
 * whole expression in a single parallel pass.  Interior intermediates
 * are never allocated: the group's former interior nodes become
 * unreachable (the schedule, liveness, planner, and feature maps all
 * work off reachableNodes(fetches)), but are left intact so
 * analysis::auditFusion can replay the original chain and byte-compare
 * it against the fused program.
 *
 * Legality rules (see DESIGN.md):
 *  - only ops with a lowering join a group; all values involved share
 *    one shape by construction (binary element-wise ops require equal
 *    input shapes, unary ops preserve shape);
 *  - an interior member's EVERY consumer (including fetches and nodes
 *    outside the reachable set) must lie inside the group — only the
 *    sink's output escapes, so no interior value is ever needed;
 *  - members share the sink's phase and time_step, keeping the Echo
 *    pass's feature-map and workspace-sharing reasoning intact;
 *  - groups are grown sink-first in reverse topological order, which
 *    makes cycles impossible: only the sink's output leaves the group,
 *    and every member's id is below the sink's.
 *
 * The pass is in the default training and serving pipelines (a spec
 * without "fusion", e.g. ECHO_PASSES=autodiff, leaves it out) and runs
 * after autodiff, so gradients are fused exactly like forward chains.
 * Byte-identical outputs vs. the unfused graph at any thread count is
 * the hard contract, enforced by tests/test_fusion.cc and the fuzz
 * property suite.
 */
#ifndef ECHO_GRAPH_FUSION_H
#define ECHO_GRAPH_FUSION_H

#include <vector>

#include "graph/graph.h"

namespace echo::fusion {

/** Tuning knobs of the fusion pass. */
struct FusionConfig
{
    /** Minimum ops per group (a 1-op "fusion" only adds overhead). */
    int min_group_size = 2;
};

/** One rewritten group, journaled for audits and reporting. */
struct FusedGroup
{
    /** The rewritten node (now carries the FusedElementwiseOp). */
    graph::Node *sink = nullptr;
    /** The sink's pre-fusion op (for audit replay of the chain). */
    graph::OpPtr original_op;
    /** The sink's pre-fusion inputs (the rewrite replaces them). */
    std::vector<graph::Val> original_sink_inputs;
    /** All members in id (topological) order; sink last.  Non-sink
     *  members are left orphaned-but-intact in the graph. */
    std::vector<graph::Node *> members;
    /** The fused node's inputs (== sink->inputs after the rewrite). */
    std::vector<graph::Val> frontier;
};

/** What the pass did; counters mirror the fusion.* counter set. */
struct FusionResult
{
    int num_groups = 0;
    /** Total original ops folded into fused nodes. */
    int num_ops_fused = 0;
    /** Interior values that are no longer materialized. */
    int num_values_elided = 0;
    /** Bytes of transient allocations those values would have taken. */
    int64_t bytes_elided = 0;
    std::vector<FusedGroup> groups;
};

/**
 * Run the pass over the subgraph reaching @p fetches, rewriting
 * @p g in place.  Deterministic: group discovery and program layout
 * depend only on graph structure, never on scheduling.
 */
FusionResult runFusionPass(graph::Graph &g,
                           const std::vector<graph::Val> &fetches,
                           const FusionConfig &config = {});

} // namespace echo::fusion

#endif // ECHO_GRAPH_FUSION_H
