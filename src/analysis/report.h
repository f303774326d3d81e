/**
 * @file
 * Diagnostic types shared by every static analyzer in src/analysis.
 *
 * Analyzers never abort on a violation — they collect Diagnostics into
 * an AnalysisReport so callers (echo-lint, tests, the pass manager's
 * checkers) can print the whole story: which invariant broke, and the
 * chain of offending nodes (name, op, phase, schedule slot) that breaks
 * it.
 */
#ifndef ECHO_ANALYSIS_REPORT_H
#define ECHO_ANALYSIS_REPORT_H

#include <string>
#include <vector>

#include "graph/graph.h"

namespace echo::analysis {

/** How bad a diagnostic is.  ok() fails only on kError. */
enum class Severity { kWarning, kError };

/** Which invariant a diagnostic is about. */
enum class Check {
    // Graph verifier.
    kMalformedNode,  ///< null op, missing outputs, inputs on an input node
    kDanglingEdge,   ///< input Val undefined / foreign / bad output index
    kCycle,          ///< def-use cycle (graph is not a DAG)
    kShapeMismatch,  ///< out_shapes disagree with the op's inferShapes
    kPhaseViolation, ///< e.g. a forward node consuming a backward value
    // Schedule lifetime analyzer.
    kUseBeforeDef,  ///< consumer scheduled before (or without) its producer
    kUseAfterFree,  ///< consumer scheduled after the value's last_use free
    kDoubleFree,    ///< a buffer would be released twice
    kLeakedSlot,    ///< a transient held for the whole run for no reason
    kPlanMissing,   ///< transient value without a planned allocation
    kPlanOverlap,   ///< planned bytes overlap another live allocation
    // Parallel hazard detector.
    kSharedOutputSlot, ///< two simultaneously-ready nodes write one slot
    kReadyRace,        ///< a node can become ready before its producers
    kPrematureFree,    ///< use count below the consumer count (free/use race)
    // Echo pass auditor.
    kRecomputedGemm,     ///< a GEMM-class op in the recompute set
    kImpureRecompute,    ///< a recompute node reading a backward value
    kMutatedForward,     ///< the pass edited a pre-existing non-backward node
    kStaleEdge,          ///< a redirected edge points at a non-equivalent value
    kWorkspaceOverlap,   ///< too many recompute steps live simultaneously
    kFootprintMismatch,  ///< cost-model savings disagree with liveness truth
    // Serving workspace checker.
    kSlotAliasing,   ///< two live requests mapped to one workspace slot
    kSlotOutOfRange, ///< a request mapped outside the slot range
    kSlotStateLeak,  ///< a slot occupant inherited the previous state rows
    kLifecycleViolation, ///< a request with zero or multiple terminal leases
    // Fusion auditor.
    kFusionIllegalGroup,  ///< fused group breaks a legality rule
    kFusionValueMismatch, ///< fused program != original chain (bytes)
    // Budget planner (checkPoolBudget / plan-feasible checker).
    kBudgetExceeded, ///< transient pool peak above the byte budget
    kPlanStale,      ///< recorded memory plan disagrees with the graph
};

/** Stable kebab-case name of a check (diagnostic codes in output). */
const char *checkName(Check check);

/** A node as it appears in a diagnostic chain. */
struct NodeRef
{
    const graph::Node *node = nullptr;
    /** Schedule position, or -1 when the diagnostic is not schedule-based. */
    int slot = -1;

    static NodeRef of(const graph::Node *n, int slot = -1)
    {
        return NodeRef{n, slot};
    }

    /** "#12 attn.tanh (tanh, forward, slot 7)". */
    std::string toString() const;
};

/** One violation (or suspicious condition) found by an analyzer. */
struct Diagnostic
{
    Check check = Check::kMalformedNode;
    Severity severity = Severity::kError;
    std::string message;
    /** Offending nodes, producer-to-consumer order where meaningful. */
    std::vector<NodeRef> chain;

    std::string toString() const;
};

/** Everything one analysis run found. */
struct AnalysisReport
{
    std::vector<Diagnostic> diagnostics;

    bool ok() const { return errorCount() == 0; }
    size_t errorCount() const;
    size_t warningCount() const;

    /** Append a diagnostic (builder style used by the analyzers). */
    void add(Check check, Severity severity, std::string message,
             std::vector<NodeRef> chain = {});

    /** Append everything from @p other. */
    void merge(const AnalysisReport &other);

    /** One line per diagnostic; "" when empty. */
    std::string toString() const;
};

/**
 * Graphviz rendering of the violating subgraph: every node named in a
 * diagnostic chain (drawn red-bordered) plus its direct producers and
 * consumers within @p universe, with the usual phase coloring.  Used by
 * echo-lint --dot.
 */
std::string violatingSubgraphDot(const AnalysisReport &report,
                                 const std::vector<graph::Node *> &universe);

} // namespace echo::analysis

#endif // ECHO_ANALYSIS_REPORT_H
