/**
 * @file
 * Named invariant contracts of the pass pipeline.
 *
 * Every pass in the pass table declares its contract in terms of these
 * six invariants: which ones it needs to already hold
 * (`preconditions()` — the paper-facing docs call this `requires()`,
 * but `requires` is a C++20 keyword), which ones it `establishes()`,
 * and which previously established ones it `invalidates()`.  The
 * manager checks pipeline legality statically from these declarations
 * alone — before any pass runs — and tracks the set of invariants that
 * hold while the pipeline executes so postcondition checkers know what
 * they may assume.
 */
#ifndef ECHO_PASS_CONTRACTS_H
#define ECHO_PASS_CONTRACTS_H

#include <cstdint>

namespace echo::pass {

/** The invariants passes trade in.  See invariantName for the stable
 *  kebab-case spelling used in diagnostics and docs. */
enum class Invariant : uint8_t {
    /** The graph consists solely of ops autodiff can differentiate and
     *  has not been rewritten since construction.  Holds for a freshly
     *  built forward graph; fusion destroys it (FusedElementwiseOp has
     *  no gradient), and so do autodiff itself (one-shot per pipeline)
     *  and the recompute rewrite. */
    kDifferentiable,
    /** Backward nodes exist and ctx.weight_grads names one gradient per
     *  requested weight.  Established by the autodiff pass. */
    kGradients,
    /** The element-wise fusion journal (ctx.fusion) is auditable: every
     *  fused group's frontier still points at the values recorded when
     *  the group was formed.  The recompute pass may redirect a fused
     *  sink's frontier into recomputed clones, clobbering this. */
    kFusionJournal,
    /** The Echo recompute rewrite has been applied and its pre-pass
     *  snapshot (ctx.recompute_snapshot) matches the current graph's
     *  history, so auditRecomputePass can diff against it.  A later
     *  fusion pass retypes snapshot-era nodes in place and clobbers
     *  this. */
    kRecomputeApplied,
    /** ctx.plan holds a memory plan derived from the *current* graph
     *  (ctx.plan_liveness is the matching liveness analysis).
     *  Established by the plan pass; any pass that rewrites the graph
     *  afterwards invalidates it unless it re-plans itself. */
    kMemoryPlanned,
    /** A budget-targeted recomputation plan (ctx.budget_plan) has been
     *  produced for the current graph and its measured pool peak fits
     *  the requested byte budget.  Established by recompute_budget;
     *  checked post-hoc by the plan-feasible checker, which re-derives
     *  the pool peak and replays the allocation timeline. */
    kPlanFeasible,
};

/** Stable kebab-case name ("differentiable", "gradients", ...). */
const char *invariantName(Invariant inv);

} // namespace echo::pass

#endif // ECHO_PASS_CONTRACTS_H
