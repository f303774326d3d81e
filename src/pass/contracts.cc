#include "pass/contracts.h"

namespace echo::pass {

const char *
invariantName(Invariant inv)
{
    switch (inv) {
      case Invariant::kDifferentiable:
        return "differentiable";
      case Invariant::kGradients:
        return "gradients";
      case Invariant::kFusionJournal:
        return "fusion-journal";
      case Invariant::kRecomputeApplied:
        return "recompute-applied";
      case Invariant::kMemoryPlanned:
        return "memory-planned";
      case Invariant::kPlanFeasible:
        return "plan-feasible";
    }
    return "unknown-invariant";
}

} // namespace echo::pass
