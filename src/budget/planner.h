/**
 * @file
 * Budget-targeted recomputation planning: "fit this training graph's
 * transient pool in X bytes" solved for minimum added replay time.
 *
 * The Echo pass answers "how much memory can I save within a replay
 * *time* budget"; production boxes pose the inverse question — the
 * memory budget is fixed ("2 GiB for transients") and replay time is
 * what should be minimized.  planWithBudget() answers it:
 *
 *  1. measure the baseline pool peak (memory::planMemory over the real
 *     liveness analysis — never the cost model alone);
 *  2. probe the maximum-reduction candidate set to learn the tightest
 *     achievable peak; a budget below it is infeasible and the plan
 *     reports the binding buffers (largest transients live at the
 *     tightest plan's peak) so the caller can see *why*;
 *  3. solve for the cheapest candidate subset whose modelled net
 *     savings covers (baseline - budget) with the selected solver
 *     (greedy baseline / exact chain DP / Lagrangian relaxation — see
 *     budget/solvers.h);
 *  4. trial-apply the chosen set, re-run the real memory planner, and
 *     roll the rewrite back if the measured peak still exceeds the
 *     budget (model-vs-planner slack); the required reduction is then
 *     raised by the observed overshoot and the solve repeats.  The
 *     probed set is a known-feasible fallback, so the loop always
 *     terminates with a plan whose *measured* peak fits.
 *
 * Every returned plan carries the final graph's memory plan, its pool
 * peak and its independent replay (memory::replayPlan), so callers (the
 * `recompute_budget` pass's plan-feasible checker, echo-plan, tests)
 * can cross-check "peak <= budget" without trusting this code.
 */
#ifndef ECHO_BUDGET_PLANNER_H
#define ECHO_BUDGET_PLANNER_H

#include <string>
#include <vector>

#include "budget/solvers.h"
#include "memory/planner.h"

namespace echo::budget {

/** What planWithBudget is asked to do. */
struct BudgetConfig
{
    /** Transient-pool byte budget the plan must fit in
     *  (memory::MemoryPlan::pool_peak_bytes <= budget_bytes). */
    int64_t budget_bytes = 0;
    Solver solver = Solver::kChainDp;
    /** Candidate enumeration / pricing / rewrite configuration.  The
     *  time-budget fraction is ignored — bytes are the budget here. */
    pass::PassConfig recompute;
    /** Solve / trial-apply / measure rounds before falling back to the
     *  probed maximum-reduction set. */
    int max_rounds = 6;
};

/** A transient buffer live at the peak of an infeasible budget's
 *  tightest plan — why the budget cannot be met. */
struct BindingBuffer
{
    Val val;
    int64_t bytes = 0;
    int def_pos = 0;
    int last_use_pos = 0;
    std::string name;
    std::string category;
};

/** Everything one planning run decided and measured. */
struct BudgetPlan
{
    /** The budget is met: the graph was rewritten (or already fit) and
     *  the measured pool peak is <= budget_bytes. */
    bool feasible = false;
    /** The graph was actually rewritten (false when the baseline
     *  already fits, and always false when infeasible). */
    bool applied = false;
    int64_t budget_bytes = 0;
    /** Measured transient pool peaks: before planning, after the final
     *  rewrite (== baseline when nothing was applied), and the
     *  tightest achievable (maximum-reduction probe). */
    int64_t baseline_pool_peak = 0;
    int64_t planned_pool_peak = 0;
    int64_t tightest_pool_peak = 0;
    /** Solve/apply/measure rounds taken. */
    int rounds = 0;
    /** Candidate items the enumerator offered the solver. */
    int num_items = 0;
    /** The final solver verdict (modelled). */
    SolveResult solved;
    /** Rewrite report of the applied set (zeros when !applied). */
    pass::PassResult pass;
    /** Infeasible only: largest transients live at the tightest plan's
     *  peak, descending bytes. */
    std::vector<BindingBuffer> binding;
    /** The final graph's memory plan (its pool peak is
     *  planned_pool_peak); replay_ok when replaying it against the
     *  liveness intervals finds nothing and gives the same address
     *  peak. */
    memory::MemoryPlan memory_plan;
    bool replay_ok = false;
    /** Human-readable outcome ("fits without rewriting", "fell back to
     *  probe set", ...). */
    std::string note;
};

/**
 * Plan @p graph's recomputation so the transient pool fits
 * config.budget_bytes, rewriting the graph in place when a rewrite is
 * needed and feasible.  An infeasible budget leaves the graph
 * untouched (every trial is rolled back).
 */
BudgetPlan planWithBudget(graph::Graph &graph,
                          const std::vector<Val> &fetches,
                          const std::vector<Val> &weight_grads,
                          const BudgetConfig &config);

/** Parse "268435456", "256KiB" / "256KB" / "256K", "2MiB", "1.5GiB"
 *  (binary units) into bytes; false on malformed input, including a
 *  non-finite or negative value and one past INT64_MAX bytes. */
bool parseByteSize(const std::string &text, int64_t *bytes);

/** Parse all of @p text as a budget fraction in (0, 1]; false on
 *  anything else (trailing text, non-finite, out of range). */
bool parseFraction(const std::string &text, double *fraction);

/** "1.50 GiB"-style rendering for diagnostics. */
std::string formatBytes(int64_t bytes);

} // namespace echo::budget

#endif // ECHO_BUDGET_PLANNER_H
