/**
 * @file
 * Schedule lifetime analyzer: replays a schedule symbolically against
 * the liveness analysis and (optionally) the memory plan, without
 * executing a single op.
 *
 * The executor frees each buffer when its last consumer has run and the
 * pool planner hands the freed bytes to later values, so a wrong
 * live interval is a use-after-free and an overlapping allocation is a
 * write into somebody else's live buffer.  The analyzer re-walks the
 * schedule with its own use counting, replays the plan against the
 * live intervals (memory::replayPlan), and reports:
 *
 *  - use-before-def: a consumer scheduled at or before its producer,
 *  - use-after-free: a consumer scheduled after the position where the
 *    recorded live interval releases the buffer,
 *  - double-free: a node scheduled twice (the last-consumer protocol
 *    would release its buffers twice),
 *  - leaked slots: transients held for the whole run although nothing
 *    (weights, placeholders, fetches, weight grads) justifies it,
 *  - plan violations: a transient with no allocation, an undersized
 *    allocation, or planned bytes that overlap a live allocation.
 */
#ifndef ECHO_ANALYSIS_LIFETIME_H
#define ECHO_ANALYSIS_LIFETIME_H

#include "analysis/report.h"
#include "memory/planner.h"

namespace echo::analysis {

/**
 * Analyze @p live (schedule + intervals) for lifetime violations.
 *
 * @param fetches      the run's outputs; fetched values may legally stay
 *                     alive to the end.
 * @param weight_grads gradient values (legally persistent).
 * @param plan         when given, its allocations are replayed against
 *                     the live intervals (memory::replayPlan).
 */
AnalysisReport
analyzeLifetimes(const memory::LivenessResult &live,
                 const std::vector<graph::Val> &fetches,
                 const std::vector<graph::Val> &weight_grads = {},
                 const memory::MemoryPlan *plan = nullptr);

/**
 * Check @p plan's transient pool peak against a byte budget.  Clean
 * when pool_peak_bytes <= @p budget_bytes; otherwise one
 * budget-exceeded error whose chain names the producing nodes of the
 * largest transients live at the plan's peak position (the binding
 * buffers — what must shrink or be recomputed for the budget to become
 * reachable), largest first.
 */
AnalysisReport checkPoolBudget(const memory::LivenessResult &live,
                               const memory::MemoryPlan &plan,
                               int64_t budget_bytes);

} // namespace echo::analysis

#endif // ECHO_ANALYSIS_LIFETIME_H
