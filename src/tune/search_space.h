/**
 * @file
 * The GEMM schedule search space: enumeration with cost-model-guided
 * pruning, and random legal draws for the property tests.
 *
 * The full cross product (blocking x micro-tile x loop order x packing
 * x parallel axis x serial threshold) is tens of thousands of points —
 * far too many to measure per shape.  enumerateCandidates() scores
 * every legal point with a closed-form cost proxy (padded madds, pack
 * traffic, cache residency, register-tile efficiency, usable
 * parallelism) and returns only the top few plus the fixed default, so
 * the measurement harness times ~16 schedules instead of ~30k.  The
 * cost model only needs to rank well enough that the true optimum
 * survives pruning; the measurement pass makes the final call.
 */
#ifndef ECHO_TUNE_SEARCH_SPACE_H
#define ECHO_TUNE_SEARCH_SPACE_H

#include <vector>

#include "core/rng.h"
#include "tensor/gemm_schedule.h"

namespace echo::tune {

/** One scored point of the pruned search space. */
struct ScoredSchedule
{
    ops::GemmSchedule schedule;
    /** Modelled cost, arbitrary units (lower is better). */
    double cost = 0.0;
};

/**
 * The pruned candidate list for @p key: the @p max_candidates
 * best-scoring legal schedules, always including the fixed default
 * (so a search can never regress past the schedule ops::gemm runs).
 * Ordered best-first by modelled cost.
 */
std::vector<ScoredSchedule> enumerateCandidates(const ops::GemmKey &key,
                                                int max_candidates = 16);

/**
 * Closed-form cost proxy for running @p s on @p key (lower is
 * better).  Exposed for the correlation bench and tests.
 */
double modelScheduleCost(const ops::GemmKey &key,
                         const ops::GemmSchedule &s);

/**
 * A uniformly random LEGAL schedule for an operand with @p trans_b
 * and @p threads workers — the fuzz test draws these and asserts
 * bitwise equality with gemmReference.  Occasionally sets
 * parallel_min_madds to zero so tiny shapes exercise the parallel
 * paths too.
 */
ops::GemmSchedule randomLegalSchedule(Rng &rng, bool trans_b,
                                      int threads);

} // namespace echo::tune

#endif // ECHO_TUNE_SEARCH_SPACE_H
