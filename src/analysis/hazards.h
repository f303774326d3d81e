/**
 * @file
 * Static race detector for the ready-queue (kParallel) executor.
 *
 * The parallel executor dispatches every node whose producers have
 * completed, frees each buffer when its use count hits zero, and keys
 * all bookkeeping off a dense slot topology (one slot per schedule
 * position).  Its safety argument is structural, so it can be checked
 * without running anything:
 *
 *  - every output slot is written by exactly one node — two nodes that
 *    are incomparable in the dependency partial order (and hence can be
 *    simultaneously ready) must never share a slot,
 *  - a node's in-degree equals its input edge count, so it cannot enter
 *    the ready queue while a producer is still running,
 *  - every value's use count equals its consumer edges plus fetch
 *    references — a count that is too low is a free/use pair race (the
 *    last counted consumer frees the buffer while an uncounted one may
 *    still be reading it).
 *
 * detectParallelHazards() verifies a ParallelTopology against the graph
 * it claims to execute.  graph::buildTopology() is the one derivation of
 * those arrays — the Executor runs on its result — so real executors
 * are checked by construction, and tests can tamper with the arrays to
 * seed races.
 */
#ifndef ECHO_ANALYSIS_HAZARDS_H
#define ECHO_ANALYSIS_HAZARDS_H

#include "analysis/report.h"
#include "graph/schedule.h"

namespace echo::analysis {

/** The dense slot topology the parallel executor runs on. */
using ParallelTopology = graph::SlotTopology;
using graph::buildTopology;

/** Check @p topo for ready-queue races. */
AnalysisReport detectParallelHazards(const ParallelTopology &topo);

/** Terminal outcome of one slot lease (how the occupancy ended). */
enum class LeaseStatus {
    kServed = 0,   ///< ran to EOS / length cap; payload delivered
    kCancelled,    ///< evicted by an explicit client cancellation
    kExpired,      ///< evicted because its deadline budget ran out
};

/**
 * One slot occupancy recorded by the continuous scheduler: request
 * @p request_id held row @p slot of pool @p pool over scheduler passes
 * [acquired, released).  The serving layer's padded-slot determinism
 * argument requires each live request to own its row exclusively, so
 * two requests overlapping on one (pool, slot) is a correctness bug,
 * not a performance bug.  A lease also carries the lifecycle facts the
 * recycling scheduler must get right: whether the state rows were
 * re-initialized when the request was spliced in (@p reinit), and how
 * the occupancy terminated (@p status).
 */
struct SlotLease
{
    int64_t request_id = -1;
    int64_t pool = 0;
    int slot = -1;
    int64_t acquired = 0;
    int64_t released = 0;
    /** 1 iff the state rows were zeroed/reset at splice time. */
    int reinit = 1;
    LeaseStatus status = LeaseStatus::kServed;
};

/**
 * Audit a continuous-batching slot-recycling journal:
 *  - exclusivity: every slot lies in [0, num_slots), and no two leases
 *    overlap on one (pool, slot),
 *  - no state leakage: every lease must have re-initialized its state
 *    rows at splice time (reinit == 1), else the new occupant inherited
 *    the previous request's hidden state,
 *  - lifecycle: every lease is a well-formed half-open interval
 *    (acquired < released), and every request id appears exactly once —
 *    a request that terminates twice (or holds two slots) violates the
 *    admitted-requests-terminate-exactly-once contract.
 */
AnalysisReport auditSlotRecycling(const std::vector<SlotLease> &journal,
                                  int num_slots);

} // namespace echo::analysis

#endif // ECHO_ANALYSIS_HAZARDS_H
