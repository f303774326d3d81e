/**
 * @file
 * Memory-pool planner: assigns every transient value a byte offset in a
 * simulated GPU memory pool (best-fit with coalescing free list, like
 * MXNet's storage manager) and reports the peak footprint.
 *
 * The planner is where the paper's workspace-sharing argument (§4.1.2)
 * becomes measurable: because the Echo pass's recompute buffers for time
 * step t die before step t-1's are born, the best-fit pool reuses one
 * O(B·T·H) arena for all steps instead of O(B·T²·H).  The
 * reuse_transients=false mode disables pooling (every transient gets a
 * fresh offset) for the ablation bench.
 */
#ifndef ECHO_MEMORY_PLANNER_H
#define ECHO_MEMORY_PLANNER_H

#include <unordered_map>

#include "memory/liveness.h"
#include "obs/memory_timeline.h"

namespace echo::memory {

/** Planner configuration. */
struct PlannerOptions
{
    /** Allocation granularity (bytes). */
    int64_t alignment = 256;
    /** When false, transients never share memory (ablation mode). */
    bool reuse_transients = true;
    /**
     * When set, every transient allocation/free is recorded here with
     * its schedule position, so the plan's footprint curve can be
     * replayed and audited (obs::replayTimeline).  Cleared first.
     */
    obs::MemoryTimeline *timeline = nullptr;
};

/** A planned allocation. */
struct Allocation
{
    int64_t offset = 0;
    int64_t bytes = 0;
};

/** The plan for one schedule. */
struct MemoryPlan
{
    /** Peak size of the transient pool (feature maps + workspace). */
    int64_t pool_peak_bytes = 0;
    /** Bytes held for the whole run (weights, placeholders, fetches). */
    int64_t persistent_bytes = 0;
    /** Offsets of transient values within the pool. */
    std::unordered_map<Val, Allocation, ValHash> offsets;
    /** Schedule position where the pool peak occurs. */
    int peak_pos = 0;
};

/** Plan memory for an analyzed schedule. */
MemoryPlan planMemory(const LivenessResult &live,
                      const PlannerOptions &opts = {});

} // namespace echo::memory

#endif // ECHO_MEMORY_PLANNER_H
