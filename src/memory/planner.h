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
 *
 * replayPlan() checks a plan against the liveness intervals it was
 * derived from, without trusting the planner's own bookkeeping: it
 * walks each schedule position's allocations, then its frees, and
 * reports a transient with no allocation, an undersized allocation, or
 * planned bytes that overlap a live allocation.  It also yields the
 * live-footprint curve (the Fig. 5-style per-iteration view that
 * tools/echo-trace writes) and two peaks: the address peak (max over
 * allocations of offset + bytes), which equals pool_peak_bytes for a
 * plan the planner made, and the live peak, the liveness lower bound no
 * pool layout can beat (live peak <= address peak).
 */
#ifndef ECHO_MEMORY_PLANNER_H
#define ECHO_MEMORY_PLANNER_H

#include <unordered_map>

#include "memory/liveness.h"

namespace echo::memory {

/** Planner configuration. */
struct PlannerOptions
{
    /** Allocation granularity (bytes). */
    int64_t alignment = 256;
    /** When false, transients never share memory (ablation mode). */
    bool reuse_transients = true;
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

/** A schedule's liveness analysis and the plan derived from it. */
struct PlannedSchedule
{
    LivenessResult liveness;
    MemoryPlan plan;
};

/** analyzeLiveness, then planMemory with the default options. */
PlannedSchedule planSchedule(const std::vector<Val> &fetches,
                             const std::vector<Val> &weight_grads);

/** One point of the footprint curve (state after position @p pos). */
struct FootprintPoint
{
    int pos = 0;
    /** Live transient bytes after the position's frees. */
    int64_t live_bytes = 0;
    /** Live bytes after its allocations, before its frees. */
    int64_t high_water_bytes = 0;
};

/** One transient whose planned allocation is wrong. */
struct PlanFinding
{
    enum class Kind { kMissing, kUndersized, kOverlap };
    Kind kind = Kind::kMissing;
    const ValueInfo *value = nullptr;
    /** kOverlap: the live transient whose bytes it overlaps. */
    const ValueInfo *holder = nullptr;
    /** The planned allocation (absent for kMissing). */
    Allocation alloc;
};

/** What replayPlan derived and found. */
struct PlanReplay
{
    /** Max simultaneous live bytes, and the first position reaching it. */
    int64_t live_peak_bytes = 0;
    int peak_pos = 0;
    /** Max over allocations of offset + bytes. */
    int64_t address_peak_bytes = 0;
    /** One point per schedule position that allocates or frees. */
    std::vector<FootprintPoint> curve;
    std::vector<PlanFinding> findings;

    bool ok() const { return findings.empty(); }
};

/** Replay @p plan against the intervals of @p live (see file comment).
 *  Values whose interval lies outside the schedule are skipped. */
PlanReplay replayPlan(const LivenessResult &live, const MemoryPlan &plan);

} // namespace echo::memory

#endif // ECHO_MEMORY_PLANNER_H
