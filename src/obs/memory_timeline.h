/**
 * @file
 * Memory-timeline recorder and replay.
 *
 * The memory planner (src/memory/planner) emits one event per transient
 * allocation and free, in plan order (all allocations at a schedule
 * position precede that position's frees, matching how the planner
 * computes its peak).  Replaying the timeline independently reproduces
 * the live-footprint curve the plan implies and cross-checks the
 * planner's own accounting:
 *
 *  - no two simultaneously live allocations may overlap in [offset,
 *    offset+bytes),
 *  - the replayed address-space peak (max over allocations of
 *    offset+bytes) must equal MemoryPlan::pool_peak_bytes exactly,
 *  - the replayed live-byte peak is the liveness lower bound no pool
 *    can beat, so address peak >= live peak always.
 *
 * The footprint curve (live bytes per schedule position) is the
 * Fig. 5-style per-iteration view; tools/echo-trace writes it as CSV.
 */
#ifndef ECHO_OBS_MEMORY_TIMELINE_H
#define ECHO_OBS_MEMORY_TIMELINE_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace echo::obs {

/** One planner decision: a transient buffer born or dying. */
struct MemoryEvent
{
    /** Schedule position the event takes effect at. */
    int pos = 0;
    bool is_alloc = true;
    /** Byte offset within the transient pool. */
    int64_t offset = 0;
    /** Aligned size of the buffer. */
    int64_t bytes = 0;
    /** Producing node id and output index (provenance). */
    int node_id = 0;
    int out_index = 0;
    /** Producing node name. */
    std::string name;
};

/** The recorded plan, in planner emission order. */
struct MemoryTimeline
{
    std::vector<MemoryEvent> events;

    void clear() { events.clear(); }
};

/** One point of the footprint curve (state after position @p pos). */
struct FootprintPoint
{
    int pos = 0;
    /** Live transient bytes after all events at pos. */
    int64_t live_bytes = 0;
    /** Peak live bytes observed within pos (allocs precede frees). */
    int64_t high_water_bytes = 0;
};

/** Result of independently replaying a timeline. */
struct TimelineReplay
{
    /** Max simultaneous live bytes (the liveness lower bound). */
    int64_t live_peak_bytes = 0;
    /** Schedule position where the live peak occurs. */
    int peak_pos = 0;
    /** Max over allocations of offset+bytes == the pool high-water
     *  mark the planner reports as pool_peak_bytes. */
    int64_t address_peak_bytes = 0;
    /** Live bytes left after the last event (0 for a balanced plan). */
    int64_t outstanding_bytes = 0;
    /** One point per schedule position with activity, ascending. */
    std::vector<FootprintPoint> curve;
    /** Overlap / double-free / unknown-free diagnostics (empty = ok). */
    std::vector<std::string> violations;

    bool
    ok() const
    {
        return violations.empty() && outstanding_bytes == 0;
    }
};

/** Replay @p timeline, checking the invariants in the file comment. */
TimelineReplay replayTimeline(const MemoryTimeline &timeline);

/** Write the footprint curve as CSV (pos,live_bytes,high_water_bytes). */
void writeFootprintCsv(const TimelineReplay &replay, std::ostream &out);

} // namespace echo::obs

#endif // ECHO_OBS_MEMORY_TIMELINE_H
