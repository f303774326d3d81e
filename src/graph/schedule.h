/**
 * @file
 * Deterministic execution schedule for a (possibly rewritten) graph.
 *
 * Node-creation order is topological, so a plain id sort would be a
 * valid schedule — but a naive order would run recompute nodes (the
 * forward replays spliced in by the Echo pass) as early as their inputs
 * allow, keeping their outputs alive across the whole backward pass and
 * destroying the footprint savings.  buildSchedule instead anchors every
 * recompute node just before its first backward consumer, which is what
 * lets the memory planner reuse one workspace arena across all time
 * steps (paper §4.1.2).
 */
#ifndef ECHO_GRAPH_SCHEDULE_H
#define ECHO_GRAPH_SCHEDULE_H

#include <vector>

#include "graph/graph.h"

namespace echo::graph {

/**
 * Build the execution order for everything @p fetches depends on.
 * Forward nodes run in id order, then backward nodes in id order, with
 * recompute nodes delayed until just before their earliest consumer.
 */
std::vector<Node *> buildSchedule(const std::vector<Val> &fetches);

/**
 * The dense slot topology of a schedule, one slot per schedule
 * position.  The Executor runs on exactly these arrays, and the
 * parallel-hazard detector (analysis/hazards.h) checks them.
 */
struct SlotTopology
{
    std::vector<Node *> schedule;
    /** Producer slot of each input edge, aligned with node->inputs;
     *  -1 when the producer is missing from the schedule. */
    std::vector<std::vector<int>> input_slots;
    /** Input-edge count per slot (the parallel ready condition). */
    std::vector<int> in_degree;
    /** Remaining-use counts per slot (consumers + fetch references). */
    std::vector<int> use_counts;
    /** Slot of each fetch, aligned with the fetches; -1 when missing. */
    std::vector<int> fetch_slots;
};

/** buildSchedule(@p fetches) plus its slot topology. */
SlotTopology buildTopology(const std::vector<Val> &fetches);

} // namespace echo::graph

#endif // ECHO_GRAPH_SCHEDULE_H
