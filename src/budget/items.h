/**
 * @file
 * Budget-planner candidate items: the Echo pass's recomputation
 * candidates, priced standalone and packaged for the solvers.
 *
 * The enumerator reuses echo::pass end to end — the same feature maps,
 * the same maximal GEMM-free regions (fused elementwise groups arrive
 * as single cheap nodes, making them near-free candidates), the same
 * footprint and runtime cost models.  What src/budget adds is the
 * *joint* objective: costOf() evaluates a chosen subset at full charge
 * (shared stash values paid once, shared replay nodes priced once), so
 * solvers can optimize "minimum replay time subject to at least R bytes
 * of net savings" instead of the pass's greedy ratio ranking.
 */
#ifndef ECHO_BUDGET_ITEMS_H
#define ECHO_BUDGET_ITEMS_H

#include <vector>

#include "echo/recompute_pass.h"

namespace echo::budget {

using graph::Node;
using graph::Val;

/** One admissible recomputation candidate, priced standalone. */
struct Item
{
    pass::Candidate cand;
    /** Full-charge cost of choosing this item alone. */
    int64_t solo_saved = 0;
    int64_t solo_added = 0;
    double solo_replay_us = 0.0;
    /** Time step of the target feature map (-1 outside steps) — the
     *  chain coordinate the DP sweeps along. */
    int step = -1;

    int64_t soloNet() const { return solo_saved - solo_added; }
};

/** Every admissible candidate of a graph, ready for the solvers. */
struct ItemSet
{
    std::vector<Item> items;
    /** Pricing data over every item's candidate (and the graph's
     *  feature maps), built once by enumerateItems. */
    pass::CostIndex index;
    /** Pricing/rewrite configuration the items were built under. */
    pass::PassConfig config;
};

/**
 * Enumerate and price the admissible candidates reachable from
 * @p fetches.  Items are ordered along the time-step chain
 * (ascending target step, then target node id) — the order
 * solveChainDp() sweeps.
 */
ItemSet enumerateItems(const std::vector<Val> &fetches,
                       const pass::PassConfig &config);

/** Joint full-charge cost of choosing @p chosen (indices into
 *  set.items) — the solvers' objective, order-independent. */
pass::SetCost costOf(const ItemSet &set, const std::vector<int> &chosen);

} // namespace echo::budget

#endif // ECHO_BUDGET_ITEMS_H
