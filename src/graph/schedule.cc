#include "graph/schedule.h"

#include <algorithm>

#include "core/logging.h"

namespace echo::graph {

namespace {

/** Sort key: (group, anchor, before-anchor flag, id). */
struct ScheduleKey
{
    int group;  // 0 = forward, 1 = backward region
    int anchor; // position within the group
    int sub;    // 0 = recompute (before its anchor), 1 = the anchor
    int id;

    bool
    operator<(const ScheduleKey &o) const
    {
        if (group != o.group)
            return group < o.group;
        if (anchor != o.anchor)
            return anchor < o.anchor;
        if (sub != o.sub)
            return sub < o.sub;
        return id < o.id;
    }
};

/** buildSchedule's order plus the position index its sanity check
 *  builds, which buildTopology reuses as the slot of each node. */
struct IndexedSchedule
{
    std::vector<Node *> order;
    NodeIndex slot_of;
};

IndexedSchedule
buildIndexedSchedule(const std::vector<Val> &fetches)
{
    const std::vector<Node *> nodes = reachableNodes(fetches);
    const NodeIndex pos_of(nodes);

    // anchor(n) for a recompute node = the id of the earliest
    // non-recompute node that (transitively) consumes it.  Each
    // consumer pushes its anchor to its recompute inputs: first every
    // non-recompute node its own id, then the recompute nodes in
    // reverse id order — recompute chains have increasing ids, so a
    // recompute node's consumers have all pushed before it does.
    constexpr int kNoAnchor = -1;
    std::vector<int> anchor(nodes.size(), kNoAnchor);
    const auto push = [&](const Node *c, int ca) {
        for (const Val &v : c->inputs) {
            if (v.node->phase != Phase::kRecompute)
                continue;
            int &a = anchor[static_cast<size_t>(pos_of.find(v.node))];
            a = a == kNoAnchor ? ca : std::min(a, ca);
        }
    };
    for (const Node *c : nodes)
        if (c->phase != Phase::kRecompute)
            push(c, c->id);
    for (size_t i = nodes.size(); i-- > 0;) {
        if (nodes[i]->phase != Phase::kRecompute)
            continue;
        // No consumer: a dead (fetched) recompute node anchors at
        // itself.
        if (anchor[i] == kNoAnchor)
            anchor[i] = nodes[i]->id;
        push(nodes[i], anchor[i]);
    }

    std::vector<std::pair<ScheduleKey, Node *>> keyed;
    keyed.reserve(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
        Node *n = nodes[i];
        ScheduleKey k;
        k.id = n->id;
        switch (n->phase) {
          case Phase::kForward:
            k.group = 0;
            k.anchor = n->id;
            k.sub = 1;
            break;
          case Phase::kBackward:
            k.group = 1;
            k.anchor = n->id;
            k.sub = 1;
            break;
          case Phase::kRecompute:
            k.group = 1;
            k.anchor = anchor[i];
            k.sub = 0;
            break;
        }
        keyed.emplace_back(k, n);
    }
    std::sort(keyed.begin(), keyed.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });

    std::vector<Node *> order;
    order.reserve(keyed.size());
    for (auto &[k, n] : keyed)
        order.push_back(n);

    // Sanity: the result must still be topological.
    NodeIndex slot_of(order);
    for (size_t i = 0; i < order.size(); ++i) {
        const Node *n = order[i];
        for (const Val &v : n->inputs) {
            const int p = slot_of.find(v.node);
            ECHO_CHECK(p >= 0 && static_cast<size_t>(p) < i,
                       "schedule broke topological order at node #",
                       n->id, " (", n->name, ")");
        }
    }
    return {std::move(order), std::move(slot_of)};
}

} // namespace

std::vector<Node *>
buildSchedule(const std::vector<Val> &fetches)
{
    return buildIndexedSchedule(fetches).order;
}

SlotTopology
buildTopology(const std::vector<Val> &fetches)
{
    SlotTopology topo;
    IndexedSchedule indexed = buildIndexedSchedule(fetches);
    topo.schedule = std::move(indexed.order);
    const NodeIndex &slot_of = indexed.slot_of;
    const size_t n = topo.schedule.size();

    topo.input_slots.assign(n, {});
    topo.in_degree.assign(n, 0);
    topo.use_counts.assign(n, 0);
    for (size_t s = 0; s < n; ++s) {
        const Node *node = topo.schedule[s];
        topo.input_slots[s].reserve(node->inputs.size());
        for (const Val &v : node->inputs) {
            const int producer = slot_of.find(v.node);
            topo.input_slots[s].push_back(producer);
            if (producer >= 0)
                ++topo.use_counts[static_cast<size_t>(producer)];
            ++topo.in_degree[s];
        }
    }
    topo.fetch_slots.reserve(fetches.size());
    for (const Val &v : fetches) {
        const int s = slot_of.find(v.node);
        topo.fetch_slots.push_back(s);
        if (s >= 0)
            ++topo.use_counts[static_cast<size_t>(s)];
    }
    return topo;
}

} // namespace echo::graph
