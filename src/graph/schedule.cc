#include "graph/schedule.h"

#include <algorithm>
#include <unordered_map>

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

} // namespace

std::vector<Node *>
buildSchedule(const std::vector<Val> &fetches)
{
    std::vector<Node *> nodes = reachableNodes(fetches);

    // Consumers of each node, needed to anchor recompute nodes.
    std::unordered_map<const Node *, std::vector<Node *>> consumers;
    for (Node *n : nodes)
        for (const Val &v : n->inputs)
            consumers[v.node].push_back(n);

    // anchor(n) for a recompute node = the id of the earliest
    // non-recompute node that (transitively) consumes it.  Recompute
    // chains have increasing ids, so a reverse-id sweep sees consumers
    // before producers.
    std::unordered_map<const Node *, int> anchor;
    for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) {
        Node *n = *it;
        if (n->phase != Phase::kRecompute)
            continue;
        int a = n->id; // fallback for dead recompute nodes
        bool first = true;
        for (Node *c : consumers[n]) {
            const int ca = c->phase == Phase::kRecompute
                               ? anchor.at(c)
                               : c->id;
            a = first ? ca : std::min(a, ca);
            first = false;
        }
        anchor[n] = a;
    }

    std::vector<std::pair<ScheduleKey, Node *>> keyed;
    keyed.reserve(nodes.size());
    for (Node *n : nodes) {
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
            k.anchor = anchor.at(n);
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
    std::unordered_map<const Node *, size_t> pos;
    for (size_t i = 0; i < order.size(); ++i)
        pos[order[i]] = i;
    for (Node *n : order)
        for (const Val &v : n->inputs)
            ECHO_CHECK(pos.at(v.node) < pos.at(n),
                       "schedule broke topological order at node #",
                       n->id, " (", n->name, ")");
    return order;
}

SlotTopology
buildTopology(const std::vector<Val> &fetches)
{
    SlotTopology topo;
    topo.schedule = buildSchedule(fetches);
    const size_t n = topo.schedule.size();
    std::unordered_map<const Node *, int> slot_of;
    slot_of.reserve(n);
    for (size_t s = 0; s < n; ++s)
        slot_of[topo.schedule[s]] = static_cast<int>(s);
    const auto slot = [&](const Node *node) {
        auto it = slot_of.find(node);
        return it == slot_of.end() ? -1 : it->second;
    };

    topo.input_slots.assign(n, {});
    topo.in_degree.assign(n, 0);
    topo.use_counts.assign(n, 0);
    for (size_t s = 0; s < n; ++s) {
        const Node *node = topo.schedule[s];
        topo.input_slots[s].reserve(node->inputs.size());
        for (const Val &v : node->inputs) {
            const int producer = slot(v.node);
            topo.input_slots[s].push_back(producer);
            if (producer >= 0)
                ++topo.use_counts[static_cast<size_t>(producer)];
            ++topo.in_degree[s];
        }
    }
    topo.fetch_slots.reserve(fetches.size());
    for (const Val &v : fetches) {
        const int s = slot(v.node);
        topo.fetch_slots.push_back(s);
        if (s >= 0)
            ++topo.use_counts[static_cast<size_t>(s)];
    }
    return topo;
}

} // namespace echo::graph
