#include "analysis/hazards.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>

#include "graph/schedule.h"

namespace echo::analysis {

namespace {

using graph::Node;
using graph::Val;

/**
 * Comparability in the dependency partial order, computed lazily: the
 * bitset work is O(n^2/64) and only classifying an already-found
 * violation needs it, so clean graphs never pay for it.
 */
class PartialOrder
{
  public:
    explicit PartialOrder(const ParallelTopology &topo) : topo_(topo) {}

    /** True when one of the slots transitively depends on the other. */
    bool
    comparable(int a, int b)
    {
        if (ancestors_.empty())
            build();
        const size_t words = (topo_.schedule.size() + 63) / 64;
        const auto bit = [&](int anc, int of) {
            return (ancestors_[static_cast<size_t>(of) * words +
                               static_cast<size_t>(anc) / 64] >>
                    (static_cast<size_t>(anc) % 64)) &
                   1u;
        };
        return bit(a, b) != 0 || bit(b, a) != 0;
    }

  private:
    void
    build()
    {
        const size_t n = topo_.schedule.size();
        const size_t words = (n + 63) / 64;
        ancestors_.assign(n * words, 0);
        // Slots are in schedule order and edges point backward in it,
        // so one forward sweep closes the ancestor sets transitively.
        for (size_t s = 0; s < n; ++s) {
            uint64_t *row = &ancestors_[s * words];
            for (int producer : topo_.input_slots[s]) {
                if (producer < 0 || static_cast<size_t>(producer) >= n ||
                    static_cast<size_t>(producer) >= s)
                    continue; // broken edges reported elsewhere
                row[static_cast<size_t>(producer) / 64] |=
                    uint64_t{1} << (static_cast<size_t>(producer) % 64);
                const uint64_t *prow =
                    &ancestors_[static_cast<size_t>(producer) * words];
                for (size_t w = 0; w < words; ++w)
                    row[w] |= prow[w];
            }
        }
    }

    const ParallelTopology &topo_;
    std::vector<uint64_t> ancestors_;
};

} // namespace

ParallelTopology
buildTopology(const std::vector<Val> &fetches)
{
    ParallelTopology topo;
    topo.schedule = graph::buildSchedule(fetches);
    const size_t n = topo.schedule.size();
    std::unordered_map<const Node *, int> slot_of;
    slot_of.reserve(n);
    for (size_t s = 0; s < n; ++s)
        slot_of[topo.schedule[s]] = static_cast<int>(s);

    topo.input_slots.assign(n, {});
    topo.in_degree.assign(n, 0);
    topo.use_counts.assign(n, 0);
    for (size_t s = 0; s < n; ++s) {
        const Node *node = topo.schedule[s];
        for (const Val &v : node->inputs) {
            auto it = slot_of.find(v.node);
            const int producer = it == slot_of.end() ? -1 : it->second;
            topo.input_slots[s].push_back(producer);
            if (producer >= 0)
                ++topo.use_counts[static_cast<size_t>(producer)];
            ++topo.in_degree[s];
        }
    }
    for (const Val &v : fetches) {
        auto it = slot_of.find(v.node);
        topo.fetch_slots.push_back(it == slot_of.end() ? -1 : it->second);
        if (it != slot_of.end())
            ++topo.use_counts[static_cast<size_t>(it->second)];
    }
    return topo;
}

AnalysisReport
detectParallelHazards(const ParallelTopology &topo)
{
    AnalysisReport report;
    const size_t n = topo.schedule.size();
    if (topo.input_slots.size() != n || topo.in_degree.size() != n ||
        topo.use_counts.size() != n) {
        report.add(Check::kSharedOutputSlot, Severity::kError,
                   "topology arrays disagree with the schedule length");
        return report;
    }

    PartialOrder order(topo);

    // One slot per node: a node appearing twice means two dispatches
    // write the same output buffers.
    std::unordered_map<const Node *, int> first_slot;
    for (size_t s = 0; s < n; ++s) {
        const Node *node = topo.schedule[s];
        auto [it, inserted] = first_slot.emplace(node, static_cast<int>(s));
        if (!inserted) {
            const bool racy =
                !order.comparable(it->second, static_cast<int>(s));
            report.add(Check::kSharedOutputSlot, Severity::kError,
                       std::string("node occupies slots ") +
                           std::to_string(it->second) + " and " +
                           std::to_string(s) +
                           (racy ? "; the dispatches are incomparable "
                                   "and can write the slot concurrently"
                                 : "; the slot is written twice"),
                       {NodeRef::of(node, it->second),
                        NodeRef::of(node, static_cast<int>(s))});
        }
    }

    // Edge integrity + per-slot consumer counting.
    std::vector<int> consumer_edges(n, 0);
    for (size_t s = 0; s < n; ++s) {
        const Node *node = topo.schedule[s];
        if (topo.input_slots[s].size() != node->inputs.size()) {
            report.add(Check::kReadyRace, Severity::kError,
                       "slot lists " +
                           std::to_string(topo.input_slots[s].size()) +
                           " input edges but the node has " +
                           std::to_string(node->inputs.size()),
                       {NodeRef::of(node, static_cast<int>(s))});
            continue;
        }
        for (size_t i = 0; i < node->inputs.size(); ++i) {
            const int producer = topo.input_slots[s][i];
            const Val &v = node->inputs[i];
            if (producer < 0 || static_cast<size_t>(producer) >= n ||
                topo.schedule[static_cast<size_t>(producer)] != v.node) {
                report.add(Check::kReadyRace, Severity::kError,
                           "input edge " + std::to_string(i) +
                               " resolves to the wrong producer slot; "
                               "the real producer is not awaited",
                           {NodeRef::of(v.node),
                            NodeRef::of(node, static_cast<int>(s))});
                continue;
            }
            ++consumer_edges[static_cast<size_t>(producer)];
        }
        // A node whose in-degree undercounts its edges can enter the
        // ready queue while a producer is still running: a read/write
        // race on the producer's slot.
        if (topo.in_degree[s] !=
            static_cast<int>(topo.input_slots[s].size())) {
            report.add(Check::kReadyRace, Severity::kError,
                       "in-degree " + std::to_string(topo.in_degree[s]) +
                           " disagrees with the node's " +
                           std::to_string(topo.input_slots[s].size()) +
                           " input edges; the node can be dispatched "
                           "before its producers complete",
                       {NodeRef::of(node, static_cast<int>(s))});
        }
    }

    // Fetch references pin values to the end of the run.
    std::vector<int> fetch_refs(n, 0);
    for (int slot : topo.fetch_slots) {
        if (slot < 0 || static_cast<size_t>(slot) >= n) {
            report.add(Check::kReadyRace, Severity::kError,
                       "fetch does not resolve to a schedule slot");
            continue;
        }
        ++fetch_refs[static_cast<size_t>(slot)];
    }

    // Use-count audit: the free/use pair check.  A count below the true
    // consumer count frees the buffer while some consumer — one that
    // can run concurrently with the freeing one — has not yet read it.
    for (size_t s = 0; s < n; ++s) {
        const int expect = consumer_edges[s] + fetch_refs[s];
        if (topo.use_counts[s] < expect) {
            std::vector<NodeRef> chain{
                NodeRef::of(topo.schedule[s], static_cast<int>(s))};
            // Name the consumers racing over the free.
            for (size_t c = 0; c < n && chain.size() < 4; ++c)
                for (int producer : topo.input_slots[c])
                    if (producer == static_cast<int>(s)) {
                        chain.push_back(NodeRef::of(
                            topo.schedule[c], static_cast<int>(c)));
                        break;
                    }
            report.add(Check::kPrematureFree, Severity::kError,
                       "use count " +
                           std::to_string(topo.use_counts[s]) +
                           " is below the " + std::to_string(expect) +
                           " consumer/fetch references; the buffer is "
                           "freed while a consumer can still read it",
                       std::move(chain));
        } else if (topo.use_counts[s] > expect) {
            report.add(Check::kLeakedSlot, Severity::kWarning,
                       "use count " +
                           std::to_string(topo.use_counts[s]) +
                           " exceeds the " + std::to_string(expect) +
                           " consumer/fetch references; the buffer is "
                           "never freed",
                       {NodeRef::of(topo.schedule[s],
                                    static_cast<int>(s))});
        }
    }
    return report;
}

AnalysisReport auditSlotRecycling(const std::vector<SlotLease> &journal,
                                  int num_slots)
{
    AnalysisReport report;
    // Group leases by (pool, slot); overlap within one group means two
    // requests shared a workspace row while both were live.  The pair
    // key takes any pool value a journal file can hold.
    std::map<std::pair<int64_t, int>, std::vector<const SlotLease *>>
        by_slot;
    for (const SlotLease &lease : journal) {
        if (lease.slot < 0 || lease.slot >= num_slots) {
            report.add(Check::kSlotOutOfRange, Severity::kError,
                       "request " + std::to_string(lease.request_id) +
                           " mapped to slot " +
                           std::to_string(lease.slot) + " outside [0, " +
                           std::to_string(num_slots) + ")");
            continue;
        }
        by_slot[{lease.pool, lease.slot}].push_back(&lease);
    }
    for (auto &[key, leases] : by_slot) {
        std::sort(leases.begin(), leases.end(),
                  [](const SlotLease *a, const SlotLease *b) {
                      return a->acquired != b->acquired
                                 ? a->acquired < b->acquired
                                 : a->request_id < b->request_id;
                  });
        for (size_t i = 1; i < leases.size(); ++i) {
            const SlotLease &prev = *leases[i - 1];
            const SlotLease &cur = *leases[i];
            if (cur.acquired < prev.released) {
                report.add(
                    Check::kSlotAliasing, Severity::kError,
                    "requests " + std::to_string(prev.request_id) +
                        " and " + std::to_string(cur.request_id) +
                        " both live on pool " +
                        std::to_string(cur.pool) + " slot " +
                        std::to_string(cur.slot) + " over passes [" +
                        std::to_string(cur.acquired) + ", " +
                        std::to_string(
                            std::min(prev.released, cur.released)) +
                        ")");
            }
        }
    }

    std::unordered_map<int64_t, int> leases_per_request;
    for (const SlotLease &lease : journal) {
        if (lease.reinit != 1) {
            report.add(Check::kSlotStateLeak, Severity::kError,
                       "request " + std::to_string(lease.request_id) +
                           " spliced into pool " +
                           std::to_string(lease.pool) + " slot " +
                           std::to_string(lease.slot) +
                           " without re-initializing the state rows");
        }
        if (lease.acquired >= lease.released) {
            report.add(Check::kLifecycleViolation, Severity::kError,
                       "request " + std::to_string(lease.request_id) +
                           " has an empty or inverted lease [" +
                           std::to_string(lease.acquired) + ", " +
                           std::to_string(lease.released) + ")");
        }
        ++leases_per_request[lease.request_id];
    }
    for (const auto &[id, count] : leases_per_request) {
        if (count > 1) {
            report.add(Check::kLifecycleViolation, Severity::kError,
                       "request " + std::to_string(id) +
                           " terminated " + std::to_string(count) +
                           " times (must be exactly once)");
        }
    }
    return report;
}

} // namespace echo::analysis
