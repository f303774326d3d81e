#include "analysis/lifetime.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace echo::analysis {

namespace {

using graph::Node;
using graph::NodeKind;
using graph::Val;
using memory::LivenessResult;
using memory::MemoryPlan;
using memory::ValueInfo;

/** Schedule sanity: positions, duplicates, topological order. */
void
checkSchedule(const LivenessResult &live,
              std::unordered_map<const Node *, int> &pos,
              AnalysisReport &report)
{
    for (size_t p = 0; p < live.schedule.size(); ++p) {
        const Node *n = live.schedule[p];
        auto [it, inserted] = pos.emplace(n, static_cast<int>(p));
        if (!inserted) {
            report.add(Check::kDoubleFree, Severity::kError,
                       "node scheduled twice (slots " +
                           std::to_string(it->second) + " and " +
                           std::to_string(p) +
                           "); its buffers would be freed twice",
                       {NodeRef::of(n, static_cast<int>(p))});
        }
    }
    for (size_t p = 0; p < live.schedule.size(); ++p) {
        const Node *n = live.schedule[p];
        for (const Val &v : n->inputs) {
            auto it = pos.find(v.node);
            if (it == pos.end()) {
                report.add(Check::kUseBeforeDef, Severity::kError,
                           "consumer scheduled but its producer is "
                           "missing from the schedule",
                           {NodeRef::of(v.node),
                            NodeRef::of(n, static_cast<int>(p))});
            } else if (it->second >= static_cast<int>(p)) {
                report.add(Check::kUseBeforeDef, Severity::kError,
                           "consumer scheduled at slot " +
                               std::to_string(p) +
                               " before its producer at slot " +
                               std::to_string(it->second),
                           {NodeRef::of(v.node, it->second),
                            NodeRef::of(n, static_cast<int>(p))});
            }
        }
    }
}

/** Live intervals vs actual consumer positions. */
void
checkIntervals(const LivenessResult &live,
               const std::unordered_map<const Node *, int> &pos,
               AnalysisReport &report)
{
    for (const ValueInfo &info : live.values) {
        auto it = pos.find(info.val.node);
        if (it != pos.end() && info.def_pos != it->second) {
            report.add(Check::kUseBeforeDef, Severity::kError,
                       "recorded def position " +
                           std::to_string(info.def_pos) +
                           " disagrees with schedule slot " +
                           std::to_string(it->second),
                       {NodeRef::of(info.val.node, it->second)});
        }
        if (info.last_use_pos < info.def_pos) {
            report.add(Check::kUseAfterFree, Severity::kError,
                       "live interval ends at " +
                           std::to_string(info.last_use_pos) +
                           " before it begins at " +
                           std::to_string(info.def_pos),
                       {NodeRef::of(info.val.node, info.def_pos)});
        }
    }

    // Every consumer must read within the producer's live interval: the
    // buffer is released right after last_use_pos, so a later consumer
    // reads freed memory.
    for (size_t p = 0; p < live.schedule.size(); ++p) {
        const Node *n = live.schedule[p];
        for (const Val &v : n->inputs) {
            auto idx = live.index.find(v);
            if (idx == live.index.end()) {
                report.add(Check::kLeakedSlot, Severity::kError,
                           "consumed value has no liveness record "
                           "(untracked slot)",
                           {NodeRef::of(v.node),
                            NodeRef::of(n, static_cast<int>(p))});
                continue;
            }
            const ValueInfo &info = live.values[idx->second];
            if (info.persistent)
                continue;
            if (static_cast<int>(p) > info.last_use_pos) {
                report.add(
                    Check::kUseAfterFree, Severity::kError,
                    "consumer at slot " + std::to_string(p) +
                        " reads a buffer freed after slot " +
                        std::to_string(info.last_use_pos),
                    {NodeRef::of(v.node, info.def_pos),
                     NodeRef::of(live.schedule[static_cast<size_t>(
                                     info.last_use_pos)],
                                 info.last_use_pos),
                     NodeRef::of(n, static_cast<int>(p))});
            }
        }
    }
}

/** Persistence must be justified, or the slot leaks for the whole run. */
void
checkLeaks(const LivenessResult &live, const std::vector<Val> &fetches,
           const std::vector<Val> &weight_grads, AnalysisReport &report)
{
    std::unordered_set<Val, graph::ValHash> allowed(fetches.begin(),
                                                    fetches.end());
    allowed.insert(weight_grads.begin(), weight_grads.end());
    for (const ValueInfo &info : live.values) {
        if (!info.persistent)
            continue;
        const NodeKind kind = info.val.node->kind;
        if (kind == NodeKind::kPlaceholder || kind == NodeKind::kWeight)
            continue;
        if (allowed.count(info.val))
            continue;
        report.add(Check::kLeakedSlot, Severity::kError,
                   "transient marked persistent: " +
                       std::to_string(info.bytes) +
                       " bytes held for the whole run with no fetch, "
                       "weight, or gradient justifying it",
                   {NodeRef::of(info.val.node, info.def_pos)});
    }
}

/** The plan replay's findings as diagnostics. */
void
checkPlan(const LivenessResult &live, const MemoryPlan &plan,
          AnalysisReport &report)
{
    using Kind = memory::PlanFinding::Kind;
    const memory::PlanReplay replay = memory::replayPlan(live, plan);
    for (const memory::PlanFinding &f : replay.findings) {
        const NodeRef value =
            NodeRef::of(f.value->val.node, f.value->def_pos);
        switch (f.kind) {
          case Kind::kMissing:
            report.add(Check::kPlanMissing, Severity::kError,
                       "transient has no planned allocation", {value});
            break;
          case Kind::kUndersized:
            report.add(Check::kPlanOverlap, Severity::kError,
                       "allocation of " + std::to_string(f.alloc.bytes) +
                           " bytes is smaller than the value's " +
                           std::to_string(f.value->bytes) + " bytes",
                       {value});
            break;
          case Kind::kOverlap:
            report.add(
                Check::kPlanOverlap, Severity::kError,
                "planned bytes [" + std::to_string(f.alloc.offset) +
                    ", " + std::to_string(f.alloc.offset + f.alloc.bytes) +
                    ") overlap a live allocation",
                {NodeRef::of(f.holder->val.node, f.holder->def_pos),
                 value});
            break;
        }
    }
}

} // namespace

AnalysisReport
analyzeLifetimes(const LivenessResult &live, const std::vector<Val> &fetches,
                 const std::vector<Val> &weight_grads,
                 const MemoryPlan *plan)
{
    AnalysisReport report;
    std::unordered_map<const Node *, int> pos;
    pos.reserve(live.schedule.size());
    checkSchedule(live, pos, report);
    checkIntervals(live, pos, report);
    checkLeaks(live, fetches, weight_grads, report);
    if (plan != nullptr)
        checkPlan(live, *plan, report);
    return report;
}

AnalysisReport
checkPoolBudget(const LivenessResult &live, const MemoryPlan &plan,
                int64_t budget_bytes)
{
    AnalysisReport report;
    if (plan.pool_peak_bytes <= budget_bytes)
        return report;

    // The binding buffers: transients live at the plan's peak position,
    // largest first.  Their producers are what has to shrink (or be
    // recomputed) for the budget to become reachable.
    std::vector<const ValueInfo *> at_peak;
    for (const ValueInfo &vi : live.values) {
        if (vi.persistent)
            continue;
        if (vi.def_pos <= plan.peak_pos && vi.last_use_pos >= plan.peak_pos)
            at_peak.push_back(&vi);
    }
    std::sort(at_peak.begin(), at_peak.end(),
              [](const ValueInfo *a, const ValueInfo *b) {
                  if (a->bytes != b->bytes)
                      return a->bytes > b->bytes;
                  return a->val.node->id < b->val.node->id;
              });
    constexpr size_t kMaxChain = 8;
    if (at_peak.size() > kMaxChain)
        at_peak.resize(kMaxChain);

    std::vector<NodeRef> chain;
    chain.reserve(at_peak.size());
    int64_t chain_bytes = 0;
    for (const ValueInfo *vi : at_peak) {
        chain.push_back(NodeRef::of(vi->val.node, vi->def_pos));
        chain_bytes += vi->bytes;
    }
    const std::string message =
        "transient pool peak " + std::to_string(plan.pool_peak_bytes) +
        " bytes exceeds budget " + std::to_string(budget_bytes) +
        " bytes by " +
        std::to_string(plan.pool_peak_bytes - budget_bytes) + "; the " +
        std::to_string(chain.size()) +
        " largest buffers live at peak position " +
        std::to_string(plan.peak_pos) + " hold " +
        std::to_string(chain_bytes) + " bytes";
    report.add(Check::kBudgetExceeded, Severity::kError, message,
               std::move(chain));
    return report;
}

} // namespace echo::analysis
