#include "memory/planner.h"

#include <algorithm>
#include <map>

#include "core/logging.h"
#include "obs/counters.h"
#include "obs/trace.h"

namespace echo::memory {

namespace {

/** Best-fit free-list allocator over a growable address range. */
class Pool
{
  public:
    /** Allocate @p bytes; extends the high-water mark when no block
     *  fits. */
    int64_t
    allocate(int64_t bytes)
    {
        // Best fit: smallest free block that is large enough.
        auto best = free_.end();
        for (auto it = free_.begin(); it != free_.end(); ++it)
            if (it->second >= bytes &&
                (best == free_.end() || it->second < best->second))
                best = it;
        if (best != free_.end()) {
            const int64_t offset = best->first;
            const int64_t remaining = best->second - bytes;
            free_.erase(best);
            if (remaining > 0)
                free_[offset + bytes] = remaining;
            return offset;
        }
        const int64_t offset = top_;
        top_ += bytes;
        return offset;
    }

    /** Return a block, merging with adjacent free blocks. */
    void
    release(int64_t offset, int64_t bytes)
    {
        auto [it, inserted] = free_.emplace(offset, bytes);
        ECHO_CHECK(inserted, "double free at offset ", offset);
        // Merge with successor.
        auto next = std::next(it);
        if (next != free_.end() &&
            it->first + it->second == next->first) {
            it->second += next->second;
            free_.erase(next);
        }
        // Merge with predecessor.
        if (it != free_.begin()) {
            auto prev = std::prev(it);
            if (prev->first + prev->second == it->first) {
                prev->second += it->second;
                free_.erase(it);
            }
        }
    }

    int64_t top() const { return top_; }

  private:
    std::map<int64_t, int64_t> free_;
    int64_t top_ = 0;
};

int64_t
alignUp(int64_t v, int64_t a)
{
    return (v + a - 1) / a * a;
}

} // namespace

MemoryPlan
planMemory(const LivenessResult &live, const PlannerOptions &opts)
{
    MemoryPlan plan;
    obs::Span plan_span;
    if (obs::traceEnabled())
        plan_span.begin("mem", "planMemory",
                        {{"values",
                          static_cast<int64_t>(live.values.size())},
                         {"reuse", opts.reuse_transients ? 1 : 0}});

    static obs::Counter &c_allocs = obs::counter("mem.allocs");
    static obs::Counter &c_frees = obs::counter("mem.frees");
    static obs::Counter &c_bytes_alloc =
        obs::counter("mem.bytes_allocated");
    static obs::Counter &c_bytes_freed = obs::counter("mem.bytes_freed");

    const auto trace_event = [](int pos, bool is_alloc,
                                const Allocation &a,
                                const ValueInfo &info) {
        if (obs::traceEnabled()) {
            obs::emitEvent('i', "mem", is_alloc ? "alloc" : "free",
                           {{"pos", pos},
                            {"offset", a.offset},
                            {"bytes", a.bytes},
                            {"node", info.val.node->id}});
        }
    };

    // Group transient values by def / free position.
    const size_t steps = live.schedule.size();
    std::vector<std::vector<const ValueInfo *>> defs(steps);
    std::vector<std::vector<const ValueInfo *>> frees(steps);
    for (const ValueInfo &info : live.values) {
        if (info.persistent) {
            plan.persistent_bytes +=
                alignUp(info.bytes, opts.alignment);
            continue;
        }
        defs[static_cast<size_t>(info.def_pos)].push_back(&info);
        frees[static_cast<size_t>(info.last_use_pos)].push_back(&info);
    }

    Pool pool;
    int64_t no_reuse_top = 0;
    int64_t live_bytes = 0;
    int64_t max_live_bytes = -1;

    for (size_t p = 0; p < steps; ++p) {
        for (const ValueInfo *info : defs[p]) {
            const int64_t sz = alignUp(info->bytes, opts.alignment);
            Allocation a;
            a.bytes = sz;
            if (opts.reuse_transients) {
                a.offset = pool.allocate(sz);
            } else {
                a.offset = no_reuse_top;
                no_reuse_top += sz;
            }
            plan.offsets[info->val] = a;
            live_bytes += sz;
            c_allocs.add(1);
            c_bytes_alloc.add(sz);
            trace_event(static_cast<int>(p), true, a, *info);
        }
        if (live_bytes > max_live_bytes) {
            max_live_bytes = live_bytes;
            plan.peak_pos = static_cast<int>(p);
        }
        for (const ValueInfo *info : frees[p]) {
            const Allocation &a = plan.offsets.at(info->val);
            if (opts.reuse_transients)
                pool.release(a.offset, a.bytes);
            live_bytes -= a.bytes;
            c_frees.add(1);
            c_bytes_freed.add(a.bytes);
            trace_event(static_cast<int>(p), false, a, *info);
        }
    }

    plan.pool_peak_bytes =
        opts.reuse_transients ? pool.top() : no_reuse_top;
    return plan;
}

PlannedSchedule
planSchedule(const std::vector<Val> &fetches,
             const std::vector<Val> &weight_grads)
{
    PlannedSchedule s;
    s.liveness = analyzeLiveness(fetches, weight_grads);
    s.plan = planMemory(s.liveness);
    return s;
}

PlanReplay
replayPlan(const LivenessResult &live, const MemoryPlan &plan)
{
    const size_t steps = live.schedule.size();
    const auto in_schedule = [steps](int pos) {
        return pos >= 0 && static_cast<size_t>(pos) < steps;
    };
    std::vector<std::vector<const ValueInfo *>> defs(steps);
    std::vector<std::vector<const ValueInfo *>> frees(steps);
    for (const ValueInfo &info : live.values) {
        if (info.persistent || !in_schedule(info.def_pos) ||
            !in_schedule(info.last_use_pos))
            continue;
        defs[static_cast<size_t>(info.def_pos)].push_back(&info);
        frees[static_cast<size_t>(info.last_use_pos)].push_back(&info);
    }

    PlanReplay out;
    // Live allocations keyed by offset -> (end, holder): std::map gives
    // the neighbours in address order, so an overlap check is one
    // lower_bound plus a look at the predecessor.
    std::map<int64_t, std::pair<int64_t, const ValueInfo *>> active;
    int64_t live_bytes = 0;
    for (size_t p = 0; p < steps; ++p) {
        bool touched = false;
        for (const ValueInfo *info : defs[p]) {
            auto it = plan.offsets.find(info->val);
            if (it == plan.offsets.end()) {
                out.findings.push_back(
                    {PlanFinding::Kind::kMissing, info, nullptr, {}});
                continue;
            }
            const Allocation &a = it->second;
            touched = true;
            live_bytes += a.bytes;
            if (live_bytes > out.live_peak_bytes) {
                out.live_peak_bytes = live_bytes;
                out.peak_pos = static_cast<int>(p);
            }
            out.address_peak_bytes =
                std::max(out.address_peak_bytes, a.offset + a.bytes);
            if (a.bytes < info->bytes)
                out.findings.push_back(
                    {PlanFinding::Kind::kUndersized, info, nullptr, a});
            // An overlap with a live allocation is a write into a buffer
            // somebody else still reads; the overlapping one is not
            // tracked further.
            const int64_t end = a.offset + a.bytes;
            auto next = active.lower_bound(a.offset);
            const ValueInfo *holder = nullptr;
            if (next != active.begin() &&
                std::prev(next)->second.first > a.offset)
                holder = std::prev(next)->second.second;
            else if (next != active.end() && next->first < end)
                holder = next->second.second;
            if (holder != nullptr) {
                out.findings.push_back(
                    {PlanFinding::Kind::kOverlap, info, holder, a});
                continue;
            }
            active[a.offset] = {end, info};
        }
        const int64_t high_water = live_bytes;
        for (const ValueInfo *info : frees[p]) {
            auto it = plan.offsets.find(info->val);
            if (it == plan.offsets.end())
                continue;
            touched = true;
            live_bytes -= it->second.bytes;
            auto a = active.find(it->second.offset);
            if (a != active.end() && a->second.second == info)
                active.erase(a);
        }
        if (touched)
            out.curve.push_back({static_cast<int>(p), live_bytes, high_water});
    }
    return out;
}

} // namespace echo::memory
