#include "memory/profiler.h"

#include "core/logging.h"

namespace echo::memory {

MemoryProfile
profileMemory(const std::vector<Val> &fetches,
              const std::vector<Val> &weight_grads,
              const ProfilerOptions &opts)
{
    const LivenessResult live = analyzeLiveness(fetches, weight_grads);
    const MemoryPlan plan = planMemory(live, opts.planner);

    MemoryProfile prof;

    // Attribute at the pool-peak moment: persistent values always count;
    // transients count when live at peak_pos.
    for (const ValueInfo &info : live.values) {
        const bool counted =
            info.persistent || (info.def_pos <= plan.peak_pos &&
                                plan.peak_pos <= info.last_use_pos);
        if (!counted)
            continue;
        int64_t bytes = info.bytes;
        if (info.val.node->kind == graph::NodeKind::kWeight) {
            // Optimizer state (momentum / Adam moments) lives next to
            // the parameter and is counted under Weights (§3.2).
            bytes += static_cast<int64_t>(
                static_cast<double>(info.bytes) *
                opts.optimizer_state_per_weight_byte);
        }
        prof.by_data_structure[info.category] += bytes;
        prof.by_layer[info.layer_tag] += bytes;
        prof.planned_bytes += bytes;
    }

    prof.undisclosed_bytes =
        static_cast<int64_t>(static_cast<double>(plan.pool_peak_bytes) *
                             opts.fragmentation_fraction) +
        opts.cuda_context_bytes;
    prof.device_bytes = prof.planned_bytes + prof.undisclosed_bytes;
    return prof;
}

} // namespace echo::memory
