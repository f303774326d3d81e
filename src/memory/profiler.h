/**
 * @file
 * Memory profiler: the analogue of the MXNet memory profiler + the
 * nvidia-smi query used by the paper.  Produces the total footprint and
 * the two breakdowns of Fig. 5 / Fig. 14 — by data structure and by
 * layer type — attributed at the pool-peak moment of one training
 * iteration.
 */
#ifndef ECHO_MEMORY_PROFILER_H
#define ECHO_MEMORY_PROFILER_H

#include <map>
#include <string>

#include "memory/planner.h"

namespace echo::memory {

/** Profiler configuration. */
struct ProfilerOptions
{
    PlannerOptions planner;
    /**
     * Bytes of optimizer state per weight byte (1.0 for SGD+momentum,
     * 2.0 for Adam); counted under Weights like the paper does.
     */
    double optimizer_state_per_weight_byte = 1.0;
    /**
     * Model of the profiler-vs-nvidia-smi gap of Fig. 5: allocator
     * fragmentation (fraction of the planned pool) plus a constant for
     * the CUDA context and libraries.
     */
    double fragmentation_fraction = 0.06;
    int64_t cuda_context_bytes = 600ll << 20;
};

/** One iteration's memory profile. */
struct MemoryProfile
{
    /** Bytes the planner assigned (the "profiler" number). */
    int64_t planned_bytes = 0;
    /** Modelled device usage (the "nvidia-smi" number). */
    int64_t device_bytes = 0;
    /** The gap between the two (striped bar in Fig. 5). */
    int64_t undisclosed_bytes = 0;
    /** Breakdown of planned_bytes by data structure at the peak. */
    std::map<DataStructure, int64_t> by_data_structure;
    /** Breakdown of planned_bytes by layer tag at the peak. */
    std::map<std::string, int64_t> by_layer;
};

/**
 * Profile the memory of one training iteration.
 *
 * @param fetches the iteration's outputs (loss + weight gradients).
 * @param weight_grads gradient values (classified under Weights).
 */
MemoryProfile profileMemory(const std::vector<Val> &fetches,
                            const std::vector<Val> &weight_grads,
                            const ProfilerOptions &opts = {});

} // namespace echo::memory

#endif // ECHO_MEMORY_PROFILER_H
