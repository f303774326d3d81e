/**
 * @file
 * The schedule measurement harness: wall-clock timing of one candidate
 * schedule on one GEMM geometry.
 *
 * Follows the bench-harness idiom: fixed-seed operands (so every
 * candidate multiplies the same data), warmup runs to fault in pack
 * buffers and warm the caches, then median-of-N timed runs — the
 * median is robust against one-off scheduling noise without needing
 * many repetitions.
 */
#ifndef ECHO_TUNE_MEASURE_H
#define ECHO_TUNE_MEASURE_H

#include "tensor/gemm_schedule.h"

namespace echo::tune {

/** Timing of one (geometry, schedule) measurement. */
struct Measurement
{
    /** Median of the timed runs, seconds. */
    double seconds = 0.0;
    int warmup_runs = 0;
    int timed_runs = 0;
};

/**
 * Time @p schedule on @p key's geometry under the current global
 * thread pool.  Ticks the tune.measure_runs counter once per timed
 * run.  @pre scheduleLegal(schedule, key.trans_b)
 */
Measurement measureSchedule(const ops::GemmKey &key,
                            const ops::GemmSchedule &schedule,
                            int warmup = 1, int reps = 3);

} // namespace echo::tune

#endif // ECHO_TUNE_MEASURE_H
