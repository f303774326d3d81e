/**
 * @file
 * Training loops and curve recording.
 *
 * Numerics run on the CPU executor at whatever scale the caller
 * configures; wall-clock time stamps come from the GPU model's
 * seconds-per-iteration of the *profiled* configuration, so the
 * training-curve benches can plot quality against modelled GPU time
 * exactly like the paper's TensorBoard-derived Fig. 12.
 */
#ifndef ECHO_TRAIN_TRAINER_H
#define ECHO_TRAIN_TRAINER_H

#include <functional>

#include "graph/executor.h"
#include "train/metrics.h"
#include "train/optimizer.h"

namespace echo::train {

/** One point of a training curve. */
struct CurvePoint
{
    int64_t step = 0;
    double wall_seconds = 0.0;
    double loss = 0.0;
    double perplexity = 0.0;
    /** Validation score at this point (BLEU for NMT; <0 = not run). */
    double validation = -1.0;
};

/** Configuration of a generic training run. */
struct TrainLoopConfig
{
    int64_t iterations = 100;
    /** Modelled seconds per iteration (time axis of the curves). */
    double seconds_per_iteration = 1.0;
    /** Run the validation hook every N iterations (0 = never). */
    int64_t validate_every = 0;
};

/**
 * Generic training loop.
 *
 * @param make_feed returns the feed for iteration i (weights included).
 * @param apply_grads consumes (loss, grads) and updates parameters.
 * @param validate optional; returns a validation score.
 */
std::vector<CurvePoint>
runTrainingLoop(const graph::Executor &executor,
                const TrainLoopConfig &config,
                const std::function<graph::FeedDict(int64_t)> &make_feed,
                const std::function<void(
                    double loss, const std::vector<Tensor> &grads)>
                    &apply_grads,
                const std::function<double()> &validate = {});

} // namespace echo::train

#endif // ECHO_TRAIN_TRAINER_H
