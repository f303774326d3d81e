/**
 * @file
 * Optimizers over a named ParamStore: SGD with momentum (the paper's
 * Sockeye/LM training setup) and Adam, both with global-norm gradient
 * clipping.  Optimizer state lives beside the parameters, which is why
 * the memory profiler counts it under Weights (§3.2).
 */
#ifndef ECHO_TRAIN_OPTIMIZER_H
#define ECHO_TRAIN_OPTIMIZER_H

#include <map>
#include <string>
#include <vector>

#include "models/params.h"

namespace echo::train {

using models::NamedWeights;
using models::ParamStore;

/** Optimizer interface: applies one step of named gradients. */
class Optimizer
{
  public:
    virtual ~Optimizer() = default;

    /**
     * Apply @p grads (aligned with @p weights' order) to @p params.
     * Each gradient, and any state kept from an earlier step, must have
     * its parameter's shape; a mismatch is fatal and names the
     * parameter.
     * @return the global gradient norm before clipping.
     */
    virtual double step(ParamStore &params, const NamedWeights &weights,
                        const std::vector<Tensor> &grads) = 0;
};

/** SGD with momentum and global-norm clipping. */
class SgdOptimizer : public Optimizer
{
  public:
    SgdOptimizer(double lr, double momentum = 0.9,
                 double clip_norm = 5.0);

    double step(ParamStore &params, const NamedWeights &weights,
                const std::vector<Tensor> &grads) override;

  private:
    double lr_;
    double momentum_;
    double clip_norm_;
    std::map<std::string, Tensor> velocity_;
};

/** Adam with global-norm clipping. */
class AdamOptimizer : public Optimizer
{
  public:
    AdamOptimizer(double lr, double beta1 = 0.9, double beta2 = 0.999,
                  double eps = 1e-8, double clip_norm = 5.0);

    double step(ParamStore &params, const NamedWeights &weights,
                const std::vector<Tensor> &grads) override;

  private:
    double lr_, beta1_, beta2_, eps_, clip_norm_;
    int64_t t_ = 0;
    std::map<std::string, Tensor> m_;
    std::map<std::string, Tensor> v_;
};

/**
 * Global L2 norm across a gradient list.  Squares are summed in one
 * fixed sequential `double` order (tensor by tensor, element by
 * element), never split across threads or reassociated: that order is
 * part of the byte-identity contract that makes a training step
 * identical at every thread count.
 */
double globalNorm(const std::vector<Tensor> &grads);

} // namespace echo::train

#endif // ECHO_TRAIN_OPTIMIZER_H
