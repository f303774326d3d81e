/**
 * @file
 * A ResNet-style CNN proxy for the paper's Fig. 4(a) motivation
 * experiment (ResNet-50 throughput saturating with batch size).
 *
 * The proxy is a strided residual-free conv stack with ResNet-50-like
 * stage geometry (it matches ResNet-50's FLOP and feature-map scale to
 * first order, which is all the cost model consumes).  Convolutions are
 * costed as implicit GEMMs with large M = N·Ho·Wo, so they run near
 * peak FLOPS and the model is compute-bound — the opposite regime from
 * LSTM RNNs, which is exactly the contrast Fig. 4 draws.
 */
#ifndef ECHO_MODELS_CNN_PROXY_H
#define ECHO_MODELS_CNN_PROXY_H

#include "models/params.h"

namespace echo::models {

/** CNN proxy hyperparameters. */
struct CnnConfig
{
    int64_t batch = 32;
    int64_t image = 224;
    int64_t base_channels = 64;
    int64_t classes = 1000;
    /** Conv layers per stage (channels double, size halves). */
    int64_t blocks_per_stage = 3;
    int64_t stages = 4;
};

/** The built CNN training graph. */
class CnnModel
{
  public:
    explicit CnnModel(const CnnConfig &config);

    const std::vector<graph::Val> &fetches() const { return fetches_; }
    const std::vector<graph::Val> &weightGrads() const
    {
        return weight_grads_;
    }
    const graph::Val &loss() const { return loss_; }

    ParamStore initialParams(Rng &rng) const;

    /** Feed for one batch of images and labels. */
    graph::FeedDict makeFeed(const ParamStore &params,
                             const Tensor &images,
                             const Tensor &labels) const;

  private:
    std::unique_ptr<graph::Graph> graph_;
    graph::Val images_, labels_, loss_;
    NamedWeights weights_;
    std::vector<graph::Val> weight_grads_;
    std::vector<graph::Val> fetches_;
};

} // namespace echo::models

#endif // ECHO_MODELS_CNN_PROXY_H
