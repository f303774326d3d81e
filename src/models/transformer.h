/**
 * @file
 * A Transformer encoder block — the "beyond LSTM" generality probe for
 * the Echo pass (the ISCA paper positions the pass as model-agnostic:
 * it operates on the training graph, not on LSTM structure).
 *
 * The block exposes an instructive contrast with LSTM attention: a
 * Transformer's large interiors (the [B x T x T] score/weight tensors
 * and the FFN activations) sit **directly behind GEMM/BMM producers**,
 * so under Echo's never-recompute-GEMMs rule only the cheap composites
 * (layer norms, residual sums, softmax chains whose frontier is
 * shared) are recomputable — the pass wins much less than on the
 * O-shaped MLP attention of LSTM NMT, and recovering the rest requires
 * the Chen-et-al mode (respect_gemm_boundary = false) at a large
 * replay cost.  bench/echo_transformer_generality quantifies this.
 */
#ifndef ECHO_MODELS_TRANSFORMER_H
#define ECHO_MODELS_TRANSFORMER_H

#include "models/params.h"

namespace echo::models {

/** Transformer-block LM hyperparameters (single-head attention). */
struct TransformerConfig
{
    int64_t vocab = 1000;
    int64_t d_model = 64;
    int64_t d_ff = 256;
    int64_t layers = 2;
    int64_t batch = 8;
    int64_t seq_len = 16;
};

/** A Transformer-block language model (training graph). */
class TransformerModel
{
  public:
    explicit TransformerModel(const TransformerConfig &config);

    graph::Graph &graph() { return *graph_; }
    const std::vector<graph::Val> &fetches() const { return fetches_; }
    const std::vector<graph::Val> &weightGrads() const
    {
        return weight_grads_;
    }
    const NamedWeights &weights() const { return weights_; }

    ParamStore initialParams(Rng &rng) const;

    graph::FeedDict makeFeed(const ParamStore &params,
                             const Tensor &tokens,
                             const Tensor &labels) const;

  private:
    std::unique_ptr<graph::Graph> graph_;
    graph::Val tokens_, labels_, loss_;
    NamedWeights weights_;
    std::vector<graph::Val> weight_grads_;
    std::vector<graph::Val> fetches_;
};

} // namespace echo::models

#endif // ECHO_MODELS_TRANSFORMER_H
