/**
 * @file
 * The NMT model (paper §2.2, Fig. 3): bi-directional LSTM encoder,
 * LSTM decoder with input feeding, and the Luong/Bahdanau-style
 * attention layer whose scoring function is the O-shape memory
 * bottleneck.
 *
 * Three graphs share one set of named parameters:
 *  - the training graph (teacher-forced, loss + weight gradients),
 *  - an encoder graph (source -> encoder states + attention keys),
 *  - a step-decoder graph (one decoding step),
 * the latter two packaged as NmtDecoder, which powers free-running
 * greedy decoding for BLEU evaluation (Fig. 12b) and the serving
 * layer's batched greedy / beam-search decoding (src/serve).
 */
#ifndef ECHO_MODELS_NMT_H
#define ECHO_MODELS_NMT_H

#include <memory>

#include "data/batcher.h"
#include "graph/fusion.h"
#include "models/attention.h"
#include "models/params.h"
#include "pass/builtin_passes.h"
#include "rnn/stack.h"

namespace echo::models {

/** NMT hyperparameters. */
struct NmtConfig
{
    int64_t src_vocab = 17191; ///< IWSLT15 English side
    int64_t tgt_vocab = 7709;  ///< IWSLT15 Vietnamese side
    int64_t hidden = 512;
    int64_t enc_layers = 1;
    int64_t batch = 64;
    int64_t src_len = 50;
    int64_t tgt_len = 50;
    rnn::RnnBackend encoder_backend = rnn::RnnBackend::kDefault;
    /** Bi-directional first encoder layer (uses SequenceReverse). */
    bool bidirectional = true;
    /** Use the paper's batch-parallel SequenceReverse (par_rev). */
    bool parallel_reverse = true;
    /** Normalized (Sockeye-style) attention scoring; false gives the
     *  TensorFlow-NMT-style plain Bahdanau composite (§6.2.2). */
    bool normalized_attention = true;
};

/**
 * Encoder + one-step-decoder graphs over the NMT weights, built once
 * at an arbitrary (batch, src_len) and run repeatedly.
 *
 * This is the state-cached step-decoding engine: encode() runs the
 * encoder once per source batch; step() advances every batch row by
 * one target token, consuming and producing explicit decoder state.
 * All ops are row-wise along the batch axis, so a row's outputs are a
 * pure function of that row's inputs — the serving layer's
 * batch-composition determinism contract rests on this.
 *
 * The (batch, src_len) of the graphs is independent of the training
 * configuration's: the serving layer builds one decoder per length
 * bucket with its own slot count.
 */
class NmtDecoder
{
  public:
    /** @p with_encoder false builds only the step graph, for a
     *  decoder that steps over encodings another decoder made (beam
     *  search over a tiled greedy encoding); encode() then dies. */
    NmtDecoder(const NmtConfig &config, int64_t batch, int64_t src_len,
               bool with_encoder = true);
    ~NmtDecoder();

    NmtDecoder(const NmtDecoder &) = delete;
    NmtDecoder &operator=(const NmtDecoder &) = delete;

    int64_t batch() const { return batch_; }
    const NmtConfig &config() const { return config_; }

    /** Encoder outputs for one source batch. */
    struct Encoded
    {
        Tensor hs;   ///< [B x Ts x H]
        Tensor keys; ///< [B x Ts x H]
    };

    /** Run the encoder over @p src ([B x Ts], kPad padded). */
    Encoded encode(const ParamStore &params, const Tensor &src) const;

    /** Decoder state carried across steps (one row per batch slot). */
    struct State
    {
        Tensor token; ///< [B] previous target token
        Tensor h;     ///< [B x H]
        Tensor c;     ///< [B x H]
        Tensor attn;  ///< [B x H] previous attention hidden
    };

    /** Fresh state: BOS tokens, zero h/c/attn. */
    State initialState() const;

    /**
     * One decode step: consumes @p state (including state.token, the
     * previously emitted token per row) and replaces it with the new
     * state.  Returns the target-vocab logits [B x V].
     */
    Tensor step(const ParamStore &params, State &state,
                const Encoded &enc) const;

  private:
    struct Graphs;
    NmtConfig config_;
    int64_t batch_;
    int64_t src_len_;
    std::unique_ptr<Graphs> graphs_;
};

/** The NMT training graph plus its decoding graphs. */
class NmtModel
{
  public:
    explicit NmtModel(const NmtConfig &config,
                      const std::string &pipeline_spec = "");
    ~NmtModel();

    const NmtConfig &config() const { return config_; }
    graph::Graph &graph() { return *graph_; }

    const std::vector<graph::Val> &fetches() const { return fetches_; }
    const std::vector<graph::Val> &weightGrads() const
    {
        return weight_grads_;
    }
    const graph::Val &loss() const { return loss_; }
    const NamedWeights &weights() const { return weights_; }

    /** What the element-wise fusion pass did to this graph (empty when
     *  the pipeline has no fusion pass); echo-lint feeds this to
     *  analysis::auditFusion. */
    const fusion::FusionResult &fusionResult() const
    {
        return fusion_;
    }

    ParamStore initialParams(Rng &rng) const;

    graph::FeedDict makeFeed(const ParamStore &params,
                             const data::NmtBatch &batch) const;

    /**
     * Greedy decoding of a source batch ([B x Ts] token tensor) up to
     * @p max_len target tokens; sequences stop at EOS.
     */
    std::vector<std::vector<int64_t>>
    greedyDecode(const ParamStore &params, const Tensor &src,
                 int64_t max_len) const;

  private:
    NmtConfig config_;
    std::unique_ptr<graph::Graph> graph_;
    graph::Val src_, tgt_in_, tgt_labels_, loss_;
    NamedWeights weights_;
    std::vector<graph::Val> weight_grads_;
    std::vector<graph::Val> fetches_;
    fusion::FusionResult fusion_;
    mutable std::unique_ptr<NmtDecoder> decode_; // built lazily
};

} // namespace echo::models

#endif // ECHO_MODELS_NMT_H
