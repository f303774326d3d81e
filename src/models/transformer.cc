#include "models/transformer.h"

#include <cmath>

#include "core/logging.h"
#include "graph/autodiff.h"
#include "graph/ops/oplib.h"

namespace echo::models {

namespace ol = graph::oplib;
using graph::Graph;
using graph::TagScope;
using graph::Val;

namespace {

/** [B*T x D] GEMM against a [O x D] weight, with bias. */
Val
linear(Graph &g, Val x, Val w, Val b)
{
    return g.apply1(ol::addBias(),
                    {g.apply1(ol::gemm(false, true), {x, w}), b});
}

} // namespace

TransformerModel::TransformerModel(const TransformerConfig &config)
    : graph_(std::make_unique<Graph>())
{
    Graph &g = *graph_;
    const int64_t b = config.batch, t = config.seq_len,
                  d = config.d_model, ff = config.d_ff;

    tokens_ = g.placeholder(Shape({b, t}), "tokens");
    labels_ = g.placeholder(Shape({b * t}), "labels");

    auto make_weight = [&](Shape shape, const std::string &name) {
        const Val w = g.weight(std::move(shape), name);
        weights_.emplace_back(name, w);
        return w;
    };

    Val x; // [B*T x D] activations
    {
        TagScope tag(g, "embedding");
        const Val table =
            make_weight(Shape({config.vocab, d}), "embedding.table");
        const Val embedded =
            g.apply1(ol::embedding(), {table, tokens_});
        x = g.apply1(ol::reshape(Shape({b * t, d})), {embedded});
    }

    for (int64_t layer = 0; layer < config.layers; ++layer) {
        const std::string p = "block" + std::to_string(layer);
        TagScope tag(g, "attention");

        // Single-head self-attention.
        const Val wq = make_weight(Shape({d, d}), p + ".wq");
        const Val wk = make_weight(Shape({d, d}), p + ".wk");
        const Val wv = make_weight(Shape({d, d}), p + ".wv");
        const Val wo = make_weight(Shape({d, d}), p + ".wo");
        const Val bq = make_weight(Shape({d}), p + ".bq");
        const Val bk = make_weight(Shape({d}), p + ".bk");
        const Val bv = make_weight(Shape({d}), p + ".bv");
        const Val bo = make_weight(Shape({d}), p + ".bo");

        const Val q3 = g.apply1(ol::reshape(Shape({b, t, d})),
                                {linear(g, x, wq, bq)});
        const Val k3 = g.apply1(ol::reshape(Shape({b, t, d})),
                                {linear(g, x, wk, bk)});
        const Val v3 = g.apply1(ol::reshape(Shape({b, t, d})),
                                {linear(g, x, wv, bv)});

        // scores = Q K^T / sqrt(d): a [B x T x T] interior produced by
        // a BMM — behind the GEMM boundary, unlike LSTM attention.
        const Val scores = g.apply1(
            ol::scale(1.0f /
                      std::sqrt(static_cast<float>(d))),
            {g.apply1(ol::bmm(false, true), {q3, k3})},
            p + ".scores");
        const Val alpha =
            g.apply1(ol::softmax(), {scores}, p + ".alpha");
        const Val ctx3 =
            g.apply1(ol::bmm(false, false), {alpha, v3});
        const Val ctx =
            g.apply1(ol::reshape(Shape({b * t, d})), {ctx3});
        const Val attn_out = linear(g, ctx, wo, bo);

        // Residual + layer norm (a cheap recomputable composite).
        const Val res1 = g.apply1(ol::add(), {x, attn_out});
        const Val ln1 =
            g.apply(ol::layerNorm(), {res1}, p + ".ln1")[0];

        // Feed-forward network.
        TagScope ffn_tag(g, "ffn");
        const Val w1 = make_weight(Shape({ff, d}), p + ".ffn.w1");
        const Val b1 = make_weight(Shape({ff}), p + ".ffn.b1");
        const Val w2 = make_weight(Shape({d, ff}), p + ".ffn.w2");
        const Val b2 = make_weight(Shape({d}), p + ".ffn.b2");
        const Val hidden =
            g.apply1(ol::reluOp(), {linear(g, ln1, w1, b1)});
        const Val ffn_out = linear(g, hidden, w2, b2);
        const Val res2 = g.apply1(ol::add(), {ln1, ffn_out});
        x = g.apply(ol::layerNorm(), {res2}, p + ".ln2")[0];
    }

    {
        TagScope tag(g, "output");
        const Val w_out =
            make_weight(Shape({config.vocab, d}), "output.weight");
        const Val b_out =
            make_weight(Shape({config.vocab}), "output.bias");
        const Val logits = linear(g, x, w_out, b_out);
        loss_ = g.apply1(ol::crossEntropyLoss(), {logits, labels_},
                         "transformer_loss");
    }

    std::vector<Val> wrt;
    for (const auto &[name, val] : weights_)
        wrt.push_back(val);
    const graph::GradientResult gr = graph::backward(g, loss_, wrt);
    weight_grads_ = gr.weight_grads;
    fetches_ = {loss_};
    fetches_.insert(fetches_.end(), weight_grads_.begin(),
                    weight_grads_.end());
}

ParamStore
TransformerModel::initialParams(Rng &rng) const
{
    return initParams(weights_, rng);
}

graph::FeedDict
TransformerModel::makeFeed(const ParamStore &params,
                           const Tensor &tokens,
                           const Tensor &labels) const
{
    graph::FeedDict feed;
    feedParams(feed, weights_, params);
    feed[tokens_.node] = tokens;
    feed[labels_.node] = labels;
    return feed;
}

} // namespace echo::models
