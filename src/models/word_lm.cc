#include "models/word_lm.h"

#include "core/logging.h"
#include "graph/autodiff.h"
#include "graph/ops/oplib.h"
#include "rnn/lstm_cell.h"

namespace echo::models {

namespace ol = graph::oplib;
using graph::Graph;
using graph::TagScope;
using graph::Val;

WordLmModel::WordLmModel(const WordLmConfig &config,
                         const std::string &pipeline_spec)
    : graph_(std::make_unique<Graph>())
{
    Graph &g = *graph_;
    const int64_t b = config.batch, t = config.seq_len,
                  h = config.hidden, v = config.vocab;

    tokens_ = g.placeholder(Shape({b, t}), "tokens");
    labels_ = g.placeholder(Shape({b * t}), "labels");

    Val rnn_in;
    Val emb_table;
    {
        TagScope tag(g, "embedding");
        emb_table = g.weight(Shape({v, h}), "embedding.table");
        weights_.emplace_back("embedding.table", emb_table);
        const Val embedded =
            g.apply1(ol::embedding(), {emb_table, tokens_});
        // Time-major for the LSTM stack: [B x T x H] -> [T x B x H].
        rnn_in = g.apply1(ol::permute3d({1, 0, 2}), {embedded});
    }

    rnn::LstmStack stack;
    {
        TagScope tag(g, "rnn");
        rnn::LstmSpec spec;
        spec.input_size = h;
        spec.hidden = h;
        spec.layers = config.layers;
        spec.batch = b;
        spec.seq_len = t;
        stack = rnn::buildLstmStack(g, rnn_in, spec, config.backend,
                                    "lstm");
        for (size_t layer = 0; layer < stack.weights.size(); ++layer) {
            const std::string prefix =
                "lstm.l" + std::to_string(layer);
            weights_.emplace_back(prefix + ".wx",
                                  stack.weights[layer].wx);
            weights_.emplace_back(prefix + ".wh",
                                  stack.weights[layer].wh);
            weights_.emplace_back(prefix + ".bias",
                                  stack.weights[layer].bias);
        }
    }

    {
        TagScope tag(g, "output");
        const Val w_out = g.weight(Shape({v, h}), "output.weight");
        const Val b_out = g.weight(Shape({v}), "output.bias");
        weights_.emplace_back("output.weight", w_out);
        weights_.emplace_back("output.bias", b_out);

        // Batch-major flattening so rows align with the label layout.
        const Val hs_bth =
            g.apply1(ol::permute3d({1, 0, 2}), {stack.hs});
        const Val flat =
            g.apply1(ol::reshape(Shape({b * t, h})), {hs_bth});
        const Val logits = g.apply1(
            ol::addBias(),
            {g.apply1(ol::gemm(false, true), {flat, w_out}), b_out});
        loss_ = g.apply1(ol::crossEntropyLoss(), {logits, labels_},
                         "lm_loss");
    }

    // Everything past the forward build is the contract-checked
    // training pipeline (default "autodiff,fusion"): autodiff sets
    // ctx.fetches = {loss, grads...}, fusion journals into ctx.fusion,
    // and every pass's postconditions are machine-checked.
    pass::PipelineContext ctx(g);
    ctx.loss = loss_;
    ctx.wrt.reserve(weights_.size());
    for (const auto &[name, val] : weights_)
        ctx.wrt.push_back(val);
    pipeline_spec_ =
        pass::resolveSpec(pass::PipelineKind::kTraining, pipeline_spec);
    const pass::PassManager pm = pass::buildPipeline(pipeline_spec_);
    pass::PassManager::RunOptions opts;
    opts.die_on_error = true;
    opts.what = "WordLmModel pipeline";
    pipeline_report_ = pm.run(ctx, opts);
    weight_grads_ = ctx.weight_grads;
    fetches_ = ctx.effectiveFetches();
    fusion_ = ctx.fusion;
}

ParamStore
WordLmModel::initialParams(Rng &rng) const
{
    return initParams(weights_, rng);
}

graph::FeedDict
WordLmModel::makeFeed(const ParamStore &params,
                      const data::LmBatch &batch) const
{
    graph::FeedDict feed;
    feedParams(feed, weights_, params);
    feed[tokens_.node] = batch.tokens;
    feed[labels_.node] = batch.labels;
    return feed;
}

/** The one-step graph: token + per-layer (h, c) -> logits + states. */
struct WordLmStepper::Graphs
{
    std::unique_ptr<Graph> g = std::make_unique<Graph>();
    Val token;
    std::vector<Val> h_in, c_in;   // per layer
    std::vector<Val> h_out, c_out; // per layer
    Val logits;
    NamedWeights weights;
    std::unique_ptr<graph::Executor> exec;
};

WordLmStepper::WordLmStepper(const WordLmConfig &config, int64_t batch)
    : config_(config), batch_(batch),
      graphs_(std::make_unique<Graphs>())
{
    ECHO_REQUIRE(batch >= 1, "WordLmStepper needs batch >= 1");
    Graphs &d = *graphs_;
    Graph &g = *d.g;
    const int64_t b = batch_, h = config.hidden, v = config.vocab;

    d.token = g.placeholder(Shape({b}), "token");
    for (int64_t l = 0; l < config.layers; ++l) {
        d.h_in.push_back(g.placeholder(
            Shape({b, h}), "h_prev.l" + std::to_string(l)));
        d.c_in.push_back(g.placeholder(
            Shape({b, h}), "c_prev.l" + std::to_string(l)));
    }

    Val x;
    {
        TagScope tag(g, "embedding");
        const Val table = g.weight(Shape({v, h}), "embedding.table");
        d.weights.emplace_back("embedding.table", table);
        x = g.apply1(ol::embedding(), {table, d.token});
    }
    {
        TagScope tag(g, "rnn");
        for (int64_t l = 0; l < config.layers; ++l) {
            // Same weight names the training stack registers, so the
            // training checkpoint feeds the step graph unchanged.
            const std::string prefix = "lstm.l" + std::to_string(l);
            const rnn::LstmWeights w =
                rnn::makeLstmWeights(g, h, h, prefix);
            d.weights.emplace_back(prefix + ".wx", w.wx);
            d.weights.emplace_back(prefix + ".wh", w.wh);
            d.weights.emplace_back(prefix + ".bias", w.bias);
            const rnn::CellState prev{d.h_in[static_cast<size_t>(l)],
                                      d.c_in[static_cast<size_t>(l)]};
            const rnn::CellState next =
                rnn::buildLstmCell(g, x, prev, w);
            d.h_out.push_back(next.h);
            d.c_out.push_back(next.c);
            x = next.h;
        }
    }
    {
        TagScope tag(g, "output");
        const Val w_out = g.weight(Shape({v, h}), "output.weight");
        const Val b_out = g.weight(Shape({v}), "output.bias");
        d.weights.emplace_back("output.weight", w_out);
        d.weights.emplace_back("output.bias", b_out);
        d.logits = g.apply1(
            ol::addBias(),
            {g.apply1(ol::gemm(false, true), {x, w_out}), b_out});
    }

    std::vector<Val> fetches{d.logits};
    fetches.insert(fetches.end(), d.h_out.begin(), d.h_out.end());
    fetches.insert(fetches.end(), d.c_out.begin(), d.c_out.end());
    pass::PipelineContext ctx(g);
    ctx.fetches = fetches;
    pass::buildPipeline(pass::resolveSpec(pass::PipelineKind::kInference))
        .runOrDie(ctx, "WordLmStepper pipeline");
    d.exec = std::make_unique<graph::Executor>(std::move(fetches));
}

WordLmStepper::~WordLmStepper() = default;

WordLmStepper::State
WordLmStepper::initialState() const
{
    State s;
    for (int64_t l = 0; l < config_.layers; ++l) {
        s.h.push_back(
            Tensor::zeros(Shape({batch_, config_.hidden})));
        s.c.push_back(
            Tensor::zeros(Shape({batch_, config_.hidden})));
    }
    return s;
}

Tensor
WordLmStepper::step(const ParamStore &params, const Tensor &token,
                    State &state) const
{
    const Graphs &d = *graphs_;
    const auto layers = static_cast<size_t>(config_.layers);
    ECHO_REQUIRE(token.shape() == Shape({batch_}) &&
                     state.h.size() == layers &&
                     state.c.size() == layers,
                 "WordLmStepper::step got mismatched token/state");
    graph::FeedDict feed;
    feedParams(feed, d.weights, params);
    feed[d.token.node] = token;
    for (size_t l = 0; l < layers; ++l) {
        feed[d.h_in[l].node] = state.h[l];
        feed[d.c_in[l].node] = state.c[l];
    }
    std::vector<Tensor> out = d.exec->run(feed);
    for (size_t l = 0; l < layers; ++l) {
        state.h[l] = std::move(out[1 + l]);
        state.c[l] = std::move(out[1 + layers + l]);
    }
    return std::move(out[0]);
}

} // namespace echo::models
