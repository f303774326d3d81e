#include "models/nmt.h"

#include "core/logging.h"
#include "graph/autodiff.h"
#include "graph/ops/oplib.h"
#include "rnn/sequence_reverse.h"

namespace echo::models {

namespace ol = graph::oplib;
using graph::Graph;
using graph::TagScope;
using graph::Val;

namespace {

/** Encoder outputs. */
struct EncoderOut
{
    Val hs;   ///< [B x Ts x H]
    Val keys; ///< [B x Ts x H]
};

/**
 * Build the source embedding + (optionally bi-directional) encoder +
 * attention-key projection.  @p attn provides wk for the projection.
 */
EncoderOut
buildEncoder(Graph &g, Val src_tokens, const NmtConfig &cfg,
             NamedWeights &registry, const AttentionWeights &attn)
{
    const int64_t b = cfg.batch, ts = cfg.src_len, h = cfg.hidden;

    Val enc_in;
    {
        TagScope tag(g, "embedding");
        const Val table =
            g.weight(Shape({cfg.src_vocab, h}), "src_embedding.table");
        registry.emplace_back("src_embedding.table", table);
        const Val embedded =
            g.apply1(ol::embedding(), {table, src_tokens});
        enc_in = g.apply1(ol::permute3d({1, 0, 2}), {embedded});
    }

    Val hs_tbh;
    {
        TagScope tag(g, "rnn");
        if (cfg.bidirectional) {
            ECHO_REQUIRE(h % 2 == 0,
                         "bidirectional encoder needs even hidden");
            rnn::LstmSpec spec;
            spec.input_size = h;
            spec.hidden = h / 2;
            spec.layers = cfg.enc_layers;
            spec.batch = b;
            spec.seq_len = ts;
            const rnn::LstmStack fwd = rnn::buildLstmStack(
                g, enc_in, spec, cfg.encoder_backend, "enc.fwd");
            const Val reversed_in = rnn::sequenceReverse(
                g, enc_in, cfg.parallel_reverse);
            const rnn::LstmStack bwd = rnn::buildLstmStack(
                g, reversed_in, spec, cfg.encoder_backend, "enc.bwd");
            const Val bwd_hs = rnn::sequenceReverse(
                g, bwd.hs, cfg.parallel_reverse);
            hs_tbh = g.apply1(ol::concat(2), {fwd.hs, bwd_hs});
            for (const rnn::LstmStack *stack : {&fwd, &bwd}) {
                const char *dir = stack == &fwd ? "fwd" : "bwd";
                for (size_t l = 0; l < stack->weights.size(); ++l) {
                    const std::string p = std::string("enc.") + dir +
                                          ".l" + std::to_string(l);
                    registry.emplace_back(p + ".wx",
                                          stack->weights[l].wx);
                    registry.emplace_back(p + ".wh",
                                          stack->weights[l].wh);
                    registry.emplace_back(p + ".bias",
                                          stack->weights[l].bias);
                }
            }
        } else {
            rnn::LstmSpec spec;
            spec.input_size = h;
            spec.hidden = h;
            spec.layers = cfg.enc_layers;
            spec.batch = b;
            spec.seq_len = ts;
            const rnn::LstmStack stack = rnn::buildLstmStack(
                g, enc_in, spec, cfg.encoder_backend, "enc");
            hs_tbh = stack.hs;
            for (size_t l = 0; l < stack.weights.size(); ++l) {
                const std::string p = "enc.l" + std::to_string(l);
                registry.emplace_back(p + ".wx", stack.weights[l].wx);
                registry.emplace_back(p + ".wh", stack.weights[l].wh);
                registry.emplace_back(p + ".bias",
                                      stack.weights[l].bias);
            }
        }
    }

    EncoderOut out;
    {
        TagScope tag(g, "rnn");
        out.hs = g.apply1(ol::permute3d({1, 0, 2}), {hs_tbh},
                          "encoder_states");
    }
    out.keys = projectKeys(g, out.hs, attn);
    return out;
}

/** Decoder-side weights (cell + output head + target embedding). */
struct DecoderWeights
{
    Val tgt_table;
    rnn::LstmWeights cell;
    Val out_w;
    Val out_b;
};

DecoderWeights
makeDecoderWeights(Graph &g, const NmtConfig &cfg,
                   NamedWeights &registry)
{
    const int64_t h = cfg.hidden;
    DecoderWeights w;
    {
        TagScope tag(g, "embedding");
        w.tgt_table =
            g.weight(Shape({cfg.tgt_vocab, h}), "tgt_embedding.table");
        registry.emplace_back("tgt_embedding.table", w.tgt_table);
    }
    {
        TagScope tag(g, "decoder");
        // Input feeding: the cell consumes [embedding; attention].
        w.cell = rnn::makeLstmWeights(g, 2 * h, h, "dec");
        registry.emplace_back("dec.wx", w.cell.wx);
        registry.emplace_back("dec.wh", w.cell.wh);
        registry.emplace_back("dec.bias", w.cell.bias);
    }
    {
        TagScope tag(g, "output");
        w.out_w = g.weight(Shape({cfg.tgt_vocab, h}), "output.weight");
        w.out_b = g.weight(Shape({cfg.tgt_vocab}), "output.bias");
        registry.emplace_back("output.weight", w.out_w);
        registry.emplace_back("output.bias", w.out_b);
    }
    return w;
}

/** One decoder step (cell + attention); returns new state. */
struct StepOut
{
    rnn::CellState state;
    Val attn_hidden;
};

StepOut
decoderStep(Graph &g, const NmtConfig &cfg, const DecoderWeights &dw,
            const AttentionWeights &aw, Val emb_t,
            const rnn::CellState &prev, Val attn_prev, Val keys,
            Val values)
{
    StepOut out;
    {
        TagScope tag(g, "decoder");
        const Val x_t = g.apply1(ol::concat(1), {emb_t, attn_prev});
        out.state = rnn::buildLstmCell(g, x_t, prev, dw.cell);
    }
    out.attn_hidden = attentionStep(g, out.state.h, keys, values, aw,
                                    cfg.normalized_attention);
    return out;
}

} // namespace

/** Encoder + step graphs for step decoding. */
struct NmtDecoder::Graphs
{
    // Encoder graph.
    std::unique_ptr<Graph> enc_g = std::make_unique<Graph>();
    Val enc_src, enc_hs, enc_keys;
    NamedWeights enc_weights;
    std::unique_ptr<graph::Executor> enc_exec;

    // One-step decoder graph.
    std::unique_ptr<Graph> step_g = std::make_unique<Graph>();
    Val st_token, st_h, st_c, st_attn, st_hs, st_keys;
    Val st_logits, st_h_out, st_c_out, st_attn_out;
    NamedWeights step_weights;
    std::unique_ptr<graph::Executor> step_exec;
};

NmtDecoder::NmtDecoder(const NmtConfig &config, int64_t batch,
                       int64_t src_len, bool with_encoder)
    : config_(config), batch_(batch), src_len_(src_len),
      graphs_(std::make_unique<Graphs>())
{
    const std::string spec =
        pass::resolveSpec(pass::PipelineKind::kInference);
    ECHO_REQUIRE(batch >= 1 && src_len >= 1,
                 "NmtDecoder needs batch >= 1 and src_len >= 1");
    // The decode graphs are built at this decoder's own batch and
    // source length; only the weight shapes come from the config.
    NmtConfig cfg = config_;
    cfg.batch = batch_;
    cfg.src_len = src_len_;
    Graphs &d = *graphs_;
    const int64_t b = batch_, h = cfg.hidden;

    // Encoder graph.
    if (with_encoder) {
        Graph &g = *d.enc_g;
        d.enc_src = g.placeholder(Shape({b, src_len_}), "src_tokens");
        const AttentionWeights attn =
            makeAttentionWeights(g, h, d.enc_weights, "attn");
        const EncoderOut enc =
            buildEncoder(g, d.enc_src, cfg, d.enc_weights, attn);
        d.enc_hs = enc.hs;
        d.enc_keys = enc.keys;
        pass::PipelineContext ctx(g);
        ctx.fetches = {enc.hs, enc.keys};
        pass::buildPipeline(spec).runOrDie(ctx,
                                           "NmtDecoder encoder pipeline");
        d.enc_exec = std::make_unique<graph::Executor>(
            std::vector<Val>{enc.hs, enc.keys});
    }

    // Step graph.
    {
        Graph &g = *d.step_g;
        d.st_token = g.placeholder(Shape({b}), "prev_token");
        d.st_h = g.placeholder(Shape({b, h}), "h_prev");
        d.st_c = g.placeholder(Shape({b, h}), "c_prev");
        d.st_attn = g.placeholder(Shape({b, h}), "attn_prev");
        d.st_hs = g.placeholder(Shape({b, src_len_, h}),
                                "encoder_states");
        d.st_keys = g.placeholder(Shape({b, src_len_, h}),
                                  "attn_keys");

        const AttentionWeights attn =
            makeAttentionWeights(g, h, d.step_weights, "attn");
        const DecoderWeights dec =
            makeDecoderWeights(g, cfg, d.step_weights);

        Val emb_t;
        {
            TagScope tag(g, "embedding");
            emb_t = g.apply1(ol::embedding(),
                             {dec.tgt_table, d.st_token});
        }
        rnn::CellState prev{d.st_h, d.st_c};
        const StepOut so = decoderStep(g, cfg, dec, attn, emb_t, prev,
                                       d.st_attn, d.st_keys, d.st_hs);
        {
            TagScope tag(g, "output");
            d.st_logits = g.apply1(
                ol::addBias(),
                {g.apply1(ol::gemm(false, true),
                          {so.attn_hidden, dec.out_w}),
                 dec.out_b});
        }
        d.st_h_out = so.state.h;
        d.st_c_out = so.state.c;
        d.st_attn_out = so.attn_hidden;
        pass::PipelineContext ctx(g);
        ctx.fetches = {d.st_logits, d.st_h_out, d.st_c_out,
                       d.st_attn_out};
        pass::buildPipeline(spec).runOrDie(ctx,
                                           "NmtDecoder step pipeline");
        d.step_exec = std::make_unique<graph::Executor>(
            std::vector<Val>{d.st_logits, d.st_h_out, d.st_c_out,
                             d.st_attn_out});
    }
}

NmtDecoder::~NmtDecoder() = default;

NmtDecoder::Encoded
NmtDecoder::encode(const ParamStore &params, const Tensor &src) const
{
    ECHO_CHECK(graphs_->enc_exec != nullptr,
               "NmtDecoder::encode on a decoder built without its encoder");
    ECHO_REQUIRE(src.shape() == Shape({batch_, src_len_}),
                 "NmtDecoder::encode source batch has wrong shape");
    graph::FeedDict feed;
    feedParams(feed, graphs_->enc_weights, params);
    feed[graphs_->enc_src.node] = src;
    std::vector<Tensor> out = graphs_->enc_exec->run(feed);
    return Encoded{std::move(out[0]), std::move(out[1])};
}

NmtDecoder::State
NmtDecoder::initialState() const
{
    State s;
    s.token = Tensor(Shape({batch_}),
                     static_cast<float>(data::Vocab::kBos));
    s.h = Tensor::zeros(Shape({batch_, config_.hidden}));
    s.c = Tensor::zeros(Shape({batch_, config_.hidden}));
    s.attn = Tensor::zeros(Shape({batch_, config_.hidden}));
    return s;
}

Tensor
NmtDecoder::step(const ParamStore &params, State &state,
                 const Encoded &enc) const
{
    const Graphs &d = *graphs_;
    graph::FeedDict feed;
    feedParams(feed, d.step_weights, params);
    feed[d.st_token.node] = state.token;
    feed[d.st_h.node] = state.h;
    feed[d.st_c.node] = state.c;
    feed[d.st_attn.node] = state.attn;
    feed[d.st_hs.node] = enc.hs;
    feed[d.st_keys.node] = enc.keys;
    std::vector<Tensor> out = d.step_exec->run(feed);
    state.h = std::move(out[1]);
    state.c = std::move(out[2]);
    state.attn = std::move(out[3]);
    return std::move(out[0]);
}

NmtModel::NmtModel(const NmtConfig &config,
                   const std::string &pipeline_spec)
    : config_(config), graph_(std::make_unique<Graph>())
{
    Graph &g = *graph_;
    const int64_t b = config.batch, tt = config.tgt_len,
                  h = config.hidden;

    src_ = g.placeholder(Shape({b, config.src_len}), "src_tokens");
    tgt_in_ = g.placeholder(Shape({b, tt}), "tgt_in");
    tgt_labels_ = g.placeholder(Shape({b * tt}), "tgt_labels");

    const AttentionWeights attn =
        makeAttentionWeights(g, h, weights_, "attn");
    const EncoderOut enc =
        buildEncoder(g, src_, config, weights_, attn);
    const DecoderWeights dec = makeDecoderWeights(g, config, weights_);

    // Embed all teacher-forced decoder inputs at once.
    Val tgt_emb;
    {
        TagScope tag(g, "embedding");
        tgt_emb = g.apply1(ol::embedding(), {dec.tgt_table, tgt_in_});
    }

    rnn::CellState state;
    Val attn_prev;
    {
        TagScope tag(g, "decoder");
        state.h = g.apply1(ol::constant(Shape({b, h}), 0.0f), {},
                           "dec.h0");
        state.c = g.apply1(ol::constant(Shape({b, h}), 0.0f), {},
                           "dec.c0");
        attn_prev = g.apply1(ol::constant(Shape({b, h}), 0.0f), {},
                             "dec.attn0");
    }

    std::vector<Val> attn_hiddens;
    attn_hiddens.reserve(static_cast<size_t>(tt));
    for (int64_t step = 0; step < tt; ++step) {
        g.setTimeStep(static_cast<int>(step));
        Val emb_t;
        {
            TagScope tag(g, "embedding");
            emb_t = g.apply1(
                ol::reshape(Shape({b, h})),
                {g.apply1(ol::sliceOp(1, step, step + 1),
                          {tgt_emb})});
        }
        const StepOut so = decoderStep(g, config, dec, attn, emb_t,
                                       state, attn_prev, enc.keys,
                                       enc.hs);
        state = so.state;
        attn_prev = so.attn_hidden;
        {
            TagScope tag(g, "decoder");
            attn_hiddens.push_back(g.apply1(
                ol::reshape(Shape({b, 1, h})), {so.attn_hidden}));
        }
    }
    g.setTimeStep(-1);

    {
        TagScope tag(g, "output");
        const Val cat = g.apply1(ol::concat(1), attn_hiddens);
        const Val flat =
            g.apply1(ol::reshape(Shape({b * tt, h})), {cat});
        const Val logits = g.apply1(
            ol::addBias(),
            {g.apply1(ol::gemm(false, true), {flat, dec.out_w}),
             dec.out_b});
        loss_ = g.apply1(ol::crossEntropyLoss(), {logits, tgt_labels_},
                         "nmt_loss");
    }

    // Everything past the forward build is the contract-checked
    // training pipeline (default "autodiff,fusion").
    pass::PipelineContext ctx(g);
    ctx.loss = loss_;
    ctx.wrt.reserve(weights_.size());
    for (const auto &[name, val] : weights_)
        ctx.wrt.push_back(val);
    const pass::PassManager pm = pass::buildPipeline(
        pass::resolveSpec(pass::PipelineKind::kTraining, pipeline_spec));
    pass::PassManager::RunOptions opts;
    opts.die_on_error = true;
    opts.what = "NmtModel pipeline";
    pm.run(ctx, opts);
    weight_grads_ = ctx.weight_grads;
    fetches_ = ctx.effectiveFetches();
    fusion_ = ctx.fusion;
}

NmtModel::~NmtModel() = default;

ParamStore
NmtModel::initialParams(Rng &rng) const
{
    return initParams(weights_, rng);
}

graph::FeedDict
NmtModel::makeFeed(const ParamStore &params,
                   const data::NmtBatch &batch) const
{
    graph::FeedDict feed;
    feedParams(feed, weights_, params);
    feed[src_.node] = batch.src;
    feed[tgt_in_.node] = batch.tgt_in;
    feed[tgt_labels_.node] = batch.tgt_labels;
    return feed;
}

std::vector<std::vector<int64_t>>
NmtModel::greedyDecode(const ParamStore &params, const Tensor &src,
                       int64_t max_len) const
{
    if (!decode_)
        decode_ = std::make_unique<NmtDecoder>(config_, config_.batch,
                                               config_.src_len);
    const NmtDecoder &dec = *decode_;
    const int64_t b = config_.batch;
    ECHO_REQUIRE(src.shape() == Shape({b, config_.src_len}),
                 "greedyDecode source batch has wrong shape");

    const NmtDecoder::Encoded enc = dec.encode(params, src);

    // Free-running greedy loop over the cached decoder state.
    NmtDecoder::State state = dec.initialState();
    std::vector<std::vector<int64_t>> decoded(
        static_cast<size_t>(b));
    std::vector<bool> done(static_cast<size_t>(b), false);

    for (int64_t step = 0; step < max_len; ++step) {
        const Tensor logits = dec.step(params, state, enc);
        bool all_done = true;
        for (int64_t r = 0; r < b; ++r) {
            int64_t best = 0;
            float best_score = logits.at(r, 0);
            for (int64_t j = 1; j < config_.tgt_vocab; ++j) {
                if (logits.at(r, j) > best_score) {
                    best_score = logits.at(r, j);
                    best = j;
                }
            }
            state.token.at(r) = static_cast<float>(best);
            if (!done[static_cast<size_t>(r)]) {
                if (best == data::Vocab::kEos) {
                    done[static_cast<size_t>(r)] = true;
                } else {
                    decoded[static_cast<size_t>(r)].push_back(best);
                }
            }
            all_done = all_done && done[static_cast<size_t>(r)];
        }
        if (all_done)
            break;
    }
    return decoded;
}

} // namespace echo::models
