/**
 * @file
 * google-benchmark microbenchmark of the element-wise fusion pass.
 *
 * Times the LSTM cell's gate-nonlinearity tail — the canonical fused
 * chain: i = sigmoid(i_pre), f = sigmoid(f_pre), g = tanh(g_pre),
 * o = sigmoid(o_pre), c = f*c_prev + i*g, h = o*tanh(c) — once as the
 * unfused 10-op graph (9 materialized intermediates) and once after
 * runFusionPass folds it into a single FusedElementwiseOp (0
 * intermediates).  Both run through the real Executor, so the measured
 * win is exactly what training iterations see: no intermediate
 * allocation/zeroing, one pass over the data instead of ten.
 * EXPERIMENTS.md expects >= 1.5x on this chain.
 *
 * To record results for EXPERIMENTS.md / CI:
 *
 *   ./bench/fusion_elementwise \
 *       --benchmark_out=results/BENCH_fusion.json \
 *       --benchmark_out_format=json
 */
#include <benchmark/benchmark.h>

#include <memory>

#include "core/rng.h"
#include "graph/executor.h"
#include "graph/fusion.h"
#include "graph/ops/oplib.h"
#include "models/word_lm.h"

using namespace echo;
namespace ol = graph::oplib;
using graph::Graph;
using graph::Val;

namespace {

/** The gate-chain graph plus a ready Executor and feed. */
struct GateChain
{
    std::unique_ptr<Graph> g = std::make_unique<Graph>();
    graph::FeedDict feed;
    std::unique_ptr<graph::Executor> exec;
    int fused_groups = 0;

    GateChain(int64_t n, bool fuse)
    {
        const Shape s({n});
        std::vector<Val> pre;
        Rng rng(42);
        for (const char *name :
             {"i_pre", "f_pre", "g_pre", "o_pre", "c_prev"}) {
            const Val p = g->placeholder(s, name);
            pre.push_back(p);
            feed[p.node] = Tensor::uniform(s, rng, -1.5f, 1.5f);
        }
        const Val i = g->apply1(ol::sigmoidOp(), {pre[0]});
        const Val f = g->apply1(ol::sigmoidOp(), {pre[1]});
        const Val cand = g->apply1(ol::tanhOp(), {pre[2]});
        const Val o = g->apply1(ol::sigmoidOp(), {pre[3]});
        const Val c = g->apply1(
            ol::add(), {g->apply1(ol::mul(), {f, pre[4]}),
                        g->apply1(ol::mul(), {i, cand})});
        const Val h =
            g->apply1(ol::mul(), {o, g->apply1(ol::tanhOp(), {c})});
        if (fuse)
            fused_groups =
                fusion::runFusionPass(*g, {h}).num_groups;
        exec = std::make_unique<graph::Executor>(
            std::vector<Val>{h});
    }
};

void
gateChain(benchmark::State &state, bool fuse)
{
    const int64_t n = state.range(0);
    GateChain chain(n, fuse);
    for (auto _ : state) {
        benchmark::DoNotOptimize(chain.exec->run(chain.feed));
    }
    state.counters["fused_groups"] =
        static_cast<double>(chain.fused_groups);
    // 10 original ops' worth of elements either way, so items/s are
    // comparable across the two variants.
    state.SetItemsProcessed(state.iterations() * n * 10);
}

void
BM_GateChainUnfused(benchmark::State &state)
{
    gateChain(state, false);
}
BENCHMARK(BM_GateChainUnfused)
    ->Arg(1 << 12)
    ->Arg(1 << 14)
    ->Arg(1 << 16)
    ->Arg(1 << 18);

void
BM_GateChainFused(benchmark::State &state)
{
    gateChain(state, true);
}
BENCHMARK(BM_GateChainFused)
    ->Arg(1 << 12)
    ->Arg(1 << 14)
    ->Arg(1 << 16)
    ->Arg(1 << 18);

/**
 * The LSTM cell's BACKWARD element-wise tail — the chain autodiff
 * emits per time step: from (dh, dc_in) and the saved gate activations
 * to the four pre-activation gradients and dc_prev.  Unlike the
 * forward chain it contains no transcendentals (the *_grad lowerings
 * are mul/add over saved activations), so it is bandwidth-bound and
 * shows fusion's full effect: every op's intermediate is one more
 * alloc + zero + write + read pass the fused program never makes.
 */
struct GateGradChain
{
    std::unique_ptr<Graph> g = std::make_unique<Graph>();
    graph::FeedDict feed;
    std::unique_ptr<graph::Executor> exec;
    int fused_groups = 0;

    GateGradChain(int64_t n, bool fuse)
    {
        const Shape s({n});
        Rng rng(43);
        auto ph = [&](const char *name) {
            const Val p = g->placeholder(s, name);
            feed[p.node] = Tensor::uniform(s, rng, -0.9f, 0.9f);
            return p;
        };
        const Val dh = ph("dh"), dc_in = ph("dc_in");
        const Val i = ph("i"), f = ph("f"), cand = ph("g");
        const Val o = ph("o"), c_prev = ph("c_prev");
        const Val tanh_c = ph("tanh_c");

        const Val d_o = g->apply1(ol::mul(), {dh, tanh_c});
        const Val d_tanh_c = g->apply1(ol::mul(), {dh, o});
        const Val dc = g->apply1(
            ol::add(),
            {dc_in, g->apply1(ol::tanhGrad(), {d_tanh_c, tanh_c})});
        const Val di = g->apply1(ol::mul(), {dc, cand});
        const Val dg = g->apply1(ol::mul(), {dc, i});
        const Val df = g->apply1(ol::mul(), {dc, c_prev});
        const Val dc_prev = g->apply1(ol::mul(), {dc, f});
        std::vector<Val> fetches{
            g->apply1(ol::sigmoidGrad(), {di, i}),
            g->apply1(ol::sigmoidGrad(), {df, f}),
            g->apply1(ol::tanhGrad(), {dg, cand}),
            g->apply1(ol::sigmoidGrad(), {d_o, o}), dc_prev};
        if (fuse)
            fused_groups =
                fusion::runFusionPass(*g, fetches).num_groups;
        exec = std::make_unique<graph::Executor>(std::move(fetches));
    }
};

void
gateGradChain(benchmark::State &state, bool fuse)
{
    const int64_t n = state.range(0);
    GateGradChain chain(n, fuse);
    for (auto _ : state) {
        benchmark::DoNotOptimize(chain.exec->run(chain.feed));
    }
    state.counters["fused_groups"] =
        static_cast<double>(chain.fused_groups);
    state.SetItemsProcessed(state.iterations() * n * 11);
}

void
BM_GateGradChainUnfused(benchmark::State &state)
{
    gateGradChain(state, false);
}
BENCHMARK(BM_GateGradChainUnfused)
    ->Arg(1 << 12)
    ->Arg(1 << 14)
    ->Arg(1 << 16)
    ->Arg(1 << 18);

void
BM_GateGradChainFused(benchmark::State &state)
{
    gateGradChain(state, true);
}
BENCHMARK(BM_GateGradChainFused)
    ->Arg(1 << 12)
    ->Arg(1 << 14)
    ->Arg(1 << 16)
    ->Arg(1 << 18);

/**
 * One full word-LM training iteration (forward + backward, loss and
 * all weight gradients) — the fig21-style end-to-end number.  The
 * GEMMs are untouched by fusion, so the headline ratio here is
 * diluted; the two chain benches above isolate the fused fraction.
 */
void
wordLmIteration(benchmark::State &state, bool fuse)
{
    models::WordLmConfig cfg;
    cfg.vocab = 120;
    cfg.hidden = 32;
    cfg.layers = 2;
    cfg.batch = 32;
    cfg.seq_len = 16;
    models::WordLmModel model(cfg, fuse ? "autodiff,fusion" : "autodiff");

    Rng rng(7);
    const models::ParamStore params = model.initialParams(rng);
    data::LmBatch batch;
    batch.tokens = Tensor(Shape({cfg.batch, cfg.seq_len}));
    for (int64_t i = 0; i < batch.tokens.numel(); ++i)
        batch.tokens.data()[i] = static_cast<float>(
            rng.uniformInt(static_cast<uint64_t>(cfg.vocab)));
    batch.labels = Tensor(Shape({cfg.batch * cfg.seq_len}));
    for (int64_t i = 0; i < batch.labels.numel(); ++i)
        batch.labels.data()[i] = static_cast<float>(
            rng.uniformInt(static_cast<uint64_t>(cfg.vocab)));
    const graph::FeedDict feed = model.makeFeed(params, batch);

    graph::Executor exec(model.fetches());
    for (auto _ : state) {
        benchmark::DoNotOptimize(exec.run(feed));
    }
    state.counters["fused_groups"] =
        static_cast<double>(model.fusionResult().num_groups);
    state.SetItemsProcessed(state.iterations() * cfg.batch);
}

void
BM_WordLmIterationUnfused(benchmark::State &state)
{
    wordLmIteration(state, false);
}
BENCHMARK(BM_WordLmIterationUnfused);

void
BM_WordLmIterationFused(benchmark::State &state)
{
    wordLmIteration(state, true);
}
BENCHMARK(BM_WordLmIterationFused);

} // namespace

BENCHMARK_MAIN();
