/**
 * @file
 * Tests for the RNN library: numerical equivalence of the three
 * backends (the paper's correctness requirement — "almost completely
 * overlapping training curves"), kernel-count profiles, the unfused
 * cell against a manual reference, and SequenceReverse.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.h"
#include "graph/autodiff.h"
#include "graph/executor.h"
#include "graph/ops/oplib.h"
#include "gpusim/timeline.h"
#include "rnn/lstm_cell.h"
#include "rnn/sequence_reverse.h"
#include "rnn/stack.h"

namespace echo::rnn {
namespace {

namespace ol = graph::oplib;
using graph::FeedDict;
using graph::Graph;
using graph::Val;

/** Build one LSTM stack + scalar loss + gradients for a backend. */
struct StackHarness
{
    std::unique_ptr<Graph> g = std::make_unique<Graph>();
    Val x;
    LstmStack stack;
    Val loss;
    std::vector<Val> fetches;

    void
    build(const LstmSpec &spec, RnnBackend backend)
    {
        x = g->placeholder(
            Shape({spec.seq_len, spec.batch, spec.input_size}), "x");
        stack = buildLstmStack(*g, x, spec, backend, "lstm");
        const int64_t numel =
            spec.seq_len * spec.batch * spec.hidden;
        const Val flat = g->apply1(
            ol::reshape(Shape({1, 1, numel})), {stack.hs});
        const Val ones =
            g->apply1(ol::constant(Shape({numel}), 1.0f), {});
        const Val tanhed = g->apply1(ol::tanhOp(), {flat});
        const Val score =
            g->apply1(ol::dotLastAxis(), {tanhed, ones});
        loss = g->apply1(ol::reshape(Shape({1})), {score});

        std::vector<Val> wrt;
        for (const LstmWeights &w : stack.weights) {
            wrt.push_back(w.wx);
            wrt.push_back(w.wh);
            wrt.push_back(w.bias);
        }
        auto gr = graph::backward(*g, loss, wrt);
        fetches = {loss};
        fetches.insert(fetches.end(), gr.weight_grads.begin(),
                       gr.weight_grads.end());
    }

    FeedDict
    feed(const LstmSpec &spec, uint64_t seed) const
    {
        Rng rng(seed);
        FeedDict f;
        f[x.node] = Tensor::uniform(
            Shape({spec.seq_len, spec.batch, spec.input_size}), rng,
            -0.5f, 0.5f);
        for (const LstmWeights &w : stack.weights) {
            f[w.wx.node] = Tensor::uniform(
                graph::Graph::shapeOf(w.wx), rng, -0.3f, 0.3f);
            f[w.wh.node] = Tensor::uniform(
                graph::Graph::shapeOf(w.wh), rng, -0.3f, 0.3f);
            f[w.bias.node] = Tensor::uniform(
                graph::Graph::shapeOf(w.bias), rng, -0.1f, 0.1f);
        }
        return f;
    }
};

class BackendEquivalence
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>>
{
};

TEST_P(BackendEquivalence, AllBackendsMatchNumerically)
{
    const auto [layers, seq_len] = GetParam();
    LstmSpec spec;
    spec.input_size = 5;
    spec.hidden = 4;
    spec.layers = layers;
    spec.batch = 3;
    spec.seq_len = seq_len;

    std::vector<std::vector<Tensor>> results;
    for (const RnnBackend backend :
         {RnnBackend::kDefault, RnnBackend::kCudnn, RnnBackend::kEco}) {
        StackHarness h;
        h.build(spec, backend);
        graph::Executor ex(h.fetches);
        results.push_back(ex.run(h.feed(spec, 77)));
    }
    for (size_t variant = 1; variant < results.size(); ++variant) {
        ASSERT_EQ(results[variant].size(), results[0].size());
        for (size_t i = 0; i < results[0].size(); ++i) {
            ASSERT_EQ(results[variant][i].shape(),
                      results[0][i].shape());
            for (int64_t j = 0; j < results[0][i].numel(); ++j)
                EXPECT_NEAR(results[variant][i].at(j),
                            results[0][i].at(j), 2e-4)
                    << "fetch " << i << " element " << j;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    LayersBySeqLen, BackendEquivalence,
    ::testing::Combine(::testing::Values<int64_t>(1, 2),
                       ::testing::Values<int64_t>(1, 3, 6)));

TEST(Backends, DefaultLaunchesManyMoreKernels)
{
    LstmSpec spec;
    spec.input_size = 64;
    spec.hidden = 64;
    spec.layers = 1;
    spec.batch = 16;
    spec.seq_len = 20;

    int64_t launches[2];
    int idx = 0;
    for (const RnnBackend backend :
         {RnnBackend::kDefault, RnnBackend::kCudnn}) {
        StackHarness h;
        h.build(spec, backend);
        const auto rep = gpusim::simulateRun(
            h.fetches, gpusim::GpuSpec::titanXp());
        launches[idx++] = rep.kernel_launches;
    }
    // Fig. 7a: Default slices the "f" block into many small kernels.
    EXPECT_GT(launches[0], launches[1] * 4);
}

TEST(Backends, EcoFasterThanDefaultAtPaperScale)
{
    LstmSpec spec;
    spec.input_size = 512;
    spec.hidden = 512;
    spec.layers = 1;
    spec.batch = 64;
    spec.seq_len = 50;

    double wall[3];
    int idx = 0;
    for (const RnnBackend backend :
         {RnnBackend::kDefault, RnnBackend::kCudnn, RnnBackend::kEco}) {
        StackHarness h;
        h.build(spec, backend);
        wall[idx++] = gpusim::simulateRun(
                          h.fetches, gpusim::GpuSpec::titanXp())
                          .wall_time_us;
    }
    EXPECT_LT(wall[2], wall[0]); // Eco < Default
    EXPECT_LT(wall[2], wall[1]); // Eco < CuDNN
    EXPECT_LT(wall[1], wall[0]); // CuDNN < Default
}

TEST(LstmCell, SingleStepMatchesManualMath)
{
    Graph g;
    const int64_t b = 2, h = 3, i = 2;
    Val x = g.placeholder(Shape({b, i}), "x");
    LstmWeights w = makeLstmWeights(g, i, h, "cell");
    CellState prev;
    prev.h = g.placeholder(Shape({b, h}), "h0");
    prev.c = g.placeholder(Shape({b, h}), "c0");
    CellState next = buildLstmCell(g, x, prev, w);

    Rng rng(5);
    FeedDict feed;
    feed[x.node] = Tensor::uniform(Shape({b, i}), rng, -1.0f, 1.0f);
    feed[w.wx.node] =
        Tensor::uniform(Shape({4 * h, i}), rng, -0.5f, 0.5f);
    feed[w.wh.node] =
        Tensor::uniform(Shape({4 * h, h}), rng, -0.5f, 0.5f);
    feed[w.bias.node] =
        Tensor::uniform(Shape({4 * h}), rng, -0.1f, 0.1f);
    feed[prev.h.node] =
        Tensor::uniform(Shape({b, h}), rng, -0.5f, 0.5f);
    feed[prev.c.node] =
        Tensor::uniform(Shape({b, h}), rng, -0.5f, 0.5f);

    graph::Executor ex({next.h, next.c});
    const auto out = ex.run(feed);

    // Manual reference for element (0, 0).
    auto sigmoid = [](float v) { return 1.0f / (1.0f + std::exp(-v)); };
    const Tensor &xt = feed[x.node];
    const Tensor &wx = feed[w.wx.node];
    const Tensor &wh = feed[w.wh.node];
    const Tensor &bias = feed[w.bias.node];
    const Tensor &h0 = feed[prev.h.node];
    const Tensor &c0 = feed[prev.c.node];
    float gates[4];
    for (int gate = 0; gate < 4; ++gate) {
        double acc = bias.at(gate * h + 0);
        for (int64_t k = 0; k < i; ++k)
            acc += xt.at(0, k) * wx.at(gate * h + 0, k);
        for (int64_t k = 0; k < h; ++k)
            acc += h0.at(0, k) * wh.at(gate * h + 0, k);
        gates[gate] = static_cast<float>(acc);
    }
    const float c_ref = sigmoid(gates[1]) * c0.at(0, 0) +
                        sigmoid(gates[0]) * std::tanh(gates[2]);
    const float h_ref = sigmoid(gates[3]) * std::tanh(c_ref);
    EXPECT_NEAR(out[1].at(0, 0), c_ref, 1e-5);
    EXPECT_NEAR(out[0].at(0, 0), h_ref, 1e-5);
}

TEST(SequenceReverse, ParallelAndSequentialAgreeNumerically)
{
    Graph g;
    Val x = g.placeholder(Shape({4, 2, 3}), "x");
    Val rp = sequenceReverse(g, x, true);
    Val rs = sequenceReverse(g, x, false);

    Rng rng(3);
    FeedDict feed;
    feed[x.node] = Tensor::uniform(Shape({4, 2, 3}), rng);
    graph::Executor ex({rp, rs});
    const auto out = ex.run(feed);
    for (int64_t i = 0; i < out[0].numel(); ++i)
        EXPECT_FLOAT_EQ(out[0].at(i), out[1].at(i));
}

TEST(SequenceReverse, ParallelKernelIsOrdersOfMagnitudeFaster)
{
    // The §5.1 fix: same math, wildly different modelled bandwidth.
    Graph g;
    Val x = g.placeholder(Shape({100, 128, 512}), "x");
    Val rp = sequenceReverse(g, x, true);

    Graph g2;
    Val x2 = g2.placeholder(Shape({100, 128, 512}), "x");
    Val rs = sequenceReverse(g2, x2, false);

    const auto rep_p =
        gpusim::simulateRun({rp}, gpusim::GpuSpec::titanXp());
    const auto rep_s =
        gpusim::simulateRun({rs}, gpusim::GpuSpec::titanXp());
    EXPECT_GT(rep_s.wall_time_us / rep_p.wall_time_us, 50.0);
}

TEST(BackendNames, Printable)
{
    EXPECT_STREQ(backendName(RnnBackend::kDefault), "Default");
    EXPECT_STREQ(backendName(RnnBackend::kCudnn), "CuDNN");
    EXPECT_STREQ(backendName(RnnBackend::kEco), "EcoRNN");
}

} // namespace
} // namespace echo::rnn
