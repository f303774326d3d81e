/**
 * @file
 * Autodiff correctness: every differentiable op's analytic gradient is
 * checked against central finite differences.  This is the foundation
 * the Echo pass's gradient-equivalence verification builds on.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <ostream>
#include <string>

#include "core/rng.h"
#include "graph/autodiff.h"
#include "graph/executor.h"
#include "graph/ops/op_fused_rnn.h"
#include "graph/ops/oplib.h"

namespace echo::graph {
namespace {

namespace ol = oplib;

/**
 * Compare analytic gradients of @p loss w.r.t.\ @p wrt against central
 * finite differences, perturbing every element of every wrt tensor.
 */
void
checkGradients(Graph &g, const Val &loss, const std::vector<Val> &wrt,
               FeedDict feed, double eps = 1e-3, double tol = 2e-2)
{
    GradientResult gr = backward(g, loss, wrt);

    std::vector<Val> fetches = {loss};
    for (const Val &gv : gr.weight_grads)
        fetches.push_back(gv);
    Executor ex(fetches);
    const std::vector<Tensor> analytic = ex.run(feed);

    Executor loss_ex({loss});
    for (size_t wi = 0; wi < wrt.size(); ++wi) {
        Tensor &param = feed[wrt[wi].node];
        const Tensor &grad = analytic[wi + 1];
        ASSERT_EQ(grad.shape(), param.shape());
        for (int64_t i = 0; i < param.numel(); ++i) {
            const float saved = param.at(i);
            param.at(i) = saved + static_cast<float>(eps);
            const double up = loss_ex.run(feed)[0].at(0);
            param.at(i) = saved - static_cast<float>(eps);
            const double down = loss_ex.run(feed)[0].at(0);
            param.at(i) = saved;
            const double numeric = (up - down) / (2.0 * eps);
            EXPECT_NEAR(grad.at(i), numeric,
                        tol * std::max(1.0, std::abs(numeric)))
                << "wrt #" << wi << " ("
                << wrt[wi].node->name << ") element " << i;
        }
    }
}

/** Reduce any value to a scalar via a fixed random projection + CE-free
 *  quadratic bowl, keeping gradients well-conditioned. */
Val
scalarize(Graph &g, const Val &v)
{
    const Shape &s = Graph::shapeOf(v);
    Val flat = v;
    if (s.ndim() != 2)
        flat = g.apply1(ol::reshape(Shape({1, s.numel()})), {v});
    else if (s[0] != 1)
        flat = g.apply1(ol::reshape(Shape({1, s.numel()})), {v});
    // loss = sum(tanh(flat)) realized via dot with ones.
    Val t = g.apply1(ol::tanhOp(), {flat});
    Val ones = g.apply1(ol::constant(Shape({s.numel()}), 1.0f), {});
    Val dotted = g.apply1(
        ol::reshape(Shape({1, 1, s.numel()})), {t});
    Val score = g.apply1(ol::dotLastAxis(), {dotted, ones});
    return g.apply1(ol::reshape(Shape({1})), {score});
}

TEST(Autodiff, ScaleChain)
{
    Graph g;
    Val x = g.placeholder(Shape({1, 3}), "x");
    Val y = g.apply1(ol::scale(2.5f), {x});
    Val loss = scalarize(g, y);
    Rng rng(1);
    FeedDict feed;
    feed[x.node] = Tensor::uniform(Shape({1, 3}), rng, -0.5f, 0.5f);
    checkGradients(g, loss, {x}, feed);
}

/**
 * One op under gradient check.  Its printed name becomes the ctest name,
 * which would otherwise embed the (ASLR-randomised) function address.
 */
struct OpCase
{
    std::string name;
    std::function<OpPtr()> make;
};

void
PrintTo(const OpCase &c, std::ostream *os)
{
    *os << c.name;
}

class BinaryOpGrad : public ::testing::TestWithParam<OpCase>
{
};

TEST_P(BinaryOpGrad, MatchesFiniteDifference)
{
    Graph g;
    Val a = g.placeholder(Shape({2, 3}), "a");
    Val b = g.placeholder(Shape({2, 3}), "b");
    Val y = g.apply1(GetParam().make(), {a, b});
    Val loss = scalarize(g, y);
    Rng rng(2);
    FeedDict feed;
    feed[a.node] = Tensor::uniform(Shape({2, 3}), rng, 0.2f, 0.8f);
    feed[b.node] = Tensor::uniform(Shape({2, 3}), rng, 0.2f, 0.8f);
    checkGradients(g, loss, {a, b}, feed);
}

INSTANTIATE_TEST_SUITE_P(
    AddSubMul, BinaryOpGrad,
    ::testing::Values(OpCase{"add", &ol::add}, OpCase{"sub", &ol::sub},
                      OpCase{"mul", &ol::mul}));

class UnaryOpGrad : public ::testing::TestWithParam<OpCase>
{
};

TEST_P(UnaryOpGrad, MatchesFiniteDifference)
{
    Graph g;
    Val x = g.placeholder(Shape({2, 4}), "x");
    Val y = g.apply1(GetParam().make(), {x});
    Val loss = scalarize(g, y);
    Rng rng(3);
    FeedDict feed;
    // Stay away from relu's kink at 0.
    feed[x.node] = Tensor::uniform(Shape({2, 4}), rng, 0.3f, 1.2f);
    checkGradients(g, loss, {x}, feed);
}

INSTANTIATE_TEST_SUITE_P(
    Activations, UnaryOpGrad,
    ::testing::Values(OpCase{"tanh", &ol::tanhOp},
                      OpCase{"sigmoid", &ol::sigmoidOp},
                      OpCase{"relu", &ol::reluOp}, OpCase{"neg", &ol::neg}));

class GemmGrad
    : public ::testing::TestWithParam<std::tuple<bool, bool>>
{
};

TEST_P(GemmGrad, MatchesFiniteDifference)
{
    const auto [ta, tb] = GetParam();
    const int64_t m = 2, n = 3, k = 4;
    Graph g;
    Val a = g.placeholder(ta ? Shape({k, m}) : Shape({m, k}), "a");
    Val b = g.placeholder(tb ? Shape({n, k}) : Shape({k, n}), "b");
    Val y = g.apply1(ol::gemm(ta, tb), {a, b});
    Val loss = scalarize(g, y);
    Rng rng(4);
    FeedDict feed;
    feed[a.node] = Tensor::uniform(Graph::shapeOf(a), rng, -0.5f, 0.5f);
    feed[b.node] = Tensor::uniform(Graph::shapeOf(b), rng, -0.5f, 0.5f);
    checkGradients(g, loss, {a, b}, feed);
}

INSTANTIATE_TEST_SUITE_P(AllTransposes, GemmGrad,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

class BmmGrad : public ::testing::TestWithParam<std::tuple<bool, bool>>
{
};

TEST_P(BmmGrad, MatchesFiniteDifference)
{
    const auto [ta, tb] = GetParam();
    const int64_t bt = 2, m = 2, n = 2, k = 3;
    Graph g;
    Val a = g.placeholder(ta ? Shape({bt, k, m}) : Shape({bt, m, k}),
                          "a");
    Val b = g.placeholder(tb ? Shape({bt, n, k}) : Shape({bt, k, n}),
                          "b");
    Val y = g.apply1(ol::bmm(ta, tb), {a, b});
    Val loss = scalarize(g, y);
    Rng rng(5);
    FeedDict feed;
    feed[a.node] = Tensor::uniform(Graph::shapeOf(a), rng, -0.5f, 0.5f);
    feed[b.node] = Tensor::uniform(Graph::shapeOf(b), rng, -0.5f, 0.5f);
    checkGradients(g, loss, {a, b}, feed);
}

INSTANTIATE_TEST_SUITE_P(AllTransposes, BmmGrad,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

TEST(Autodiff, AddBias)
{
    Graph g;
    Val x = g.placeholder(Shape({2, 3}), "x");
    Val b = g.placeholder(Shape({3}), "b");
    Val loss = scalarize(g, g.apply1(ol::addBias(), {x, b}));
    Rng rng(6);
    FeedDict feed;
    feed[x.node] = Tensor::uniform(Shape({2, 3}), rng, -0.5f, 0.5f);
    feed[b.node] = Tensor::uniform(Shape({3}), rng, -0.5f, 0.5f);
    checkGradients(g, loss, {x, b}, feed);
}

TEST(Autodiff, BroadcastAddBT)
{
    Graph g;
    Val x = g.placeholder(Shape({2, 3, 2}), "x");
    Val q = g.placeholder(Shape({2, 2}), "q");
    Val loss = scalarize(g, g.apply1(ol::broadcastAddBT(), {x, q}));
    Rng rng(7);
    FeedDict feed;
    feed[x.node] = Tensor::uniform(Shape({2, 3, 2}), rng, -0.5f, 0.5f);
    feed[q.node] = Tensor::uniform(Shape({2, 2}), rng, -0.5f, 0.5f);
    checkGradients(g, loss, {x, q}, feed);
}

TEST(Autodiff, SumAxis1)
{
    Graph g;
    Val x = g.placeholder(Shape({2, 3, 2}), "x");
    Val loss = scalarize(g, g.apply1(ol::sumAxis1(), {x}));
    Rng rng(8);
    FeedDict feed;
    feed[x.node] = Tensor::uniform(Shape({2, 3, 2}), rng, -0.3f, 0.3f);
    checkGradients(g, loss, {x}, feed);
}

TEST(Autodiff, AttentionScoreComposite)
{
    // dot(tanh(layernorm(broadcast(x) + q)), v) — the O-shape region.
    Graph g;
    Val hs = g.placeholder(Shape({2, 3, 4}), "hs");
    Val q = g.placeholder(Shape({2, 4}), "q");
    Val v = g.placeholder(Shape({4}), "v");
    Val e = g.apply1(ol::broadcastAddBT(), {hs, q});
    Val ln = g.apply(ol::layerNorm(), {e})[0];
    Val th = g.apply1(ol::tanhOp(), {ln});
    Val scores = g.apply1(ol::dotLastAxis(), {th, v});
    Val loss = scalarize(g, scores);
    Rng rng(9);
    FeedDict feed;
    feed[hs.node] = Tensor::uniform(Shape({2, 3, 4}), rng, -1.0f, 1.0f);
    feed[q.node] = Tensor::uniform(Shape({2, 4}), rng, -1.0f, 1.0f);
    feed[v.node] = Tensor::uniform(Shape({4}), rng, -1.0f, 1.0f);
    checkGradients(g, loss, {hs, q, v}, feed, 1e-3, 5e-2);
}

TEST(Autodiff, ScaleRowsAndRowDot)
{
    Graph g;
    Val x = g.placeholder(Shape({2, 2, 3}), "x");
    Val w = g.placeholder(Shape({2, 2}), "w");
    Val y = g.apply1(ol::scaleRowsBT(), {x, w});
    Val d = g.apply1(ol::rowDotBT(), {y, x});
    Val loss = scalarize(g, d);
    Rng rng(10);
    FeedDict feed;
    feed[x.node] = Tensor::uniform(Shape({2, 2, 3}), rng, -0.5f, 0.5f);
    feed[w.node] = Tensor::uniform(Shape({2, 2}), rng, -0.5f, 0.5f);
    checkGradients(g, loss, {x, w}, feed);
}

TEST(Autodiff, Softmax)
{
    Graph g;
    Val x = g.placeholder(Shape({2, 5}), "x");
    Val loss = scalarize(g, g.apply1(ol::softmax(), {x}));
    Rng rng(11);
    FeedDict feed;
    feed[x.node] = Tensor::uniform(Shape({2, 5}), rng, -1.0f, 1.0f);
    checkGradients(g, loss, {x}, feed);
}

TEST(Autodiff, CrossEntropy)
{
    Graph g;
    Val logits = g.placeholder(Shape({3, 4}), "logits");
    Val labels = g.placeholder(Shape({3}), "labels");
    Val loss = g.apply1(ol::crossEntropyLoss(), {logits, labels});
    Rng rng(12);
    FeedDict feed;
    feed[logits.node] =
        Tensor::uniform(Shape({3, 4}), rng, -1.0f, 1.0f);
    feed[labels.node] = Tensor(Shape({3}), {0, 2, 3});
    checkGradients(g, loss, {logits}, feed);
}

TEST(Autodiff, CrossEntropyWithPadding)
{
    Graph g;
    Val logits = g.placeholder(Shape({3, 4}), "logits");
    Val labels = g.placeholder(Shape({3}), "labels");
    Val loss = g.apply1(ol::crossEntropyLoss(), {logits, labels});
    Rng rng(13);
    FeedDict feed;
    feed[logits.node] =
        Tensor::uniform(Shape({3, 4}), rng, -1.0f, 1.0f);
    feed[labels.node] = Tensor(Shape({3}), {0, -1.0f, 3});
    checkGradients(g, loss, {logits}, feed);
}

TEST(Autodiff, Embedding)
{
    Graph g;
    Val table = g.placeholder(Shape({4, 3}), "table");
    Val ids = g.placeholder(Shape({2, 2}), "ids");
    Val emb = g.apply1(ol::embedding(), {table, ids});
    Val loss = scalarize(g, emb);
    Rng rng(14);
    FeedDict feed;
    feed[table.node] =
        Tensor::uniform(Shape({4, 3}), rng, -0.5f, 0.5f);
    feed[ids.node] = Tensor(Shape({2, 2}), {0, 3, 3, 1});
    checkGradients(g, loss, {table}, feed);
}

TEST(Autodiff, ShapePlumbingChain)
{
    Graph g;
    Val x = g.placeholder(Shape({2, 3, 4}), "x");
    Val p = g.apply1(ol::permute3d({1, 0, 2}), {x});
    Val r = g.apply1(ol::reverseAxis(0, true), {p});
    Val s = g.apply1(ol::sliceOp(2, 1, 3), {r});
    Val f = g.apply1(ol::reshape(Shape({3, 4})), {s});
    Val t = g.apply1(ol::transpose2d(), {f});
    Val loss = scalarize(g, t);
    Rng rng(15);
    FeedDict feed;
    feed[x.node] = Tensor::uniform(Shape({2, 3, 4}), rng, -0.5f, 0.5f);
    checkGradients(g, loss, {x}, feed);
}

TEST(Autodiff, ConcatGrad)
{
    Graph g;
    Val a = g.placeholder(Shape({2, 2}), "a");
    Val b = g.placeholder(Shape({2, 3}), "b");
    Val c = g.apply1(ol::concat(1), {a, b});
    Val loss = scalarize(g, c);
    Rng rng(16);
    FeedDict feed;
    feed[a.node] = Tensor::uniform(Shape({2, 2}), rng, -0.5f, 0.5f);
    feed[b.node] = Tensor::uniform(Shape({2, 3}), rng, -0.5f, 0.5f);
    checkGradients(g, loss, {a, b}, feed);
}

TEST(Autodiff, GradAccumulationAcrossConsumers)
{
    // x feeds two branches; gradient must be the sum of both paths.
    Graph g;
    Val x = g.placeholder(Shape({1, 3}), "x");
    Val y1 = g.apply1(ol::scale(2.0f), {x});
    Val y2 = g.apply1(ol::tanhOp(), {x});
    Val y = g.apply1(ol::add(), {y1, y2});
    Val loss = scalarize(g, y);
    Rng rng(17);
    FeedDict feed;
    feed[x.node] = Tensor::uniform(Shape({1, 3}), rng, -0.5f, 0.5f);
    checkGradients(g, loss, {x}, feed);
}

TEST(Autodiff, UnusedWeightGetsZeroGrad)
{
    Graph g;
    Val x = g.placeholder(Shape({1, 2}), "x");
    Val w = g.weight(Shape({3, 3}), "unused");
    Val loss = scalarize(g, g.apply1(ol::tanhOp(), {x}));
    GradientResult gr = backward(g, loss, {w});
    ASSERT_EQ(gr.weight_grads.size(), 1u);
    Executor ex({gr.weight_grads[0]});
    FeedDict feed;
    Rng rng(18);
    feed[x.node] = Tensor::uniform(Shape({1, 2}), rng);
    feed[w.node] = Tensor::uniform(Shape({3, 3}), rng);
    auto out = ex.run(feed);
    EXPECT_DOUBLE_EQ(out[0].sum(), 0.0);
}

TEST(Autodiff, BackwardNodesTagged)
{
    Graph g;
    Val x = g.placeholder(Shape({1, 2}), "x");
    Val y;
    {
        TagScope tag(g, "attention");
        y = g.apply1(ol::tanhOp(), {x});
    }
    Val loss = scalarize(g, y);
    backward(g, loss, {});
    bool found_tagged_bwd = false;
    for (const auto &n : g.nodes())
        if (n->phase == Phase::kBackward &&
            n->layer_tag == "attention")
            found_tagged_bwd = true;
    EXPECT_TRUE(found_tagged_bwd);
}

TEST(Autodiff, FusedLstmLayerGradient)
{
    const int64_t t = 2, b = 2, i = 3, h = 2;
    Graph g;
    Val x = g.placeholder(Shape({t, b, i}), "x");
    Val wx = g.weight(Shape({4 * h, i}), "wx");
    Val wh = g.weight(Shape({4 * h, h}), "wh");
    Val bias = g.weight(Shape({4 * h}), "bias");
    Val h0 = g.placeholder(Shape({b, h}), "h0");
    Val c0 = g.placeholder(Shape({b, h}), "c0");
    auto outs = g.apply(ol::fusedLstmLayer(ol::FusedRnnStyle::kCudnn),
                        {x, wx, wh, bias, h0, c0});
    Val loss = scalarize(g, outs[0]);
    Rng rng(19);
    FeedDict feed;
    feed[x.node] = Tensor::uniform(Shape({t, b, i}), rng, -0.5f, 0.5f);
    feed[wx.node] =
        Tensor::uniform(Shape({4 * h, i}), rng, -0.5f, 0.5f);
    feed[wh.node] =
        Tensor::uniform(Shape({4 * h, h}), rng, -0.5f, 0.5f);
    feed[bias.node] = Tensor::uniform(Shape({4 * h}), rng, -0.2f, 0.2f);
    feed[h0.node] = Tensor::uniform(Shape({b, h}), rng, -0.3f, 0.3f);
    feed[c0.node] = Tensor::uniform(Shape({b, h}), rng, -0.3f, 0.3f);
    checkGradients(g, loss, {x, wx, wh, bias, h0, c0}, feed, 1e-3,
                   5e-2);
}

TEST(Autodiff, Conv2dGradient)
{
    Graph g;
    Val x = g.placeholder(Shape({1, 2, 4, 4}), "x");
    Val w = g.weight(Shape({2, 2, 3, 3}), "w");
    Val y = g.apply1(ol::conv2d(1), {x, w});
    Val pooled = g.apply1(ol::globalAvgPool(), {y});
    Val loss = scalarize(g, pooled);
    Rng rng(20);
    FeedDict feed;
    feed[x.node] =
        Tensor::uniform(Shape({1, 2, 4, 4}), rng, -0.5f, 0.5f);
    feed[w.node] =
        Tensor::uniform(Shape({2, 2, 3, 3}), rng, -0.3f, 0.3f);
    checkGradients(g, loss, {x, w}, feed, 1e-3, 5e-2);
}

TEST(Autodiff, StridedConvGradient)
{
    Graph g;
    Val x = g.placeholder(Shape({1, 1, 4, 4}), "x");
    Val w = g.weight(Shape({2, 1, 3, 3}), "w");
    Val y = g.apply1(ol::conv2d(2), {x, w});
    Val pooled = g.apply1(ol::globalAvgPool(), {y});
    Val loss = scalarize(g, pooled);
    Rng rng(21);
    FeedDict feed;
    feed[x.node] =
        Tensor::uniform(Shape({1, 1, 4, 4}), rng, -0.5f, 0.5f);
    feed[w.node] =
        Tensor::uniform(Shape({2, 1, 3, 3}), rng, -0.3f, 0.3f);
    checkGradients(g, loss, {x, w}, feed, 1e-3, 5e-2);
}

} // namespace
} // namespace echo::graph
