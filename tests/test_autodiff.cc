/**
 * @file
 * Autodiff correctness: every differentiable op's analytic gradient is
 * checked against central finite differences.  This is the foundation
 * the Echo pass's gradient-equivalence verification builds on.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <ostream>
#include <string>

#include "core/rng.h"
#include "graph/autodiff.h"
#include "graph/executor.h"
#include "graph/ops/op_fused_rnn.h"
#include "graph/ops/oplib.h"
#include "tensor/ops.h"

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
    Val loss = scalarize(g, f);
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

/** A weight shared by @p steps per-step gemm(x_t, W^T) projections. */
struct SharedWeightGraph
{
    Graph g;
    Val w, loss;
    std::vector<Val> xs, ys;

    explicit SharedWeightGraph(int64_t steps)
    {
        w = g.weight(Shape({4, 3}), "w");
        Val acc;
        for (int64_t t = 0; t < steps; ++t) {
            g.setTimeStep(static_cast<int>(t));
            xs.push_back(g.placeholder(Shape({2, 3}), "x"));
            ys.push_back(g.apply1(ol::gemm(false, true), {xs.back(), w}));
            const Val s = g.apply1(ol::tanhOp(), {ys.back()});
            acc = acc.defined() ? g.apply1(ol::add(), {acc, s}) : s;
        }
        g.setTimeStep(-1);
        loss = scalarize(g, acc);
    }

    FeedDict
    feed() const
    {
        Rng rng(22);
        FeedDict f;
        f[w.node] = Tensor::uniform(Shape({4, 3}), rng, -0.5f, 0.5f);
        for (const Val &x : xs)
            f[x.node] = Tensor::uniform(Shape({2, 3}), rng, -1.0f, 1.0f);
        return f;
    }
};

TEST(Autodiff, SharedWeightGradientIsOneGemm)
{
    const int64_t steps = 5;
    SharedWeightGraph m(steps);
    const GradientResult gr = backward(m.g, m.loss, {m.w});
    const Val dw = gr.weight_grads[0];

    // dW = concat(dC_t)^T * concat(x_t): one GEMM straight off the two
    // forward-ordered stacks, no add anywhere on its chain.
    ASSERT_EQ(dw.node->op->name(), "gemm");
    const std::optional<GemmTransposes> t = dw.node->op->gemmTransposes();
    ASSERT_TRUE(t.has_value());
    EXPECT_TRUE(t->a);
    EXPECT_FALSE(t->b);
    EXPECT_EQ(dw.node->time_step, -1);
    const Node *dc_stack = dw.node->inputs[0].node;
    const Node *a_stack = dw.node->inputs[1].node;
    ASSERT_EQ(dc_stack->op->name(), "concat");
    ASSERT_EQ(a_stack->op->name(), "concat");
    ASSERT_EQ(dc_stack->inputs.size(), static_cast<size_t>(steps));
    ASSERT_EQ(a_stack->inputs.size(), static_cast<size_t>(steps));
    for (int64_t i = 0; i < steps; ++i) {
        EXPECT_EQ(dc_stack->inputs[i], gr.all_grads.at(m.ys[i]));
        EXPECT_EQ(a_stack->inputs[i], m.xs[i]);
    }
    int weight_gemms = 0;
    for (const auto &n : m.g.nodes()) {
        if (n->phase != Phase::kBackward)
            continue;
        EXPECT_NE(n->op->name(), "add") << "node #" << n->id;
        const auto nt = n->op->gemmTransposes();
        if (nt && nt->a)
            ++weight_gemms;
    }
    EXPECT_EQ(weight_gemms, 1);

    // Bit-equal to the reference GEMM over the concatenated operands.
    std::vector<Val> fetches = {dw};
    for (const Val &y : m.ys)
        fetches.push_back(gr.all_grads.at(y));
    Executor ex(fetches);
    const FeedDict feed = m.feed();
    const std::vector<Tensor> out = ex.run(feed);
    std::vector<Tensor> dcs(out.begin() + 1, out.end());
    std::vector<Tensor> as;
    for (const Val &x : m.xs)
        as.push_back(feed.at(x.node));
    const Tensor ref = ops::gemmReference(ops::concat(dcs, 0), true,
                                          ops::concat(as, 0), false);
    ASSERT_EQ(ref.shape(), out[0].shape());
    EXPECT_EQ(std::memcmp(ref.data(), out[0].data(),
                          static_cast<size_t>(ref.numel()) * 4),
              0);

    SharedWeightGraph fd(steps);
    checkGradients(fd.g, fd.loss, {fd.w}, fd.feed());
}

TEST(Autodiff, CoveringSlicesAssembleByConcat)
{
    // Four gates: four slices covering axis 1, built out of order.
    auto build_gates = [](Graph &g, Val &x) {
        x = g.placeholder(Shape({2, 8}), "gates");
        auto gate = [&](OpPtr act, int axis, int64_t begin) {
            return g.apply1(std::move(act),
                            {g.apply1(ol::sliceOp(axis, begin, begin + 2),
                                      {x})});
        };
        const Val i = gate(ol::sigmoidOp(), 1, 0);
        const Val o = gate(ol::sigmoidOp(), -1, 6);
        const Val gg = gate(ol::tanhOp(), 1, 4);
        const Val f = gate(ol::sigmoidOp(), 1, 2);
        return scalarize(g, g.apply1(ol::add(),
                                     {g.apply1(ol::mul(), {i, gg}),
                                      g.apply1(ol::mul(), {f, o})}));
    };
    {
        Graph g;
        Val x;
        const Val loss = build_gates(g, x);
        const Val dx = backward(g, loss, {x}).weight_grads[0];
        ASSERT_EQ(dx.node->op->name(), "concat");
        EXPECT_EQ(dx.node->inputs.size(), 4u);
        for (const auto &n : g.nodes())
            EXPECT_NE(n->op ? n->op->name() : "", "slice_grad");

        Graph fd_g;
        Val fx;
        const Val fd_loss = build_gates(fd_g, fx);
        Rng rng(23);
        FeedDict feed;
        feed[fx.node] = Tensor::uniform(Shape({2, 8}), rng, -1.0f, 1.0f);
        checkGradients(fd_g, fd_loss, {fx}, feed);
    }

    // A covering slice whose output gets no gradient (it only feeds
    // embedding ids) contributes a zero block.
    auto build_ids = [](Graph &g, Val &x, Val &table) {
        x = g.placeholder(Shape({2, 3}), "x");
        table = g.weight(Shape({3, 2}), "table");
        const Val data = g.apply1(ol::sliceOp(1, 0, 2), {x});
        const Val ids = g.apply1(ol::reshape(Shape({2})),
                                 {g.apply1(ol::sliceOp(1, 2, 3), {x})});
        const Val emb = g.apply1(ol::embedding(), {table, ids});
        return g.apply1(ol::add(), {scalarize(g, data), scalarize(g, emb)});
    };
    {
        Graph g;
        Val x, table;
        const Val loss = build_ids(g, x, table);
        const Val dx = backward(g, loss, {x}).weight_grads[0];
        ASSERT_EQ(dx.node->op->name(), "concat");
        ASSERT_EQ(dx.node->inputs.size(), 2u);
        EXPECT_EQ(dx.node->inputs[1].node->op->name(), "constant");

        Graph fd_g;
        Val fx, ftable;
        const Val fd_loss = build_ids(fd_g, fx, ftable);
        Rng rng(24);
        FeedDict feed;
        // Ids sit mid-way between integers so the +-eps probes of the
        // finite difference never change the looked-up row.
        Tensor xv = Tensor::uniform(Shape({2, 3}), rng, -1.0f, 1.0f);
        xv.at(2) = 1.5f;
        xv.at(5) = 0.5f;
        feed[fx.node] = xv;
        feed[ftable.node] = Tensor::uniform(Shape({3, 2}), rng, -1.0f, 1.0f);
        checkGradients(fd_g, fd_loss, {fx, ftable}, feed);
    }

    // Fallbacks keep the eager add: a gap, an overlap, and a non-slice
    // consumer beside covering slices.
    struct Fallback
    {
        const char *name;
        std::function<Val(Graph &, const Val &)> build;
    };
    const std::vector<Fallback> fallbacks = {
        {"gap",
         [](Graph &g, const Val &x) {
             return g.apply1(
                 ol::add(),
                 {g.apply1(ol::tanhOp(), {g.apply1(ol::sliceOp(1, 0, 1), {x})}),
                  g.apply1(ol::sliceOp(1, 2, 3), {x})});
         }},
        {"overlap",
         [](Graph &g, const Val &x) {
             return g.apply1(
                 ol::mul(),
                 {g.apply1(ol::tanhOp(), {g.apply1(ol::sliceOp(1, 0, 2), {x})}),
                  g.apply1(ol::sliceOp(1, 1, 3), {x})});
         }},
        {"non-slice consumer",
         [](Graph &g, const Val &x) {
             const Val lo = g.apply1(ol::sliceOp(1, 0, 1), {x});
             const Val hi = g.apply1(ol::sliceOp(1, 1, 3), {x});
             return g.apply1(
                 ol::add(),
                 {g.apply1(ol::concat(1),
                           {g.apply1(ol::tanhOp(), {lo}), hi}),
                  g.apply1(ol::tanhOp(), {x})});
         }},
    };
    for (const Fallback &fb : fallbacks) {
        SCOPED_TRACE(fb.name);
        Graph g;
        const Val x = g.placeholder(Shape({2, 3}), "x");
        const Val loss = scalarize(g, fb.build(g, x));
        EXPECT_EQ(backward(g, loss, {x}).weight_grads[0].node->op->name(),
                  "add");

        Graph fd_g;
        const Val fx = fd_g.placeholder(Shape({2, 3}), "x");
        Rng rng(25);
        FeedDict feed;
        feed[fx.node] = Tensor::uniform(Shape({2, 3}), rng, -1.0f, 1.0f);
        checkGradients(fd_g, scalarize(fd_g, fb.build(fd_g, fx)), {fx},
                       feed);
    }
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
