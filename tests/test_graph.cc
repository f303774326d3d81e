/**
 * @file
 * Tests for the graph IR: construction, shape inference, tagging,
 * scheduling, and the numeric executor.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "analysis/graph_verifier.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "graph/executor.h"
#include "graph/graph.h"
#include "graph/ops/op_fused_rnn.h"
#include "graph/ops/oplib.h"
#include "graph/schedule.h"
#include "obs/counters.h"
#include "tensor/ops.h"

namespace echo::graph {
namespace {

namespace ol = oplib;

TEST(Graph, PlaceholderAndWeightShapes)
{
    Graph g;
    Val x = g.placeholder(Shape({2, 3}), "x");
    Val w = g.weight(Shape({4, 3}), "w");
    EXPECT_EQ(Graph::shapeOf(x), Shape({2, 3}));
    EXPECT_EQ(Graph::shapeOf(w), Shape({4, 3}));
    EXPECT_EQ(g.numNodes(), 2u);
    EXPECT_EQ(g.weights().size(), 1u);
    EXPECT_EQ(g.placeholders().size(), 1u);
}

TEST(Graph, ApplyInfersShapes)
{
    Graph g;
    Val x = g.placeholder(Shape({2, 3}), "x");
    Val w = g.weight(Shape({4, 3}), "w");
    Val y = g.apply1(ol::gemm(false, true), {x, w});
    EXPECT_EQ(Graph::shapeOf(y), Shape({2, 4}));
}

TEST(Graph, TagScopePropagates)
{
    Graph g;
    Val x = g.placeholder(Shape({2}), "x");
    {
        TagScope scope(g, "attention");
        Val y = g.apply1(ol::tanhOp(), {x});
        EXPECT_EQ(y.node->layer_tag, "attention");
    }
    Val z = g.apply1(ol::tanhOp(), {x});
    EXPECT_EQ(z.node->layer_tag, "");
}

TEST(Graph, TimeStepRecorded)
{
    Graph g;
    Val x = g.placeholder(Shape({2}), "x");
    g.setTimeStep(5);
    Val y = g.apply1(ol::tanhOp(), {x});
    EXPECT_EQ(y.node->time_step, 5);
    g.setTimeStep(-1);
    EXPECT_EQ(x.node->time_step, -1);
}

TEST(Graph, ToStringMentionsOps)
{
    Graph g;
    Val x = g.placeholder(Shape({2}), "input_x");
    g.apply1(ol::tanhOp(), {x});
    const std::string s = g.toString();
    EXPECT_NE(s.find("input_x"), std::string::npos);
    EXPECT_NE(s.find("tanh"), std::string::npos);
}

TEST(Reachable, OnlyAncestorsIncluded)
{
    Graph g;
    Val x = g.placeholder(Shape({2}), "x");
    Val used = g.apply1(ol::tanhOp(), {x});
    g.apply1(ol::sigmoidOp(), {x}); // dead branch
    auto nodes = reachableNodes({used});
    EXPECT_EQ(nodes.size(), 2u);
}

TEST(Schedule, TopologicalAndComplete)
{
    Graph g;
    Val x = g.placeholder(Shape({2, 3}), "x");
    Val w = g.weight(Shape({4, 3}), "w");
    Val y = g.apply1(ol::gemm(false, true), {x, w});
    Val z = g.apply1(ol::tanhOp(), {y});
    auto sched = buildSchedule({z});
    ASSERT_EQ(sched.size(), 4u);
    EXPECT_EQ(sched.back()->op->name(), "tanh");
}

TEST(Graph, BuiltGraphsPassStaticVerifier)
{
    Graph g;
    Val x = g.placeholder(Shape({2, 3}), "x");
    Val w = g.weight(Shape({4, 3}), "w");
    Val y = g.apply1(ol::gemm(false, true), {x, w});
    Val z = g.apply1(ol::tanhOp(), {y});
    EXPECT_TRUE(analysis::verifyGraph(g).ok());
    EXPECT_TRUE(analysis::verifyFetches({z}).ok());
}

TEST(Graph, SharedNodeIdReachesVerifier)
{
    // Two distinct reachable nodes with one id: the walk must keep
    // both, so the verifier can name the duplicate.
    Graph g;
    Val x = g.placeholder(Shape({2, 3}), "x");
    Val a = g.apply1(ol::tanhOp(), {x});
    Val b = g.apply1(ol::sigmoidOp(), {x});
    Val c = g.apply1(ol::mul(), {a, b});
    b.node->id = a.node->id;
    EXPECT_EQ(reachableNodes({c}).size(), 4u);
    const analysis::AnalysisReport r = analysis::verifyFetches({c});
    bool duplicate = false;
    for (const analysis::Diagnostic &d : r.diagnostics)
        duplicate = duplicate || d.check == analysis::Check::kMalformedNode;
    EXPECT_TRUE(duplicate) << r.toString();

    // A negative id is not an index: the walk and the verifier still
    // see every node.
    b.node->id = -1;
    EXPECT_EQ(reachableNodes({c}).size(), 4u);
    EXPECT_TRUE(analysis::verifyFetches({c}).ok());
}

TEST(Schedule, RecomputeNodesAnchorBeforeConsumer)
{
    Graph g;
    Val x = g.placeholder(Shape({2}), "x");
    Val a = g.apply1(ol::tanhOp(), {x});

    // Fake a backward region with an intervening node, then a recompute
    // node consumed late.
    g.setPhase(Phase::kBackward);
    Val b1 = g.apply1(ol::sigmoidOp(), {x}, "bwd_early");
    g.setPhase(Phase::kRecompute);
    Val r = g.apply1(ol::tanhOp(), {x}, "replay");
    g.setPhase(Phase::kBackward);
    Val b2 = g.apply1(ol::mul(), {r, b1}, "bwd_late");
    g.setPhase(Phase::kForward);

    auto sched = buildSchedule({a, b2});
    // Expected order: x, a(fwd), bwd_early, replay, bwd_late.
    std::vector<std::string> names;
    for (Node *n : sched)
        names.push_back(n->name);
    ASSERT_EQ(names.size(), 5u);
    EXPECT_EQ(names[2], "bwd_early");
    EXPECT_EQ(names[3], "replay");
    EXPECT_EQ(names[4], "bwd_late");
}

TEST(Executor, RunsSimpleChain)
{
    Graph g;
    Val x = g.placeholder(Shape({2, 2}), "x");
    Val y = g.apply1(ol::scale(2.0f), {x});
    Val z = g.apply1(ol::tanhOp(), {y});

    Executor ex({z});
    FeedDict feed;
    feed[x.node] = Tensor(Shape({2, 2}), {0.0f, 1.0f, -1.0f, 0.5f});
    auto out = ex.run(feed);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_NEAR(out[0].at(0, 1), std::tanh(2.0f), 1e-6);
    EXPECT_NEAR(out[0].at(1, 0), std::tanh(-2.0f), 1e-6);
}

TEST(Executor, MultiOutputOpFetches)
{
    Graph g;
    Val x = g.placeholder(Shape({2, 4}), "x");
    std::vector<Val> outs = g.apply(ol::layerNorm(), {x});
    ASSERT_EQ(outs.size(), 2u);

    Executor ex({outs[0], outs[1]});
    Rng rng(7);
    FeedDict feed;
    feed[x.node] = Tensor::uniform(Shape({2, 4}), rng, -2.0f, 2.0f);
    auto result = ex.run(feed);
    EXPECT_EQ(result[0].shape(), Shape({2, 4}));
    EXPECT_EQ(result[1].shape(), Shape({2}));
    EXPECT_GT(result[1].at(0), 0.0f); // rstd is positive
}

TEST(Executor, DiamondDependency)
{
    Graph g;
    Val x = g.placeholder(Shape({3}), "x");
    Val a = g.apply1(ol::scale(2.0f), {x});
    Val b = g.apply1(ol::scale(3.0f), {x});
    Val c = g.apply1(ol::add(), {a, b});

    Executor ex({c});
    FeedDict feed;
    feed[x.node] = Tensor(Shape({3}), {1, 2, 3});
    auto out = ex.run(feed);
    EXPECT_FLOAT_EQ(out[0].at(2), 15.0f);
}

TEST(Executor, SameValueUsedTwice)
{
    Graph g;
    Val x = g.placeholder(Shape({2}), "x");
    Val y = g.apply1(ol::mul(), {x, x});
    Executor ex({y});
    FeedDict feed;
    feed[x.node] = Tensor(Shape({2}), {3.0f, -4.0f});
    auto out = ex.run(feed);
    EXPECT_FLOAT_EQ(out[0].at(0), 9.0f);
    EXPECT_FLOAT_EQ(out[0].at(1), 16.0f);
}

TEST(Executor, MissingFeedDies)
{
    Graph g;
    Val x = g.placeholder(Shape({2}), "x");
    Val y = g.apply1(ol::tanhOp(), {x});
    Executor ex({y});
    FeedDict feed;
    EXPECT_EXIT({ ex.run(feed); },
                ::testing::ExitedWithCode(1), "no feed");
}

TEST(Executor, ConstantNeedsNoFeed)
{
    Graph g;
    Val c = g.apply1(ol::constant(Shape({2, 2}), 3.5f), {});
    Executor ex({c});
    auto out = ex.run({});
    EXPECT_DOUBLE_EQ(out[0].sum(), 14.0);
}

TEST(Executor, ParallelMatchesSerialBitExact)
{
    // Wide fan graph: many independent branches merged pairwise, so
    // the ready queue actually dispatches concurrent nodes.  The
    // parallel run must reproduce the serial run byte for byte.
    Graph g;
    Rng rng(41);
    Val x = g.placeholder(Shape({64, 64}), "x");
    std::vector<Val> branches;
    for (int i = 0; i < 8; ++i) {
        Val s = g.apply1(ol::scale(0.1f * static_cast<float>(i + 1)),
                         {x});
        branches.push_back(g.apply1(ol::tanhOp(), {s}));
    }
    while (branches.size() > 1) {
        std::vector<Val> next;
        for (size_t i = 0; i + 1 < branches.size(); i += 2)
            next.push_back(
                g.apply1(ol::add(), {branches[i], branches[i + 1]}));
        branches = std::move(next);
    }
    Val top = g.apply1(ol::mul(), {branches[0], branches[0]});

    FeedDict feed;
    feed[x.node] = Tensor::uniform(Shape({64, 64}), rng, -2.0f, 2.0f);

    ThreadPool::setGlobalNumThreads(4);
    Executor serial({top, branches[0]}, ExecMode::kSerial);
    Executor parallel({top, branches[0]}, ExecMode::kParallel);
    const auto a = serial.run(feed);
    const auto b = parallel.run(feed);
    ThreadPool::setGlobalNumThreads(ThreadPool::defaultNumThreads());

    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].shape(), b[i].shape());
        EXPECT_EQ(std::memcmp(a[i].data(), b[i].data(),
                              static_cast<size_t>(a[i].numel()) *
                                  sizeof(float)),
                  0)
            << "fetch " << i;
    }
}

TEST(Executor, ParallelHandlesMultiOutputAndSharedInputs)
{
    Graph g;
    Rng rng(43);
    Val x = g.placeholder(Shape({4, 8}), "x");
    auto ln = g.apply(ol::layerNorm(), {x});
    Val doubled = g.apply1(ol::mul(), {ln[0], ln[0]});

    FeedDict feed;
    feed[x.node] = Tensor::uniform(Shape({4, 8}), rng, -2.0f, 2.0f);

    ThreadPool::setGlobalNumThreads(4);
    Executor parallel({doubled, ln[1]}, ExecMode::kParallel);
    Executor serial({doubled, ln[1]}, ExecMode::kSerial);
    const auto p = parallel.run(feed);
    const auto s = serial.run(feed);
    ThreadPool::setGlobalNumThreads(ThreadPool::defaultNumThreads());

    EXPECT_EQ(std::memcmp(p[0].data(), s[0].data(),
                          static_cast<size_t>(p[0].numel()) *
                              sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(p[1].data(), s[1].data(),
                          static_cast<size_t>(p[1].numel()) *
                              sizeof(float)),
              0);
}

TEST(Executor, AutoModeIsDefaultAndRuns)
{
    Graph g;
    Val x = g.placeholder(Shape({2}), "x");
    Val y = g.apply1(ol::tanhOp(), {x});
    Executor ex({y});
    EXPECT_EQ(ex.mode(), ExecMode::kAuto);
    FeedDict feed;
    feed[x.node] = Tensor(Shape({2}), {0.5f, -0.5f});
    const auto out = ex.run(feed);
    EXPECT_NEAR(out[0].at(0), std::tanh(0.5f), 1e-6);
}

/** True when every fetch of @p a matches @p b byte for byte. */
bool
sameBytes(const std::vector<Tensor> &a, const std::vector<Tensor> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].shape() != b[i].shape() ||
            std::memcmp(a[i].data(), b[i].data(),
                        static_cast<size_t>(a[i].numel()) *
                            sizeof(float)) != 0)
            return false;
    }
    return true;
}

/**
 * @p width chains of @p depth alternating scale/tanh nodes hanging off
 * @p x, summed pairwise; @p tap (if set) is spliced into the middle of
 * the first chain.  width 8 x depth 12 gives a 104-node schedule.
 */
Val
wideChains(Graph &g, Val x, int width, int depth, OpPtr tap = nullptr)
{
    std::vector<Val> chains;
    for (int c = 0; c < width; ++c) {
        Val v = x;
        for (int d = 0; d < depth; ++d) {
            if (c == 0 && d == depth / 2 && tap)
                v = g.apply1(tap, {v});
            v = d % 2 == 0
                    ? g.apply1(ol::scale(0.5f + 0.1f * static_cast<float>(c)),
                               {v})
                    : g.apply1(ol::tanhOp(), {v});
        }
        chains.push_back(v);
    }
    while (chains.size() > 1) {
        std::vector<Val> next;
        for (size_t i = 0; i + 1 < chains.size(); i += 2)
            next.push_back(g.apply1(ol::add(), {chains[i], chains[i + 1]}));
        chains = std::move(next);
    }
    return chains[0];
}

/** Identity that throws while @p armed is set. */
class ThrowWhenArmedOp : public Op
{
  public:
    explicit ThrowWhenArmedOp(const std::atomic<bool> &armed)
        : armed_(armed)
    {
    }

    std::string name() const override { return "throw_when_armed"; }

    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        return {in[0]};
    }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        if (armed_.load())
            throw std::runtime_error("armed op fired");
        out[0] = in[0];
    }

    std::vector<Val>
    buildGradient(GradContext &) const override
    {
        return {Val{}};
    }

  private:
    const std::atomic<bool> &armed_;
};

/** Restores the default global pool when a test leaves scope. */
struct PoolOf
{
    explicit PoolOf(int threads) { ThreadPool::setGlobalNumThreads(threads); }
    ~PoolOf()
    {
        ThreadPool::setGlobalNumThreads(ThreadPool::defaultNumThreads());
    }
};

TEST(Executor, ParallelRethrowsOpErrorAndRunsAgain)
{
    PoolOf pool(2);
    std::atomic<bool> armed{true};
    Graph g;
    Rng rng(47);
    Val x = g.placeholder(Shape({16, 16}), "x");
    Val top = wideChains(g, x, 4, 8,
                         std::make_shared<ThrowWhenArmedOp>(armed));
    FeedDict feed;
    feed[x.node] = Tensor::uniform(Shape({16, 16}), rng, -1.0f, 1.0f);

    Executor parallel({top}, ExecMode::kParallel);
    for (int attempt = 0; attempt < 3; ++attempt)
        EXPECT_THROW(parallel.run(feed), std::runtime_error);

    armed = false;
    const auto p = parallel.run(feed);
    const auto s = Executor({top}, ExecMode::kSerial).run(feed);
    EXPECT_TRUE(sameBytes(p, s));
}

TEST(Executor, ConcurrentRunsMatchSerial)
{
    PoolOf pool(2);
    Graph g;
    Rng rng(53);
    Val x = g.placeholder(Shape({32, 32}), "x");
    Val top = wideChains(g, x, 8, 12);
    FeedDict feed;
    feed[x.node] = Tensor::uniform(Shape({32, 32}), rng, -1.0f, 1.0f);

    const auto expected = Executor({top}, ExecMode::kSerial).run(feed);
    Executor parallel({top}, ExecMode::kParallel);
    std::atomic<int> mismatches{0};
    std::vector<std::thread> callers;
    for (int t = 0; t < 4; ++t)
        callers.emplace_back([&] {
            for (int i = 0; i < 5; ++i)
                if (!sameBytes(parallel.run(feed), expected))
                    ++mismatches;
        });
    for (std::thread &t : callers)
        t.join();
    EXPECT_EQ(mismatches.load(), 0);
}

TEST(Executor, RunInsideParallelForCompletes)
{
    PoolOf pool(2);
    Graph g;
    Rng rng(59);
    Val x = g.placeholder(Shape({16, 16}), "x");
    Val top = wideChains(g, x, 4, 6);
    FeedDict feed;
    feed[x.node] = Tensor::uniform(Shape({16, 16}), rng, -1.0f, 1.0f);

    const auto expected = Executor({top}, ExecMode::kSerial).run(feed);
    Executor parallel({top}, ExecMode::kParallel);
    std::vector<std::vector<Tensor>> got(8);
    ThreadPool::global().parallelFor(0, 8, 1, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i)
            got[static_cast<size_t>(i)] = parallel.run(feed);
    });
    for (const auto &r : got)
        EXPECT_TRUE(sameBytes(r, expected));
}

TEST(Executor, ParallelRunSubmitsAtMostOneTaskPerThread)
{
    PoolOf pool(2);
    Graph g;
    Rng rng(61);
    Val x = g.placeholder(Shape({8, 8}), "x");
    Val top = wideChains(g, x, 8, 12);
    FeedDict feed;
    feed[x.node] = Tensor::uniform(Shape({8, 8}), rng, -1.0f, 1.0f);

    Executor parallel({top}, ExecMode::kParallel);
    ASSERT_GE(parallel.schedule().size(), 100u);
    const obs::Counter &submitted = obs::counter(
        "pool.tasks_submitted", obs::CounterKind::kScheduling);
    const int threads = ThreadPool::global().numThreads();
    for (int i = 0; i < 4; ++i) {
        const int64_t before = submitted.value();
        parallel.run(feed);
        EXPECT_LE(submitted.value() - before, threads);
    }
}

TEST(FusedLstm, ShapesAndFiniteness)
{
    const int64_t t = 3, b = 2, i = 4, h = 5;
    Graph g;
    Rng rng(11);
    Val x = g.placeholder(Shape({t, b, i}), "x");
    Val wx = g.weight(Shape({4 * h, i}), "wx");
    Val wh = g.weight(Shape({4 * h, h}), "wh");
    Val bias = g.weight(Shape({4 * h}), "b");
    Val h0 = g.placeholder(Shape({b, h}), "h0");
    Val c0 = g.placeholder(Shape({b, h}), "c0");
    auto outs = g.apply(ol::fusedLstmLayer(ol::FusedRnnStyle::kCudnn),
                        {x, wx, wh, bias, h0, c0});
    ASSERT_EQ(outs.size(), 4u);
    EXPECT_EQ(Graph::shapeOf(outs[0]), Shape({t, b, h}));
    EXPECT_EQ(Graph::shapeOf(outs[3]), Shape({t, b, 5 * h}));

    Executor ex({outs[0], outs[1], outs[2]});
    FeedDict feed;
    feed[x.node] = Tensor::uniform(Shape({t, b, i}), rng);
    feed[wx.node] = Tensor::uniform(Shape({4 * h, i}), rng);
    feed[wh.node] = Tensor::uniform(Shape({4 * h, h}), rng);
    feed[bias.node] = Tensor::zeros(Shape({4 * h}));
    feed[h0.node] = Tensor::zeros(Shape({b, h}));
    feed[c0.node] = Tensor::zeros(Shape({b, h}));
    auto out = ex.run(feed);
    EXPECT_TRUE(out[0].allFinite());
    // Last row of HS equals hT.
    for (int64_t r = 0; r < b; ++r)
        for (int64_t j = 0; j < h; ++j)
            EXPECT_FLOAT_EQ(out[0].at(t - 1, r, j), out[1].at(r, j));
}


TEST(Graph, ToDotRendersPhasesAndEdges)
{
    Graph g;
    Val x = g.placeholder(Shape({2}), "input_x");
    Val y = g.apply1(ol::tanhOp(), {x}, "act");
    g.setPhase(Phase::kRecompute);
    Val r = g.apply1(ol::tanhOp(), {x}, "replay");
    g.setPhase(Phase::kForward);
    (void)y;
    (void)r;
    const std::string dot = g.toDot();
    EXPECT_NE(dot.find("digraph echo"), std::string::npos);
    EXPECT_NE(dot.find("input_x"), std::string::npos);
    EXPECT_NE(dot.find("palegreen"), std::string::npos); // recompute
    EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);  // edge
}

TEST(KernelDesc, GemmOpReportsGeometry)
{
    Graph g;
    Val x = g.placeholder(Shape({64, 512}), "x");
    Val w = g.weight(Shape({2048, 512}), "w");
    Val y = g.apply1(ol::gemm(false, true), {x, w});
    auto ks = y.node->op->kernels(
        {Shape({64, 512}), Shape({2048, 512})}, {Shape({64, 2048})});
    ASSERT_EQ(ks.size(), 1u);
    EXPECT_TRUE(ks[0].is_gemm);
    EXPECT_EQ(ks[0].gemm_m, 64);
    EXPECT_EQ(ks[0].gemm_n, 2048);
    EXPECT_EQ(ks[0].gemm_k, 512);
    EXPECT_EQ(ks[0].flops, 2ll * 64 * 2048 * 512);
}

TEST(KernelDesc, ReshapeHasNoKernels)
{
    Graph g;
    Val x = g.placeholder(Shape({2, 3}), "x");
    Val y = g.apply1(ol::reshape(Shape({6})), {x});
    EXPECT_TRUE(y.node->op->kernels({Shape({2, 3})}, {Shape({6})})
                    .empty());
}

TEST(KernelDesc, SequenceReverseCoalescingFlag)
{
    auto par = ol::reverseAxis(0, true);
    auto seq = ol::reverseAxis(0, false);
    auto kp = par->kernels({Shape({4, 2, 3})}, {Shape({4, 2, 3})});
    auto ks = seq->kernels({Shape({4, 2, 3})}, {Shape({4, 2, 3})});
    EXPECT_TRUE(kp[0].coalesced);
    EXPECT_FALSE(ks[0].coalesced);
}

TEST(Recompute, GemmNotCheap)
{
    EXPECT_FALSE(ol::gemm(false, false)->cheapToRecompute());
    EXPECT_FALSE(ol::bmm(false, false)->cheapToRecompute());
    EXPECT_TRUE(ol::tanhOp()->cheapToRecompute());
    EXPECT_TRUE(ol::layerNorm()->cheapToRecompute());
    EXPECT_TRUE(ol::broadcastAddBT()->cheapToRecompute());
}

} // namespace
} // namespace echo::graph
