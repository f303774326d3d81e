/**
 * @file
 * Adversarial tests for the static-analysis layer: each test plants
 * exactly one class of corruption — a dangling edge, a cycle, a
 * use-after-free, a double free, a racy slot pair, a recomputed GEMM —
 * and asserts the analyzers flag exactly that diagnostic, plus
 * clean-graph tests asserting they stay silent on healthy inputs.
 */
#include <gtest/gtest.h>

#include "analysis/analysis.h"
#include "echo/recompute_pass.h"
#include "graph/autodiff.h"
#include "graph/executor.h"
#include "graph/ops/oplib.h"
#include "memory/liveness.h"
#include "memory/planner.h"

namespace echo::analysis {
namespace {

namespace ol = graph::oplib;
using graph::Graph;
using graph::Node;
using graph::Phase;
using graph::Val;

bool
has(const AnalysisReport &r, Check c)
{
    for (const Diagnostic &d : r.diagnostics)
        if (d.check == c)
            return true;
    return false;
}

/** True when the report has errors and every error is of check @p c. */
bool
onlyErrorsOf(const AnalysisReport &r, Check c)
{
    bool found = false;
    for (const Diagnostic &d : r.diagnostics) {
        if (d.severity != Severity::kError)
            continue;
        if (d.check != c)
            return false;
        found = true;
    }
    return found;
}

/** gemm -> tanh -> cross-entropy with one weight gradient. */
struct TinyChain
{
    Graph g;
    Val x, w, labels, h, th, loss;
    std::vector<Val> fetches, weight_grads;

    TinyChain()
    {
        x = g.placeholder(Shape({4, 8}), "x");
        w = g.weight(Shape({8, 8}), "w");
        labels = g.placeholder(Shape({4}), "labels");
        h = g.apply1(ol::gemm(false, true), {x, w});
        th = g.apply1(ol::tanhOp(), {h});
        loss = g.apply1(ol::crossEntropyLoss(), {th, labels});
        auto gr = graph::backward(g, loss, {w});
        weight_grads = gr.weight_grads;
        fetches = {loss};
        fetches.insert(fetches.end(), weight_grads.begin(),
                       weight_grads.end());
    }
};

/**
 * The per-step attention scoring structure the Echo pass targets
 * (compact twin of test_echo_pass.cc's ToyAttentionModel).
 */
struct MiniAttention
{
    std::unique_ptr<Graph> g = std::make_unique<Graph>();
    Val hs, q0, labels, loss;
    std::vector<Val> fetches, weight_grads;

    void
    build(int64_t b, int64_t t, int64_t h)
    {
        hs = g->placeholder(Shape({b, t, h}), "encoder_states");
        q0 = g->placeholder(Shape({b, h}), "q0");
        labels = g->placeholder(Shape({b}), "labels");
        Val wk = g->weight(Shape({h, h}), "wk");
        Val wq = g->weight(Shape({h, h}), "wq");
        Val wo = g->weight(Shape({h, h}), "wo");
        Val v = g->weight(Shape({h}), "v");

        Val proj_k;
        {
            graph::TagScope tag(*g, "encoder");
            Val flat = g->apply1(ol::reshape(Shape({b * t, h})), {hs});
            Val pk = g->apply1(ol::gemm(false, true), {flat, wk});
            proj_k = g->apply1(ol::reshape(Shape({b, t, h})), {pk});
        }
        Val cur = q0;
        for (int64_t step = 0; step < t; ++step) {
            g->setTimeStep(static_cast<int>(step));
            graph::TagScope tag(*g, "attention");
            Val q = g->apply1(ol::gemm(false, true), {cur, wq});
            Val e = g->apply1(ol::broadcastAddBT(), {proj_k, q});
            Val ln = g->apply(ol::layerNorm(), {e})[0];
            Val th = g->apply1(ol::tanhOp(), {ln});
            Val scores = g->apply1(ol::dotLastAxis(), {th, v});
            Val alpha = g->apply1(ol::softmax(), {scores});
            Val alpha3 =
                g->apply1(ol::reshape(Shape({b, 1, t})), {alpha});
            Val c3 =
                g->apply1(ol::bmm(false, false), {alpha3, proj_k});
            Val c2 = g->apply1(ol::reshape(Shape({b, h})), {c3});
            Val ctx = g->apply1(ol::add(), {c2, q});
            cur = g->apply1(ol::tanhOp(),
                            {g->apply1(ol::gemm(false, true),
                                       {ctx, wo})});
        }
        g->setTimeStep(-1);
        loss = g->apply1(ol::crossEntropyLoss(), {cur, labels});
        auto gr = graph::backward(*g, loss, {wk, wq, wo, v});
        weight_grads = gr.weight_grads;
        fetches = {loss};
        fetches.insert(fetches.end(), weight_grads.begin(),
                       weight_grads.end());
    }
};

// ---------------------------------------------------------------------
// Graph verifier.

TEST(GraphVerifier, CleanGraphPasses)
{
    TinyChain m;
    EXPECT_TRUE(verifyGraph(m.g).ok());
    EXPECT_TRUE(verifyFetches(m.fetches).ok());
}

TEST(GraphVerifier, DanglingEdgeBadOutputIndexFlagged)
{
    TinyChain m;
    m.th.node->inputs[0].index = 7; // gemm has one output
    const AnalysisReport r = verifyGraph(m.g);
    EXPECT_TRUE(has(r, Check::kDanglingEdge));
    EXPECT_TRUE(onlyErrorsOf(r, Check::kDanglingEdge)) << r.toString();
}

TEST(GraphVerifier, DanglingEdgeForeignNodeFlagged)
{
    TinyChain m;
    Graph foreign;
    Val alien = foreign.placeholder(Shape({4, 8}), "alien");
    m.th.node->inputs[0] = alien;
    const AnalysisReport r = verifyGraph(m.g);
    EXPECT_TRUE(has(r, Check::kDanglingEdge));
    EXPECT_TRUE(onlyErrorsOf(r, Check::kDanglingEdge)) << r.toString();
}

TEST(GraphVerifier, CycleFlagged)
{
    Graph g;
    Val x = g.placeholder(Shape({2, 3}), "x");
    Val a = g.apply1(ol::tanhOp(), {x});
    Val b = g.apply1(ol::sigmoidOp(), {a});
    a.node->inputs[0] = b; // close the loop a -> b -> a
    const AnalysisReport r = verifyGraph(g);
    EXPECT_TRUE(has(r, Check::kCycle));
    EXPECT_TRUE(onlyErrorsOf(r, Check::kCycle)) << r.toString();
}

TEST(GraphVerifier, ShapeMismatchFlagged)
{
    Graph g;
    Val x = g.placeholder(Shape({2, 4}), "x");
    Val y = g.apply1(ol::tanhOp(), {x});
    y.node->out_shapes[0] = Shape({3, 3}); // tanh infers {2, 4}
    const AnalysisReport r = verifyFetches({y});
    EXPECT_TRUE(has(r, Check::kShapeMismatch));
    EXPECT_TRUE(onlyErrorsOf(r, Check::kShapeMismatch)) << r.toString();
}

TEST(GraphVerifier, PhaseViolationFlagged)
{
    TinyChain m;
    // A forward node consuming a backward (gradient) value.
    m.g.setPhase(Phase::kForward);
    Val bad = m.g.apply1(ol::tanhOp(), {m.weight_grads[0]});
    const AnalysisReport r = verifyFetches({bad});
    EXPECT_TRUE(has(r, Check::kPhaseViolation));
    EXPECT_TRUE(onlyErrorsOf(r, Check::kPhaseViolation)) << r.toString();
}

// ---------------------------------------------------------------------
// Schedule lifetime analyzer.

TEST(Lifetime, CleanSchedulePasses)
{
    TinyChain m;
    const memory::LivenessResult live =
        memory::analyzeLiveness(m.fetches, m.weight_grads);
    const memory::MemoryPlan plan = memory::planMemory(live);
    EXPECT_TRUE(
        analyzeLifetimes(live, m.fetches, m.weight_grads, &plan).ok());
}

TEST(Lifetime, UseAfterFreeFlagged)
{
    TinyChain m;
    memory::LivenessResult live =
        memory::analyzeLiveness(m.fetches, m.weight_grads);
    // Shrink the tanh output's interval to its def: the cross-entropy
    // node (and the backward consumers) now read a freed buffer.
    auto it = live.index.find(m.th);
    ASSERT_NE(it, live.index.end());
    memory::ValueInfo &info = live.values[it->second];
    ASSERT_FALSE(info.persistent);
    ASSERT_GT(info.last_use_pos, info.def_pos);
    info.last_use_pos = info.def_pos;
    const AnalysisReport r =
        analyzeLifetimes(live, m.fetches, m.weight_grads);
    EXPECT_TRUE(has(r, Check::kUseAfterFree));
    EXPECT_TRUE(onlyErrorsOf(r, Check::kUseAfterFree)) << r.toString();
}

TEST(Lifetime, DoubleFreeFlagged)
{
    TinyChain m;
    memory::LivenessResult live =
        memory::analyzeLiveness(m.fetches, m.weight_grads);
    // Schedule an input node twice (no dataflow inputs of its own, so
    // the duplication cannot shadow other diagnostics).
    ASSERT_TRUE(live.schedule[0]->inputs.empty());
    live.schedule.push_back(live.schedule[0]);
    const AnalysisReport r =
        analyzeLifetimes(live, m.fetches, m.weight_grads);
    EXPECT_TRUE(has(r, Check::kDoubleFree));
    EXPECT_TRUE(onlyErrorsOf(r, Check::kDoubleFree)) << r.toString();
}

TEST(Lifetime, LeakedSlotFlagged)
{
    TinyChain m;
    memory::LivenessResult live =
        memory::analyzeLiveness(m.fetches, m.weight_grads);
    // Pin a transient feature map for the whole run with nothing (no
    // fetch, weight, or gradient) justifying the persistence.
    auto it = live.index.find(m.th);
    ASSERT_NE(it, live.index.end());
    live.values[it->second].persistent = true;
    const AnalysisReport r =
        analyzeLifetimes(live, m.fetches, m.weight_grads);
    EXPECT_TRUE(has(r, Check::kLeakedSlot));
    EXPECT_TRUE(onlyErrorsOf(r, Check::kLeakedSlot)) << r.toString();
}

TEST(Lifetime, PlanMissingFlagged)
{
    TinyChain m;
    const memory::LivenessResult live =
        memory::analyzeLiveness(m.fetches, m.weight_grads);
    memory::MemoryPlan plan = memory::planMemory(live);
    ASSERT_TRUE(plan.offsets.count(m.th));
    plan.offsets.erase(m.th);
    const AnalysisReport r =
        analyzeLifetimes(live, m.fetches, m.weight_grads, &plan);
    EXPECT_TRUE(has(r, Check::kPlanMissing));
    EXPECT_TRUE(onlyErrorsOf(r, Check::kPlanMissing)) << r.toString();
}

TEST(Lifetime, PlanUndersizedAllocationFlagged)
{
    TinyChain m;
    const memory::LivenessResult live =
        memory::analyzeLiveness(m.fetches, m.weight_grads);
    memory::MemoryPlan plan = memory::planMemory(live);
    auto it = live.index.find(m.th);
    ASSERT_NE(it, live.index.end());
    const int64_t real_bytes = live.values[it->second].bytes;
    ASSERT_GT(real_bytes, 1);
    plan.offsets[m.th].bytes = real_bytes - 1;
    const AnalysisReport r =
        analyzeLifetimes(live, m.fetches, m.weight_grads, &plan);
    EXPECT_TRUE(has(r, Check::kPlanOverlap));
    EXPECT_TRUE(onlyErrorsOf(r, Check::kPlanOverlap)) << r.toString();
}

TEST(Lifetime, PlanOverlapFlagged)
{
    TinyChain m;
    const memory::LivenessResult live =
        memory::analyzeLiveness(m.fetches, m.weight_grads);
    memory::MemoryPlan plan = memory::planMemory(live);
    // h and th are live simultaneously (tanh reads h while holding its
    // own output); aliasing their allocations is a write race.
    ASSERT_TRUE(plan.offsets.count(m.h));
    ASSERT_TRUE(plan.offsets.count(m.th));
    plan.offsets[m.th].offset = plan.offsets[m.h].offset;
    const AnalysisReport r =
        analyzeLifetimes(live, m.fetches, m.weight_grads, &plan);
    EXPECT_TRUE(has(r, Check::kPlanOverlap));
    EXPECT_TRUE(onlyErrorsOf(r, Check::kPlanOverlap)) << r.toString();
}

// ---------------------------------------------------------------------
// Parallel hazard detector.

TEST(Hazards, CleanTopologyPasses)
{
    TinyChain m;
    EXPECT_TRUE(detectParallelHazards(buildTopology(m.fetches)).ok());
    // The very arrays an executor runs on check clean too.
    EXPECT_TRUE(
        detectParallelHazards(graph::Executor(m.fetches).topology()).ok());
}

TEST(Hazards, RacySlotPairFlagged)
{
    TinyChain m;
    ParallelTopology topo = buildTopology(m.fetches);
    // Dispatch an input node twice: two incomparable dispatches write
    // the same output slot.
    ASSERT_TRUE(topo.input_slots[0].empty());
    topo.schedule.push_back(topo.schedule[0]);
    topo.input_slots.push_back({});
    topo.in_degree.push_back(0);
    topo.use_counts.push_back(0);
    const AnalysisReport r = detectParallelHazards(topo);
    EXPECT_TRUE(has(r, Check::kSharedOutputSlot));
    EXPECT_TRUE(onlyErrorsOf(r, Check::kSharedOutputSlot))
        << r.toString();
}

TEST(Hazards, ReadyRaceFlagged)
{
    TinyChain m;
    ParallelTopology topo = buildTopology(m.fetches);
    // Undercount a consumer's in-degree: the ready queue can dispatch
    // it while a producer is still writing.
    size_t victim = topo.schedule.size();
    for (size_t s = 0; s < topo.schedule.size(); ++s)
        if (!topo.input_slots[s].empty()) {
            victim = s;
            break;
        }
    ASSERT_LT(victim, topo.schedule.size());
    --topo.in_degree[victim];
    const AnalysisReport r = detectParallelHazards(topo);
    EXPECT_TRUE(has(r, Check::kReadyRace));
    EXPECT_TRUE(onlyErrorsOf(r, Check::kReadyRace)) << r.toString();
}

TEST(Hazards, PrematureFreeFlagged)
{
    TinyChain m;
    ParallelTopology topo = buildTopology(m.fetches);
    // Undercount a producer's uses: its buffer is freed while a
    // consumer that can still be running reads it.
    size_t victim = topo.schedule.size();
    for (size_t s = 0; s < topo.schedule.size(); ++s)
        if (topo.use_counts[s] > 0) {
            victim = s;
            break;
        }
    ASSERT_LT(victim, topo.schedule.size());
    --topo.use_counts[victim];
    const AnalysisReport r = detectParallelHazards(topo);
    EXPECT_TRUE(has(r, Check::kPrematureFree));
    EXPECT_TRUE(onlyErrorsOf(r, Check::kPrematureFree)) << r.toString();
}

// ---------------------------------------------------------------------
// Echo pass auditor.

/** auditRecomputePass over @p g's current liveness and memory plan. */
AnalysisReport
auditNow(const GraphSnapshot &snap, const graph::Graph &g,
         const std::vector<Val> &fetches,
         const std::vector<Val> &weight_grads,
         const pass::PassResult &res)
{
    const memory::PlannedSchedule s =
        memory::planSchedule(fetches, weight_grads);
    return auditRecomputePass(snap, g, s.liveness, s.plan, res);
}

TEST(PassAudit, CleanAfterAutoPass)
{
    MiniAttention m;
    m.build(2, 4, 16);
    const GraphSnapshot snap =
        snapshotGraph(*m.g, m.fetches, m.weight_grads);
    pass::PassConfig cfg;
    cfg.overhead_budget_fraction = 0.5; // toy scale
    const pass::PassResult res =
        pass::runRecomputePass(*m.g, m.fetches, cfg);
    ASSERT_GT(res.num_regions, 0);
    const AnalysisReport audit =
        auditNow(snap, *m.g, m.fetches, m.weight_grads, res);
    EXPECT_TRUE(audit.ok()) << audit.toString();
    EXPECT_TRUE(analyzeAll(m.fetches, m.weight_grads).ok());
}

TEST(PassAudit, RecomputedGemmFlagged)
{
    TinyChain m;
    const GraphSnapshot snap =
        snapshotGraph(m.g, m.fetches, m.weight_grads);
    // The Chen-et-al ablation recomputes through the GEMM boundary;
    // Echo's auditor must call that out.
    pass::PassConfig cfg;
    cfg.respect_gemm_boundary = false;
    cfg.fuse_replay = false;
    cfg.overhead_budget_fraction = -1.0;
    const pass::PassResult res =
        pass::runRecomputePass(m.g, m.fetches, cfg);
    ASSERT_GT(res.num_recompute_nodes, 0);
    const AnalysisReport audit =
        auditNow(snap, m.g, m.fetches, m.weight_grads, res);
    EXPECT_TRUE(has(audit, Check::kRecomputedGemm));
    EXPECT_TRUE(onlyErrorsOf(audit, Check::kRecomputedGemm))
        << audit.toString();
}

TEST(PassAudit, MutatedForwardFlagged)
{
    TinyChain m;
    const GraphSnapshot snap =
        snapshotGraph(m.g, m.fetches, m.weight_grads);
    // A buggy pass rewiring a *forward* node (same shape, so only the
    // diff check can catch it).
    m.th.node->inputs[0] = m.x;
    const AnalysisReport audit = auditNow(snap, m.g, m.fetches,
                                          m.weight_grads, pass::PassResult{});
    EXPECT_TRUE(has(audit, Check::kMutatedForward));
    EXPECT_TRUE(onlyErrorsOf(audit, Check::kMutatedForward))
        << audit.toString();
}

TEST(PassAudit, FootprintMismatchFlagged)
{
    TinyChain m;
    const GraphSnapshot snap =
        snapshotGraph(m.g, m.fetches, m.weight_grads);
    // A cost model claiming savings the (unchanged) graph does not
    // deliver must be contradicted by the liveness ground truth.
    pass::PassResult res;
    res.num_regions = 1;
    res.bytes_saved = 1 << 20;
    const AnalysisReport audit =
        auditNow(snap, m.g, m.fetches, m.weight_grads, res);
    EXPECT_TRUE(has(audit, Check::kFootprintMismatch));
    EXPECT_TRUE(onlyErrorsOf(audit, Check::kFootprintMismatch))
        << audit.toString();
}

} // namespace
} // namespace echo::analysis
