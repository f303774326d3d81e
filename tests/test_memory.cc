/**
 * @file
 * Tests for liveness analysis, the pool planner (including the paper's
 * workspace-sharing behaviour), the plan replay, and the memory
 * profiler's category attribution.
 */
#include <gtest/gtest.h>

#include <string>

#include "echo/recompute_pass.h"
#include "graph/autodiff.h"
#include "graph/ops/oplib.h"
#include "memory/liveness.h"
#include "memory/planner.h"
#include "memory/profiler.h"
#include "models/nmt.h"
#include "models/word_lm.h"

namespace echo::memory {
namespace {

namespace ol = graph::oplib;
using graph::Graph;
using graph::Phase;

TEST(Liveness, IntervalsCoverConsumers)
{
    Graph g;
    Val x = g.placeholder(Shape({4}), "x");
    Val a = g.apply1(ol::tanhOp(), {x});
    Val b = g.apply1(ol::sigmoidOp(), {a});
    Val c = g.apply1(ol::add(), {a, b});

    const LivenessResult live = analyzeLiveness({c});
    const ValueInfo &ia = live.values[live.index.at(a)];
    const ValueInfo &ib = live.values[live.index.at(b)];
    // a is used by both b's node and c's node; last use is c.
    EXPECT_EQ(ia.last_use_pos, live.values[live.index.at(c)].def_pos);
    EXPECT_GT(ia.last_use_pos, ib.def_pos);
}

TEST(Liveness, CategoriesFollowPaperTaxonomy)
{
    Graph g;
    Val x = g.placeholder(Shape({2, 3}), "x");
    Val w = g.weight(Shape({4, 3}), "w");
    Val y = g.apply1(ol::gemm(false, true), {x, w});
    Val t = g.apply1(ol::tanhOp(), {y});
    Val loss = g.apply1(ol::crossEntropyLoss(),
                        {t, g.placeholder(Shape({2}), "labels")});
    auto gr = graph::backward(g, loss, {w});

    std::vector<Val> fetches = {loss};
    fetches.insert(fetches.end(), gr.weight_grads.begin(),
                   gr.weight_grads.end());
    const LivenessResult live =
        analyzeLiveness(fetches, gr.weight_grads);

    EXPECT_EQ(live.values[live.index.at(x)].category,
              DataStructure::kPlaceholders);
    EXPECT_EQ(live.values[live.index.at(w)].category,
              DataStructure::kWeights);
    // tanh output feeds its backward grad kernel -> feature map.
    EXPECT_EQ(live.values[live.index.at(t)].category,
              DataStructure::kFeatureMaps);
    // Weight gradient counted under Weights.
    EXPECT_EQ(live.values[live.index.at(gr.weight_grads[0])].category,
              DataStructure::kWeights);
    // Weights and placeholders are persistent.
    EXPECT_TRUE(live.values[live.index.at(w)].persistent);
    EXPECT_TRUE(live.values[live.index.at(x)].persistent);
}

TEST(Planner, ReusesDisjointLifetimes)
{
    // Equal-size transients with staggered lifetimes share slots: at
    // most two are live at once, so the pool holds two 4 KB slots while
    // the no-reuse baseline needs one per transient.
    Graph g;
    Val x = g.placeholder(Shape({1024}), "x");
    Val a = g.apply1(ol::tanhOp(), {x});
    Val b = g.apply1(ol::sigmoidOp(), {a}); // a dies here
    Val c = g.apply1(ol::tanhOp(), {b});    // b dies here
    Val d = g.apply1(ol::sigmoidOp(), {c}); // c dies here

    const LivenessResult live = analyzeLiveness({d});
    const MemoryPlan plan = planMemory(live);
    PlannerOptions no_reuse;
    no_reuse.reuse_transients = false;
    const MemoryPlan plan2 = planMemory(live, no_reuse);
    EXPECT_EQ(plan.pool_peak_bytes, 2 * 4096);
    EXPECT_EQ(plan2.pool_peak_bytes, 3 * 4096);
}

TEST(Planner, OverlappingLifetimesDoNotAlias)
{
    Graph g;
    Val x = g.placeholder(Shape({256}), "x");
    Val a = g.apply1(ol::tanhOp(), {x});
    Val b = g.apply1(ol::sigmoidOp(), {x});
    Val c = g.apply1(ol::add(), {a, b}); // a and b both live here

    const LivenessResult live = analyzeLiveness({c});
    const MemoryPlan plan = planMemory(live);
    const auto &alloc_a = plan.offsets.at(a);
    const auto &alloc_b = plan.offsets.at(b);
    const bool disjoint =
        alloc_a.offset + alloc_a.bytes <= alloc_b.offset ||
        alloc_b.offset + alloc_b.bytes <= alloc_a.offset;
    EXPECT_TRUE(disjoint);
}

TEST(Planner, PropertyNoLiveOverlapInPool)
{
    // Build a wider graph and assert the planner never overlaps two
    // values that are simultaneously live.
    Graph g;
    Val x = g.placeholder(Shape({64, 64}), "x");
    std::vector<Val> vals;
    Val cur = x;
    for (int i = 0; i < 8; ++i) {
        Val t = g.apply1(i % 2 ? ol::tanhOp() : ol::sigmoidOp(), {cur});
        Val u = g.apply1(ol::mul(), {t, cur});
        vals.push_back(t);
        vals.push_back(u);
        cur = u;
    }
    const LivenessResult live = analyzeLiveness({cur});
    const MemoryPlan plan = planMemory(live);

    for (const ValueInfo &a : live.values) {
        if (a.persistent)
            continue;
        for (const ValueInfo &b : live.values) {
            if (b.persistent || a.val == b.val)
                continue;
            const bool lifetimes_overlap =
                a.def_pos <= b.last_use_pos &&
                b.def_pos <= a.last_use_pos;
            if (!lifetimes_overlap)
                continue;
            const auto &aa = plan.offsets.at(a.val);
            const auto &ab = plan.offsets.at(b.val);
            const bool disjoint =
                aa.offset + aa.bytes <= ab.offset ||
                ab.offset + ab.bytes <= aa.offset;
            EXPECT_TRUE(disjoint)
                << "overlapping allocation for simultaneously live "
                   "values";
        }
    }
}

TEST(Planner, PersistentBytesCounted)
{
    Graph g;
    Val w = g.weight(Shape({256}), "w"); // 1 KB
    Val y = g.apply1(ol::tanhOp(), {w});
    const LivenessResult live = analyzeLiveness({y});
    const MemoryPlan plan = planMemory(live);
    // w persistent (1 KB) + y fetched (persistent).
    EXPECT_EQ(plan.persistent_bytes, 2 * 1024);
    EXPECT_EQ(plan.pool_peak_bytes, 0);
}

TEST(Planner, AlignmentRespected)
{
    Graph g;
    Val x = g.placeholder(Shape({3}), "x"); // 12 bytes
    Val a = g.apply1(ol::tanhOp(), {x});
    Val b = g.apply1(ol::sigmoidOp(), {a});
    const LivenessResult live = analyzeLiveness({b});
    const MemoryPlan plan = planMemory(live);
    for (const auto &[val, alloc] : plan.offsets) {
        EXPECT_EQ(alloc.offset % 256, 0);
        EXPECT_EQ(alloc.bytes % 256, 0);
    }
}

TEST(Profiler, AttributesFeatureMapsAndLayers)
{
    Graph g;
    Val x = g.placeholder(Shape({8, 16}), "x");
    Val w = g.weight(Shape({16, 16}), "w");
    Val h;
    {
        graph::TagScope tag(g, "rnn");
        h = g.apply1(ol::tanhOp(),
                     {g.apply1(ol::gemm(false, true), {x, w})});
    }
    Val labels = g.placeholder(Shape({8}), "labels");
    Val loss;
    {
        graph::TagScope tag(g, "output");
        loss = g.apply1(ol::crossEntropyLoss(), {h, labels});
    }
    auto gr = graph::backward(g, loss, {w});
    std::vector<Val> fetches = {loss, gr.weight_grads[0]};

    ProfilerOptions opts;
    opts.cuda_context_bytes = 0;
    const MemoryProfile prof =
        profileMemory(fetches, gr.weight_grads, opts);

    EXPECT_GT(prof.planned_bytes, 0);
    EXPECT_GT(prof.by_data_structure.at(DataStructure::kFeatureMaps), 0);
    EXPECT_GT(prof.by_layer.at("rnn"), 0);
    EXPECT_GE(prof.device_bytes, prof.planned_bytes);

    // Fractions sum to ~1 across data structures.
    double total = 0.0;
    for (const auto &[ds, bytes] : prof.by_data_structure)
        total += static_cast<double>(bytes);
    EXPECT_DOUBLE_EQ(total, static_cast<double>(prof.planned_bytes));
}

TEST(Profiler, OptimizerStateScalesWeights)
{
    Graph g;
    Val w = g.weight(Shape({1024}), "w");
    Val y = g.apply1(ol::tanhOp(), {w});
    ProfilerOptions opts;
    opts.cuda_context_bytes = 0;
    opts.optimizer_state_per_weight_byte = 2.0; // Adam
    const MemoryProfile prof = profileMemory({y}, {}, opts);
    // 4 KB weight + 8 KB optimizer state.
    EXPECT_EQ(prof.by_data_structure.at(DataStructure::kWeights),
              3 * 4096);
}

TEST(Profiler, FragmentationModelAddsGap)
{
    Graph g;
    Val x = g.placeholder(Shape({1 << 20}), "x");
    Val a = g.apply1(ol::tanhOp(), {x});
    Val b = g.apply1(ol::sigmoidOp(), {a});
    ProfilerOptions opts;
    opts.cuda_context_bytes = 100 << 20;
    const MemoryProfile prof = profileMemory({b}, {}, opts);
    EXPECT_GE(prof.undisclosed_bytes, 100 << 20);
    EXPECT_EQ(prof.device_bytes,
              prof.planned_bytes + prof.undisclosed_bytes);
}

// ----------------------------------------------------------------------
// Plan replay vs planner, on the built-in models
// ----------------------------------------------------------------------

void
expectReplayMatchesPlan(const std::vector<Val> &fetches,
                        const std::vector<Val> &weight_grads, bool reuse,
                        const std::string &what)
{
    const LivenessResult live = analyzeLiveness(fetches, weight_grads);
    PlannerOptions opts;
    opts.reuse_transients = reuse;
    const MemoryPlan plan = planMemory(live, opts);
    const PlanReplay replay = replayPlan(live, plan);

    EXPECT_TRUE(replay.ok()) << what << ": " << replay.findings.size()
                             << " finding(s)";
    EXPECT_EQ(replay.address_peak_bytes, plan.pool_peak_bytes) << what;
    EXPECT_LE(replay.live_peak_bytes, plan.pool_peak_bytes) << what;
    EXPECT_GT(replay.live_peak_bytes, 0) << what;
    EXPECT_EQ(replay.peak_pos, plan.peak_pos) << what;
    ASSERT_FALSE(replay.curve.empty()) << what;
    // Every allocation is freed: the curve ends with nothing live.
    EXPECT_EQ(replay.curve.back().live_bytes, 0) << what;
}

TEST(PlanReplay, WordLmReplayMatchesPlan)
{
    for (const bool run_pass : {false, true}) {
        models::WordLmConfig cfg;
        cfg.vocab = 120;
        cfg.hidden = 16;
        cfg.layers = 2;
        cfg.batch = 4;
        cfg.seq_len = 10;
        models::WordLmModel model(cfg);
        if (run_pass)
            pass::runRecomputePass(model.graph(), model.fetches(), {});
        const std::string what =
            std::string("word_lm pass=") + (run_pass ? "on" : "off");
        expectReplayMatchesPlan(model.fetches(), model.weightGrads(), true,
                                what);
        expectReplayMatchesPlan(model.fetches(), model.weightGrads(),
                                false, what + " no-reuse");
    }
}

TEST(PlanReplay, NmtReplayMatchesPlan)
{
    for (const bool run_pass : {false, true}) {
        models::NmtConfig cfg;
        cfg.src_vocab = 60;
        cfg.tgt_vocab = 70;
        cfg.hidden = 16;
        cfg.enc_layers = 1;
        cfg.batch = 3;
        cfg.src_len = 8;
        cfg.tgt_len = 8;
        models::NmtModel model(cfg);
        if (run_pass)
            pass::runRecomputePass(model.graph(), model.fetches(), {});
        const std::string what =
            std::string("nmt pass=") + (run_pass ? "on" : "off");
        expectReplayMatchesPlan(model.fetches(), model.weightGrads(), true,
                                what);
        expectReplayMatchesPlan(model.fetches(), model.weightGrads(),
                                false, what + " no-reuse");
    }
}

TEST(PlanReplay, FlagsTamperedPlans)
{
    // a and b are live together at c; tampered copies of their plan
    // must each produce exactly one finding of the tampered kind.
    Graph g;
    Val x = g.placeholder(Shape({256}), "x");
    Val a = g.apply1(ol::tanhOp(), {x});
    Val b = g.apply1(ol::sigmoidOp(), {x});
    Val c = g.apply1(ol::add(), {a, b});
    const LivenessResult live = analyzeLiveness({c});
    const MemoryPlan plan = planMemory(live);
    ASSERT_TRUE(replayPlan(live, plan).ok());

    const auto expectOne = [&](const MemoryPlan &bad, PlanFinding::Kind kind,
                               const Val &at) {
        const PlanReplay replay = replayPlan(live, bad);
        ASSERT_EQ(replay.findings.size(), 1u);
        EXPECT_EQ(replay.findings[0].kind, kind);
        EXPECT_EQ(replay.findings[0].value->val, at);
    };

    MemoryPlan aliased = plan;
    aliased.offsets[b].offset = aliased.offsets[a].offset;
    expectOne(aliased, PlanFinding::Kind::kOverlap, b);

    MemoryPlan undersized = plan;
    undersized.offsets[b].bytes = 256 * 4 - 1;
    expectOne(undersized, PlanFinding::Kind::kUndersized, b);

    MemoryPlan erased = plan;
    erased.offsets.erase(a);
    expectOne(erased, PlanFinding::Kind::kMissing, a);
}

} // namespace
} // namespace echo::memory
