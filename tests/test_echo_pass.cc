/**
 * @file
 * Tests for the Echo recomputation pass: feature-map discovery,
 * candidate construction (GEMM boundaries), cost-model accounting,
 * the graph rewrite, gradient equivalence, footprint reduction, and
 * workspace sharing across time steps.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "core/rng.h"
#include "echo/candidate.h"
#include "echo/feature_maps.h"
#include "echo/recompute_pass.h"
#include "analysis/analysis.h"
#include "gpusim/timeline.h"
#include "graph/autodiff.h"
#include "graph/executor.h"
#include "graph/ops/oplib.h"
#include "memory/profiler.h"
#include "models/nmt.h"
#include "models/word_lm.h"
#include "obs/trace.h"
#include "pass/builtin_passes.h"

namespace echo::pass {
namespace {

namespace ol = graph::oplib;
using graph::FeedDict;
using graph::Graph;
using graph::Phase;

/**
 * A miniature attention decoder: per step, an O-shape scoring region
 * (broadcast + layernorm + tanh + v-dot) between GEMM projections —
 * the structure of the paper's Fig. 3 attention layer.
 */
struct ToyAttentionModel
{
    std::unique_ptr<Graph> g = std::make_unique<Graph>();
    Val hs, q0, labels;                 // placeholders
    Val wk, wq, wo, v;                  // weights
    Val loss;
    std::vector<Val> fetches;           // loss + weight grads
    std::vector<Val> weight_grads;
    int64_t batch, steps, hidden;

    void
    build(int64_t b, int64_t t, int64_t h)
    {
        batch = b;
        steps = t;
        hidden = h;
        hs = g->placeholder(Shape({b, t, h}), "encoder_states");
        q0 = g->placeholder(Shape({b, h}), "q0");
        labels = g->placeholder(Shape({b}), "labels");
        wk = g->weight(Shape({h, h}), "wk");
        wq = g->weight(Shape({h, h}), "wq");
        wo = g->weight(Shape({h, h}), "wo");
        v = g->weight(Shape({h}), "v");

        Val proj_k;
        {
            graph::TagScope tag(*g, "encoder");
            Val flat =
                g->apply1(ol::reshape(Shape({b * t, h})), {hs});
            Val pk = g->apply1(ol::gemm(false, true), {flat, wk});
            proj_k = g->apply1(ol::reshape(Shape({b, t, h})), {pk});
        }

        Val cur = q0;
        for (int64_t step = 0; step < t; ++step) {
            g->setTimeStep(static_cast<int>(step));
            Val ctx;
            {
                graph::TagScope tag(*g, "attention");
                Val q = g->apply1(ol::gemm(false, true), {cur, wq});
                Val e = g->apply1(ol::broadcastAddBT(), {proj_k, q});
                Val ln = g->apply(ol::layerNorm(), {e})[0];
                Val th = g->apply1(ol::tanhOp(), {ln});
                Val scores = g->apply1(ol::dotLastAxis(), {th, v});
                Val alpha = g->apply1(ol::softmax(), {scores});
                Val alpha3 =
                    g->apply1(ol::reshape(Shape({b, 1, t})), {alpha});
                Val c3 = g->apply1(ol::bmm(false, false),
                                   {alpha3, proj_k});
                Val c2 =
                    g->apply1(ol::reshape(Shape({b, h})), {c3});
                ctx = g->apply1(ol::add(), {c2, q});
            }
            {
                graph::TagScope tag(*g, "decoder");
                cur = g->apply1(
                    ol::tanhOp(),
                    {g->apply1(ol::gemm(false, true), {ctx, wo})});
            }
        }
        g->setTimeStep(-1);

        {
            graph::TagScope tag(*g, "output");
            loss = g->apply1(ol::crossEntropyLoss(), {cur, labels});
        }
        auto gr = graph::backward(*g, loss, {wk, wq, wo, v});
        weight_grads = gr.weight_grads;
        fetches = {loss};
        fetches.insert(fetches.end(), weight_grads.begin(),
                       weight_grads.end());
    }

    FeedDict
    feed(uint64_t seed) const
    {
        Rng rng(seed);
        FeedDict f;
        f[hs.node] = Tensor::uniform(Shape({batch, steps, hidden}),
                                     rng, -1.0f, 1.0f);
        f[q0.node] = Tensor::uniform(Shape({batch, hidden}), rng,
                                     -1.0f, 1.0f);
        Tensor lab(Shape({batch}));
        for (int64_t i = 0; i < batch; ++i)
            lab.at(i) = static_cast<float>(
                rng.uniformInt(static_cast<uint64_t>(hidden)));
        f[labels.node] = lab;
        f[wk.node] = Tensor::uniform(Shape({hidden, hidden}), rng,
                                     -0.3f, 0.3f);
        f[wq.node] = Tensor::uniform(Shape({hidden, hidden}), rng,
                                     -0.3f, 0.3f);
        f[wo.node] = Tensor::uniform(Shape({hidden, hidden}), rng,
                                     -0.3f, 0.3f);
        f[v.node] =
            Tensor::uniform(Shape({hidden}), rng, -0.3f, 0.3f);
        return f;
    }
};

TEST(FeatureMaps, FindsStashedActivations)
{
    Graph g;
    Val x = g.weight(Shape({4}), "x");
    Val y = g.apply1(ol::tanhOp(), {x});
    Val z = g.apply1(ol::sigmoidOp(), {y});
    Val labels = g.placeholder(Shape({1}), "l");
    Val flat = g.apply1(ol::reshape(Shape({1, 4})), {z});
    Val loss = g.apply1(ol::crossEntropyLoss(), {flat, labels});
    auto gr = graph::backward(g, loss, {x});

    auto fms = findFeatureMaps({loss, gr.weight_grads[0]});
    // tanh output (consumed by sigmoid_grad via y? no — by z's grad) and
    // sigmoid output are stashed; exact set nonempty and includes z.
    bool found_z = false;
    for (const FeatureMap &fm : fms)
        if (fm.val == z)
            found_z = true;
    EXPECT_TRUE(found_z);
    EXPECT_FALSE(fms.empty());
}

TEST(Candidate, StopsAtGemmBoundary)
{
    ToyAttentionModel m;
    m.build(2, 3, 8);
    auto fms = findFeatureMaps(m.fetches);

    // Find the tanh output inside an attention step.
    const FeatureMap *tanh_fm = nullptr;
    for (const FeatureMap &fm : fms)
        if (fm.val.node->layer_tag == "attention" &&
            fm.val.node->kind == graph::NodeKind::kOp &&
            fm.val.node->op->name() == "tanh" && fm.val.index == 0)
            tanh_fm = &fm;
    ASSERT_NE(tanh_fm, nullptr);

    Candidate cand = buildCandidate(*tanh_fm);
    ASSERT_TRUE(cand.admissible);
    // Subgraph contains no GEMM.
    for (const graph::Node *n : cand.subgraph)
        EXPECT_TRUE(n->op->cheapToRecompute())
            << n->op->name() << " in recompute region";
    // The frontier is fed by GEMM projections (possibly via reshapes in
    // the frontier values' producers).
    EXPECT_FALSE(cand.frontier.empty());
    EXPECT_FALSE(cand.subgraph.empty());
}

TEST(Candidate, GemmBoundaryAblationGrowsRegion)
{
    ToyAttentionModel m;
    m.build(2, 3, 8);
    auto fms = findFeatureMaps(m.fetches);
    const FeatureMap *target = nullptr;
    for (const FeatureMap &fm : fms)
        if (fm.val.node->layer_tag == "attention" &&
            fm.val.node->op->name() == "tanh")
            target = &fm;
    ASSERT_NE(target, nullptr);

    Candidate bounded = buildCandidate(*target, true);
    Candidate unbounded = buildCandidate(*target, false);
    EXPECT_GT(unbounded.subgraph.size(), bounded.subgraph.size());
    bool has_gemm = false;
    for (const graph::Node *n : unbounded.subgraph)
        has_gemm = has_gemm || !n->op->cheapToRecompute();
    EXPECT_TRUE(has_gemm);
}

TEST(Candidate, InadmissibleWhenRootIsGemm)
{
    Graph g;
    Val x = g.placeholder(Shape({2, 3}), "x");
    Val w = g.weight(Shape({4, 3}), "w");
    Val y = g.apply1(ol::gemm(false, true), {x, w});
    FeatureMap fm;
    fm.val = y;
    fm.bytes = 32;
    EXPECT_FALSE(buildCandidate(fm).admissible);
}

TEST(Candidate, PerStepValueReadByCrossStepStackInadmissible)
{
    // x_t = reshape(slice(X)) per step feeds gemm(x_t, W^T); autodiff
    // stacks every x_t into one cross-step concat for dW.  Replaying
    // x_t ahead of that concat would keep all steps' replays live.
    const int64_t steps = 4, b = 2, in = 3, h = 4;
    Graph g;
    const Val x = g.placeholder(Shape({steps, b, in}), "x");
    const Val labels = g.placeholder(Shape({b}), "labels");
    const Val w = g.weight(Shape({h, in}), "w");
    std::vector<Val> x_steps, tanh_steps;
    Val acc;
    for (int64_t t = 0; t < steps; ++t) {
        g.setTimeStep(static_cast<int>(t));
        x_steps.push_back(g.apply1(
            ol::reshape(Shape({b, in})),
            {g.apply1(ol::sliceOp(0, t, t + 1), {x})}));
        tanh_steps.push_back(g.apply1(
            ol::tanhOp(),
            {g.apply1(ol::gemm(false, true), {x_steps.back(), w})}));
        acc = acc.defined()
                  ? g.apply1(ol::add(), {acc, tanh_steps.back()})
                  : tanh_steps.back();
    }
    g.setTimeStep(-1);
    const Val loss = g.apply1(ol::crossEntropyLoss(), {acc, labels});
    const graph::GradientResult gr = graph::backward(g, loss, {w});

    int checked = 0;
    for (const FeatureMap &fm : findFeatureMaps({loss, gr.weight_grads[0]})) {
        for (int64_t t = 0; t < steps; ++t) {
            if (fm.val == x_steps[t]) {
                ASSERT_EQ(fm.bwd_consumers.size(), 1u);
                EXPECT_EQ(fm.bwd_consumers[0]->time_step, -1);
                EXPECT_FALSE(buildCandidate(fm).admissible) << "x_" << t;
                ++checked;
            } else if (fm.val == tanh_steps[t]) {
                // Read only by its own step's backward: still a region.
                EXPECT_TRUE(buildCandidate(fm).admissible) << "tanh_" << t;
                ++checked;
            }
        }
    }
    EXPECT_EQ(checked, 2 * steps);
}

TEST(RecomputePass, StackedWeightGradientsKeepWordLmAuditClean)
{
    // The Default LSTM's shared weights get stacked gradients; the
    // recompute audit (workspace sharing included) must stay clean.
    models::WordLmConfig cfg;
    cfg.vocab = 50;
    cfg.hidden = 8;
    cfg.layers = 2;
    cfg.batch = 4;
    cfg.seq_len = 8;
    models::WordLmModel model(cfg, "none");
    PipelineContext ctx(model.graph());
    ctx.loss = model.loss();
    for (const auto &[name, val] : model.weights())
        ctx.wrt.push_back(val);
    ctx.recompute_config.overhead_budget_fraction = -1.0;
    const PipelineReport report =
        buildPipeline("autodiff,recompute").run(ctx, {});
    EXPECT_TRUE(report.ok()) << report.toString();
    EXPECT_GT(ctx.recompute.num_regions, 0);
}

TEST(RecomputePass, OffPolicyDoesNothing)
{
    ToyAttentionModel m;
    m.build(2, 3, 8);
    PassConfig cfg;
    cfg.policy = PassConfig::Policy::kOff;
    const size_t before = m.g->numNodes();
    PassResult res = runRecomputePass(*m.g, m.fetches, cfg);
    EXPECT_EQ(res.num_regions, 0);
    EXPECT_EQ(m.g->numNodes(), before);
}

TEST(RecomputePass, AutoAcceptsAttentionRegions)
{
    ToyAttentionModel m;
    m.build(2, 4, 16);
    const analysis::GraphSnapshot snap =
        analysis::snapshotGraph(*m.g, m.fetches, m.weight_grads);
    PassResult res = runRecomputePass(*m.g, m.fetches, {});
    EXPECT_GT(res.num_regions, 0);
    EXPECT_GT(res.num_recompute_nodes, 0);
    EXPECT_GT(res.bytes_saved, res.bytes_added);
    // Recompute nodes exist and are phase-tagged.
    int recompute_nodes = 0;
    for (const auto &n : m.g->nodes())
        if (n->phase == Phase::kRecompute)
            ++recompute_nodes;
    EXPECT_EQ(recompute_nodes, res.num_recompute_nodes);
    // Mandatory post-pass audit: diff discipline, GEMM-free replay,
    // workspace sharing, honest footprint accounting.
    const memory::PlannedSchedule after =
        memory::planSchedule(m.fetches, m.weight_grads);
    const analysis::AnalysisReport audit = analysis::auditRecomputePass(
        snap, *m.g, after.liveness, after.plan, res);
    EXPECT_TRUE(audit.ok()) << audit.toString();
}

TEST(RecomputePass, GradientsBitIdentical)
{
    ToyAttentionModel baseline, rewritten;
    baseline.build(2, 3, 8);
    rewritten.build(2, 3, 8);
    PassResult res = runRecomputePass(*rewritten.g, rewritten.fetches,
                                      {});
    ASSERT_GT(res.num_regions, 0);

    graph::Executor ex_base(baseline.fetches);
    graph::Executor ex_rw(rewritten.fetches);
    const auto out_base = ex_base.run(baseline.feed(99));
    const auto out_rw = ex_rw.run(rewritten.feed(99));

    const analysis::VerifyResult vr = analysis::compareFetches(out_base, out_rw);
    EXPECT_TRUE(vr.shapes_match);
    EXPECT_EQ(vr.max_abs_diff, 0.0)
        << "recomputation must replay identical float ops";
}

TEST(RecomputePass, ReducesFootprint)
{
    ToyAttentionModel baseline, rewritten;
    baseline.build(4, 6, 32);
    rewritten.build(4, 6, 32);
    // Toy dimensions make replay time all kernel-overhead floor, so the
    // paper's 2% budget (sized for real workloads) must be relaxed.
    PassConfig cfg;
    cfg.overhead_budget_fraction = 0.5;
    runRecomputePass(*rewritten.g, rewritten.fetches, cfg);

    memory::ProfilerOptions opts;
    opts.cuda_context_bytes = 0;
    const auto before = memory::profileMemory(
        baseline.fetches, baseline.weight_grads, opts);
    const auto after = memory::profileMemory(
        rewritten.fetches, rewritten.weight_grads, opts);

    EXPECT_LT(after.planned_bytes, before.planned_bytes);
    // The rewritten graph must still satisfy every static invariant.
    EXPECT_TRUE(
        analysis::analyzeAll(rewritten.fetches, rewritten.weight_grads)
            .ok());
    // Attention's absolute bytes at the peak must drop (the 59% -> 6%
    // fraction collapse of Fig. 14a is demonstrated at paper scale by
    // bench/fig14_breakdown_comparison; at toy scale weights dominate
    // and fractions are noisy, so assert absolute bytes here).
    EXPECT_LT(after.by_layer.at("attention"),
              before.by_layer.at("attention"));
}

TEST(RecomputePass, ManualPolicyOnlyTouchesTaggedRegions)
{
    ToyAttentionModel m;
    m.build(2, 3, 8);
    PassConfig cfg;
    cfg.policy = PassConfig::Policy::kManual;
    cfg.manual_tag = "attention";
    cfg.overhead_budget_fraction = 0.5; // toy scale, see above
    PassResult res = runRecomputePass(*m.g, m.fetches, cfg);
    EXPECT_GT(res.num_regions, 0);
    // Manual regions target attention feature maps; the region may pull
    // in cheap producers from adjacent layers (the encoder-side reshape
    // feeding the broadcast), but never the decoder or output layers.
    bool any_attention = false;
    for (const auto &n : m.g->nodes()) {
        if (n->phase != Phase::kRecompute)
            continue;
        any_attention = any_attention || n->layer_tag == "attention";
        EXPECT_NE(n->layer_tag, "decoder");
        EXPECT_NE(n->layer_tag, "output");
    }
    EXPECT_TRUE(any_attention);
}

TEST(RecomputePass, AutoFindsAtLeastManualSavings)
{
    ToyAttentionModel manual_model, auto_model;
    manual_model.build(2, 4, 16);
    auto_model.build(2, 4, 16);

    PassConfig manual_cfg;
    manual_cfg.policy = PassConfig::Policy::kManual;
    manual_cfg.overhead_budget_fraction = 0.5; // toy scale
    PassConfig auto_cfg;
    auto_cfg.overhead_budget_fraction = 0.5;
    const PassResult manual_res =
        runRecomputePass(*manual_model.g, manual_model.fetches,
                         manual_cfg);
    const PassResult auto_res =
        runRecomputePass(*auto_model.g, auto_model.fetches, auto_cfg);
    EXPECT_GE(auto_res.bytes_saved, manual_res.bytes_saved);
    EXPECT_GE(auto_res.num_regions, manual_res.num_regions);
}

TEST(RecomputePass, ZeroBudgetAcceptsOnlyFreeRegions)
{
    ToyAttentionModel m;
    m.build(2, 3, 8);
    PassConfig cfg;
    cfg.overhead_budget_fraction = 0.0;
    const PassResult res = runRecomputePass(*m.g, m.fetches, cfg);
    // Only regions whose modelled selection cost is zero (pure shape
    // plumbing) are admitted; the emitted fused kernels may still move
    // a few bytes, so allow a sliver of the baseline.
    EXPECT_LE(res.replay_time_us,
              0.05 * res.baseline_gpu_time_us);
}

TEST(RecomputePass, OverheadWithinBudget)
{
    ToyAttentionModel m;
    m.build(4, 6, 32);
    PassConfig cfg;
    cfg.overhead_budget_fraction = 0.02;
    const PassResult res = runRecomputePass(*m.g, m.fetches, cfg);
    EXPECT_LE(res.replay_time_us,
              cfg.overhead_budget_fraction * res.baseline_gpu_time_us +
                  1e-9);
}

TEST(RecomputePass, ScheduleAnchorsReplaysInBackwardRegion)
{
    ToyAttentionModel m;
    m.build(2, 3, 8);
    runRecomputePass(*m.g, m.fetches, {});
    const auto sched = graph::buildSchedule(m.fetches);
    // Every recompute node must appear after all pure-forward nodes it
    // replays (i.e., inside the backward region): its position must be
    // greater than the position of the loss node.
    int loss_pos = -1;
    for (size_t i = 0; i < sched.size(); ++i)
        if (sched[i] == m.loss.node)
            loss_pos = static_cast<int>(i);
    ASSERT_GE(loss_pos, 0);
    for (size_t i = 0; i < sched.size(); ++i) {
        if (sched[i]->phase == Phase::kRecompute) {
            EXPECT_GT(static_cast<int>(i), loss_pos);
        }
    }
}

TEST(RecomputePass, WorkspaceSharedAcrossTimeSteps)
{
    // With the pass applied, the pool peak must grow ~linearly in T
    // (shared workspace), not quadratically (paper §4.1.2).
    auto pool_peak = [](int64_t t, bool reuse) {
        ToyAttentionModel m;
        m.build(2, t, 16);
        PassConfig cfg;
        cfg.overhead_budget_fraction = 0.5; // toy scale
        runRecomputePass(*m.g, m.fetches, cfg);
        memory::PlannerOptions popts;
        popts.reuse_transients = reuse;
        const auto live =
            memory::analyzeLiveness(m.fetches, m.weight_grads);
        return memory::planMemory(live, popts).pool_peak_bytes;
    };

    const int64_t p4 = pool_peak(4, true);
    const int64_t p8 = pool_peak(8, true);
    // Doubling T should roughly double the pooled peak (the [BxTxH]
    // tensors grow linearly and the recompute arena is shared).
    EXPECT_LT(static_cast<double>(p8) / static_cast<double>(p4), 3.0);

    // Disabling reuse (the ablation) must cost substantially more.
    const int64_t p8_no_reuse = pool_peak(8, false);
    EXPECT_GT(p8_no_reuse, p8);
}

TEST(RecomputePass, TrainingStillConvergesAfterRewrite)
{
    // One SGD step on the rewritten graph must reduce the loss like the
    // baseline does (sanity for end-to-end training with the pass on).
    ToyAttentionModel m;
    m.build(2, 3, 8);
    runRecomputePass(*m.g, m.fetches, {});
    graph::Executor ex(m.fetches);
    FeedDict feed = m.feed(123);

    const auto out0 = ex.run(feed);
    const float loss0 = out0[0].at(0);
    // SGD step on all four weights.
    const Val weights[] = {m.wk, m.wq, m.wo, m.v};
    for (size_t i = 0; i < 4; ++i) {
        Tensor &w = feed[weights[i].node];
        const Tensor &grad = out0[i + 1];
        for (int64_t j = 0; j < w.numel(); ++j)
            w.at(j) -= 0.5f * grad.at(j);
    }
    const auto out1 = ex.run(feed);
    EXPECT_LT(out1[0].at(0), loss0);
}


TEST(RecomputePass, FusedAndUnfusedReplayBitIdentical)
{
    // fuse_replay changes kernel granularity, never numerics: baseline,
    // unfused replay, and fused replay all produce identical fetches.
    ToyAttentionModel baseline, unfused, fused;
    baseline.build(2, 4, 16);
    unfused.build(2, 4, 16);
    fused.build(2, 4, 16);

    PassConfig cfg;
    cfg.overhead_budget_fraction = -1.0;
    cfg.fuse_replay = false;
    runRecomputePass(*unfused.g, unfused.fetches, cfg);
    cfg.fuse_replay = true;
    runRecomputePass(*fused.g, fused.fetches, cfg);

    graph::Executor ex_base(baseline.fetches);
    graph::Executor ex_unfused(unfused.fetches);
    graph::Executor ex_fused(fused.fetches);
    const auto out_base = ex_base.run(baseline.feed(5));
    const auto out_unfused = ex_unfused.run(unfused.feed(5));
    const auto out_fused = ex_fused.run(fused.feed(5));

    EXPECT_EQ(analysis::compareFetches(out_base, out_unfused).max_abs_diff, 0.0);
    EXPECT_EQ(analysis::compareFetches(out_base, out_fused).max_abs_diff, 0.0);
}

TEST(RecomputePass, FusionReducesReplayNodesAndTime)
{
    ToyAttentionModel unfused, fused;
    unfused.build(4, 6, 32);
    fused.build(4, 6, 32);

    PassConfig cfg;
    cfg.overhead_budget_fraction = -1.0;
    cfg.fuse_replay = false;
    const PassResult r_unfused =
        runRecomputePass(*unfused.g, unfused.fetches, cfg);
    cfg.fuse_replay = true;
    const PassResult r_fused =
        runRecomputePass(*fused.g, fused.fetches, cfg);

    ASSERT_GT(r_unfused.num_regions, 0);
    ASSERT_GT(r_fused.num_regions, 0);
    // One generated kernel per region instead of one per op.
    EXPECT_LT(r_fused.num_recompute_nodes,
              r_unfused.num_recompute_nodes);
    // The fused kernel only reads the frontier and writes the exits,
    // so the emitted replay is cheaper.
    EXPECT_LT(r_fused.replay_time_us, r_unfused.replay_time_us);
}

TEST(RecomputePass, FusedRegionsDoNotSpanTimeSteps)
{
    // Regions of different decoder steps must stay separate fused
    // kernels; otherwise the scheduler could not anchor each replay at
    // its own backward step and the workspace arena could not be
    // shared (paper 4.1.2).
    ToyAttentionModel m;
    m.build(2, 5, 16);
    PassConfig cfg;
    cfg.overhead_budget_fraction = -1.0;
    runRecomputePass(*m.g, m.fetches, cfg);

    int fused_steps = 0;
    for (const auto &n : m.g->nodes())
        if (n->phase == Phase::kRecompute &&
            n->op->name() == "fused_recompute" && n->time_step >= 0)
            ++fused_steps;
    EXPECT_GE(fused_steps, 5);
}

// ---------------------------------------------------------------------
// Indexed pricing vs a from-scratch reference
// ---------------------------------------------------------------------

/**
 * Reference footprint/runtime pricing of one candidate, computed from
 * scratch on every call: its own Val -> feature-map lookup, its own
 * pinned set, and the subgraph's kernels priced on the GPU model.  The
 * CostIndex path must reproduce it bit for bit.
 */
CandidateCost
referenceCandidateCost(const Candidate &cand,
                       const std::vector<FeatureMap> &fms,
                       const SelectionState &state,
                       const gpusim::GpuSpec &gpu, bool per_step_fusion)
{
    CandidateCost cost;
    if (!cand.admissible)
        return cost;
    std::unordered_map<Val, const FeatureMap *, graph::ValHash> fm_of;
    for (const FeatureMap &fm : fms)
        fm_of[fm.val] = &fm;
    std::unordered_set<Val, graph::ValHash> pinned;
    if (per_step_fusion)
        pinned.insert(cand.pinned_interior.begin(),
                      cand.pinned_interior.end());

    for (Node *n : cand.subgraph) {
        for (int i = 0; i < n->numOutputs(); ++i) {
            const Val v = n->out(i);
            auto it = fm_of.find(v);
            if (it == fm_of.end() || state.recomputed.count(v) ||
                pinned.count(v) || state.stashed.count(v))
                continue;
            cost.bytes_saved += it->second->bytes;
        }
    }
    auto charge = [&](const Val &v) {
        if (v.node->kind != graph::NodeKind::kOp ||
            state.stashed.count(v))
            return;
        if (fm_of.count(v) && !state.recomputed.count(v))
            return;
        int sharers = 1;
        auto mit = state.frontier_multiplicity.find(v);
        if (mit != state.frontier_multiplicity.end())
            sharers = std::max(1, mit->second);
        cost.bytes_added += Graph::shapeOf(v).bytes() / sharers;
    };
    for (const Val &v : cand.frontier)
        charge(v);
    for (const Val &v : pinned)
        charge(v);

    for (const Node *n : cand.subgraph) {
        std::vector<Shape> in_shapes;
        for (const Val &v : n->inputs)
            in_shapes.push_back(Graph::shapeOf(v));
        for (const graph::KernelDesc &d :
             n->op->kernels(in_shapes, n->out_shapes))
            cost.replay_time_us += gpusim::estimateKernel(d, gpu).time_us;
    }
    return cost;
}

/** Reference full-charge joint pricing of an accepted set. */
SetCost
referenceSetCost(const std::vector<const Candidate *> &accepted,
                 const std::vector<FeatureMap> &fms,
                 const gpusim::GpuSpec &gpu, bool per_step_fusion)
{
    SetCost cost;
    SelectionState joint;
    for (const Candidate *cand : accepted)
        noteAccepted(joint, *cand, per_step_fusion);
    std::unordered_set<Val, graph::ValHash> fm_set;
    for (const FeatureMap &fm : fms) {
        fm_set.insert(fm.val);
        if (joint.recomputed.count(fm.val) && !joint.stashed.count(fm.val))
            cost.bytes_saved += fm.bytes;
    }
    for (const Val &v : joint.stashed)
        if (!fm_set.count(v))
            cost.bytes_added += Graph::shapeOf(v).bytes();
    std::unordered_set<const Node *> replayed;
    for (const Candidate *cand : accepted) {
        for (const Node *n : cand->subgraph) {
            if (!replayed.insert(n).second)
                continue;
            std::vector<Shape> in_shapes;
            for (const Val &v : n->inputs)
                in_shapes.push_back(Graph::shapeOf(v));
            for (const graph::KernelDesc &d :
                 n->op->kernels(in_shapes, n->out_shapes))
                cost.replay_time_us +=
                    gpusim::estimateKernel(d, gpu).time_us;
        }
    }
    return cost;
}

/** The pass's selection — amortized ranking, budgeted greedy, then the
 *  full-charge prune — driven by the reference pricing. */
struct ReferenceSelection
{
    /** State after the greedy loop (multiplicity seeded, members
     *  provisionally accepted). */
    SelectionState state;
    /** Final accepted set, after the prune. */
    std::vector<const Candidate *> accepted;
};

ReferenceSelection
referenceSelect(const std::vector<Candidate> &cands,
                const std::vector<FeatureMap> &fms,
                const std::vector<Val> &fetches, const PassConfig &config)
{
    const bool fuse = config.fuse_replay;
    const double budget =
        config.overhead_budget_fraction < 0.0
            ? std::numeric_limits<double>::infinity()
            : config.overhead_budget_fraction *
                  gpusim::simulateRun(fetches, config.gpu)
                      .gpu_kernel_time_us;
    ReferenceSelection sel;
    for (const Candidate &cand : cands) {
        for (const Val &v : cand.frontier)
            ++sel.state.frontier_multiplicity[v];
        if (fuse)
            for (const Val &v : cand.pinned_interior)
                ++sel.state.frontier_multiplicity[v];
    }
    std::vector<double> ratio(cands.size(), 0.0);
    std::vector<size_t> order;
    for (size_t i = 0; i < cands.size(); ++i) {
        const CandidateCost cost = referenceCandidateCost(
            cands[i], fms, sel.state, config.gpu, fuse);
        if (cost.netSavings() <= 0)
            continue;
        ratio[i] = static_cast<double>(cost.netSavings()) /
                   std::max(0.5, cost.replay_time_us);
        order.push_back(i);
    }
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        if (ratio[a] != ratio[b])
            return ratio[a] > ratio[b];
        return cands[a].target.val.node->id < cands[b].target.val.node->id;
    });

    double used_us = 0.0;
    for (const size_t i : order) {
        const CandidateCost cost = referenceCandidateCost(
            cands[i], fms, sel.state, config.gpu, fuse);
        if (cost.netSavings() <= 0 ||
            used_us + cost.replay_time_us > budget)
            continue;
        used_us += cost.replay_time_us;
        noteAccepted(sel.state, cands[i], fuse);
        sel.accepted.push_back(&cands[i]);
    }

    for (bool changed = true; changed;) {
        changed = false;
        for (size_t i = 0; i < sel.accepted.size(); ++i) {
            SelectionState others;
            for (size_t j = 0; j < sel.accepted.size(); ++j)
                if (j != i)
                    noteAccepted(others, *sel.accepted[j], fuse);
            if (referenceCandidateCost(*sel.accepted[i], fms, others,
                                       config.gpu, fuse)
                    .netSavings() <= 0) {
                sel.accepted.erase(sel.accepted.begin() +
                                   static_cast<ptrdiff_t>(i));
                changed = true;
                break;
            }
        }
    }
    return sel;
}

/** The echo-plan / budget_pareto presets: per-step feature maps
 *  dominate, so both models offer hundreds of candidates. */
models::WordLmConfig
wordLmPreset()
{
    models::WordLmConfig cfg;
    cfg.vocab = 2000;
    cfg.hidden = 192;
    cfg.layers = 2;
    cfg.batch = 16;
    cfg.seq_len = 35;
    return cfg;
}

models::NmtConfig
nmtPreset()
{
    models::NmtConfig cfg;
    cfg.src_vocab = 1500;
    cfg.tgt_vocab = 1200;
    cfg.hidden = 128;
    cfg.enc_layers = 1;
    cfg.batch = 16;
    cfg.src_len = 25;
    cfg.tgt_len = 25;
    return cfg;
}

void
expectSameCost(const CandidateCost &got, const CandidateCost &want,
               const Candidate &cand)
{
    EXPECT_EQ(got.bytes_saved, want.bytes_saved)
        << "target #" << cand.target.val.node->id;
    EXPECT_EQ(got.bytes_added, want.bytes_added)
        << "target #" << cand.target.val.node->id;
    // Bit for bit: the index must accumulate kernels in the same order.
    EXPECT_EQ(got.replay_time_us, want.replay_time_us)
        << "target #" << cand.target.val.node->id;
}

void
expectSameSetCost(const SetCost &got, const SetCost &want)
{
    EXPECT_EQ(got.bytes_saved, want.bytes_saved);
    EXPECT_EQ(got.bytes_added, want.bytes_added);
    EXPECT_EQ(got.replay_time_us, want.replay_time_us);
}

template <typename Model, typename Config>
void
expectIndexedPricingMatches(const Config &model_cfg)
{
    Model m(model_cfg, "autodiff,fusion");
    const std::vector<FeatureMap> fms = findFeatureMaps(m.fetches());
    for (const bool fuse : {true, false}) {
        SCOPED_TRACE(fuse ? "fused replay" : "unfused replay");
        PassConfig config;
        config.fuse_replay = fuse;
        const std::vector<Candidate> cands =
            enumerateCandidates(fms, m.fetches(), config);
        ASSERT_GE(cands.size(), 50u);
        const CostIndex index(fms, cands, config.gpu);
        const ReferenceSelection sel =
            referenceSelect(cands, fms, m.fetches(), config);
        ASSERT_FALSE(sel.accepted.empty());

        const SelectionState empty;
        for (const Candidate &cand : cands) {
            expectSameCost(evaluateCandidate(cand, index, empty, fuse),
                           referenceCandidateCost(cand, fms, empty,
                                                  config.gpu, fuse),
                           cand);
            expectSameCost(
                evaluateCandidate(cand, index, sel.state, fuse),
                referenceCandidateCost(cand, fms, sel.state, config.gpu,
                                       fuse),
                cand);
            expectSameSetCost(
                evaluateAcceptedSet({&cand}, index, fuse),
                referenceSetCost({&cand}, fms, config.gpu, fuse));
        }
        expectSameSetCost(
            evaluateAcceptedSet(sel.accepted, index, fuse),
            referenceSetCost(sel.accepted, fms, config.gpu, fuse));
    }
}

TEST(CostModel, IndexedPricingMatchesFromScratch)
{
    {
        SCOPED_TRACE("word LM preset");
        expectIndexedPricingMatches<models::WordLmModel>(wordLmPreset());
    }
    {
        SCOPED_TRACE("NMT preset");
        expectIndexedPricingMatches<models::NmtModel>(nmtPreset());
    }
}

/** Target node ids the traced pass accepted and did not prune. */
std::vector<int64_t>
tracedAcceptedTargets(const std::vector<obs::TraceEvent> &events)
{
    std::vector<int64_t> accepted, pruned;
    for (const obs::TraceEvent &e : events) {
        if (std::strcmp(e.cat, "echo") != 0)
            continue;
        const bool accept = e.name == "region.accept";
        if (!accept && e.name != "region.pruned")
            continue;
        for (const obs::Arg &a : e.args)
            if (std::strcmp(a.key, "target") == 0)
                (accept ? accepted : pruned).push_back(a.i);
    }
    std::vector<int64_t> kept;
    for (const int64_t id : accepted)
        if (std::find(pruned.begin(), pruned.end(), id) == pruned.end())
            kept.push_back(id);
    std::sort(kept.begin(), kept.end());
    return kept;
}

template <typename Model, typename Config>
void
expectPassMatchesReferenceSelection(const Config &model_cfg)
{
    const PassConfig config;

    // Reference: select with from-scratch pricing on one build, then
    // rewrite it to learn the emitted replay time.
    Model ref(model_cfg, "autodiff,fusion");
    const std::vector<FeatureMap> fms = findFeatureMaps(ref.fetches());
    const std::vector<Candidate> cands =
        enumerateCandidates(fms, ref.fetches(), config);
    const ReferenceSelection sel =
        referenceSelect(cands, fms, ref.fetches(), config);
    ASSERT_FALSE(sel.accepted.empty());
    std::vector<int64_t> want_targets;
    for (const Candidate *cand : sel.accepted)
        want_targets.push_back(cand->target.val.node->id);
    std::sort(want_targets.begin(), want_targets.end());
    const SetCost want =
        referenceSetCost(sel.accepted, fms, config.gpu, config.fuse_replay);
    PassResult ref_res;
    applyRecomputation(ref.graph(), sel.accepted,
                       CostIndex(fms, cands, config.gpu), config, ref_res);

    // The pass on an identical build (same node ids), traced so its
    // per-region decisions name the targets.
    Model m(model_cfg, "autodiff,fusion");
    obs::startTrace();
    const PassResult res =
        runRecomputePass(m.graph(), m.fetches(), config);
    obs::stopTrace();

    EXPECT_EQ(tracedAcceptedTargets(obs::snapshotEvents()), want_targets);
    EXPECT_EQ(res.num_regions, static_cast<int>(sel.accepted.size()));
    EXPECT_EQ(res.bytes_saved, want.bytes_saved);
    EXPECT_EQ(res.bytes_added, want.bytes_added);
    EXPECT_EQ(res.num_recompute_nodes, ref_res.num_recompute_nodes);
    EXPECT_EQ(res.replay_time_us, ref_res.replay_time_us);
}

TEST(CostModel, PassSelectionMatchesReferenceSelection)
{
    {
        SCOPED_TRACE("word LM preset");
        expectPassMatchesReferenceSelection<models::WordLmModel>(
            wordLmPreset());
    }
    {
        SCOPED_TRACE("NMT preset");
        expectPassMatchesReferenceSelection<models::NmtModel>(nmtPreset());
    }
}

} // namespace
} // namespace echo::pass
