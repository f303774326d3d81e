/**
 * @file
 * Tests for the contract-checked pass manager: spec parsing and env
 * alias resolution, static pipeline-legality validation (including the
 * exact diagnostics for the canonical illegal orderings), postcondition
 * checking against a deliberately invariant-breaking pass, per-stage IR
 * snapshot diffs, and the byte-identity contract across every legal
 * pipeline permutation at 1/2/4 threads.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/thread_pool.h"
#include "data/batcher.h"
#include "analysis/numeric_verify.h"
#include "graph/executor.h"
#include "models/word_lm.h"
#include "obs/trace.h"
#include "pass/builtin_passes.h"
#include "pass/pass_manager.h"

namespace echo::pass {
namespace {

/** Set (or clear, with nullptr) an env var for one scope. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name)) {
            had_old_ = true;
            old_ = old;
        }
        if (value != nullptr)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (had_old_)
            ::setenv(name_.c_str(), old_.c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }
    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    std::string name_;
    bool had_old_ = false;
    std::string old_;
};

models::WordLmConfig
tinyLmConfig()
{
    models::WordLmConfig cfg;
    cfg.vocab = 50;
    cfg.hidden = 8;
    cfg.layers = 2;
    cfg.batch = 4;
    cfg.seq_len = 6;
    return cfg;
}

data::Corpus
tinyCorpus()
{
    data::CorpusConfig cfg;
    cfg.vocab = data::Vocab{50};
    cfg.num_tokens = 2000;
    cfg.seed = 3;
    return data::Corpus::generate(cfg);
}

// ---------------------------------------------------------------------
// Spec parsing and resolution
// ---------------------------------------------------------------------

TEST(PassSpec, ParseSplitsTrimsAndHandlesNone)
{
    EXPECT_EQ(parseSpec("autodiff,fusion"),
              (std::vector<std::string>{"autodiff", "fusion"}));
    EXPECT_EQ(parseSpec(" autodiff , fusion ,, recompute "),
              (std::vector<std::string>{"autodiff", "fusion",
                                        "recompute"}));
    EXPECT_TRUE(parseSpec("").empty());
    EXPECT_TRUE(parseSpec("none").empty());
    // "none" is only the empty pipeline when it is the whole spec.
    EXPECT_EQ(parseSpec("none,fusion"),
              (std::vector<std::string>{"none", "fusion"}));
}

TEST(PassSpec, DefaultsPerPipelineKind)
{
    EXPECT_EQ(defaultSpec(PipelineKind::kTraining), "autodiff,fusion");
    EXPECT_EQ(defaultSpec(PipelineKind::kInference), "fusion");
    // With ECHO_PASSES unset, resolution is the default.
    ScopedEnv passes("ECHO_PASSES", nullptr);
    EXPECT_EQ(resolveSpec(PipelineKind::kTraining, ""), "autodiff,fusion");
    EXPECT_EQ(resolveSpec(PipelineKind::kInference, ""), "fusion");
}

TEST(PassSpec, ExplicitRequestWinsOverEnv)
{
    ScopedEnv passes("ECHO_PASSES", "fusion");
    EXPECT_EQ(resolveSpec(PipelineKind::kTraining, "autodiff,recompute"),
              "autodiff,recompute");
}

TEST(PassSpec, EchoPassesEnvOverridesDefault)
{
    ScopedEnv passes("ECHO_PASSES", "autodiff,recompute");
    EXPECT_EQ(resolveSpec(PipelineKind::kTraining, ""),
              "autodiff,recompute");
}

TEST(PassRegistry, BuiltinsRegisteredUnknownsNot)
{
    EXPECT_EQ(registeredPassNames(),
              (std::vector<std::string>{"autodiff", "fusion", "plan",
                                        "recompute", "recompute_budget",
                                        "verify"}));
    for (const std::string &name : registeredPassNames())
        EXPECT_TRUE(isRegisteredPass(name)) << name;
    EXPECT_FALSE(isRegisteredPass("bogus"));
    std::string error;
    EXPECT_EQ(makePass("bogus", &error), nullptr);
    EXPECT_EQ(makePass("layout", &error), nullptr);
}

TEST(PassRegistry, BuiltinCheckersResolvable)
{
    for (const char *name :
         {"graph-verify", "lifetime", "hazards", "fusion-audit",
          "recompute-audit", "memory-plan", "plan-feasible"}) {
        EXPECT_NE(findChecker(name), nullptr) << name;
    }
    EXPECT_EQ(findChecker("bogus-checker"), nullptr);
}

// ---------------------------------------------------------------------
// Static pipeline-legality validation
// ---------------------------------------------------------------------

/** The invariants a fresh forward graph starts with. */
std::set<Invariant>
freshGraphInvariants()
{
    return {Invariant::kDifferentiable};
}

TEST(PipelineLegality, RecomputeBeforeAutodiffRejectedStatically)
{
    // A fresh context (no gradients yet) starts from exactly these.
    graph::Graph g;
    EXPECT_EQ(PipelineContext(g).initialInvariants(),
              freshGraphInvariants());

    const PassManager pm = buildPipeline("recompute,autodiff");
    const std::vector<ContractViolation> violations =
        pm.validate(freshGraphInvariants());
    ASSERT_EQ(violations.size(), 2u);

    // recompute's kGradients precondition is unmet, and the diagnostic
    // names autodiff as the too-late establisher.
    EXPECT_EQ(violations[0].pass, "recompute");
    EXPECT_EQ(violations[0].pass_index, 0u);
    EXPECT_EQ(violations[0].invariant, Invariant::kGradients);
    EXPECT_EQ(violations[0].establisher, "autodiff");
    EXPECT_NE(violations[0].message.find("requires invariant "
                                         "'gradients'"),
              std::string::npos)
        << violations[0].message;
    EXPECT_NE(violations[0].message.find("order it before"),
              std::string::npos)
        << violations[0].message;

    // ... and running recompute first also destroys the fresh-graph
    // invariant autodiff itself needs.
    EXPECT_EQ(violations[1].pass, "autodiff");
    EXPECT_EQ(violations[1].invariant, Invariant::kDifferentiable);
    EXPECT_EQ(violations[1].invalidator, "recompute");
    EXPECT_NE(violations[1].message.find("held at pipeline entry"),
              std::string::npos)
        << violations[1].message;
}

TEST(PipelineLegality, EstablishedThenClobberedNamesThePassPair)
{
    // fusion rewrites the graph, so the plan pass's memory plan is
    // stale by the time recompute_budget needs it.
    const PassManager pm = buildPipeline(
        "autodiff,plan,fusion,recompute_budget(fraction=0.5)");
    const std::vector<ContractViolation> violations =
        pm.validate(freshGraphInvariants());
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].pass, "recompute_budget(fraction=0.5)");
    EXPECT_EQ(violations[0].invariant, Invariant::kMemoryPlanned);
    EXPECT_EQ(violations[0].establisher, "plan");
    EXPECT_EQ(violations[0].invalidator, "fusion");
    EXPECT_NE(violations[0].message.find("established by 'plan'"),
              std::string::npos)
        << violations[0].message;
    EXPECT_NE(violations[0].message.find("invalidated by 'fusion'"),
              std::string::npos)
        << violations[0].message;
}

TEST(PipelineLegality, DefaultAndPermutedPipelinesAreLegal)
{
    for (const char *spec :
         {"autodiff,fusion", "autodiff,recompute",
          "autodiff,fusion,recompute", "autodiff,recompute,fusion",
          "autodiff,fusion,verify", "fusion", "none"}) {
        const PassManager pm = buildPipeline(spec);
        EXPECT_TRUE(pm.validate(freshGraphInvariants()).empty())
            << spec;
    }
}

TEST(PipelineLegality, SpecRoundTripsThroughManager)
{
    const PassManager pm = buildPipeline("autodiff,fusion,recompute");
    EXPECT_EQ(pm.size(), 3u);
    EXPECT_EQ(pm.spec(), "autodiff,fusion,recompute");
    EXPECT_STREQ(pm.at(1).name(), "fusion");
}

// ---------------------------------------------------------------------
// Budget passes: registration, argument parsing, contract legality
// ---------------------------------------------------------------------

TEST(BudgetPassRegistry, PassesAndCheckersRegistered)
{
    EXPECT_TRUE(isRegisteredPass("plan"));
    EXPECT_TRUE(isRegisteredPass("recompute_budget"));
    EXPECT_NE(findChecker("memory-plan"), nullptr);
    EXPECT_NE(findChecker("plan-feasible"), nullptr);
}

TEST(BudgetPassRegistry, ConfigureRejectsMalformedArguments)
{
    const struct
    {
        const char *spec;
        const char *expect;
    } cases[] = {
        {"recompute_budget", "needs bytes="},
        {"recompute_budget(bytes=64KiB:fraction=0.5)",
         "exactly one of bytes= and fraction="},
        {"recompute_budget(fraction=1.5)", "fraction must be in"},
        {"recompute_budget(fraction=0.5junk)", "fraction must be in"},
        {"recompute_budget(bytes=1MiB:solver=simplex)",
         "unknown solver"},
        {"recompute_budget(bytes=zero)", "bad byte size"},
        {"recompute_budget(pool=2GiB)", "unknown argument"},
        {"recompute_budget(bytes)", "malformed argument"},
    };
    for (const auto &c : cases) {
        std::string error;
        EXPECT_EQ(makePass(c.spec, &error), nullptr) << c.spec;
        EXPECT_NE(error.find(c.expect), std::string::npos)
            << c.spec << " -> " << error;
    }

    std::string error;
    const auto pass =
        makePass("recompute_budget(fraction=0.5:solver=lagrange)",
                 &error);
    ASSERT_NE(pass, nullptr) << error;
    EXPECT_STREQ(pass->name(),
                 "recompute_budget(fraction=0.5:solver=lagrange)");
}

TEST(PipelineLegality, BudgetBeforePlanRejectedStatically)
{
    const PassManager pm = buildPipeline(
        "autodiff,recompute_budget(bytes=64KiB),plan");
    const std::vector<ContractViolation> violations =
        pm.validate(freshGraphInvariants());
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].pass, "recompute_budget(bytes=64KiB)");
    EXPECT_EQ(violations[0].invariant, Invariant::kMemoryPlanned);
    EXPECT_EQ(violations[0].establisher, "plan");
    EXPECT_NE(violations[0].message.find("order it before"),
              std::string::npos)
        << violations[0].message;
}

TEST(PipelineLegality, BudgetSpecRoundTripsAndValidates)
{
    const std::string spec =
        "autodiff,plan,recompute_budget(bytes=64KiB:solver=dp)";
    const PassManager pm = buildPipeline(spec);
    EXPECT_EQ(pm.size(), 3u);
    EXPECT_EQ(pm.spec(), spec);
    EXPECT_STREQ(pm.at(2).name(),
                 "recompute_budget(bytes=64KiB:solver=dp)");
    EXPECT_TRUE(pm.validate(freshGraphInvariants()).empty());
}

// ---------------------------------------------------------------------
// Postcondition checking
// ---------------------------------------------------------------------

/** Deliberately invariant-breaking pass: records a fetch output shape
 *  that disagrees with the op signature, which the graph verifier's
 *  shape-inference replay must catch. */
class BadShapePass : public Pass
{
  public:
    const char *name() const override { return "bad-shape"; }
    void
    run(PipelineContext &ctx) override
    {
        const std::vector<graph::Val> eff = ctx.effectiveFetches();
        ASSERT_FALSE(eff.empty());
        graph::Node *node = eff[0].node;
        node->out_shapes[eff[0].index] =
            Shape({node->out_shapes[eff[0].index].numel() + 1});
    }
};

TEST(Postconditions, BuggyPassCaughtByGraphVerifier)
{
    models::WordLmModel model(tinyLmConfig(), "none");
    PipelineContext ctx(model.graph());
    ctx.loss = model.loss();
    for (const auto &[name, val] : model.weights())
        ctx.wrt.push_back(val);

    PassManager pm = buildPipeline("autodiff");
    pm.add(std::make_unique<BadShapePass>());

    // Statically legal — the bug is behavioral, not an ordering issue.
    EXPECT_TRUE(pm.validate(ctx.initialInvariants()).empty());

    const PipelineReport report = pm.run(ctx, {});
    EXPECT_TRUE(report.aborted);
    EXPECT_FALSE(report.ok());
    ASSERT_EQ(report.stages.size(), 2u);
    EXPECT_EQ(report.stages[1].pass, "bad-shape");
    EXPECT_GT(report.stages[1].post.errorCount(), 0);
    EXPECT_NE(report.toString().find("shape-mismatch"),
              std::string::npos)
        << report.toString();
    EXPECT_FALSE(ctx.stage.verified);
    EXPECT_FALSE(ctx.stage.planned.has_value());
}

TEST(Postconditions, StageVerifiedMemoEndsWithTheRun)
{
    // graph-verify's clean verdict and the stage's plan are shared by
    // the later checkers of their own stage only: no checker called
    // after run() may trust them.
    models::WordLmModel model(tinyLmConfig(), "none");
    PipelineContext ctx(model.graph());
    ctx.loss = model.loss();
    for (const auto &[name, val] : model.weights())
        ctx.wrt.push_back(val);
    const PipelineReport report =
        buildPipeline("autodiff,fusion").run(ctx, {.all_checkers = true});
    ASSERT_TRUE(report.ok()) << report.toString();
    EXPECT_FALSE(ctx.stage.verified);
    EXPECT_FALSE(ctx.stage.planned.has_value());

    // Each stage's "before" is the previous stage's "after".
    ASSERT_EQ(report.stages.size(), 2u);
    const StageReport &ad = report.stages[0], &fu = report.stages[1];
    EXPECT_EQ(fu.nodes_before, ad.nodes_after);
    EXPECT_EQ(fu.reachable_before, ad.reachable_after);
    EXPECT_EQ(fu.values_before, ad.values_after);
    EXPECT_EQ(fu.bytes_before, ad.bytes_after);
}

TEST(PostconditionsDeathTest, RunOrDiePanicsOnBuggyPass)
{
    models::WordLmModel model(tinyLmConfig(), "none");
    PipelineContext ctx(model.graph());
    ctx.loss = model.loss();
    for (const auto &[name, val] : model.weights())
        ctx.wrt.push_back(val);

    PassManager pm = buildPipeline("autodiff");
    pm.add(std::make_unique<BadShapePass>());
    EXPECT_DEATH(pm.runOrDie(ctx, "test pipeline"), "postcondition");
}

TEST(PostconditionsDeathTest, AutodiffWithoutLossFailsTheStage)
{
    // An inference graph (fetches preset, no loss) run through a spec
    // that differentiates: the autodiff stage reports that it cannot
    // run, and runOrDie exits 1 naming the pass, spec and caller.
    auto make_ctx = [](models::WordLmModel &model) {
        PipelineContext ctx(model.graph());
        ctx.fetches = {model.loss()};
        return ctx;
    };
    models::WordLmModel model(tinyLmConfig(), "none");
    PipelineContext ctx = make_ctx(model);
    const PipelineReport report = buildPipeline("autodiff,fusion").run(ctx, {});
    EXPECT_TRUE(report.aborted);
    EXPECT_FALSE(report.ok());
    ASSERT_EQ(report.stages.size(), 1u);
    EXPECT_EQ(report.stages[0].pass, "autodiff");
    EXPECT_NE(report.stages[0].missing_input.find("loss"),
              std::string::npos);

    EXPECT_EXIT(
        {
            models::WordLmModel m(tinyLmConfig(), "none");
            PipelineContext c = make_ctx(m);
            buildPipeline("autodiff,fusion").runOrDie(c, "test decoder");
        },
        ::testing::ExitedWithCode(1),
        "test decoder: pipeline 'autodiff,fusion' failed(.|\n)*"
        "autodiff: not run");
}

TEST(PostconditionsDeathTest, RunPanicsOnStaticallyIllegalPipeline)
{
    models::WordLmModel model(tinyLmConfig(), "none");
    PipelineContext ctx(model.graph());
    ctx.loss = model.loss();
    for (const auto &[name, val] : model.weights())
        ctx.wrt.push_back(val);

    const PassManager pm = buildPipeline("recompute,autodiff");
    EXPECT_DEATH(pm.run(ctx, {}), "contract violation");
}

TEST(Postconditions, CleanPipelineReportsCheckersRun)
{
    models::WordLmModel model(tinyLmConfig(), "autodiff,fusion");
    const PipelineReport &report = model.pipelineReport();
    EXPECT_TRUE(report.ok());
    ASSERT_EQ(report.stages.size(), 2u);
    // autodiff runs its default graph-verify postcondition; fusion
    // declares graph-verify + fusion-audit.
    EXPECT_EQ(report.stages[0].checkers_run,
              (std::vector<std::string>{"graph-verify"}));
    EXPECT_EQ(report.stages[1].checkers_run,
              (std::vector<std::string>{"graph-verify",
                                        "fusion-audit"}));
    EXPECT_EQ(report.stages[1].post.errorCount(), 0);
}

bool
reportsCheck(const analysis::AnalysisReport &report, analysis::Check check)
{
    for (const analysis::Diagnostic &d : report.diagnostics)
        if (d.check == check)
            return true;
    return false;
}

int64_t
poolPeakOf(const PipelineContext &ctx)
{
    return memory::planMemory(
               memory::analyzeLiveness(ctx.effectiveFetches(),
                                       ctx.weight_grads))
        .pool_peak_bytes;
}

/** Rewrites the graph after the plan pass but keeps kMemoryPlanned:
 *  it redirects one backward input to an earlier forward value of the
 *  same shape, stretching that value's live interval to the backward
 *  consumer, so ctx.plan describes a graph that no longer exists.
 *  Tries redirects until the pool peak moves. */
class StalePlanPass : public Pass
{
  public:
    const char *name() const override { return "stale-plan"; }
    void
    run(PipelineContext &ctx) override
    {
        const int64_t planned = poolPeakOf(ctx);
        const memory::LivenessResult live = memory::analyzeLiveness(
            ctx.effectiveFetches(), ctx.weight_grads);
        for (auto sink = live.schedule.rbegin();
             sink != live.schedule.rend(); ++sink) {
            graph::Node *consumer = *sink;
            if (consumer->phase != graph::Phase::kBackward)
                continue;
            for (graph::Val &input : consumer->inputs) {
                for (const memory::ValueInfo &info : live.values) {
                    const graph::Val early = info.val;
                    if (info.persistent || early == input ||
                        early.node->phase != graph::Phase::kForward ||
                        !(graph::Graph::shapeOf(early) ==
                          graph::Graph::shapeOf(input)))
                        continue;
                    const graph::Val original = input;
                    input = early;
                    if (poolPeakOf(ctx) != planned)
                        return;
                    input = original;
                }
            }
        }
        FAIL() << "no redirect moved the pool peak";
    }
    std::vector<std::string> postconditionCheckers() const override
    {
        return {"graph-verify", "memory-plan"};
    }
};

TEST(Postconditions, MemoryPlanCheckerCatchesRewriteAfterPlan)
{
    models::WordLmModel model(tinyLmConfig(), "none");
    PipelineContext ctx(model.graph());
    ctx.loss = model.loss();
    for (const auto &[name, val] : model.weights())
        ctx.wrt.push_back(val);

    PassManager pm = buildPipeline("autodiff,plan");
    pm.add(std::make_unique<StalePlanPass>());
    const PipelineReport report = pm.run(ctx, {});
    ASSERT_EQ(report.stages.size(), 3u);
    EXPECT_TRUE(report.stages[1].post.ok()) << report.toString();
    EXPECT_TRUE(ctx.holds.count(Invariant::kMemoryPlanned));
    EXPECT_TRUE(report.aborted);
    EXPECT_TRUE(
        reportsCheck(report.stages[2].post, analysis::Check::kPlanStale))
        << report.toString();
}

TEST(Postconditions, PlanFeasibleCatchesTamperedBudgetPeak)
{
    models::WordLmModel model(tinyLmConfig(), "none");
    PipelineContext ctx(model.graph());
    ctx.loss = model.loss();
    for (const auto &[name, val] : model.weights())
        ctx.wrt.push_back(val);
    const PipelineReport report =
        buildPipeline("autodiff,plan,recompute_budget(fraction=0.99)")
            .run(ctx, {});
    ASSERT_TRUE(report.ok()) << report.toString();
    ASSERT_TRUE(ctx.has_budget_plan);
    ASSERT_TRUE(ctx.budget_plan.feasible);

    const Checker *feasible = findChecker("plan-feasible");
    ASSERT_NE(feasible, nullptr);
    EXPECT_TRUE((*feasible)(ctx).ok());
    ctx.budget_plan.planned_pool_peak += 256;
    const analysis::AnalysisReport tampered = (*feasible)(ctx);
    EXPECT_TRUE(reportsCheck(tampered, analysis::Check::kPlanStale))
        << tampered.toString();
}

/** planMemory trace spans per stage of @p spec, replayed with every
 *  checker on echo-lint's word-LM preset.  A span counts toward the
 *  stage whose pass span began last. */
std::vector<int>
plansPerStage(const std::string &spec)
{
    models::WordLmConfig cfg;
    cfg.vocab = 120;
    cfg.hidden = 16;
    cfg.layers = 2;
    cfg.batch = 4;
    cfg.seq_len = 10;
    models::WordLmModel model(cfg, "none");
    PipelineContext ctx(model.graph());
    ctx.loss = model.loss();
    for (const auto &[name, val] : model.weights())
        ctx.wrt.push_back(val);

    obs::startTrace();
    const PipelineReport report =
        buildPipeline(spec).run(ctx, {.all_checkers = true});
    obs::stopTrace();
    EXPECT_TRUE(report.ok()) << report.toString();

    std::vector<int> plans;
    for (const obs::TraceEvent &e : obs::snapshotEvents()) {
        if (e.ph != 'B')
            continue;
        if (std::string(e.cat) == "pass")
            plans.push_back(0);
        else if (std::string(e.cat) == "mem" && e.name == "planMemory" &&
                 !plans.empty())
            ++plans.back();
    }
    return plans;
}

TEST(PassManager, PlansEachStageOnce)
{
    // The checkers of one stage share one liveness + plan: a stage
    // plans once for its checkers plus what its pass plans itself (the
    // plan pass; the recompute snapshot; planWithBudget's baseline,
    // probe and trial).
    EXPECT_EQ(plansPerStage("autodiff,fusion,recompute,plan,verify"),
              (std::vector<int>{1, 1, 2, 2, 1}));
    EXPECT_EQ(
        plansPerStage("autodiff,plan,recompute_budget(fraction=0.99),verify"),
        (std::vector<int>{1, 2, 5, 1}));
}

// ---------------------------------------------------------------------
// IR snapshot diffs
// ---------------------------------------------------------------------

TEST(StageDiffs, AutodiffGrowsGraphFusionShrinksReachableSet)
{
    models::WordLmModel model(tinyLmConfig(), "autodiff,fusion");
    const PipelineReport &report = model.pipelineReport();
    ASSERT_EQ(report.stages.size(), 2u);

    const StageReport &ad = report.stages[0];
    EXPECT_EQ(ad.pass, "autodiff");
    EXPECT_GT(ad.nodes_after, ad.nodes_before);
    EXPECT_GT(ad.reachable_after, ad.reachable_before);
    EXPECT_GT(ad.bytes_after, ad.bytes_before);

    const StageReport &fu = report.stages[1];
    EXPECT_EQ(fu.pass, "fusion");
    // Fusion only retypes/redirects; the graph never loses nodes.
    EXPECT_GE(fu.nodes_after, fu.nodes_before);
    if (model.fusionResult().num_groups > 0) {
        // Interior nodes of fused groups drop out of the fetch cone.
        EXPECT_LT(fu.reachable_after, fu.reachable_before);
    }
}

TEST(Postconditions, LateFusionNeverRetypesPinnedReplayTemplates)
{
    // Regression: with the default fused replay, the recompute rewrite
    // leaves FusedRegionOp nodes that re-execute their template nodes'
    // op live.  A later fusion pass used to retype those templates in
    // place (new op, new input arity), so the replay fed stale inputs
    // to the new op and crashed at execution.  Fusion must claim every
    // pinned node up front and leave it alone.
    models::WordLmModel model(tinyLmConfig(),
                              "autodiff,recompute,fusion");
    ASSERT_TRUE(model.pipelineReport().ok());
    int pinned = 0;
    for (const auto &node : model.graph().nodes()) {
        if (node->op == nullptr)
            continue;
        for (const graph::Node *t : node->op->pinnedNodes()) {
            ++pinned;
            ASSERT_NE(t->op, nullptr);
            EXPECT_NE(t->op->name(), "fused_ew")
                << "replay template #" << t->id
                << " was retyped by the late fusion pass";
        }
    }
    // Non-vacuity: the rewrite did compile fused regions over
    // templates, and fusion still found groups elsewhere.
    EXPECT_GT(pinned, 0);
    EXPECT_GT(model.fusionResult().num_groups, 0);
}

// ---------------------------------------------------------------------
// Byte-identity across legal pipeline permutations and thread counts
// ---------------------------------------------------------------------

TEST(PipelinePermutations, ByteIdenticalFetchesAcrossThreads)
{
    const models::WordLmConfig cfg = tinyLmConfig();
    data::Corpus corpus = tinyCorpus();
    data::LmBatcher batcher(corpus, cfg.batch, cfg.seq_len);
    const data::LmBatch batch = batcher.next();

    // Reference: plain autodiff, no graph optimization, one thread.
    models::WordLmModel reference(cfg, "autodiff");
    Rng rng(11);
    models::ParamStore params = reference.initialParams(rng);
    ThreadPool::setGlobalNumThreads(1);
    graph::Executor ref_ex(reference.fetches());
    const std::vector<Tensor> ref_out =
        ref_ex.run(reference.makeFeed(params, batch));

    const char *specs[] = {
        "autodiff",
        "autodiff,fusion",
        "autodiff,recompute",
        "autodiff,fusion,recompute",
        "autodiff,recompute,fusion",
    };
    for (const char *spec : specs) {
        models::WordLmModel model(cfg, spec);
        ASSERT_TRUE(model.pipelineReport().ok()) << spec;
        for (const int threads : {1, 2, 4}) {
            ThreadPool::setGlobalNumThreads(threads);
            graph::Executor ex(model.fetches());
            const std::vector<Tensor> out =
                ex.run(model.makeFeed(params, batch));
            const analysis::VerifyResult vr =
                analysis::compareFetches(out, ref_out);
            EXPECT_TRUE(vr.identical())
                << "spec '" << spec << "' at " << threads
                << " thread(s): max abs diff " << vr.max_abs_diff;
        }
    }
    ThreadPool::setGlobalNumThreads(ThreadPool::defaultNumThreads());
}

} // namespace
} // namespace echo::pass
