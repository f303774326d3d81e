/**
 * @file
 * Tests for the budget-targeted recomputation planner (src/budget):
 * byte-size parsing, joint full-charge accounting (shared stash values
 * paid once), DP-equals-brute-force optimality on graphs small enough
 * to enumerate every candidate subset, the DP-never-worse-than-greedy
 * guarantee, infeasible-budget diagnostics (binding buffers, untouched
 * graph), feasible end-to-end planning cross-checked by the real memory
 * planner and the plan replay, byte-identical training outputs
 * with budget planning on vs off across thread counts, and the
 * `plan,recompute_budget(...)` pipeline establishing plan-feasible.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "budget/items.h"
#include "budget/planner.h"
#include "budget/solvers.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "analysis/numeric_verify.h"
#include "graph/autodiff.h"
#include "graph/executor.h"
#include "graph/ops/oplib.h"
#include "memory/liveness.h"
#include "memory/planner.h"
#include "pass/builtin_passes.h"
#include "pass/pass_manager.h"

namespace echo::budget {
namespace {

namespace ol = graph::oplib;
using graph::FeedDict;
using graph::Graph;
using graph::Val;

/**
 * The same miniature attention decoder the Echo pass tests use: per
 * step an O-shape scoring region (broadcast + layernorm + tanh +
 * v-dot) between GEMM projections, with the key projection shared by
 * every step — the structure that makes joint (full-charge) pricing
 * differ from standalone pricing.
 */
struct ToyBudgetModel
{
    std::unique_ptr<Graph> g = std::make_unique<Graph>();
    Val hs, q0, labels;
    Val wk, wq, wo, v;
    Val loss;
    std::vector<Val> fetches;
    std::vector<Val> weight_grads;
    int64_t batch = 0, steps = 0, hidden = 0;

    void
    build(int64_t b, int64_t t, int64_t h, bool backward = true)
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
            Val flat = g->apply1(ol::reshape(Shape({b * t, h})), {hs});
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
                Val c2 = g->apply1(ol::reshape(Shape({b, h})), {c3});
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
        if (!backward)
            return;
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
        f[hs.node] = Tensor::uniform(Shape({batch, steps, hidden}), rng,
                                     -1.0f, 1.0f);
        f[q0.node] =
            Tensor::uniform(Shape({batch, hidden}), rng, -1.0f, 1.0f);
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

int64_t
poolPeakOf(const ToyBudgetModel &m)
{
    const memory::LivenessResult live =
        memory::analyzeLiveness(m.fetches, m.weight_grads);
    return memory::planMemory(live).pool_peak_bytes;
}

/** Replay sums accumulate in solver-specific orders. */
bool
replayNear(double a, double b)
{
    const double tol =
        1e-6 * std::max({1.0, std::fabs(a), std::fabs(b)});
    return std::fabs(a - b) <= tol;
}

// ---------------------------------------------------------------------
// Byte-size parsing / formatting
// ---------------------------------------------------------------------

TEST(ParseByteSize, UnitsAndMalformedInputs)
{
    int64_t bytes = 0;
    EXPECT_TRUE(parseByteSize("268435456", &bytes));
    EXPECT_EQ(bytes, 268435456);
    EXPECT_TRUE(parseByteSize("256KiB", &bytes));
    EXPECT_EQ(bytes, 256 * 1024);
    EXPECT_TRUE(parseByteSize("256kb", &bytes));
    EXPECT_EQ(bytes, 256 * 1024);
    EXPECT_TRUE(parseByteSize("2MiB", &bytes));
    EXPECT_EQ(bytes, 2 * 1024 * 1024);
    EXPECT_TRUE(parseByteSize("1.5GiB", &bytes));
    EXPECT_EQ(bytes, (3ll * 1024 * 1024 * 1024) / 2);
    EXPECT_TRUE(parseByteSize("64 K", &bytes));
    EXPECT_EQ(bytes, 64 * 1024);
    EXPECT_FALSE(parseByteSize("", &bytes));
    EXPECT_FALSE(parseByteSize("tiny", &bytes));
    EXPECT_FALSE(parseByteSize("12XB", &bytes));
    EXPECT_FALSE(parseByteSize("-4K", &bytes));
    // Non-finite, or past INT64_MAX bytes once scaled.
    EXPECT_FALSE(parseByteSize("nan", &bytes));
    EXPECT_FALSE(parseByteSize("inf", &bytes));
    EXPECT_FALSE(parseByteSize("1e300", &bytes));
    EXPECT_FALSE(parseByteSize("9e9GiB", &bytes));
}

TEST(ParseByteSize, SolverNamesRoundTrip)
{
    for (Solver s : {Solver::kGreedy, Solver::kChainDp,
                     Solver::kLagrange}) {
        Solver parsed;
        ASSERT_TRUE(parseSolver(solverName(s), &parsed));
        EXPECT_EQ(parsed, s);
    }
    Solver ignored;
    EXPECT_FALSE(parseSolver("simplex", &ignored));
}

// ---------------------------------------------------------------------
// Joint full-charge accounting
// ---------------------------------------------------------------------

TEST(JointCost, SharedStashValuesChargedOnce)
{
    ToyBudgetModel m;
    m.build(2, 3, 8);
    const ItemSet items = enumerateItems(m.fetches, {});
    ASSERT_GE(items.items.size(), 4u);

    // Some pair of items must share a stashed frontier value (the key
    // projection feeds every attention step), making the joint added
    // bytes strictly subadditive.
    bool found_subadditive = false;
    const int n = static_cast<int>(items.items.size());
    for (int i = 0; i < n && !found_subadditive; ++i) {
        for (int j = i + 1; j < n && !found_subadditive; ++j) {
            const pass::SetCost a = costOf(items, {i});
            const pass::SetCost b = costOf(items, {j});
            const pass::SetCost ab = costOf(items, {i, j});
            EXPECT_LE(ab.bytes_added, a.bytes_added + b.bytes_added);
            if (ab.bytes_added < a.bytes_added + b.bytes_added)
                found_subadditive = true;
        }
    }
    EXPECT_TRUE(found_subadditive)
        << "no item pair shares a stash value — the toy model no "
           "longer exercises joint pricing";
}

TEST(JointCost, MaxReductionSetBeatsEverySoloItem)
{
    ToyBudgetModel m;
    m.build(2, 3, 8);
    const ItemSet items = enumerateItems(m.fetches, {});
    const SolveResult probe = maxReductionSet(items);
    EXPECT_GT(probe.cost.netSavings(), 0);
    for (const Item &item : items.items)
        EXPECT_GE(probe.cost.netSavings(), item.soloNet());
    EXPECT_EQ(costOf(items, probe.chosen).netSavings(),
              probe.cost.netSavings())
        << "solver-tracked joint cost must match a fresh evaluation";
}

// ---------------------------------------------------------------------
// DP optimality: exhaustive enumeration over all candidate subsets
// ---------------------------------------------------------------------

struct BruteForce
{
    double best_replay = std::numeric_limits<double>::infinity();
    int64_t best_net = std::numeric_limits<int64_t>::min();
    bool reachable = false;
};

/** The true optimum: cheapest replay over ALL subsets with net >= R
 *  (and the maximum achievable net for unreachable targets). */
BruteForce
bruteForce(const ItemSet &items, int64_t required)
{
    const int n = static_cast<int>(items.items.size());
    BruteForce bf;
    for (uint32_t mask = 0; mask < (1u << n); ++mask) {
        std::vector<int> chosen;
        for (int i = 0; i < n; ++i)
            if (mask & (1u << i))
                chosen.push_back(i);
        const pass::SetCost cost = costOf(items, chosen);
        bf.best_net = std::max(bf.best_net, cost.netSavings());
        if (cost.netSavings() >= required) {
            bf.reachable = true;
            bf.best_replay =
                std::min(bf.best_replay, cost.replay_time_us);
        }
    }
    return bf;
}

TEST(ChainDp, MatchesBruteForceOverAllSubsets)
{
    ToyBudgetModel m;
    m.build(2, 2, 8);
    const ItemSet items = enumerateItems(m.fetches, {});
    ASSERT_LE(items.items.size(), 18u)
        << "toy model grew past brute-force range";

    const SolveResult probe = maxReductionSet(items);
    const int64_t max_net = probe.cost.netSavings();
    ASSERT_GT(max_net, 0);

    for (const int64_t required :
         {int64_t{1}, max_net / 4, max_net / 2, (3 * max_net) / 4,
          max_net, max_net + 64}) {
        const BruteForce bf = bruteForce(items, required);
        const SolveResult dp = solveChainDp(items, required);
        EXPECT_TRUE(dp.exact);
        ASSERT_EQ(dp.reached, bf.reachable) << "required " << required;
        // The solver's own accounting must agree with a fresh joint
        // evaluation of what it chose.
        const pass::SetCost fresh = costOf(items, dp.chosen);
        EXPECT_EQ(fresh.netSavings(), dp.cost.netSavings());
        EXPECT_TRUE(
            replayNear(fresh.replay_time_us, dp.cost.replay_time_us));
        if (bf.reachable) {
            EXPECT_GE(dp.cost.netSavings(), required);
            EXPECT_TRUE(replayNear(dp.cost.replay_time_us,
                                   bf.best_replay))
                << "required " << required << ": DP replay "
                << dp.cost.replay_time_us << " us vs brute-force "
                << bf.best_replay << " us";
        } else {
            EXPECT_EQ(dp.cost.netSavings(), bf.best_net)
                << "unreachable target must fall back to the maximum "
                   "achievable reduction";
        }
    }
}

TEST(ChainDp, NeverWorseThanGreedy)
{
    ToyBudgetModel m;
    m.build(4, 6, 32);
    const ItemSet items = enumerateItems(m.fetches, {});
    const int64_t max_net = maxReductionSet(items).cost.netSavings();
    ASSERT_GT(max_net, 0);

    for (int pct = 10; pct <= 100; pct += 10) {
        const int64_t required = (max_net * pct) / 100;
        const SolveResult greedy = solveGreedy(items, required);
        const SolveResult dp = solveChainDp(items, required);
        EXPECT_EQ(dp.reached, greedy.reached || dp.reached)
            << "DP must reach every target greedy reaches (pct "
            << pct << ")";
        if (greedy.reached && dp.reached) {
            EXPECT_LE(dp.cost.replay_time_us,
                      greedy.cost.replay_time_us + 1e-6)
                << "pct " << pct;
        }
    }
}

// ---------------------------------------------------------------------
// planWithBudget end to end
// ---------------------------------------------------------------------

TEST(BudgetPlanner, BaselineFitsWithoutRewriting)
{
    ToyBudgetModel m;
    m.build(4, 6, 32);
    const size_t nodes_before = m.g->numNodes();
    BudgetConfig config;
    config.budget_bytes = poolPeakOf(m);
    const BudgetPlan plan = planWithBudget(*m.g, m.fetches,
                                           m.weight_grads, config);
    EXPECT_TRUE(plan.feasible);
    EXPECT_FALSE(plan.applied);
    EXPECT_EQ(plan.planned_pool_peak, plan.baseline_pool_peak);
    EXPECT_TRUE(plan.replay_ok);
    EXPECT_EQ(m.g->numNodes(), nodes_before);
}

TEST(BudgetPlanner, InfeasibleBudgetDiagnosesAndLeavesGraphUntouched)
{
    ToyBudgetModel m;
    m.build(4, 6, 32);
    const size_t nodes_before = m.g->numNodes();
    BudgetConfig config;
    config.budget_bytes = 1024; // far below the tightest peak
    const BudgetPlan plan = planWithBudget(*m.g, m.fetches,
                                           m.weight_grads, config);
    EXPECT_FALSE(plan.feasible);
    EXPECT_FALSE(plan.applied);
    EXPECT_GT(plan.tightest_pool_peak, config.budget_bytes);
    EXPECT_LT(plan.tightest_pool_peak, plan.baseline_pool_peak);
    EXPECT_NE(plan.note.find("infeasible"), std::string::npos)
        << plan.note;
    // The graph is untouched and still bit-identically runnable.
    EXPECT_EQ(m.g->numNodes(), nodes_before);
    // The diagnostics name the binding buffers holding the peak up.
    ASSERT_FALSE(plan.binding.empty());
    int64_t prev = std::numeric_limits<int64_t>::max();
    for (const BindingBuffer &b : plan.binding) {
        EXPECT_FALSE(b.name.empty());
        EXPECT_GT(b.bytes, 0);
        EXPECT_LE(b.def_pos, b.last_use_pos);
        EXPECT_LE(b.bytes, prev) << "binding buffers must be sorted "
                                    "by descending size";
        prev = b.bytes;
    }
}

TEST(BudgetPlanner, FeasibleBudgetFitsAndTimelineReplays)
{
    // Learn the achievable range from a sacrificial copy...
    int64_t tightest = 0, baseline = 0;
    {
        ToyBudgetModel probe;
        probe.build(4, 6, 32);
        BudgetConfig config;
        config.budget_bytes = 1024;
        const BudgetPlan p = planWithBudget(*probe.g, probe.fetches,
                                            probe.weight_grads, config);
        tightest = p.tightest_pool_peak;
        baseline = p.baseline_pool_peak;
        ASSERT_LT(tightest, baseline);
    }

    // ...then plan a fresh model at the midpoint.
    ToyBudgetModel m;
    m.build(4, 6, 32);
    BudgetConfig config;
    config.budget_bytes = (tightest + baseline) / 2;
    const BudgetPlan plan = planWithBudget(*m.g, m.fetches,
                                           m.weight_grads, config);
    EXPECT_TRUE(plan.feasible);
    EXPECT_TRUE(plan.applied);
    EXPECT_LE(plan.planned_pool_peak, config.budget_bytes);
    EXPECT_GT(plan.pass.num_regions, 0);
    // The planner's record must match an independent re-plan, and the
    // plan it kept must replay cleanly against the rewritten graph's
    // liveness with the same address peak.
    EXPECT_EQ(plan.planned_pool_peak, poolPeakOf(m));
    EXPECT_EQ(plan.memory_plan.pool_peak_bytes, plan.planned_pool_peak);
    EXPECT_TRUE(plan.replay_ok);
    const memory::LivenessResult live =
        memory::analyzeLiveness(m.fetches, m.weight_grads);
    const memory::PlanReplay replay =
        memory::replayPlan(live, plan.memory_plan);
    EXPECT_TRUE(replay.ok());
    EXPECT_EQ(replay.address_peak_bytes, plan.planned_pool_peak);
}

TEST(BudgetPlanner, ByteIdenticalOutputsOnVsOffAcrossThreads)
{
    ToyBudgetModel baseline, planned;
    baseline.build(2, 3, 8);
    planned.build(2, 3, 8);

    BudgetConfig config;
    // Any budget below baseline that the planner can meet: aim just
    // above the tightest achievable peak.
    {
        ToyBudgetModel probe;
        probe.build(2, 3, 8);
        BudgetConfig tiny;
        tiny.budget_bytes = 512;
        const BudgetPlan p = planWithBudget(*probe.g, probe.fetches,
                                            probe.weight_grads, tiny);
        config.budget_bytes =
            std::max(p.tightest_pool_peak, p.baseline_pool_peak - 256);
    }
    const BudgetPlan plan = planWithBudget(
        *planned.g, planned.fetches, planned.weight_grads, config);
    ASSERT_TRUE(plan.feasible);
    ASSERT_TRUE(plan.applied);

    for (const int threads : {1, 2, 4}) {
        ThreadPool::setGlobalNumThreads(threads);
        graph::Executor ex_base(baseline.fetches);
        graph::Executor ex_plan(planned.fetches);
        const auto out_base = ex_base.run(baseline.feed(7));
        const auto out_plan = ex_plan.run(planned.feed(7));
        const analysis::VerifyResult vr =
            analysis::compareFetches(out_base, out_plan);
        EXPECT_TRUE(vr.identical())
            << threads << " thread(s): max abs diff "
            << vr.max_abs_diff;
    }
    ThreadPool::setGlobalNumThreads(ThreadPool::defaultNumThreads());
}

// ---------------------------------------------------------------------
// The registered pass: autodiff,plan,recompute_budget(...)
// ---------------------------------------------------------------------

TEST(BudgetPass, PipelineEstablishesPlanFeasible)
{
    // Size the budget from a sacrificial fully-built copy.
    int64_t budget = 0;
    {
        ToyBudgetModel probe;
        probe.build(4, 6, 32);
        BudgetConfig tiny;
        tiny.budget_bytes = 1024;
        const BudgetPlan p = planWithBudget(*probe.g, probe.fetches,
                                            probe.weight_grads, tiny);
        budget = (p.tightest_pool_peak + p.baseline_pool_peak) / 2;
    }

    ToyBudgetModel m;
    m.build(4, 6, 32, /*backward=*/false);
    pass::PipelineContext ctx(*m.g);
    ctx.loss = m.loss;
    ctx.wrt = {m.wk, m.wq, m.wo, m.v};

    const std::string spec = "autodiff,plan,recompute_budget(bytes=" +
                             std::to_string(budget) + ":solver=dp)";
    pass::PassManager pm = pass::buildPipeline(spec);
    EXPECT_TRUE(pm.validate(ctx.initialInvariants()).empty());
    const pass::PipelineReport report = pm.run(ctx, {});
    EXPECT_TRUE(report.ok()) << report.toString();
    EXPECT_TRUE(ctx.holds.count(pass::Invariant::kPlanFeasible));
    EXPECT_TRUE(ctx.has_budget_plan);
    EXPECT_TRUE(ctx.budget_plan.feasible);
    EXPECT_LE(ctx.plan.pool_peak_bytes, budget);
}

} // namespace
} // namespace echo::budget
