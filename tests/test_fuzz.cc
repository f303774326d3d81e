/**
 * @file
 * Randomized property tests: generate random dataflow graphs (cheap
 * element-wise chains interleaved with GEMMs), differentiate them, and
 * assert the invariants the Echo pass must uphold on ANY graph:
 *
 *  - the rewrite never changes a single output bit (fused or unfused),
 *  - the pass never recomputes a GEMM-class op,
 *  - the memory plan never overlaps simultaneously live values,
 *  - the memory plan replays consistently against the live intervals
 *    (no missing, undersized or overlapping allocations, address peak
 *    equal to the plan's pool peak, pool peak never below the liveness
 *    lower bound),
 *  - analytic gradients match finite differences,
 *  - the executor's parallel ready-queue dispatch matches serial
 *    schedule order bit for bit at 1/2/4 threads.
 *
 * Seeds are reproducible: every failure message carries the seed and
 * the rerun recipe, and the seed set can be overridden with
 * ECHO_FUZZ_SEED=<n> (just that seed) or ECHO_FUZZ_ITERS=<n> (n
 * derived seeds) without recompiling.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "budget/planner.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "echo/recompute_pass.h"
#include "analysis/numeric_verify.h"
#include "graph/autodiff.h"
#include "graph/executor.h"
#include "graph/fusion.h"
#include "graph/ops/oplib.h"
#include "memory/planner.h"
#include "models/nmt.h"
#include "models/word_lm.h"
#include "pass/builtin_passes.h"
#include "serve/server.h"
#include "tensor/ops.h"
#include "tune/search_space.h"

namespace echo::pass {
namespace {

/**
 * The parameter set for every fuzz suite below.  Defaults to a fixed
 * seed list (stable CI); ECHO_FUZZ_SEED pins a single failing seed for
 * a repro run, ECHO_FUZZ_ITERS widens the sweep to n seeds derived
 * from a fixed stream.
 */
std::vector<uint64_t>
fuzzSeeds()
{
    if (const char *env = std::getenv("ECHO_FUZZ_SEED")) {
        return {std::strtoull(env, nullptr, 10)};
    }
    if (const char *env = std::getenv("ECHO_FUZZ_ITERS")) {
        const int64_t n = std::strtoll(env, nullptr, 10);
        std::vector<uint64_t> seeds;
        Rng rng(0xEC40F022u);
        for (int64_t i = 0; i < n; ++i)
            seeds.push_back(rng.uniformInt(1u << 30));
        return seeds.empty() ? std::vector<uint64_t>{1u} : seeds;
    }
    return {1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u, 55u, 89u};
}

/** Failure annotation: the seed plus how to rerun exactly this case. */
std::string
repro(uint64_t seed)
{
    return "seed " + std::to_string(seed) +
           " (rerun: ECHO_FUZZ_SEED=" + std::to_string(seed) +
           " ./test_fuzz)";
}

namespace ol = graph::oplib;
using graph::FeedDict;
using graph::Graph;
using graph::Val;

constexpr int64_t kRows = 3;
constexpr int64_t kCols = 6;

/** A randomly generated training graph over [kRows x kCols] tensors. */
struct RandomModel
{
    std::unique_ptr<Graph> g = std::make_unique<Graph>();
    std::vector<Val> inputs;  // placeholders
    std::vector<Val> weights; // square weights for GEMMs
    Val loss;
    std::vector<Val> fetches;
    std::vector<Val> weight_grads;

    void
    build(uint64_t seed, int num_ops, bool run_backward = true)
    {
        Rng rng(seed);
        std::vector<Val> pool;
        for (int i = 0; i < 2; ++i) {
            inputs.push_back(g->placeholder(
                Shape({kRows, kCols}), "x" + std::to_string(i)));
            pool.push_back(inputs.back());
        }
        for (int i = 0; i < 2; ++i)
            weights.push_back(g->weight(Shape({kCols, kCols}),
                                        "w" + std::to_string(i)));

        auto pick = [&]() {
            return pool[rng.uniformInt(pool.size())];
        };
        for (int i = 0; i < num_ops; ++i) {
            const uint64_t choice = rng.uniformInt(8);
            Val v;
            switch (choice) {
              case 0:
                v = g->apply1(ol::add(), {pick(), pick()});
                break;
              case 1:
                v = g->apply1(ol::sub(), {pick(), pick()});
                break;
              case 2:
                v = g->apply1(ol::mul(), {pick(), pick()});
                break;
              case 3:
                v = g->apply1(ol::tanhOp(), {pick()});
                break;
              case 4:
                v = g->apply1(ol::sigmoidOp(), {pick()});
                break;
              case 5:
                v = g->apply1(
                    ol::scale(static_cast<float>(
                        rng.uniform(0.5, 1.5))),
                    {pick()});
                break;
              case 6:
                v = g->apply1(
                    ol::gemm(false, true),
                    {pick(), weights[rng.uniformInt(2)]});
                break;
              default:
                v = g->apply1(ol::softmax(), {pick()});
                break;
            }
            pool.push_back(v);
        }

        // Scalar loss over the last value: sum(tanh(v)).
        const Val last = pool.back();
        const Val t = g->apply1(ol::tanhOp(), {last});
        const Val flat = g->apply1(
            ol::reshape(Shape({1, 1, kRows * kCols})), {t});
        const Val ones = g->apply1(
            ol::constant(Shape({kRows * kCols}), 1.0f), {});
        loss = g->apply1(
            ol::reshape(Shape({1})),
            {g->apply1(ol::dotLastAxis(), {flat, ones})});

        if (!run_backward)
            return;
        auto gr = graph::backward(*g, loss, weights);
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
        for (const Val &x : inputs)
            f[x.node] = Tensor::uniform(Shape({kRows, kCols}), rng,
                                        -0.8f, 0.8f);
        for (const Val &w : weights)
            f[w.node] = Tensor::uniform(Shape({kCols, kCols}), rng,
                                        -0.4f, 0.4f);
        return f;
    }
};

class PassFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(PassFuzz, RewriteIsBitExactOnRandomGraphs)
{
    const uint64_t seed = GetParam();
    for (const bool fuse : {false, true}) {
        RandomModel baseline, rewritten;
        baseline.build(seed, 24);
        rewritten.build(seed, 24);

        PassConfig cfg;
        cfg.overhead_budget_fraction = -1.0;
        cfg.fuse_replay = fuse;
        runRecomputePass(*rewritten.g, rewritten.fetches, cfg);

        graph::Executor ex_a(baseline.fetches);
        graph::Executor ex_b(rewritten.fetches);
        const auto out_a = ex_a.run(baseline.feed(seed * 31 + 7));
        const auto out_b = ex_b.run(rewritten.feed(seed * 31 + 7));
        const analysis::VerifyResult vr = analysis::compareFetches(out_a, out_b);
        EXPECT_TRUE(vr.shapes_match);
        EXPECT_EQ(vr.max_abs_diff, 0.0)
            << repro(seed) << " fuse=" << fuse;
    }
}

TEST_P(PassFuzz, FusionIsByteExactAcrossThreadCounts)
{
    const uint64_t seed = GetParam();
    RandomModel baseline, fused;
    baseline.build(seed, 24);
    fused.build(seed, 24);

    const fusion::FusionResult fr =
        fusion::runFusionPass(*fused.g, fused.fetches);

    graph::Executor ex_a(baseline.fetches);
    graph::Executor ex_b(fused.fetches);
    std::vector<Tensor> ref;
    for (const int threads : {1, 2, 4}) {
        ThreadPool::setGlobalNumThreads(threads);
        const auto out_a = ex_a.run(baseline.feed(seed * 17 + 3));
        const auto out_b = ex_b.run(fused.feed(seed * 17 + 3));
        const analysis::VerifyResult vr =
            analysis::compareFetches(out_a, out_b);
        EXPECT_TRUE(vr.shapes_match)
            << repro(seed) << " threads=" << threads;
        // Loss AND every weight gradient, bit for bit: fusion may
        // never change a single output bit at any thread count.
        EXPECT_EQ(vr.max_abs_diff, 0.0)
            << repro(seed) << " threads=" << threads << " ("
            << fr.num_groups << " fused groups)";
        if (ref.empty()) {
            ref = out_b;
        } else {
            const analysis::VerifyResult across =
                analysis::compareFetches(ref, out_b);
            EXPECT_EQ(across.max_abs_diff, 0.0)
                << repro(seed) << ": fused outputs differ between 1 "
                << "and " << threads << " threads";
        }
    }
    ThreadPool::setGlobalNumThreads(ThreadPool::defaultNumThreads());
}

TEST_P(PassFuzz, NeverRecomputesGemms)
{
    RandomModel m;
    m.build(GetParam(), 24);
    PassConfig cfg;
    cfg.overhead_budget_fraction = -1.0;
    cfg.fuse_replay = false; // per-op clones so ops are inspectable
    runRecomputePass(*m.g, m.fetches, cfg);
    for (const auto &n : m.g->nodes()) {
        if (n->phase == graph::Phase::kRecompute) {
            EXPECT_TRUE(n->op->cheapToRecompute())
                << repro(GetParam()) << " recompute node runs "
                << n->op->name();
        }
    }
}

TEST_P(PassFuzz, PlanNeverOverlapsLiveValuesAfterRewrite)
{
    RandomModel m;
    m.build(GetParam(), 24);
    PassConfig cfg;
    cfg.overhead_budget_fraction = -1.0;
    runRecomputePass(*m.g, m.fetches, cfg);

    const auto live =
        memory::analyzeLiveness(m.fetches, m.weight_grads);
    const auto plan = memory::planMemory(live);
    for (const auto &a : live.values) {
        if (a.persistent)
            continue;
        for (const auto &b : live.values) {
            if (b.persistent || a.val == b.val)
                continue;
            const bool overlap_life =
                a.def_pos <= b.last_use_pos &&
                b.def_pos <= a.last_use_pos;
            if (!overlap_life)
                continue;
            const auto &pa = plan.offsets.at(a.val);
            const auto &pb = plan.offsets.at(b.val);
            const bool disjoint =
                pa.offset + pa.bytes <= pb.offset ||
                pb.offset + pb.bytes <= pa.offset;
            ASSERT_TRUE(disjoint) << repro(GetParam());
        }
    }
}

TEST_P(PassFuzz, GradientsMatchFiniteDifferences)
{
    RandomModel m;
    m.build(GetParam(), 14);
    FeedDict feed = m.feed(GetParam() + 99);

    graph::Executor ex(m.fetches);
    const auto analytic = ex.run(feed);
    graph::Executor loss_ex({m.loss});
    const double eps = 1e-3;

    // Check a handful of elements of the first weight.
    Tensor &param = feed[m.weights[0].node];
    for (int64_t j = 0; j < param.numel(); j += 7) {
        const float saved = param.at(j);
        param.at(j) = saved + static_cast<float>(eps);
        const double up = loss_ex.run(feed)[0].at(0);
        param.at(j) = saved - static_cast<float>(eps);
        const double down = loss_ex.run(feed)[0].at(0);
        param.at(j) = saved;
        const double numeric = (up - down) / (2.0 * eps);
        EXPECT_NEAR(analytic[1].at(j), numeric,
                    5e-2 * std::max(1.0, std::abs(numeric)))
            << repro(GetParam()) << " element " << j;
    }
}

TEST_P(PassFuzz, TimelineReplayMatchesPlanAndLivenessBound)
{
    const uint64_t seed = GetParam();
    for (const bool run_pass : {false, true}) {
        RandomModel m;
        m.build(seed, 24);
        if (run_pass) {
            PassConfig cfg;
            cfg.overhead_budget_fraction = -1.0;
            runRecomputePass(*m.g, m.fetches, cfg);
        }

        const auto live =
            memory::analyzeLiveness(m.fetches, m.weight_grads);
        const memory::PlannerOptions opts;
        const auto plan = memory::planMemory(live, opts);
        const memory::PlanReplay replay = memory::replayPlan(live, plan);

        EXPECT_TRUE(replay.ok()) << repro(seed) << " pass=" << run_pass
                                 << ": " << replay.findings.size()
                                 << " finding(s)";
        ASSERT_FALSE(replay.curve.empty()) << repro(seed);
        EXPECT_EQ(replay.curve.back().live_bytes, 0)
            << repro(seed) << " pass=" << run_pass;
        EXPECT_EQ(replay.address_peak_bytes, plan.pool_peak_bytes)
            << repro(seed) << " pass=" << run_pass;

        // Liveness lower bound: at each schedule position, the sum of
        // aligned sizes of transients live there.  The replayed live
        // peak must equal it, and no pool layout can beat it.
        const auto align_up = [&](int64_t b) {
            return (b + opts.alignment - 1) / opts.alignment *
                   opts.alignment;
        };
        int64_t bound = 0;
        for (size_t p = 0; p < live.schedule.size(); ++p) {
            int64_t at_p = 0;
            for (const auto &v : live.values) {
                if (v.persistent)
                    continue;
                if (v.def_pos <= static_cast<int>(p) &&
                    static_cast<int>(p) <= v.last_use_pos)
                    at_p += align_up(v.bytes);
            }
            bound = std::max(bound, at_p);
        }
        EXPECT_EQ(replay.live_peak_bytes, bound)
            << repro(seed) << " pass=" << run_pass;
        EXPECT_GE(plan.pool_peak_bytes, bound)
            << repro(seed) << " pass=" << run_pass;
    }
}

TEST_P(PassFuzz, RandomLegalPipelinesPreserveBytes)
{
    const uint64_t seed = GetParam();
    Rng rng(seed * 97 + 13);

    // Baseline: autodiff alone, no optimization passes.
    RandomModel baseline;
    baseline.build(seed, 24, /*run_backward=*/false);
    {
        PipelineContext ctx(*baseline.g);
        ctx.loss = baseline.loss;
        ctx.wrt = baseline.weights;
        buildPipeline("autodiff").runOrDie(ctx, "fuzz baseline");
        baseline.fetches = ctx.fetches;
    }
    graph::Executor ex_a(baseline.fetches);
    const auto out_a = ex_a.run(baseline.feed(seed * 31 + 7));

    // A random subset of the optimization-pass pool in a random order
    // after autodiff.  The contract says every such pipeline is
    // statically legal (the transforms only ever need gradients), runs
    // postcondition-clean, and never changes an output bit.
    std::vector<std::string> pool = {"fusion", "recompute", "verify"};
    for (size_t i = pool.size(); i > 1; --i)
        std::swap(pool[i - 1], pool[rng.uniformInt(i)]);
    const size_t keep = rng.uniformInt(pool.size() + 1);
    std::string spec = "autodiff";
    for (size_t i = 0; i < keep; ++i) {
        spec += ',';
        spec += pool[i];
    }

    RandomModel optimized;
    optimized.build(seed, 24, /*run_backward=*/false);
    PipelineContext ctx(*optimized.g);
    ctx.loss = optimized.loss;
    ctx.wrt = optimized.weights;
    ctx.recompute_config.overhead_budget_fraction = -1.0;
    const PassManager pm = buildPipeline(spec);
    ASSERT_TRUE(pm.validate(ctx.initialInvariants()).empty())
        << repro(seed) << " spec=" << spec;
    PassManager::RunOptions opts;
    opts.what = "fuzz pipeline";
    const PipelineReport report = pm.run(ctx, opts);
    ASSERT_TRUE(report.ok()) << repro(seed) << " spec=" << spec
                             << "\n"
                             << report.toString();

    graph::Executor ex_b(ctx.fetches);
    const auto out_b = ex_b.run(optimized.feed(seed * 31 + 7));
    const analysis::VerifyResult vr =
        analysis::compareFetches(out_a, out_b);
    EXPECT_TRUE(vr.shapes_match) << repro(seed) << " spec=" << spec;
    EXPECT_EQ(vr.max_abs_diff, 0.0)
        << repro(seed) << " spec=" << spec;
}

TEST_P(PassFuzz, RandomBudgetsAlwaysFit)
{
    const uint64_t seed = GetParam();

    // Learn the achievable pool-peak range [tightest, baseline] from a
    // sacrificial copy (a 1-byte budget is always infeasible, and an
    // infeasible plan leaves its graph untouched).
    int64_t tightest = 0, baseline_peak = 0;
    {
        RandomModel probe;
        probe.build(seed, 24);
        budget::BudgetConfig tiny;
        tiny.budget_bytes = 1;
        tiny.recompute.overhead_budget_fraction = -1.0;
        const budget::BudgetPlan p = budget::planWithBudget(
            *probe.g, probe.fetches, probe.weight_grads, tiny);
        tightest = p.tightest_pool_peak;
        baseline_peak = p.baseline_pool_peak;
    }
    ASSERT_GT(tightest, 0) << repro(seed);
    ASSERT_LE(tightest, baseline_peak) << repro(seed);

    // Property: EVERY budget in [tightest, baseline] is feasible, the
    // measured peak honors it, the plan replay agrees, and the
    // rewrite never changes an output bit — for every solver.
    RandomModel baseline;
    baseline.build(seed, 24);
    graph::Executor ex_a(baseline.fetches);
    const auto out_a = ex_a.run(baseline.feed(seed * 31 + 7));

    Rng rng(seed * 131 + 5);
    const budget::Solver solvers[] = {budget::Solver::kGreedy,
                                      budget::Solver::kChainDp,
                                      budget::Solver::kLagrange};
    for (const budget::Solver solver : solvers) {
        const int64_t budget_bytes =
            tightest +
            static_cast<int64_t>(rng.uniformInt(static_cast<uint64_t>(
                baseline_peak - tightest + 1)));

        RandomModel planned;
        planned.build(seed, 24);
        budget::BudgetConfig config;
        config.budget_bytes = budget_bytes;
        config.solver = solver;
        config.recompute.overhead_budget_fraction = -1.0;
        const budget::BudgetPlan plan = budget::planWithBudget(
            *planned.g, planned.fetches, planned.weight_grads, config);

        ASSERT_TRUE(plan.feasible)
            << repro(seed) << " solver=" << budget::solverName(solver)
            << " budget=" << budget_bytes << " note=" << plan.note;
        EXPECT_LE(plan.planned_pool_peak, budget_bytes)
            << repro(seed) << " solver=" << budget::solverName(solver);
        EXPECT_TRUE(plan.replay_ok)
            << repro(seed) << " solver=" << budget::solverName(solver);

        graph::Executor ex_b(planned.fetches);
        const auto out_b = ex_b.run(planned.feed(seed * 31 + 7));
        const analysis::VerifyResult vr =
            analysis::compareFetches(out_a, out_b);
        EXPECT_TRUE(vr.shapes_match)
            << repro(seed) << " solver=" << budget::solverName(solver);
        EXPECT_EQ(vr.max_abs_diff, 0.0)
            << repro(seed) << " solver=" << budget::solverName(solver)
            << " budget=" << budget_bytes;
    }
}

TEST_P(PassFuzz, ParallelDispatchMatchesSerialBitForBit)
{
    const uint64_t seed = GetParam();
    RandomModel model;
    model.build(seed, 24);
    const FeedDict feed = model.feed(seed * 41 + 11);

    const graph::Executor serial(model.fetches, graph::ExecMode::kSerial);
    const graph::Executor parallel(model.fetches,
                                   graph::ExecMode::kParallel);
    ThreadPool::setGlobalNumThreads(1);
    const auto ref = serial.run(feed);
    for (const int threads : {1, 2, 4}) {
        ThreadPool::setGlobalNumThreads(threads);
        for (const graph::Executor *ex : {&serial, &parallel}) {
            const auto out = ex->run(feed);
            const analysis::VerifyResult vr =
                analysis::compareFetches(out, ref);
            EXPECT_TRUE(vr.shapes_match)
                << repro(seed) << " threads=" << threads
                << " parallel=" << (ex == &parallel);
            // Loss AND every weight gradient, bit for bit: the ready
            // queue's dispatch order may never change an output bit.
            EXPECT_EQ(vr.max_abs_diff, 0.0)
                << repro(seed) << " threads=" << threads
                << " parallel=" << (ex == &parallel);
        }
    }
    ThreadPool::setGlobalNumThreads(ThreadPool::defaultNumThreads());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PassFuzz,
                         ::testing::ValuesIn(fuzzSeeds()));

// ---------------------------------------------------------------------
// GEMM schedule fuzz: ANY randomly drawn legal schedule must be
// bit-exact against gemmReference — the property the schedule space
// rests on (a schedule can only change speed, never a bit).
// ---------------------------------------------------------------------

class GemmScheduleFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(GemmScheduleFuzz, RandomLegalSchedulesAreBitExact)
{
    const uint64_t seed = GetParam();
    Rng rng(seed * 0x9E3779B9u + 1);
    const int threads = ThreadPool::global().numThreads();
    for (int draw = 0; draw < 8; ++draw) {
        const int64_t m = 1 + static_cast<int64_t>(rng.uniformInt(70));
        const int64_t n = 1 + static_cast<int64_t>(rng.uniformInt(70));
        const int64_t k = 1 + static_cast<int64_t>(rng.uniformInt(70));
        const bool ta = rng.uniformInt(2) != 0;
        const bool tb = rng.uniformInt(2) != 0;
        const ops::GemmSchedule sched =
            tune::randomLegalSchedule(rng, tb, threads);
        ASSERT_TRUE(ops::scheduleLegal(sched, tb))
            << repro(seed) << " " << sched.toString();

        Rng data(seed * 131 + static_cast<uint64_t>(draw));
        const Tensor a = Tensor::uniform(
            ta ? Shape({k, m}) : Shape({m, k}), data);
        const Tensor b = Tensor::uniform(
            tb ? Shape({n, k}) : Shape({k, n}), data);
        const Tensor want = ops::gemmReference(a, ta, b, tb);
        const Tensor got =
            ops::gemmWithSchedule(a, ta, b, tb, 1.0f, sched);
        ASSERT_EQ(want.shape(), got.shape()) << repro(seed);
        ASSERT_EQ(std::memcmp(want.data(), got.data(),
                              static_cast<size_t>(want.shape().bytes())),
                  0)
            << repro(seed) << " " << m << "x" << n << "x" << k
            << (ta ? " T" : " N") << (tb ? "T" : "N") << " schedule "
            << sched.toString();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GemmScheduleFuzz,
                         ::testing::ValuesIn(fuzzSeeds()));

// ---------------------------------------------------------------------
// Continuous-serving fuzz: randomized mixed word-LM + NMT traffic with
// random arrival jitter, lengths, tiers, deadline budgets, and
// client-side cancellations against the continuous scheduler.  Two
// properties must hold on ANY trace:
//
//  - every served payload is byte-identical to the same request
//    decoded solo through a reference session (arrival order, splice
//    timing, and slot churn are unobservable),
//  - the slot-recycling journal replays clean: leases are exclusive,
//    every splice re-initialized its rows, and every admitted request
//    terminated exactly once (served / cancelled / deadline-expired).
// ---------------------------------------------------------------------

namespace sv = echo::serve;

models::WordLmConfig
fuzzLmConfig()
{
    models::WordLmConfig cfg;
    cfg.vocab = 50;
    cfg.hidden = 8;
    cfg.layers = 2;
    cfg.batch = 4;
    cfg.seq_len = 6;
    return cfg;
}

models::NmtConfig
fuzzNmtConfig()
{
    models::NmtConfig cfg;
    cfg.src_vocab = 40;
    cfg.tgt_vocab = 45;
    cfg.hidden = 8;
    cfg.enc_layers = 1;
    cfg.batch = 3;
    cfg.src_len = 8;
    cfg.tgt_len = 8;
    return cfg;
}

sv::SessionConfig
fuzzSessionConfig()
{
    sv::SessionConfig cfg;
    cfg.slots = 4;
    cfg.buckets = {8};
    cfg.beam_width = 3;
    return cfg;
}

class ServeFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(ServeFuzz, ContinuousPayloadsAndJournalSurviveRandomTraffic)
{
    const uint64_t seed = GetParam();
    Rng rng(seed * 0xC0FFEEu + 5);

    Rng lm_init(21), nmt_init(22);
    const models::ParamStore lm_params =
        models::WordLmModel(fuzzLmConfig()).initialParams(lm_init);
    const models::ParamStore nmt_params =
        models::NmtModel(fuzzNmtConfig()).initialParams(nmt_init);

    // Reference sessions: every request decoded solo, in isolation.
    sv::WordLmSession lm_ref(fuzzLmConfig(), lm_params,
                             fuzzSessionConfig());
    sv::NmtSession nmt_ref(fuzzNmtConfig(), nmt_params,
                           fuzzSessionConfig());

    struct Planned
    {
        sv::Request req;
        bool is_nmt = false;
        bool cancel = false;
        int64_t delay_us = 0;
        sv::Response ref;
    };
    const size_t n = 10 + rng.uniformInt(6);
    std::vector<Planned> plan;
    for (size_t i = 0; i < n; ++i) {
        Planned p;
        p.is_nmt = rng.uniformInt(2) != 0;
        p.req.model = p.is_nmt ? "nmt" : "word_lm";
        const size_t len = 1 + rng.uniformInt(7);
        for (size_t t = 0; t < len; ++t)
            p.req.tokens.push_back(
                3 + static_cast<int64_t>(rng.uniformInt(35)));
        if (p.is_nmt) {
            // Mostly greedy lanes; occasionally a beam or zero-budget
            // request, which takes the atomic direct path.
            p.req.max_new_tokens =
                rng.uniformInt(8) == 0
                    ? 0
                    : 1 + static_cast<int64_t>(rng.uniformInt(5));
            p.req.beam_width = rng.uniformInt(5) == 0 ? 2 : 1;
        } else {
            p.req.top_k = 1 + static_cast<int>(rng.uniformInt(5));
        }
        p.req.tier = rng.uniformInt(3) == 0 ? sv::Tier::kInteractive
                                            : sv::Tier::kBatch;
        // Deadline budgets: mostly none, sometimes generous,
        // sometimes hopeless (both outcomes of the race are legal).
        const uint64_t dl = rng.uniformInt(8);
        p.req.deadline_us = dl == 0 ? 1 : dl == 1 ? 50'000 : 0;
        p.cancel = rng.uniformInt(6) == 0;
        p.delay_us = static_cast<int64_t>(rng.uniformInt(200));
        plan.push_back(std::move(p));
    }

    // Solo reference payloads (ids are irrelevant to payload bytes).
    for (Planned &p : plan)
        p.ref = (p.is_nmt ? static_cast<sv::InferenceSession &>(nmt_ref)
                          : static_cast<sv::InferenceSession &>(lm_ref))
                    .runDirect(p.req);

    std::vector<std::unique_ptr<sv::InferenceSession>> sessions;
    sessions.push_back(std::make_unique<sv::WordLmSession>(
        fuzzLmConfig(), lm_params, fuzzSessionConfig()));
    sessions.push_back(std::make_unique<sv::NmtSession>(
        fuzzNmtConfig(), nmt_params, fuzzSessionConfig()));
    sv::ServerConfig cfg;
    cfg.queue_capacity = 64;
    sv::Server server(std::move(sessions), cfg);

    std::vector<std::future<sv::Response>> futures;
    for (const Planned &p : plan) {
        if (p.delay_us > 0)
            std::this_thread::sleep_for(
                std::chrono::microseconds(p.delay_us));
        futures.push_back(server.submit(sv::Request(p.req)));
        if (p.cancel)
            server.cancel(static_cast<int64_t>(futures.size()) - 1);
    }

    int64_t ok_count = 0, cancelled = 0, expired = 0;
    std::vector<int64_t> served_ids;
    for (size_t i = 0; i < futures.size(); ++i) {
        const sv::Response resp = futures[i].get();
        const Planned &p = plan[i];
        if (resp.ok) {
            ++ok_count;
            served_ids.push_back(resp.id);
            EXPECT_EQ(resp.tokens, p.ref.tokens)
                << repro(seed) << " request " << i;
            EXPECT_EQ(resp.scores, p.ref.scores)
                << repro(seed) << " request " << i;
        } else if (resp.reject == sv::RejectReason::kCancelled) {
            ++cancelled;
            EXPECT_TRUE(p.cancel) << repro(seed) << " request " << i;
        } else if (resp.reject == sv::RejectReason::kExpired) {
            ++expired;
            EXPECT_GT(p.req.deadline_us, 0)
                << repro(seed) << " request " << i;
        } else {
            ADD_FAILURE() << repro(seed) << " request " << i
                          << " resolved "
                          << sv::rejectReasonName(resp.reject);
        }
    }
    server.stop();

    // Every admitted request terminated exactly once.
    const sv::ServerStats stats = server.stats();
    EXPECT_EQ(stats.accepted, static_cast<int64_t>(n)) << repro(seed);
    EXPECT_EQ(stats.completed, ok_count) << repro(seed);
    EXPECT_EQ(stats.cancelled, cancelled) << repro(seed);
    EXPECT_EQ(stats.expired, expired) << repro(seed);
    EXPECT_EQ(stats.completed + stats.cancelled + stats.expired,
              stats.accepted)
        << repro(seed);
    EXPECT_EQ(stats.wait_count, stats.completed) << repro(seed);

    // Journal replay: exclusive leases, re-initialized splices,
    // exactly-once termination for every occupant.
    const std::vector<analysis::SlotLease> journal =
        server.leaseJournal();
    const analysis::AnalysisReport report =
        analysis::auditSlotRecycling(journal, server.journalSlots());
    EXPECT_TRUE(report.ok()) << repro(seed) << "\n" << report.toString();

    // A served payload means exactly one lease, closed as kServed.
    std::map<int64_t, std::vector<const analysis::SlotLease *>> by_id;
    for (const analysis::SlotLease &l : journal)
        by_id[l.request_id].push_back(&l);
    for (int64_t id : served_ids) {
        ASSERT_EQ(by_id.count(id), 1u) << repro(seed) << " id " << id;
        ASSERT_EQ(by_id[id].size(), 1u) << repro(seed) << " id " << id;
        EXPECT_EQ(static_cast<int>(by_id[id][0]->status),
                  static_cast<int>(analysis::LeaseStatus::kServed))
            << repro(seed) << " id " << id;
        EXPECT_EQ(by_id[id][0]->reinit, 1) << repro(seed);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServeFuzz,
                         ::testing::ValuesIn(fuzzSeeds()));

} // namespace
} // namespace echo::pass
