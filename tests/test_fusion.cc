/**
 * @file
 * The element-wise fusion pass's contract suite:
 *
 *  - group legality: single-consumer interiors only, fetched and
 *    externally consumed values stay materialized, groups never span
 *    phases or time steps,
 *  - the hard byte-identity contract: fused vs. unfused word-LM
 *    training fetches and step-decoder outputs are bit-equal at 1, 2,
 *    and 4 threads,
 *  - the fusion.* counters are deterministic across identical builds,
 *  - footprint: fusion strictly shrinks the transient-liveness
 *    integral, and under the Echo recompute policy (echo-trace's
 *    default) strictly lowers the planner's pool peak at the
 *    echo-trace word-LM preset,
 *  - analysis::auditFusion is clean on the real model and catches a
 *    tampered fused program, a diverged frontier, and a member op that
 *    lies about its lowering in a group whose class another group
 *    represents,
 *  - the Echo recompute pass still rewrites and audits cleanly on a
 *    fused graph.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <optional>
#include <vector>

#include "analysis/analysis.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "echo/recompute_pass.h"
#include "graph/autodiff.h"
#include "graph/executor.h"
#include "graph/fusion.h"
#include "graph/ops/op_fused_elementwise.h"
#include "graph/ops/oplib.h"
#include "memory/liveness.h"
#include "memory/planner.h"
#include "models/word_lm.h"
#include "obs/counters.h"

namespace echo::fusion {
namespace {

namespace ol = graph::oplib;
using graph::Graph;
using graph::Val;

/** Set ECHO_PASSES for a scope (nullptr: unset, i.e. the default
 *  pipeline, which fuses) and restore the old value on exit. */
class PassesEnv
{
  public:
    explicit PassesEnv(const char *spec)
    {
        const char *old = std::getenv("ECHO_PASSES");
        had_old_ = old != nullptr;
        if (had_old_)
            old_ = old;
        if (spec == nullptr)
            unsetenv("ECHO_PASSES");
        else
            setenv("ECHO_PASSES", spec, 1);
    }
    ~PassesEnv()
    {
        if (had_old_)
            setenv("ECHO_PASSES", old_.c_str(), 1);
        else
            unsetenv("ECHO_PASSES");
    }

  private:
    bool had_old_ = false;
    std::string old_;
};

/** Training pipeline without fusion; the default adds it. */
constexpr const char *kUnfusedTraining = "autodiff";
/** Inference pipeline without fusion (step decoders). */
constexpr const char *kUnfusedInference = "none";
/** The default pipeline for the model kind (fusion included). */
constexpr const char *kDefaultPipeline = nullptr;

bool
bytesEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.numel()) *
                           sizeof(float)) == 0;
}

/** Small word-LM config shared by the model-level tests. */
models::WordLmConfig
smallConfig()
{
    models::WordLmConfig cfg;
    cfg.vocab = 60;
    cfg.hidden = 16;
    cfg.layers = 2;
    cfg.batch = 4;
    cfg.seq_len = 8;
    return cfg;
}

/** Deterministic synthetic batch for @p cfg. */
data::LmBatch
syntheticBatch(const models::WordLmConfig &cfg, uint64_t seed)
{
    Rng rng(seed);
    data::LmBatch batch;
    batch.tokens = Tensor(Shape({cfg.batch, cfg.seq_len}));
    for (int64_t i = 0; i < batch.tokens.numel(); ++i)
        batch.tokens.data()[i] = static_cast<float>(
            rng.uniformInt(static_cast<uint64_t>(cfg.vocab)));
    batch.labels = Tensor(Shape({cfg.batch * cfg.seq_len}));
    for (int64_t i = 0; i < batch.labels.numel(); ++i)
        batch.labels.data()[i] = static_cast<float>(
            rng.uniformInt(static_cast<uint64_t>(cfg.vocab)));
    return batch;
}

TEST(Fusion, FusesGateChainIntoOneNode)
{
    Graph g;
    const Shape s({4, 8});
    const Val a = g.placeholder(s, "a");
    const Val b = g.placeholder(s, "b");
    const Val i = g.apply1(ol::sigmoidOp(), {a});
    const Val t = g.apply1(ol::tanhOp(), {b});
    const Val m = g.apply1(ol::mul(), {i, t});
    const Val out = g.apply1(ol::add(), {m, a});

    const FusionResult r = runFusionPass(g, {out});
    ASSERT_EQ(r.num_groups, 1);
    EXPECT_EQ(r.num_ops_fused, 4);
    EXPECT_EQ(r.num_values_elided, 3);
    EXPECT_EQ(r.bytes_elided, 3 * s.numel() * 4);

    ASSERT_EQ(r.groups.size(), 1u);
    const FusedGroup &group = r.groups[0];
    EXPECT_EQ(group.sink, out.node);
    EXPECT_EQ(out.node->op->name(), "fused_ew");
    // Frontier: the two placeholders (a appears once despite two uses).
    EXPECT_EQ(group.frontier.size(), 2u);
    EXPECT_EQ(out.node->inputs, group.frontier);
    // Interiors are orphaned: the fused graph reaches no sigmoid node.
    for (const graph::Node *n : graph::reachableNodes({out})) {
        if (n->op != nullptr) {
            EXPECT_EQ(n->op->name(), "fused_ew");
        }
    }
}

TEST(Fusion, FetchedAndExternallyConsumedValuesStayMaterialized)
{
    Graph g;
    const Shape s({3, 5});
    const Val a = g.placeholder(s, "a");
    const Val c = g.apply1(ol::sigmoidOp(), {a});
    const Val d = g.apply1(ol::tanhOp(), {c});
    const Val e = g.apply1(ol::mul(), {c, d});

    // c is fetched, so it must survive as a frontier input even though
    // every consumer sits inside the group.
    const FusionResult r = runFusionPass(g, {e, c});
    ASSERT_EQ(r.num_groups, 1);
    EXPECT_EQ(r.num_ops_fused, 2); // tanh + mul only
    EXPECT_EQ(c.node->op->name(), "sigmoid");
    ASSERT_EQ(r.groups[0].frontier.size(), 1u);
    EXPECT_EQ(r.groups[0].frontier[0], c);

    // A non-element-wise consumer outside the group pins its input too.
    Graph g2;
    const Val x = g2.placeholder(s, "x");
    const Val w = g2.weight(Shape({5, 5}), "w");
    const Val t = g2.apply1(ol::tanhOp(), {x});
    const Val u = g2.apply1(ol::sigmoidOp(), {t});
    const Val v = g2.apply1(ol::mul(), {t, u});
    const Val mm = g2.apply1(ol::gemm(false, false), {v, w});
    const Val y = g2.apply1(ol::gemm(false, false), {t, w});
    const FusionResult r2 = runFusionPass(g2, {mm, y});
    // t feeds the second gemm, so only {sigmoid, mul} can fuse.
    ASSERT_EQ(r2.num_groups, 1);
    EXPECT_EQ(r2.num_ops_fused, 2);
    EXPECT_EQ(t.node->op->name(), "tanh");
}

TEST(Fusion, GroupsNeverSpanPhasesOrTimeSteps)
{
    PassesEnv env(kUnfusedTraining); // fuse explicitly below
    models::WordLmModel model(smallConfig());
    const FusionResult r =
        runFusionPass(model.graph(), model.fetches());
    ASSERT_GT(r.num_groups, 0);
    for (const FusedGroup &group : r.groups) {
        for (const graph::Node *m : group.members) {
            EXPECT_EQ(m->phase, group.sink->phase);
            EXPECT_EQ(m->time_step, group.sink->time_step);
        }
    }
}

TEST(Fusion, WordLmTrainingByteIdenticalAcrossThreads)
{
    const models::WordLmConfig cfg = smallConfig();
    std::unique_ptr<models::WordLmModel> unfused, fused;
    {
        PassesEnv env(kUnfusedTraining);
        unfused = std::make_unique<models::WordLmModel>(cfg);
    }
    {
        PassesEnv env(kDefaultPipeline);
        fused = std::make_unique<models::WordLmModel>(cfg);
    }
    EXPECT_EQ(unfused->pipelineSpec(), "autodiff");
    EXPECT_EQ(unfused->fusionResult().num_groups, 0);
    ASSERT_GT(fused->fusionResult().num_groups, 0);

    Rng rng(7);
    const models::ParamStore params = unfused->initialParams(rng);
    const data::LmBatch batch = syntheticBatch(cfg, 11);

    graph::Executor ex_u(unfused->fetches());
    graph::Executor ex_f(fused->fetches());

    std::vector<Tensor> ref; // fused outputs at 1 thread
    for (const int threads : {1, 2, 4}) {
        ThreadPool::setGlobalNumThreads(threads);
        const std::vector<Tensor> out_u =
            ex_u.run(unfused->makeFeed(params, batch));
        const std::vector<Tensor> out_f =
            ex_f.run(fused->makeFeed(params, batch));
        ASSERT_EQ(out_u.size(), out_f.size());
        for (size_t i = 0; i < out_u.size(); ++i)
            EXPECT_TRUE(bytesEqual(out_u[i], out_f[i]))
                << "fetch " << i << " at " << threads << " threads";
        if (ref.empty()) {
            ref = out_f;
        } else {
            for (size_t i = 0; i < ref.size(); ++i)
                EXPECT_TRUE(bytesEqual(ref[i], out_f[i]))
                    << "fused fetch " << i << " differs between 1 and "
                    << threads << " threads";
        }
    }
    ThreadPool::setGlobalNumThreads(ThreadPool::defaultNumThreads());
}

TEST(Fusion, StepDecoderByteIdenticalFusedVsUnfused)
{
    models::WordLmConfig cfg = smallConfig();
    std::unique_ptr<models::WordLmStepper> unfused, fused;
    {
        PassesEnv env(kUnfusedInference);
        unfused = std::make_unique<models::WordLmStepper>(cfg, 3);
    }
    {
        PassesEnv env(kDefaultPipeline);
        fused = std::make_unique<models::WordLmStepper>(cfg, 3);
    }

    Rng rng(21);
    models::WordLmModel ref_model(cfg);
    const models::ParamStore params = ref_model.initialParams(rng);

    models::WordLmStepper::State st_u = unfused->initialState();
    models::WordLmStepper::State st_f = fused->initialState();
    Tensor token(Shape({3}));
    for (int step = 0; step < 4; ++step) {
        for (int64_t i = 0; i < token.numel(); ++i)
            token.data()[i] =
                static_cast<float>((step * 7 + i) % cfg.vocab);
        const Tensor logits_u = unfused->step(params, token, st_u);
        const Tensor logits_f = fused->step(params, token, st_f);
        EXPECT_TRUE(bytesEqual(logits_u, logits_f)) << "step " << step;
        for (int64_t l = 0; l < cfg.layers; ++l) {
            EXPECT_TRUE(bytesEqual(st_u.h[static_cast<size_t>(l)],
                                   st_f.h[static_cast<size_t>(l)]));
            EXPECT_TRUE(bytesEqual(st_u.c[static_cast<size_t>(l)],
                                   st_f.c[static_cast<size_t>(l)]));
        }
    }
}

TEST(Fusion, CountersAreDeterministicAcrossIdenticalBuilds)
{
    PassesEnv env(kDefaultPipeline);
    auto counterValue = [](const std::string &name) {
        for (const obs::CounterSample &c : obs::snapshotCounters())
            if (c.name == name) {
                EXPECT_EQ(c.kind, obs::CounterKind::kDeterministic);
                return c.value;
            }
        return int64_t{0};
    };

    const char *names[] = {"fusion.groups", "fusion.ops_fused",
                           "fusion.values_elided",
                           "fusion.bytes_elided"};
    int64_t before[4], delta1[4];
    for (int i = 0; i < 4; ++i)
        before[i] = counterValue(names[i]);
    models::WordLmModel first(smallConfig());
    for (int i = 0; i < 4; ++i)
        delta1[i] = counterValue(names[i]) - before[i];
    for (int i = 0; i < 4; ++i)
        before[i] = counterValue(names[i]);
    models::WordLmModel second(smallConfig());
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(counterValue(names[i]) - before[i], delta1[i])
            << names[i];

    // The counter deltas mirror the journaled result exactly.
    const FusionResult &r = second.fusionResult();
    EXPECT_EQ(delta1[0], r.num_groups);
    EXPECT_EQ(delta1[1], r.num_ops_fused);
    EXPECT_EQ(delta1[2], r.num_values_elided);
    EXPECT_EQ(delta1[3], r.bytes_elided);
}

TEST(Fusion, ShrinksTransientFootprint)
{
    // The echo-trace word-LM preset.
    models::WordLmConfig cfg;
    cfg.vocab = 120;
    cfg.hidden = 32;
    cfg.layers = 2;
    cfg.batch = 8;
    cfg.seq_len = 16;

    // The liveness integral (transient byte-positions) must strictly
    // drop: every elided interior was live for at least one position.
    auto transientIntegral = [](const memory::LivenessResult &lv) {
        int64_t sum = 0;
        for (const memory::ValueInfo &v : lv.values)
            if (!v.persistent)
                sum += v.bytes * (v.last_use_pos - v.def_pos + 1);
        return sum;
    };

    // Under the Echo recompute policy — echo-trace's default — the
    // pool peak itself must strictly drop: fused nodes are cheap
    // recompute candidates, so the pass finds better regions.
    auto poolPeakUnderRecompute = [](models::WordLmModel &model) {
        pass::PassConfig pcfg;
        pcfg.policy = pass::PassConfig::Policy::kAuto;
        pass::runRecomputePass(model.graph(), model.fetches(), pcfg);
        const memory::LivenessResult lv = memory::analyzeLiveness(
            model.fetches(), model.weightGrads());
        return memory::planMemory(lv).pool_peak_bytes;
    };

    int64_t integral_u, integral_f, peak_u, peak_f;
    {
        PassesEnv env(kUnfusedTraining);
        models::WordLmModel model(cfg);
        integral_u = transientIntegral(memory::analyzeLiveness(
            model.fetches(), model.weightGrads()));
        peak_u = poolPeakUnderRecompute(model);
    }
    {
        PassesEnv env(kDefaultPipeline);
        models::WordLmModel model(cfg);
        ASSERT_GT(model.fusionResult().bytes_elided, 0);
        integral_f = transientIntegral(memory::analyzeLiveness(
            model.fetches(), model.weightGrads()));
        peak_f = poolPeakUnderRecompute(model);
    }
    EXPECT_LT(integral_f, integral_u);
    EXPECT_LT(peak_f, peak_u);
}

TEST(Fusion, AuditCleanOnWordLmAndCatchesTampering)
{
    PassesEnv env(kDefaultPipeline);
    models::WordLmModel model(smallConfig());
    const FusionResult &r = model.fusionResult();
    ASSERT_GT(r.num_groups, 0);
    EXPECT_TRUE(analysis::auditFusion(model.fetches(), r).ok());

    // Tamper with the fused program: the value-equality-metadata check
    // must flag the signature divergence.
    graph::Node *sink = r.groups[0].sink;
    const graph::OpPtr original = sink->op;
    const auto *fused_op =
        dynamic_cast<const graph::oplib::FusedElementwiseOp *>(
            original.get());
    ASSERT_NE(fused_op, nullptr);
    graph::oplib::FusedElementwiseSpec spec = fused_op->spec();
    graph::EwInstr &instr = spec.program.back();
    switch (instr.opcode) {
      case graph::EwOpcode::kAdd:
        instr.opcode = graph::EwOpcode::kSub;
        break;
      case graph::EwOpcode::kSub:
      case graph::EwOpcode::kMul:
        instr.opcode = graph::EwOpcode::kAdd;
        break;
      case graph::EwOpcode::kAddScalar:
      case graph::EwOpcode::kMulScalar:
        instr.scalar += 0.5f;
        break;
      case graph::EwOpcode::kTanh:
        instr.opcode = graph::EwOpcode::kSigmoid;
        break;
      default:
        instr.opcode = graph::EwOpcode::kTanh;
        break;
    }
    sink->op = graph::oplib::fusedElementwise(spec);
    analysis::AnalysisReport tampered =
        analysis::auditFusion(model.fetches(), r);
    EXPECT_FALSE(tampered.ok());
    bool mismatch_flagged = false;
    for (const analysis::Diagnostic &d : tampered.diagnostics)
        mismatch_flagged |=
            d.check == analysis::Check::kFusionValueMismatch;
    EXPECT_TRUE(mismatch_flagged);
    sink->op = original;

    // A frontier that diverged from the journal is an illegal group.
    if (sink->inputs.size() >= 2) {
        std::swap(sink->inputs[0], sink->inputs[1]);
        analysis::AnalysisReport diverged =
            analysis::auditFusion(model.fetches(), r);
        EXPECT_FALSE(diverged.ok());
        bool illegal_flagged = false;
        for (const analysis::Diagnostic &d : diverged.diagnostics)
            illegal_flagged |=
                d.check == analysis::Check::kFusionIllegalGroup;
        EXPECT_TRUE(illegal_flagged);
        std::swap(sink->inputs[0], sink->inputs[1]);
    }
    EXPECT_TRUE(analysis::auditFusion(model.fetches(), r).ok());
}

/** Lowers exactly like the op it wraps but computes something else:
 *  only a value replay of its own group can tell. */
class LyingOp : public graph::Op
{
  public:
    explicit LyingOp(graph::OpPtr inner) : inner_(std::move(inner)) {}

    std::string name() const override { return inner_->name(); }
    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        return inner_->inferShapes(in);
    }
    void forward(const std::vector<Tensor> &in,
                 std::vector<Tensor> &out) const override
    {
        inner_->forward(in, out);
        out[0].data()[0] += 1.0f;
    }
    std::vector<Val> buildGradient(graph::GradContext &ctx) const override
    {
        return inner_->buildGradient(ctx);
    }
    std::vector<graph::EwInstr> elementwiseLowering() const override
    {
        return inner_->elementwiseLowering();
    }

  private:
    graph::OpPtr inner_;
};

TEST(Fusion, AuditCatchesLyingOpInNonRepresentativeMember)
{
    PassesEnv env(kDefaultPipeline);
    models::WordLmModel model(smallConfig());
    const FusionResult &r = model.fusionResult();
    ASSERT_TRUE(analysis::auditFusion(model.fetches(), r).ok());

    // The last group of a later time step whose program an earlier
    // group repeats: the audit replays that earlier group for both.
    const auto signature_of = [&](size_t i) {
        return static_cast<const graph::oplib::FusedElementwiseOp &>(
                   *r.groups[i].sink->op)
            .signature();
    };
    size_t target = r.groups.size();
    for (size_t i = r.groups.size(); i-- > 0;) {
        if (r.groups[i].sink->time_step <= 0)
            continue;
        for (size_t j = 0; j < i && target == r.groups.size(); ++j)
            if (signature_of(j) == signature_of(i))
                target = i;
        if (target != r.groups.size())
            break;
    }
    ASSERT_LT(target, r.groups.size());
    const FusedGroup &group = r.groups[target];
    ASSERT_GE(group.members.size(), 2u);
    graph::Node *member = group.members.front();
    ASSERT_NE(member, group.sink);

    const graph::OpPtr original = member->op;
    member->op = std::make_shared<LyingOp>(original);
    const analysis::AnalysisReport tampered =
        analysis::auditFusion(model.fetches(), r);
    member->op = original;
    EXPECT_FALSE(tampered.ok());
    const std::string where =
        "fused group #" + std::to_string(target) + " ";
    bool mismatch_flagged = false;
    for (const analysis::Diagnostic &d : tampered.diagnostics)
        mismatch_flagged |=
            d.check == analysis::Check::kFusionValueMismatch &&
            d.message.rfind(where, 0) == 0;
    EXPECT_TRUE(mismatch_flagged) << tampered.toString();
    EXPECT_TRUE(analysis::auditFusion(model.fetches(), r).ok());
}

TEST(Fusion, RecomputePassRewritesAndAuditsCleanlyOnFusedGraph)
{
    PassesEnv env(kDefaultPipeline);
    models::WordLmModel model(smallConfig());
    ASSERT_GT(model.fusionResult().num_groups, 0);

    const analysis::GraphSnapshot snapshot = analysis::snapshotGraph(
        model.graph(), model.fetches(), model.weightGrads());
    pass::PassConfig cfg;
    cfg.policy = pass::PassConfig::Policy::kAuto;
    const pass::PassResult result = pass::runRecomputePass(
        model.graph(), model.fetches(), cfg);
    EXPECT_GT(result.num_regions, 0);

    std::optional<memory::PlannedSchedule> planned;
    analysis::AnalysisReport report = analysis::analyzeAll(
        model.fetches(), model.weightGrads(), &planned);
    ASSERT_TRUE(planned.has_value()) << report.toString();
    report.merge(analysis::auditRecomputePass(
        snapshot, model.graph(), planned->liveness, planned->plan,
        result));
    EXPECT_TRUE(report.ok()) << report.toString();
}

} // namespace
} // namespace echo::fusion
