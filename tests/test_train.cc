/**
 * @file
 * Tests for the training infrastructure: optimizers, metrics
 * (perplexity/BLEU), the training loop (loss actually decreases on the
 * synthetic corpora), and the iteration profiler.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <string>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "data/batcher.h"
#include "graph/executor.h"
#include "models/nmt.h"
#include "models/word_lm.h"
#include "train/metrics.h"
#include "train/optimizer.h"
#include "train/nmt_eval.h"
#include "train/simulation.h"
#include "train/trainer.h"

namespace echo::train {
namespace {

TEST(Metrics, PerplexityIsExpOfLoss)
{
    EXPECT_NEAR(perplexity(std::log(100.0)), 100.0, 1e-6);
    EXPECT_NEAR(perplexity(0.0), 1.0, 1e-12);
}

TEST(Metrics, BleuPerfectMatchIs100)
{
    std::vector<std::vector<int64_t>> hyp = {{1, 2, 3, 4, 5}};
    EXPECT_NEAR(corpusBleu(hyp, hyp), 100.0, 1e-9);
}

TEST(Metrics, BleuZeroOnDisjoint)
{
    std::vector<std::vector<int64_t>> hyp = {{1, 2, 3, 4}};
    std::vector<std::vector<int64_t>> ref = {{5, 6, 7, 8}};
    EXPECT_DOUBLE_EQ(corpusBleu(hyp, ref), 0.0);
}

TEST(Metrics, BleuBrevityPenaltyApplies)
{
    // A correct but short hypothesis scores below a full-length one.
    std::vector<std::vector<int64_t>> ref = {{1, 2, 3, 4, 5, 6, 7, 8}};
    std::vector<std::vector<int64_t>> full = {{1, 2, 3, 4, 5, 6, 7, 8}};
    std::vector<std::vector<int64_t>> part = {{1, 2, 3, 4, 5}};
    EXPECT_LT(corpusBleu(part, ref), corpusBleu(full, ref));
    EXPECT_GT(corpusBleu(part, ref), 0.0);
}

TEST(Metrics, BleuOrderSensitivity)
{
    std::vector<std::vector<int64_t>> ref = {{1, 2, 3, 4, 5, 6}};
    std::vector<std::vector<int64_t>> shuffled = {{6, 4, 2, 1, 3, 5}};
    EXPECT_LT(corpusBleu(shuffled, ref), 20.0);
}

TEST(Optimizer, SgdDescendsQuadratic)
{
    // One-parameter bowl: L = 0.5 * w^2, grad = w.
    models::NamedWeights weights;
    graph::Graph g;
    const graph::Val w = g.weight(Shape({1}), "w");
    weights.emplace_back("w", w);
    ParamStore params;
    params["w"] = Tensor(Shape({1}), {10.0f});

    SgdOptimizer opt(0.1, 0.0, 0.0);
    for (int i = 0; i < 50; ++i) {
        std::vector<Tensor> grads = {
            Tensor(Shape({1}), {params["w"].at(0)})};
        opt.step(params, weights, grads);
    }
    EXPECT_LT(std::abs(params["w"].at(0)), 0.1f);
}

TEST(Optimizer, MomentumAcceleratesDescent)
{
    graph::Graph g;
    models::NamedWeights weights;
    weights.emplace_back("w", g.weight(Shape({1}), "w"));

    auto run = [&](double momentum) {
        ParamStore params;
        params["w"] = Tensor(Shape({1}), {10.0f});
        SgdOptimizer opt(0.02, momentum, 0.0);
        for (int i = 0; i < 30; ++i) {
            std::vector<Tensor> grads = {
                Tensor(Shape({1}), {params["w"].at(0)})};
            opt.step(params, weights, grads);
        }
        return std::abs(params["w"].at(0));
    };
    EXPECT_LT(run(0.9), run(0.0));
}

TEST(Optimizer, ClippingBoundsStep)
{
    graph::Graph g;
    models::NamedWeights weights;
    weights.emplace_back("w", g.weight(Shape({1}), "w"));
    ParamStore params;
    params["w"] = Tensor(Shape({1}), {0.0f});

    SgdOptimizer opt(1.0, 0.0, 1.0); // clip to norm 1
    std::vector<Tensor> grads = {Tensor(Shape({1}), {1000.0f})};
    const double norm = opt.step(params, weights, grads);
    EXPECT_NEAR(norm, 1000.0, 1e-6);
    EXPECT_NEAR(params["w"].at(0), -1.0f, 1e-5);
}

TEST(Optimizer, AdamDescendsQuadratic)
{
    graph::Graph g;
    models::NamedWeights weights;
    weights.emplace_back("w", g.weight(Shape({1}), "w"));
    ParamStore params;
    params["w"] = Tensor(Shape({1}), {5.0f});

    AdamOptimizer opt(0.3);
    for (int i = 0; i < 100; ++i) {
        std::vector<Tensor> grads = {
            Tensor(Shape({1}), {params["w"].at(0)})};
        opt.step(params, weights, grads);
    }
    EXPECT_LT(std::abs(params["w"].at(0)), 0.5f);
}

TEST(Optimizer, GlobalNormAggregates)
{
    std::vector<Tensor> grads = {Tensor(Shape({2}), {3.0f, 0.0f}),
                                 Tensor(Shape({1}), {4.0f})};
    EXPECT_NEAR(globalNorm(grads), 5.0, 1e-9);
}

// Reference optimizers: the same arithmetic element by element through
// the bounds-checked at().  The production loops index raw storage;
// StepsMatchReferenceBitForBit holds them to these bits.
double
referenceGlobalNorm(const std::vector<Tensor> &grads)
{
    double sum_sq = 0.0;
    for (const Tensor &g : grads)
        for (int64_t i = 0; i < g.numel(); ++i)
            sum_sq += static_cast<double>(g.at(i)) * g.at(i);
    return std::sqrt(sum_sq);
}

struct ReferenceSgd
{
    double lr_, momentum_, clip_norm_;
    std::map<std::string, Tensor> velocity_;

    double
    step(ParamStore &params, const NamedWeights &weights,
         const std::vector<Tensor> &grads)
    {
        const double norm = referenceGlobalNorm(grads);
        const double scale =
            clip_norm_ > 0.0 && norm > clip_norm_ ? clip_norm_ / norm
                                                  : 1.0;
        for (size_t i = 0; i < weights.size(); ++i) {
            const std::string &name = weights[i].first;
            Tensor &param = params.at(name);
            const Tensor &grad = grads[i];
            Tensor &vel =
                velocity_.try_emplace(name, Tensor::zeros(param.shape()))
                    .first->second;
            for (int64_t j = 0; j < param.numel(); ++j) {
                const float g = static_cast<float>(scale) * grad.at(j);
                vel.at(j) = static_cast<float>(momentum_) * vel.at(j) + g;
                param.at(j) -= static_cast<float>(lr_) * vel.at(j);
            }
        }
        return norm;
    }
};

struct ReferenceAdam
{
    double lr_, beta1_, beta2_, eps_, clip_norm_;
    int64_t t_ = 0;
    std::map<std::string, Tensor> m_, v_;

    double
    step(ParamStore &params, const NamedWeights &weights,
         const std::vector<Tensor> &grads)
    {
        const double norm = referenceGlobalNorm(grads);
        const double scale =
            clip_norm_ > 0.0 && norm > clip_norm_ ? clip_norm_ / norm
                                                  : 1.0;
        ++t_;
        const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
        const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
        for (size_t i = 0; i < weights.size(); ++i) {
            const std::string &name = weights[i].first;
            Tensor &param = params.at(name);
            const Tensor &grad = grads[i];
            Tensor &m = m_.try_emplace(name, Tensor::zeros(param.shape()))
                            .first->second;
            Tensor &v = v_.try_emplace(name, Tensor::zeros(param.shape()))
                            .first->second;
            for (int64_t j = 0; j < param.numel(); ++j) {
                const double g = scale * static_cast<double>(grad.at(j));
                m.at(j) = static_cast<float>(beta1_ * m.at(j) +
                                             (1.0 - beta1_) * g);
                v.at(j) = static_cast<float>(beta2_ * v.at(j) +
                                             (1.0 - beta2_) * g * g);
                const double m_hat = m.at(j) / bc1;
                const double v_hat = v.at(j) / bc2;
                param.at(j) -= static_cast<float>(
                    lr_ * m_hat / (std::sqrt(v_hat) + eps_));
            }
        }
        return norm;
    }
};

TEST(Optimizer, StepsMatchReferenceBitForBit)
{
    // Ranks 1-3; 105 and 37 elements are not multiples of 16 (vector
    // remainders), and 640x625 = 400,000 elements is LM-sized.
    const std::vector<Shape> shapes = {Shape({37}), Shape({16, 24}),
                                       Shape({3, 5, 7}),
                                       Shape({640, 625})};
    graph::Graph g;
    models::NamedWeights weights;
    ParamStore init;
    Rng rng(7);
    for (size_t i = 0; i < shapes.size(); ++i) {
        // Not "w" + to_string(i): GCC 12 warns (-Wrestrict, a false
        // positive) on a literal + std::string temporary.
        std::string name = "w";
        name += std::to_string(i);
        weights.emplace_back(name, g.weight(shapes[i], name));
        init[name] = Tensor::gaussian(shapes[i], rng, 0.0f, 0.5f);
    }
    const double clip = 5.0;

    auto run = [&](auto &opt, auto &ref, const char *label) {
        ParamStore got, want;
        for (const auto &[name, t] : init) {
            got[name] = t.clone();
            want[name] = t.clone();
        }
        Rng grad_rng(11);
        for (int step = 0; step < 8; ++step) {
            // Even steps: norm ~600, clipped to 5.  Odd: ~0.06, not.
            const bool clipped = step % 2 == 0;
            std::vector<Tensor> grads;
            for (const Shape &s : shapes)
                grads.push_back(Tensor::gaussian(s, grad_rng, 0.0f,
                                                 clipped ? 1.0f : 1e-4f));
            const double n_got = opt.step(got, weights, grads);
            const double n_want = ref.step(want, weights, grads);
            EXPECT_EQ(n_got > clip, clipped) << label << " step " << step;
            EXPECT_EQ(std::memcmp(&n_got, &n_want, sizeof(double)), 0)
                << label << " norm bits differ at step " << step;
            for (const auto &[name, t] : want)
                ASSERT_EQ(std::memcmp(got.at(name).data(), t.data(),
                                      static_cast<size_t>(t.numel()) *
                                          sizeof(float)),
                          0)
                    << label << " " << name << " differs at step " << step;
        }
    };

    for (const double momentum : {0.0, 0.9}) {
        SgdOptimizer sgd(0.05, momentum, clip);
        ReferenceSgd ref{0.05, momentum, clip, {}};
        run(sgd, ref, momentum == 0.0 ? "sgd" : "sgd+momentum");
    }
    AdamOptimizer adam(0.01, 0.9, 0.999, 1e-8, clip);
    ReferenceAdam ref{0.01, 0.9, 0.999, 1e-8, clip, 0, {}, {}};
    run(adam, ref, "adam");
}

// One step of @p opt on a single parameter "w" of @p param_shape with a
// gradient of @p grad_shape.
template <typename Opt>
void
stepOnce(Opt &opt, const Shape &param_shape, const Shape &grad_shape)
{
    graph::Graph g;
    models::NamedWeights weights;
    weights.emplace_back("w", g.weight(param_shape, "w"));
    ParamStore params;
    params["w"] = Tensor::zeros(param_shape);
    opt.step(params, weights, {Tensor::full(grad_shape, 1.0f)});
}

TEST(Optimizer, RejectsGradientOfWrongShape)
{
    // Longer than the parameter (once truncated silently) and shorter
    // (once an anonymous out-of-range panic mid-step).
    for (const Shape &grad : {Shape({5}), Shape({3})}) {
        SgdOptimizer sgd(0.1);
        EXPECT_DEATH(stepOnce(sgd, Shape({4}), grad),
                     "gradient for parameter 'w'");
        AdamOptimizer adam(0.1);
        EXPECT_DEATH(stepOnce(adam, Shape({4}), grad),
                     "gradient for parameter 'w'");
    }
}

TEST(Optimizer, RejectsStateFromDifferentlyShapedParams)
{
    // The optimizer first steps a 4-element "w", then is handed a
    // ParamStore whose "w" has 6 elements: its kept state no longer fits.
    SgdOptimizer sgd(0.1);
    stepOnce(sgd, Shape({4}), Shape({4}));
    EXPECT_DEATH(stepOnce(sgd, Shape({6}), Shape({6})),
                 "SGD velocity for parameter 'w'");
    AdamOptimizer adam(0.1);
    stepOnce(adam, Shape({4}), Shape({4}));
    EXPECT_DEATH(stepOnce(adam, Shape({6}), Shape({6})),
                 "Adam first moment for parameter 'w'");
}

TEST(Trainer, WordLmLossDecreases)
{
    models::WordLmConfig cfg;
    cfg.vocab = 30;
    cfg.hidden = 16;
    cfg.layers = 1;
    cfg.batch = 8;
    cfg.seq_len = 8;
    cfg.backend = rnn::RnnBackend::kCudnn; // fused = fewer CPU ops
    models::WordLmModel model(cfg);

    data::CorpusConfig ccfg;
    ccfg.vocab = data::Vocab{30};
    ccfg.num_tokens = 20000;
    ccfg.structure = 0.9;
    ccfg.seed = 13;
    data::Corpus corpus = data::Corpus::generate(ccfg);
    data::LmBatcher batcher(corpus, cfg.batch, cfg.seq_len);

    Rng rng(17);
    ParamStore params = model.initialParams(rng);
    SgdOptimizer opt(0.5, 0.9);

    graph::Executor ex(model.fetches());
    TrainLoopConfig loop;
    loop.iterations = 80;
    loop.seconds_per_iteration = 0.01;
    const auto curve = runTrainingLoop(
        ex, loop,
        [&](int64_t) { return model.makeFeed(params, batcher.next()); },
        [&](double, const std::vector<Tensor> &grads) {
            opt.step(params, model.weights(), grads);
        });

    ASSERT_EQ(curve.size(), 80u);
    // Perplexity at the end is much lower than at the start.
    const double first = curve.front().perplexity;
    const double last = curve.back().perplexity;
    EXPECT_LT(last, first * 0.6);
    // Time axis advances uniformly.
    EXPECT_NEAR(curve.back().wall_seconds, 0.8, 1e-9);
}

namespace {

/** Run a few word-LM training steps at a given mode / thread count. */
models::ParamStore
runWordLmSteps(graph::ExecMode mode, int num_threads)
{
    ThreadPool::setGlobalNumThreads(num_threads);

    models::WordLmConfig cfg;
    cfg.vocab = 20;
    cfg.hidden = 12;
    cfg.layers = 1;
    cfg.batch = 4;
    cfg.seq_len = 6;
    models::WordLmModel model(cfg);

    data::CorpusConfig ccfg;
    ccfg.vocab = data::Vocab{20};
    ccfg.num_tokens = 2000;
    ccfg.structure = 0.9;
    ccfg.seed = 13;
    data::Corpus corpus = data::Corpus::generate(ccfg);
    data::LmBatcher batcher(corpus, cfg.batch, cfg.seq_len);

    Rng rng(17);
    models::ParamStore params = model.initialParams(rng);
    SgdOptimizer opt(0.5, 0.9);

    graph::Executor ex(model.fetches(), mode);
    TrainLoopConfig loop;
    loop.iterations = 5;
    loop.seconds_per_iteration = 0.01;
    runTrainingLoop(
        ex, loop,
        [&](int64_t) { return model.makeFeed(params, batcher.next()); },
        [&](double, const std::vector<Tensor> &grads) {
            opt.step(params, model.weights(), grads);
        });

    ThreadPool::setGlobalNumThreads(ThreadPool::defaultNumThreads());
    return params;
}

} // namespace

TEST(Trainer, TrainingStepBitIdenticalAcrossThreadCounts)
{
    // The ISSUE's determinism contract end to end: identical data,
    // seeds, and schedule must give byte-identical weights after
    // several full training steps whether the run is serial on one
    // thread or ready-queue parallel on eight.
    const models::ParamStore serial =
        runWordLmSteps(graph::ExecMode::kSerial, 1);
    const models::ParamStore parallel =
        runWordLmSteps(graph::ExecMode::kParallel, 8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (const auto &[name, tensor] : serial) {
        ASSERT_TRUE(parallel.count(name)) << name;
        const Tensor &other = parallel.at(name);
        ASSERT_EQ(tensor.shape(), other.shape()) << name;
        EXPECT_EQ(std::memcmp(tensor.data(), other.data(),
                              static_cast<size_t>(tensor.numel()) *
                                  sizeof(float)),
                  0)
            << "weight " << name << " diverged across thread counts";
    }
}

TEST(Simulation, ProfileBundlesRuntimeMemoryPower)
{
    models::WordLmConfig cfg;
    cfg.vocab = 100;
    cfg.hidden = 32;
    cfg.layers = 1;
    cfg.batch = 8;
    cfg.seq_len = 10;
    models::WordLmModel model(cfg);

    const IterationProfile prof =
        profileIteration(model.fetches(), model.weightGrads());
    EXPECT_GT(prof.runtime.wall_time_us, 0.0);
    EXPECT_GT(prof.memory.device_bytes, 0);
    EXPECT_GT(prof.avg_power_w, 50.0);
    EXPECT_TRUE(prof.fits);
    EXPECT_GT(prof.throughput(cfg.batch), 0.0);
}

TEST(Simulation, CapacityCheckFlagsOversizedModels)
{
    models::NmtConfig cfg;
    cfg.hidden = 512;
    cfg.batch = 256;
    cfg.src_len = 100;
    cfg.tgt_len = 100;
    models::NmtModel model(cfg);
    const IterationProfile prof =
        profileIteration(model.fetches(), model.weightGrads());
    // B=256 legacy NMT cannot fit in 12 GB (the paper's memory wall).
    EXPECT_FALSE(prof.fits);
}


TEST(NmtEval, BucketsAreNormalizedAndCapped)
{
    const auto buckets = iwsltBuckets();
    double total = 0.0;
    int64_t max_len = 0;
    for (const auto &b : buckets) {
        EXPECT_GT(b.weight, 0.0);
        total += b.weight;
        max_len = std::max(max_len, b.length);
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_EQ(max_len, 100); // the hyperparameters' max bucket
}

TEST(NmtEval, MemoryComesFromMaxBucketAndPassReducesIt)
{
    models::NmtConfig cfg;
    cfg.batch = 32; // reduced scale to keep the test fast
    const std::vector<LengthBucket> buckets = {{10, 0.6}, {30, 0.4}};

    NmtEvalOptions off;
    const auto base = profileNmtBucketed(cfg, buckets, off);
    EXPECT_GT(base.throughput, 0.0);
    ASSERT_EQ(base.per_bucket.size(), 2u);
    // The reported footprint is the larger bucket's.
    EXPECT_EQ(base.device_bytes,
              std::max(base.per_bucket[0].memory.device_bytes,
                       base.per_bucket[1].memory.device_bytes));

    NmtEvalOptions eco;
    eco.policy = pass::PassConfig::Policy::kManual;
    const auto passed = profileNmtBucketed(cfg, buckets, eco);
    EXPECT_LT(passed.device_bytes, base.device_bytes);
    EXPECT_GT(passed.replay_fraction, 0.0);
    EXPECT_LT(passed.replay_fraction, 0.2);
}

TEST(NmtEval, MeanIterationTimeIsWeighted)
{
    models::NmtConfig cfg;
    cfg.batch = 32;
    const std::vector<LengthBucket> buckets = {{10, 0.5}, {30, 0.5}};
    const auto prof = profileNmtBucketed(cfg, buckets, {});
    const double expected =
        0.5 * prof.per_bucket[0].iterationSeconds() +
        0.5 * prof.per_bucket[1].iterationSeconds();
    EXPECT_NEAR(prof.mean_iteration_seconds, expected, 1e-12);
    EXPECT_NEAR(prof.throughput, 32.0 / expected, 1e-6);
}

} // namespace
} // namespace echo::train
