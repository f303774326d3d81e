/**
 * @file
 * Training workloads (lm-train, nmt-train): one SGD+momentum training
 * iteration is batcher + feed assembly, Executor::run, and
 * Optimizer::step.  The graph is built by the model constructor under
 * the Echo pipeline "autodiff,fusion,recompute".
 */
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "common.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "data/batcher.h"
#include "graph/executor.h"
#include "memory/liveness.h"
#include "memory/planner.h"
#include "models/nmt.h"
#include "models/word_lm.h"
#include "obs/trace.h"
#include "tensor/pack_cache.h"
#include "train/optimizer.h"

namespace perfbench {

using namespace echo;

namespace {

constexpr const char *kEchoPipeline = "autodiff,fusion,recompute";
constexpr const char *kReferencePipeline = "autodiff,fusion";
/** Setups per run; setup_s is their median. */
constexpr int kSetupReps = 7;
/** Iterations the Echo build must match the reference byte for byte. */
constexpr int kGateIterations = 3;
/** The traced segment stops after this many iterations (trace memory). */
constexpr int kMaxTracedIterations = 40;

constexpr double kLearningRate = 0.2;
constexpr double kMomentum = 0.9;

/** Word LM and its synthetic corpus, sized for a few-core CPU. */
struct LmWorkload
{
    using Model = models::WordLmModel;
    using Batcher = data::LmBatcher;

    models::WordLmConfig config;
    data::Corpus corpus;

    explicit LmWorkload(uint64_t seed)
    {
        config.vocab = 2000;
        config.hidden = 200;
        config.layers = 2;
        config.batch = 16;
        config.seq_len = 20;
        data::CorpusConfig cc;
        cc.vocab = data::Vocab{config.vocab};
        cc.num_tokens = 200000;
        cc.structure = 0.85;
        cc.seed = seed;
        corpus = data::Corpus::generate(cc);
    }

    Batcher batcher() const
    {
        return Batcher(corpus, config.batch, config.seq_len);
    }

    static const Tensor &labels(const data::LmBatch &b)
    {
        return b.labels;
    }
};

/** Attention NMT and its synthetic parallel corpus. */
struct NmtWorkload
{
    using Model = models::NmtModel;
    using Batcher = data::NmtBatcher;

    models::NmtConfig config;
    data::ParallelCorpus corpus;

    explicit NmtWorkload(uint64_t seed)
    {
        config.src_vocab = 800;
        config.tgt_vocab = 800;
        config.hidden = 64;
        config.batch = 8;
        config.src_len = 12;
        config.tgt_len = 12;
        data::ParallelCorpusConfig pc;
        pc.src_vocab = data::Vocab{config.src_vocab};
        pc.tgt_vocab = data::Vocab{config.tgt_vocab};
        pc.num_pairs = 4096;
        pc.min_len = 4;
        pc.max_len = 11;
        pc.seed = seed;
        corpus = data::ParallelCorpus::generate(pc);
    }

    Batcher batcher() const
    {
        return Batcher(corpus, config.batch, config.src_len,
                       config.tgt_len);
    }

    static const Tensor &labels(const data::NmtBatch &b)
    {
        return b.tgt_labels;
    }
};

/** Non-padding target tokens of one batch. */
int64_t
targetTokens(const Tensor &labels)
{
    int64_t n = 0;
    for (int64_t i = 0; i < labels.numel(); ++i)
        if (labels.data()[i] >= 0.0f)
            ++n;
    return n;
}

bool
sameBytes(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.numel()) * sizeof(float)) ==
               0;
}

int64_t
poolPeakBytes(const std::vector<graph::Val> &fetches,
              const std::vector<graph::Val> &weight_grads)
{
    return memory::planMemory(
               memory::analyzeLiveness(fetches, weight_grads))
        .pool_peak_bytes;
}

/** GEMM/BMM floating-point operations of one run of @p schedule. */
double
gemmFlops(const std::vector<graph::Node *> &schedule)
{
    double flops = 0.0;
    for (const graph::Node *n : schedule) {
        if (n->kind != graph::NodeKind::kOp)
            continue;
        std::vector<Shape> in_shapes;
        for (const graph::Val &v : n->inputs)
            in_shapes.push_back(graph::Graph::shapeOf(v));
        for (const graph::KernelDesc &k :
             n->op->kernels(in_shapes, n->out_shapes))
            if (k.is_gemm)
                flops += static_cast<double>(k.flops) * k.launches;
    }
    return flops;
}

/** One built training job: model, executor, parameters, optimizer. */
template <typename W>
struct Job
{
    std::unique_ptr<typename W::Model> model;
    std::unique_ptr<graph::Executor> exec;
    models::ParamStore params;
    train::SgdOptimizer opt{kLearningRate, kMomentum};
    std::unique_ptr<typename W::Batcher> batcher;
};

template <typename W>
Job<W>
build(const W &w, uint64_t seed, const char *pipeline)
{
    Job<W> job;
    job.model = std::make_unique<typename W::Model>(w.config, pipeline);
    job.exec = std::make_unique<graph::Executor>(job.model->fetches());
    Rng rng(seed);
    job.params = job.model->initialParams(rng);
    job.batcher = std::make_unique<typename W::Batcher>(w.batcher());
    return job;
}

/** Timings of one training iteration. */
struct IterTimes
{
    double run_ms = 0.0; ///< Executor::run as the caller sees it
    double iter_ms = 0.0;
    double loss = 0.0;
    int64_t tokens = 0;
};

/** One iteration: feed, run, optimizer step, each in a bench span. */
template <typename W>
IterTimes
iterate(Job<W> &job)
{
    IterTimes t;
    obs::Span iter_span("bench", "iter");
    const Clock::time_point t0 = Clock::now();
    graph::FeedDict feed;
    {
        obs::Span span("bench", "feed");
        const auto batch = job.batcher->next();
        t.tokens = targetTokens(W::labels(batch));
        feed = job.model->makeFeed(job.params, batch);
    }
    const Clock::time_point t1 = Clock::now();
    std::vector<Tensor> out;
    {
        obs::Span span("bench", "run");
        out = job.exec->run(feed);
    }
    const Clock::time_point t2 = Clock::now();
    t.loss = out[0].at(0);
    {
        obs::Span span("bench", "opt_step");
        const std::vector<Tensor> grads(out.begin() + 1, out.end());
        job.opt.step(job.params, job.model->weights(), grads);
    }
    const Clock::time_point t3 = Clock::now();
    t.run_ms = msBetween(t1, t2);
    t.iter_ms = msBetween(t0, t3);
    return t;
}

/** What setup produced besides the job itself. */
struct SetupStats
{
    double setup_s = 0.0;          ///< median over kSetupReps
    double first_run_ms = 0.0;     ///< median cold Executor::run
    int64_t echo_regions = 0;      ///< per build
    int64_t echo_saved_modelled = 0;
};

/** Build the Echo job kSetupReps times; keep the last one. */
template <typename W>
SetupStats
setUp(const W &w, uint64_t seed, Job<W> &job)
{
    std::vector<double> setup_s, first_run_ms;
    SetupStats st;
    CpuRotation rotation(ThreadPool::global().numThreads() == 1);
    for (int rep = 0; rep < kSetupReps; ++rep) {
        rotation.next();
        // Free the previous build first: one model is alive at a time.
        job = Job<W>{};
        const int64_t regions0 = counterValue("echo.regions_accepted");
        const int64_t saved0 = counterValue("echo.bytes_saved");
        const int64_t added0 = counterValue("echo.bytes_added");
        const Clock::time_point t0 = Clock::now();
        job = build(w, seed, kEchoPipeline);
        const IterTimes cold = iterate(job);
        setup_s.push_back(msBetween(t0, Clock::now()) * 1e-3);
        first_run_ms.push_back(cold.run_ms);
        st.echo_regions = counterValue("echo.regions_accepted") - regions0;
        st.echo_saved_modelled =
            (counterValue("echo.bytes_saved") - saved0) -
            (counterValue("echo.bytes_added") - added0);
    }
    st.setup_s = median(setup_s);
    st.first_run_ms = median(first_run_ms);
    return st;
}

/**
 * Correctness gate: a second build under "autodiff,fusion" from the
 * same seed must produce byte-identical loss and weight gradients for
 * kGateIterations iterations.  @p job's model and executor are reused
 * with fresh parameters.  Returns the reference build's planner pool
 * peak.
 */
template <typename W>
int64_t
gate(const W &w, uint64_t seed, Job<W> &job, Result &r)
{
    Job<W> ref = build(w, seed, kReferencePipeline);
    Rng rng(seed);
    job.params = job.model->initialParams(rng);
    job.opt = train::SgdOptimizer(kLearningRate, kMomentum);
    job.batcher = std::make_unique<typename W::Batcher>(w.batcher());
    for (int it = 0; it < kGateIterations; ++it) {
        const std::vector<Tensor> out = job.exec->run(
            job.model->makeFeed(job.params, job.batcher->next()));
        const std::vector<Tensor> want = ref.exec->run(
            ref.model->makeFeed(ref.params, ref.batcher->next()));
        if (out.size() != want.size()) {
            r.fail("gate: fetch count differs from the reference build");
            break;
        }
        for (size_t i = 0; i < out.size(); ++i)
            if (!sameBytes(out[i], want[i])) {
                r.fail("gate: iteration " + std::to_string(it) +
                       (i == 0 ? " loss" : " weight gradient " +
                                               std::to_string(i - 1)) +
                       " differs from the autodiff,fusion build");
                return 0;
            }
        if (!std::isfinite(out[0].at(0)))
            r.fail("gate: non-finite loss at iteration " +
                   std::to_string(it));
        job.opt.step(job.params, job.model->weights(),
                      {out.begin() + 1, out.end()});
        ref.opt.step(ref.params, ref.model->weights(),
                      {want.begin() + 1, want.end()});
    }
    return poolPeakBytes(ref.model->fetches(), ref.model->weightGrads());
}

template <typename W>
void
runWorkload(const W &w, const Args &args, Result &r)
{
    Job<W> job;
    if (args.trace)
        obs::startTrace();
    const SetupStats setup = setUp(w, args.seed, job);
    std::vector<SpanRec> setup_spans;
    if (args.trace) {
        obs::stopTrace();
        setup_spans = collectSpans(obs::snapshotEvents());
    }

    // Timed loop.  Untraced runs time every iteration for the
    // end-to-end metrics; traced runs first time an untraced segment
    // (the trace-overhead baseline), then trace a bounded one.
    const double untraced_s = args.trace ? 0.4 * args.seconds
                                         : args.seconds;
    std::vector<double> iter_ms;
    int64_t tokens = 0;
    double timed_ms = 0.0, untraced_run_ms = 0.0;
    double last_loss = 0.0;
    const auto pack0 = ops::packCacheStats();
    const int64_t sched_hit0 = counterValue("tune.sched_hit");
    const int64_t sched_miss0 = counterValue("tune.sched_miss");
    const int64_t allocs0 = allocCount();
    if (args.trace)
        armAllocCounter(true);
    CpuRotation rotation(ThreadPool::global().numThreads() == 1);
    const Clock::time_point start = Clock::now();
    while (msBetween(start, Clock::now()) < untraced_s * 1e3) {
        rotation.tick();
        const IterTimes t = iterate(job);
        ++r.attempted;
        if (!std::isfinite(t.loss))
            ++r.failed;
        iter_ms.push_back(t.iter_ms);
        untraced_run_ms += t.run_ms;
        tokens += t.tokens;
        timed_ms += t.iter_ms;
        last_loss = t.loss;
    }
    armAllocCounter(false);
    const auto untraced_iters = static_cast<double>(iter_ms.size());
    const double allocs_per_iter =
        static_cast<double>(allocCount() - allocs0) / untraced_iters;
    const auto pack1 = ops::packCacheStats();
    const int64_t sched_hit = counterValue("tune.sched_hit") - sched_hit0;
    const int64_t sched_miss =
        counterValue("tune.sched_miss") - sched_miss0;

    std::vector<SpanRec> spans;
    int64_t traced_iters = 0;
    if (args.trace) {
        obs::startTrace();
        const Clock::time_point t0 = Clock::now();
        while (traced_iters < kMaxTracedIterations &&
               msBetween(t0, Clock::now()) < 0.6 * args.seconds * 1e3) {
            rotation.tick();
            const IterTimes t = iterate(job);
            ++r.attempted;
            ++traced_iters;
            if (!std::isfinite(t.loss))
                ++r.failed;
            last_loss = t.loss;
        }
        obs::stopTrace();
        spans = collectSpans(obs::snapshotEvents());
    }
    rotation.restore();
    const int64_t rss = peakRssBytes();

    const int64_t peak = poolPeakBytes(job.model->fetches(),
                                       job.model->weightGrads());
    const int64_t peak_no_echo = gate(w, args.seed, job, r);
    const int64_t peak_saved = peak_no_echo - peak;
    std::printf("footprint: pass models %lld B saved; planner measures "
                "%lld B saved (pool peak %lld B with Echo, %lld B "
                "without)\n",
                static_cast<long long>(setup.echo_saved_modelled),
                static_cast<long long>(peak_saved),
                static_cast<long long>(peak),
                static_cast<long long>(peak_no_echo));
    std::printf("threads: %d pool, loss at last iteration %.6f\n",
                ThreadPool::global().numThreads(), last_loss);

    if (!args.trace) {
        r.add("setup_s", setup.setup_s, "s");
        r.add("rss_peak_bytes", static_cast<double>(rss), "bytes");
        r.add("tokens_per_s", static_cast<double>(tokens) /
                                  (timed_ms * 1e-3),
              "tokens/s");
        r.add("latency_ms_p50", quantile(iter_ms, 0.5), "ms");
        r.add("latency_ms_p90", quantile(iter_ms, 0.9), "ms");
        return;
    }

    const ExecBreakdown b = execBreakdown(spans);
    const double n = static_cast<double>(traced_iters);
    const double iter_total = sumMs(spans, "bench", "iter");
    const double feed_total = sumMs(spans, "bench", "feed");
    const double run_total = sumMs(spans, "bench", "run");
    const double step_total = sumMs(spans, "bench", "opt_step");
    checkClosure(r, "executor", b.rowsMs(), b.run_ms);
    checkClosure(r, "iteration", feed_total + run_total + step_total,
                 iter_total);
    if (b.runs != traced_iters || b.overlapping_runs != 0 ||
        b.orphan_ms > kClosureTolerance * b.run_ms)
        r.fail("trace: " + std::to_string(b.runs) + " executor runs for " +
               std::to_string(traced_iters) + " iterations, " +
               std::to_string(b.overlapping_runs) + " overlapping, " +
               std::to_string(b.orphan_ms) + " ms of ops outside a run");

    // Pool workers' busy time over the traced window.
    double busy_ms = 0.0;
    for (const SpanRec &s : spans)
        if (s.cat == "pool" && s.name == "worker.task")
            busy_ms += s.ms();
    const double window_ms = iter_total;
    const int threads = ThreadPool::global().numThreads();

    const double gemm_flops = gemmFlops(job.exec->schedule());
    const double lookups = static_cast<double>(
        (pack1.hits - pack0.hits) + (pack1.misses - pack0.misses));
    const double setup_reps = static_cast<double>(kSetupReps);

    r.add("graph.run_ms", b.run_ms / n, "ms");
    r.add("graph.dispatch_ms", b.dispatch_ms / n, "ms");
    r.add("graph.forward_ms", b.forward_ms / n, "ms");
    r.add("graph.backward_ms", b.backward_ms / n, "ms");
    r.add("graph.elementwise_ms", b.elementwise_ms / n, "ms");
    r.add("graph.fused_ew_ms", b.fused_ew_ms / n, "ms");
    r.add("graph.shape_copy_ms", b.shape_copy_ms / n, "ms");
    r.add("graph.nn_ms", b.nn_ms / n, "ms");
    r.add("graph.ops_per_iter", static_cast<double>(b.ops) / n, "count");
    r.add("graph.first_run_ms", setup.first_run_ms, "ms");
    r.add("tensor.gemm_ms", b.gemm_ms / n, "ms");
    r.add("tensor.gemm_gflops",
          b.gemm_ms > 0.0 ? gemm_flops / (b.gemm_ms / n * 1e-3) * 1e-9
                          : 0.0,
          "GFLOP/s");
    r.add("tensor.allocs_per_iter", allocs_per_iter, "count");
    r.add("tensor.pack_hit_ratio",
          lookups > 0.0
              ? static_cast<double>(pack1.hits - pack0.hits) / lookups
              : 0.0,
          "ratio");
    r.add("tensor.pack_miss_per_iter",
          static_cast<double>(pack1.misses - pack0.misses) /
              untraced_iters,
          "count");
    r.add("train.iter_ms", iter_total / n, "ms");
    r.add("train.opt_step_ms", step_total / n, "ms");
    r.add("train.loss_final", last_loss, "nats");
    r.add("data.feed_ms", feed_total / n, "ms");
    r.add("echo.replay_ms", b.replay_ms / n, "ms");
    r.add("echo.replay_share", b.replay_ms / iter_total, "ratio");
    r.add("echo.regions", static_cast<double>(setup.echo_regions),
          "count");
    r.add("echo.bytes_saved_modelled",
          static_cast<double>(setup.echo_saved_modelled), "bytes");
    r.add("echo.pool_peak_delta_bytes", static_cast<double>(peak_saved),
          "bytes");
    r.add("memory.pool_peak_bytes", static_cast<double>(peak), "bytes");
    r.add("memory.pool_peak_bytes_no_echo",
          static_cast<double>(peak_no_echo), "bytes");
    r.add("fusion.groups",
          static_cast<double>(job.model->fusionResult().num_groups),
          "count");
    r.add("fusion.values_elided",
          static_cast<double>(
              job.model->fusionResult().num_values_elided),
          "count");
    r.add("pass.autodiff_ms",
          sumMs(setup_spans, "pass", "pass.autodiff") / setup_reps, "ms");
    r.add("pass.fusion_ms",
          sumMs(setup_spans, "pass", "pass.fusion") / setup_reps, "ms");
    r.add("pass.recompute_ms",
          sumMs(setup_spans, "pass", "pass.recompute") / setup_reps, "ms");
    r.add("core.pool_busy_share",
          window_ms > 0.0 ? busy_ms / (threads * window_ms) : 0.0,
          "ratio");
    r.add("tune.sched_hit", static_cast<double>(sched_hit) / untraced_iters,
          "count");
    r.add("tune.sched_miss",
          static_cast<double>(sched_miss) / untraced_iters, "count");
    r.add("obs.trace_overhead_ratio",
          (b.run_ms / n) / (untraced_run_ms / untraced_iters), "ratio");
}

} // namespace

void
runTraining(const Args &args, Result &r)
{
    if (args.workload == "lm-train")
        runWorkload(LmWorkload(args.seed), args, r);
    else
        runWorkload(NmtWorkload(args.seed), args, r);
}

} // namespace perfbench
