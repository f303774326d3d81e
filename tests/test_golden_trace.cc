/**
 * @file
 * Golden-trace determinism: one training iteration of the word-LM
 * traced at 1, 2, and 4 threads must perform the *same work* even
 * though the dispatch differs — the multiset of per-op executor spans
 * (op name, schedule slot, phase) and every kDeterministic counter
 * total are identical across thread counts; only timestamps and
 * scheduling-class counters (pool.*) may differ.
 *
 * This is the observability-layer statement of the repo-wide invariant
 * that parallel execution is bit-identical to serial execution: not
 * only are the numerical results equal (test_train covers that), the
 * recorded op-level work is too.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>

#include "core/thread_pool.h"
#include "data/batcher.h"
#include "echo/recompute_pass.h"
#include "graph/executor.h"
#include "memory/planner.h"
#include "models/word_lm.h"
#include "obs/obs.h"
#include "train/optimizer.h"
#include "train/trainer.h"

namespace echo::obs {
namespace {

/** Everything about one traced run that must not depend on threads. */
struct GoldenRun
{
    int num_threads = 0;
    /** "op-name #slot phase" -> occurrences. */
    std::map<std::string, int> op_spans;
    /** Deterministic counter totals by name. */
    std::map<std::string, int64_t> det_counters;
    /** Transients the plan allocates, and its replayed address peak. */
    size_t planned_transients = 0;
    int64_t address_peak_bytes = 0;
};

int64_t
argInt(const TraceEvent &e, const char *key, int64_t fallback)
{
    for (const Arg &a : e.args)
        if (std::strcmp(a.key, key) == 0 && a.kind == Arg::Kind::kInt)
            return a.i;
    return fallback;
}

std::string
argStr(const TraceEvent &e, const char *key)
{
    for (const Arg &a : e.args)
        if (std::strcmp(a.key, key) == 0 &&
            a.kind == Arg::Kind::kString)
            return a.s;
    return "";
}

GoldenRun
traceOneIteration(int num_threads)
{
    ThreadPool::setGlobalNumThreads(num_threads);

    // Big enough that Executor's kAuto heuristic goes parallel for
    // num_threads > 1 (schedule far above 16 nodes), small enough to
    // stay fast at 1 thread.
    models::WordLmConfig cfg;
    cfg.vocab = 30;
    cfg.hidden = 12;
    cfg.layers = 2;
    cfg.batch = 4;
    cfg.seq_len = 6;
    models::WordLmModel model(cfg);
    pass::PassConfig pass_cfg;
    pass_cfg.policy = pass::PassConfig::Policy::kAuto;

    resetCountersForTest();
    startTrace();

    pass::runRecomputePass(model.graph(), model.fetches(), pass_cfg);

    data::CorpusConfig ccfg;
    ccfg.vocab = data::Vocab{cfg.vocab};
    ccfg.num_tokens = 2000;
    ccfg.seed = 13;
    data::Corpus corpus = data::Corpus::generate(ccfg);
    data::LmBatcher batcher(corpus, cfg.batch, cfg.seq_len);

    Rng rng(17);
    models::ParamStore params = model.initialParams(rng);
    train::SgdOptimizer opt(0.1, 0.9);
    graph::Executor ex(model.fetches(), graph::ExecMode::kAuto);
    train::TrainLoopConfig loop;
    loop.iterations = 1;
    loop.seconds_per_iteration = 1.0;
    train::runTrainingLoop(
        ex, loop,
        [&](int64_t) { return model.makeFeed(params, batcher.next()); },
        [&](double, const std::vector<Tensor> &grads) {
            opt.step(params, model.weights(), grads);
        });

    const memory::PlannedSchedule planned =
        memory::planSchedule(model.fetches(), model.weightGrads());

    stopTrace();
    ThreadPool::setGlobalNumThreads(ThreadPool::defaultNumThreads());

    GoldenRun run;
    run.num_threads = num_threads;
    for (const TraceEvent &e : snapshotEvents()) {
        // Per-op executor spans carry a "slot" arg; the run.serial /
        // run.parallel wrapper spans (whose names legitimately differ
        // by mode) do not.
        if (e.ph != 'B' || std::strcmp(e.cat, "exec") != 0)
            continue;
        const int64_t slot = argInt(e, "slot", -1);
        if (slot < 0)
            continue;
        ++run.op_spans[e.name + " #" + std::to_string(slot) + " " +
                       argStr(e, "phase")];
    }
    for (const CounterSample &c : snapshotCounters())
        if (c.kind == CounterKind::kDeterministic)
            run.det_counters[c.name] = c.value;
    run.planned_transients = planned.plan.offsets.size();
    run.address_peak_bytes =
        memory::replayPlan(planned.liveness, planned.plan)
            .address_peak_bytes;
    return run;
}

TEST(GoldenTrace, WorkIsIdenticalAcrossThreadCounts)
{
    const GoldenRun base = traceOneIteration(1);

    // Sanity on the baseline itself: spans were recorded, op counts
    // made it into both the trace and the counters.
    ASSERT_FALSE(base.op_spans.empty());
    int64_t span_total = 0;
    for (const auto &[key, n] : base.op_spans)
        span_total += n;
    ASSERT_GT(base.det_counters.at("exec.ops"), 0);
    // One training run plus recompute-pass probe runs may execute ops
    // outside the traced window; but within the window, exec span
    // count equals what was traced.
    EXPECT_EQ(span_total, base.det_counters.at("exec.ops"));
    EXPECT_GT(base.det_counters.at("exec.replays"), 0)
        << "expected the Echo pass to schedule recompute replays";
    EXPECT_EQ(base.det_counters.at("train.iterations"), 1);

    for (const int threads : {2, 4}) {
        const GoldenRun run = traceOneIteration(threads);
        EXPECT_EQ(run.op_spans, base.op_spans)
            << "op-span multiset diverged at " << threads
            << " threads";
        EXPECT_EQ(run.det_counters, base.det_counters)
            << "deterministic counters diverged at " << threads
            << " threads";
        EXPECT_EQ(run.planned_transients, base.planned_transients);
        EXPECT_EQ(run.address_peak_bytes, base.address_peak_bytes);
    }
}

} // namespace
} // namespace echo::obs
