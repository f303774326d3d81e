/**
 * @file
 * Serving workload (serve-mixed): an open loop of independent users.
 * Bursty Poisson arrivals at a fixed mean rate, half word-LM top-k
 * requests and half NMT requests (a tenth of them beam search), go to
 * one serve::Server with the continuous scheduler over the checked-in
 * example checkpoints.  Each request is timed from the moment it was
 * due, so a generator or server stall counts against every request it
 * delays.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <thread>

#include "common.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "data/vocab.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "tensor/pack_cache.h"

namespace perfbench {

using namespace echo;

namespace {

const char *const kLmCheckpoint = "examples/assets/word_lm.ckpt";
const char *const kNmtCheckpoint = "examples/assets/nmt.ckpt";
/** Vocabulary sizes of the two checkpoints (request ids stay inside). */
constexpr int64_t kLmVocab = 200;
constexpr int64_t kNmtSrcVocab = 80;

/** Mean offered load.  The continuous server saturates near 3,000
 *  req/s on one pool thread; 500 req/s keeps the queue short, so the
 *  latencies measure service, not a growing backlog. */
constexpr double kRatePerS = 500.0;
/** A request that completes OK within this budget meets the SLO. */
constexpr double kSloMs = 10.0;
constexpr int kSetupReps = 15;
/** Requests replayed one at a time by the correctness gate. */
constexpr int kGateSample = 64;
/** Longest traced segment (bounds the trace's memory). */
constexpr double kMaxTracedS = 2.0;

serve::SessionConfig
sessionConfig(int64_t slots)
{
    serve::SessionConfig c;
    c.slots = slots;
    c.buckets = {8, 16};
    c.beam_width = 4;
    return c;
}

std::unique_ptr<serve::Server>
makeServer(int64_t slots, double *load_ms)
{
    const Clock::time_point t0 = Clock::now();
    std::vector<std::unique_ptr<serve::InferenceSession>> sessions;
    sessions.push_back(serve::InferenceSession::fromCheckpoint(
        kLmCheckpoint, sessionConfig(slots)));
    sessions.push_back(serve::InferenceSession::fromCheckpoint(
        kNmtCheckpoint, sessionConfig(slots)));
    if (load_ms != nullptr)
        *load_ms = msBetween(t0, Clock::now());
    serve::ServerConfig cfg;
    cfg.queue_capacity = 4096;
    cfg.batch_admit_fraction = 1.0;
    cfg.scheduler = serve::SchedulerKind::kContinuous;
    return std::make_unique<serve::Server>(std::move(sessions), cfg);
}

serve::Request
lmRequest(std::vector<int64_t> tokens, int top_k)
{
    serve::Request r;
    r.model = "word_lm";
    r.tier = serve::Tier::kInteractive;
    r.tokens = std::move(tokens);
    r.top_k = top_k;
    return r;
}

serve::Request
nmtRequest(std::vector<int64_t> tokens, int beam)
{
    serve::Request r;
    r.model = "nmt";
    r.tier = serve::Tier::kInteractive;
    r.tokens = std::move(tokens);
    r.beam_width = beam;
    r.max_new_tokens = 16;
    return r;
}

/** One request per (model, bucket), plus one beam request: every step
 *  graph and the beam decoder run once before timing starts.  Sent one
 *  at a time, so the step passes they take do not depend on when the
 *  server thread wakes up. */
void
warmUp(serve::Server &server)
{
    std::vector<serve::Request> requests;
    for (const int64_t len : {8, 16}) {
        const std::vector<int64_t> tokens(static_cast<size_t>(len), 5);
        requests.push_back(lmRequest(tokens, 5));
        requests.push_back(nmtRequest(tokens, 1));
    }
    requests.push_back(nmtRequest({5, 6, 7}, 4));
    for (serve::Request &r : requests)
        server.submit(std::move(r)).get();
}

struct Arrival
{
    double at_ms = 0.0; ///< due time, from the start of the schedule
    serve::Request req;
};

/** Bursty Poisson arrivals: exponential gaps between bursts of 1-4
 *  back-to-back requests at mean rate kRatePerS, @p duration_s worth
 *  of them (a fixed count, so the offered load does not vary by seed). */
std::vector<Arrival>
makeSchedule(uint64_t seed, double duration_s)
{
    Rng rng(seed * 7919 + 17);
    // P(burst continues) = 1/2, capped at 4: mean burst 1.875.
    const double mean_gap_ms = 1.875 / kRatePerS * 1e3;
    const auto count = static_cast<size_t>(kRatePerS * duration_s);
    std::vector<Arrival> out;
    double t = 0.0;
    while (out.size() < count) {
        t += -std::log(1.0 - rng.uniform()) * mean_gap_ms;
        int burst = 1;
        while (burst < 4 && rng.uniformInt(2) == 1)
            ++burst;
        for (int b = 0; b < burst && out.size() < count; ++b) {
            const bool lm = rng.uniformInt(2) == 0;
            const int64_t vocab = lm ? kLmVocab : kNmtSrcVocab;
            const int64_t len = 2 + static_cast<int64_t>(rng.uniformInt(12));
            std::vector<int64_t> tokens;
            for (int64_t i = 0; i < len; ++i)
                tokens.push_back(data::Vocab::kFirstWord +
                                 static_cast<int64_t>(rng.uniformInt(
                                     static_cast<uint64_t>(
                                         vocab - data::Vocab::kFirstWord))));
            Arrival a;
            a.at_ms = t;
            a.req = lm ? lmRequest(std::move(tokens),
                                   1 + static_cast<int>(rng.uniformInt(5)))
                       : nmtRequest(std::move(tokens),
                                    rng.uniformInt(10) == 0 ? 4 : 1);
            out.push_back(std::move(a));
        }
    }
    return out;
}

struct Outcome
{
    serve::Response resp;
    double lateness_ms = 0.0; ///< submit time minus due time
    double submit_ms = 0.0;   ///< from the schedule start
};

double
latencyFromDue(const Outcome &o)
{
    return o.lateness_ms + o.resp.latency_us * 1e-3;
}

bool
samePayload(const serve::Response &a, const serve::Response &b)
{
    return a.tokens == b.tokens && a.scores.size() == b.scores.size() &&
           std::memcmp(a.scores.data(), b.scores.data(),
                       a.scores.size() * sizeof(float)) == 0;
}

/**
 * Correctness gate: replay a seeded sample of the schedule one request
 * at a time on a fresh slots=1 server; payloads must be byte-equal to
 * the ones the loaded server returned.
 */
void
gate(uint64_t seed, const std::vector<Arrival> &schedule,
     const std::vector<Outcome> &outcomes, Result &r)
{
    std::unique_ptr<serve::Server> ref = makeServer(1, nullptr);
    Rng rng(seed * 31 + 5);
    for (int i = 0; i < kGateSample; ++i) {
        const size_t k = rng.uniformInt(schedule.size());
        if (!outcomes[k].resp.ok)
            continue; // already counted as failed
        const serve::Response want =
            ref->submit(serve::Request(schedule[k].req)).get();
        if (!want.ok || !samePayload(want, outcomes[k].resp)) {
            r.fail("gate: request " + std::to_string(k) +
                   " differs from its slots=1 sequential replay");
            return;
        }
    }
    ref->stop();
}

} // namespace

void
runServing(const Args &args, Result &r)
{
    // Setup: load both sessions, start the server, warm every graph.
    std::vector<double> setup_s, load_ms, warm_ms;
    std::unique_ptr<serve::Server> server;
    if (args.trace)
        obs::startTrace();
    for (int rep = 0; rep < kSetupReps; ++rep) {
        server.reset();
        const Clock::time_point t0 = Clock::now();
        double load = 0.0;
        server = makeServer(8, &load);
        const Clock::time_point t1 = Clock::now();
        warmUp(*server);
        const Clock::time_point t2 = Clock::now();
        setup_s.push_back(msBetween(t0, t2) * 1e-3);
        load_ms.push_back(load);
        warm_ms.push_back(msBetween(t1, t2));
    }
    std::vector<SpanRec> setup_spans;
    if (args.trace) {
        obs::stopTrace();
        setup_spans = collectSpans(obs::snapshotEvents());
    }
    const serve::ServerStats stats0 = server->stats();

    // Open loop.  A traced run first replays an untraced segment (the
    // trace-overhead baseline), then traces a bounded one.
    const double untraced_s = args.trace ? 0.5 * args.seconds
                                         : args.seconds;
    const double traced_s =
        args.trace ? std::min(kMaxTracedS, 0.5 * args.seconds) : 0.0;
    const std::vector<Arrival> schedule =
        makeSchedule(args.seed, untraced_s + traced_s);
    std::vector<std::future<serve::Response>> futures;
    std::vector<Outcome> outcomes(schedule.size());
    futures.reserve(schedule.size());
    const size_t first_traced =
        args.trace ? static_cast<size_t>(kRatePerS * untraced_s)
                   : schedule.size();
    ops::PackCacheStats pack0{};
    int64_t sched_hit0 = 0, sched_miss0 = 0;
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < schedule.size(); ++i) {
        const Arrival &a = schedule[i];
        if (i == first_traced) {
            pack0 = ops::packCacheStats();
            sched_hit0 = counterValue("tune.sched_hit");
            sched_miss0 = counterValue("tune.sched_miss");
            obs::startTrace();
        }
        const Clock::time_point due =
            start + std::chrono::microseconds(
                        static_cast<int64_t>(a.at_ms * 1e3));
        std::this_thread::sleep_until(due);
        const Clock::time_point now = Clock::now();
        outcomes[i].lateness_ms = msBetween(due, now);
        outcomes[i].submit_ms = msBetween(start, now);
        futures.push_back(server->submit(serve::Request(a.req)));
    }
    for (size_t i = 0; i < futures.size(); ++i)
        outcomes[i].resp = futures[i].get();
    std::vector<SpanRec> spans;
    ops::PackCacheStats pack1{};
    if (args.trace) {
        obs::stopTrace();
        spans = collectSpans(obs::snapshotEvents());
        pack1 = ops::packCacheStats();
    }
    const int64_t sched_hit = counterValue("tune.sched_hit") - sched_hit0;
    const int64_t sched_miss =
        counterValue("tune.sched_miss") - sched_miss0;
    server->stop();
    const serve::ServerStats stats = server->stats();
    const int64_t rss = peakRssBytes();

    std::vector<double> latency, untraced_latency, traced_latency, lag,
        wait;
    int64_t slo_met = 0, tokens = 0;
    double end_ms = 0.0;
    for (size_t i = 0; i < outcomes.size(); ++i) {
        const Outcome &o = outcomes[i];
        ++r.attempted;
        lag.push_back(o.lateness_ms);
        if (!o.resp.ok) {
            ++r.failed;
            continue;
        }
        const double ms = latencyFromDue(o);
        latency.push_back(ms);
        (i < first_traced ? untraced_latency : traced_latency)
            .push_back(ms);
        wait.push_back(o.resp.wait_us * 1e-3);
        if (ms <= kSloMs)
            ++slo_met;
        tokens += static_cast<int64_t>(o.resp.tokens.size());
        end_ms = std::max(end_ms, o.submit_ms + o.resp.latency_us * 1e-3);
    }
    const double lag_p99 = quantile(lag, 0.99);
    std::printf("open loop: %zu requests at %.0f req/s mean, generator "
                "lag p99 %.3f ms, %d pool thread(s)\n",
                schedule.size(), kRatePerS, lag_p99,
                ThreadPool::global().numThreads());
    if (lag_p99 > kSloMs)
        r.fail("generator fell behind: lag p99 " + std::to_string(lag_p99) +
               " ms exceeds the " + std::to_string(kSloMs) + " ms SLO");
    gate(args.seed, schedule, outcomes, r);

    if (!args.trace) {
        r.add("setup_s", median(setup_s), "s");
        r.add("rss_peak_bytes", static_cast<double>(rss), "bytes");
        r.add("tokens_per_s", static_cast<double>(tokens) / (end_ms * 1e-3),
              "tokens/s");
        r.add("latency_ms_p50", quantile(latency, 0.5), "ms");
        r.add("latency_ms_p90", quantile(latency, 0.9), "ms");
        return;
    }

    const ExecBreakdown b = execBreakdown(spans);
    checkClosure(r, "executor", b.rowsMs(), b.run_ms);
    if (b.overlapping_runs != 0 ||
        b.orphan_ms > kClosureTolerance * b.run_ms)
        r.fail("trace: " + std::to_string(b.overlapping_runs) +
               " overlapping executor runs, " +
               std::to_string(b.orphan_ms) + " ms of ops outside a run");
    const double runs = std::max<double>(1.0, static_cast<double>(b.runs));

    // Session self time: step spans minus the executor runs inside them
    // (runs of one thread are sequential, so sorted starts suffice).
    std::map<uint32_t, std::vector<const SpanRec *>> runs_by_tid;
    for (const SpanRec &e : spans)
        if (e.cat == "exec" &&
            (e.name == "run.serial" || e.name == "run.parallel"))
            runs_by_tid[e.tid].push_back(&e);
    for (auto &[tid, v] : runs_by_tid)
        std::sort(v.begin(), v.end(),
                  [](const SpanRec *a, const SpanRec *b) {
                      return a->t0 < b->t0;
                  });
    double step_ms = 0.0, exec_in_step_ms = 0.0;
    int64_t steps = 0;
    for (const SpanRec &s : spans) {
        if (s.cat != "serve" || (s.name != "lm_step" && s.name != "nmt_step"))
            continue;
        ++steps;
        step_ms += s.ms();
        const std::vector<const SpanRec *> &v = runs_by_tid[s.tid];
        auto it = std::lower_bound(
            v.begin(), v.end(), s.t0,
            [](const SpanRec *e, int64_t t) { return e->t0 < t; });
        for (; it != v.end() && (*it)->t1 <= s.t1; ++it)
            exec_in_step_ms += (*it)->ms();
    }
    const auto mean_of = [&spans](const char *name) {
        const int64_t n = countSpans(spans, "serve", name);
        return n > 0 ? sumMs(spans, "serve", name) / static_cast<double>(n)
                     : 0.0;
    };
    const double completed = std::max<double>(
        1.0, static_cast<double>(stats.completed - stats0.completed));
    const double lookups = static_cast<double>(
        (pack1.hits - pack0.hits) + (pack1.misses - pack0.misses));
    const double setup_reps = static_cast<double>(kSetupReps);

    r.add("graph.run_ms", b.run_ms / runs, "ms");
    r.add("graph.dispatch_ms", b.dispatch_ms / runs, "ms");
    r.add("graph.forward_ms", b.forward_ms / runs, "ms");
    r.add("graph.backward_ms", b.backward_ms / runs, "ms");
    r.add("graph.elementwise_ms", b.elementwise_ms / runs, "ms");
    r.add("graph.fused_ew_ms", b.fused_ew_ms / runs, "ms");
    r.add("graph.shape_copy_ms", b.shape_copy_ms / runs, "ms");
    r.add("graph.nn_ms", b.nn_ms / runs, "ms");
    r.add("graph.ops_per_iter", static_cast<double>(b.ops) / runs, "count");
    r.add("tensor.gemm_ms", b.gemm_ms / runs, "ms");
    r.add("tensor.pack_hit_ratio",
          lookups > 0.0
              ? static_cast<double>(pack1.hits - pack0.hits) / lookups
              : 0.0,
          "ratio");
    r.add("tensor.pack_miss_per_iter",
          static_cast<double>(pack1.misses - pack0.misses) / runs,
          "count");
    r.add("echo.replay_ms", b.replay_ms / runs, "ms");
    r.add("pass.autodiff_ms",
          sumMs(setup_spans, "pass", "pass.autodiff") / setup_reps, "ms");
    r.add("pass.fusion_ms",
          sumMs(setup_spans, "pass", "pass.fusion") / setup_reps, "ms");
    r.add("pass.recompute_ms",
          sumMs(setup_spans, "pass", "pass.recompute") / setup_reps, "ms");
    r.add("serve.latency_ms_p99", quantile(latency, 0.99), "ms");
    r.add("serve.queue_wait_ms_p50", quantile(wait, 0.5), "ms");
    r.add("serve.queue_wait_ms_p99", quantile(wait, 0.99), "ms");
    r.add("serve.step_passes_per_request",
          static_cast<double>(stats.batches - stats0.batches) / completed,
          "count");
    r.add("serve.mean_batch_rows", stats.mean_batch_requests, "count");
    r.add("serve.splices_per_request",
          static_cast<double>(stats.splices - stats0.splices) / completed,
          "count");
    r.add("serve.lm_step_ms", mean_of("lm_step"), "ms");
    r.add("serve.nmt_step_ms", mean_of("nmt_step"), "ms");
    r.add("serve.session_self_ms",
          steps > 0 ? (step_ms - exec_in_step_ms) / static_cast<double>(steps)
                    : 0.0,
          "ms");
    r.add("serve.session_load_ms", median(load_ms), "ms");
    r.add("serve.warmup_ms", median(warm_ms), "ms");
    r.add("serve.generator_lag_ms_p99", lag_p99, "ms");
    r.add("serve.rejected", static_cast<double>(stats.rejected), "count");
    r.add("serve.expired", static_cast<double>(stats.expired), "count");
    r.add("serve.slo_met_share",
          static_cast<double>(slo_met) / static_cast<double>(r.attempted),
          "ratio");
    r.add("tune.sched_hit", static_cast<double>(sched_hit) / runs, "count");
    r.add("tune.sched_miss", static_cast<double>(sched_miss) / runs,
          "count");
    r.add("obs.trace_overhead_ratio",
          median(untraced_latency) > 0.0
              ? median(traced_latency) / median(untraced_latency)
              : 0.0,
          "ratio");
}

} // namespace perfbench
