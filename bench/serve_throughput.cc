/**
 * @file
 * Serving throughput/latency bench, two modes:
 *
 * Closed-loop (default): clients submit back-to-back against both
 * paper models end-to-end from checkpoints; at saturation an 8-slot
 * server should deliver a clear throughput multiple over a single-slot
 * server — the row pair the table ends with.
 *
 * Open-loop (--open-loop [--reps N]): a heavy-tailed arrival schedule
 * — bursty Poisson arrival times, Zipfian prefix lengths — is
 * generated per rep and replayed verbatim against the continuous
 * scheduler, with arrivals decoupled from completions, so tail latency
 * is measured at a fixed offered load.  Rows mirror to
 * results/serve_throughput_openloop.csv.
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/rng.h"
#include "models/nmt.h"
#include "models/serialize.h"
#include "models/word_lm.h"
#include "serve/server.h"

namespace {

using namespace echo;

struct LoadResult
{
    double throughput_rps = 0.0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    double mean_batch = 0.0;
};

/** Closed-loop load: each client submits back-to-back requests. */
LoadResult
runLoad(const std::string &ckpt, const serve::SessionConfig &scfg,
        int clients, int requests_per_client, int64_t max_new)
{
    auto session = serve::InferenceSession::fromCheckpoint(ckpt, scfg);
    serve::ServerConfig server_cfg;
    server_cfg.queue_capacity = 1024; // closed loop: never reject
    serve::Server server(std::move(session), server_cfg);

    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(clients));
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            Rng rng(static_cast<uint64_t>(c) * 7919 + 17);
            for (int i = 0; i < requests_per_client; ++i) {
                serve::Request req;
                const int64_t len = 2 + static_cast<int64_t>(
                                            rng.uniformInt(6));
                for (int64_t t = 0; t < len; ++t)
                    req.tokens.push_back(
                        3 + static_cast<int64_t>(rng.uniformInt(40)));
                req.max_new_tokens = max_new;
                server.submit(std::move(req)).get();
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    server.stop();

    const serve::ServerStats stats = server.stats();
    LoadResult res;
    res.throughput_rps =
        static_cast<double>(stats.completed) / elapsed_s;
    res.p50_ms = stats.latency_p50_us / 1000.0;
    res.p95_ms = stats.latency_p95_us / 1000.0;
    res.p99_ms = stats.latency_p99_us / 1000.0;
    res.mean_batch = stats.mean_batch_requests;
    return res;
}

void
addRow(Table &table, const std::string &model, int clients,
       int64_t slots, const LoadResult &r)
{
    table.addRow({model, std::to_string(clients),
                  std::to_string(slots), Table::fmt(r.throughput_rps, 1),
                  Table::fmt(r.p50_ms, 2), Table::fmt(r.p95_ms, 2),
                  Table::fmt(r.p99_ms, 2), Table::fmt(r.mean_batch, 2)});
}

std::string
makeWordLmCheckpoint()
{
    models::WordLmConfig cfg;
    cfg.vocab = 80;
    cfg.hidden = 32;
    cfg.layers = 2;
    cfg.batch = 4;
    cfg.seq_len = 8;
    models::WordLmModel model(cfg);
    Rng rng(42);
    const std::string path = "results/serve_bench_word_lm.ckpt";
    models::saveParams(model.initialParams(rng), path);
    return path;
}

std::string
makeNmtCheckpoint()
{
    models::NmtConfig cfg;
    cfg.src_vocab = 80;
    cfg.tgt_vocab = 90;
    cfg.hidden = 32;
    cfg.enc_layers = 1;
    cfg.batch = 4;
    cfg.src_len = 8;
    cfg.tgt_len = 8;
    models::NmtModel model(cfg);
    Rng rng(43);
    const std::string path = "results/serve_bench_nmt.ckpt";
    models::saveParams(model.initialParams(rng), path);
    return path;
}

// ------------------------------------------------------- open loop --

/** One scheduled arrival of the open-loop trace. */
struct Arrival
{
    int64_t at_us = 0; ///< submission time relative to trace start
    serve::Request req;
};

/**
 * The heavy-tailed trace: arrivals come in bursts whose start times
 * form a Poisson process (exponential gaps), burst sizes are
 * geometric, and prefix lengths are Zipfian over [1, 8] — most
 * requests are short, a fat tail is long.  The same seed always
 * yields the same trace, so runs see identical load.
 */
std::vector<Arrival>
makeOpenLoopTrace(uint64_t seed, int n, double mean_gap_us)
{
    // Zipf(s=1.2) cumulative weights over lengths 1..8.
    std::vector<double> cdf;
    double total = 0.0;
    for (int len = 1; len <= 8; ++len) {
        total += 1.0 / std::pow(static_cast<double>(len), 1.2);
        cdf.push_back(total);
    }

    Rng rng(seed);
    std::vector<Arrival> trace;
    double t_us = 0.0;
    while (static_cast<int>(trace.size()) < n) {
        // Exponential inter-burst gap, geometric burst size (p=0.35).
        const double u = std::max(
            1e-12, static_cast<double>(rng.uniformInt(1u << 20)) /
                       static_cast<double>(1u << 20));
        t_us += -std::log(u) * mean_gap_us;
        int burst = 1;
        while (burst < 8 && rng.uniformInt(100) < 65)
            ++burst;
        for (int b = 0; b < burst &&
                        static_cast<int>(trace.size()) < n;
             ++b) {
            Arrival a;
            a.at_us = static_cast<int64_t>(t_us) + b; // back-to-back
            const double pick =
                total * static_cast<double>(rng.uniformInt(1u << 20)) /
                static_cast<double>(1u << 20);
            size_t len = 1;
            while (len < cdf.size() && cdf[len - 1] < pick)
                ++len;
            for (size_t tk = 0; tk < len; ++tk)
                a.req.tokens.push_back(
                    3 + static_cast<int64_t>(rng.uniformInt(40)));
            a.req.top_k = 1 + static_cast<int>(rng.uniformInt(4));
            trace.push_back(std::move(a));
        }
    }
    return trace;
}

struct OpenLoopResult
{
    double offered_rps = 0.0;
    int64_t completed = 0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    double wait_p99_ms = 0.0;
    double mean_batch = 0.0;
    int64_t splices = 0;
    int64_t recycled = 0;
};

/** Replay @p trace against a fresh server; arrivals never wait on
 *  completions (open loop). */
OpenLoopResult
replayTrace(const std::string &ckpt, const serve::SessionConfig &scfg,
            const std::vector<Arrival> &trace)
{
    auto session = serve::InferenceSession::fromCheckpoint(ckpt, scfg);
    serve::ServerConfig server_cfg;
    server_cfg.queue_capacity = 4096; // measure latency, not shedding
    server_cfg.batch_admit_fraction = 1.0;
    serve::Server server(std::move(session), server_cfg);

    std::vector<std::future<serve::Response>> futures;
    futures.reserve(trace.size());
    const auto start = std::chrono::steady_clock::now();
    for (const Arrival &a : trace) {
        std::this_thread::sleep_until(
            start + std::chrono::microseconds(a.at_us));
        futures.push_back(server.submit(serve::Request(a.req)));
    }
    for (auto &f : futures)
        f.get();
    server.stop();

    const serve::ServerStats stats = server.stats();
    OpenLoopResult res;
    res.offered_rps = static_cast<double>(trace.size()) /
                      (static_cast<double>(trace.back().at_us) / 1e6);
    res.completed = stats.completed;
    res.p50_ms = stats.latency_p50_us / 1000.0;
    res.p95_ms = stats.latency_p95_us / 1000.0;
    res.p99_ms = stats.latency_p99_us / 1000.0;
    res.wait_p99_ms = stats.wait_p99_us / 1000.0;
    res.mean_batch = stats.mean_batch_requests;
    res.splices = stats.splices;
    res.recycled = stats.recycled_slots;
    return res;
}

int
runOpenLoop(int reps)
{
    bench::begin(
        "serve_throughput --open-loop",
        "tail latency of continuous (iteration-level) scheduling "
        "under a bursty-Poisson / Zipfian-length arrival trace");
    std::error_code ec;
    std::filesystem::create_directories("results", ec);

    serve::SessionConfig scfg;
    scfg.slots = 8;
    scfg.buckets = {8};

    const std::string ckpt = makeWordLmCheckpoint();
    Table table({"rep", "offered_rps", "completed",
                 "p50_ms", "p95_ms", "p99_ms", "wait_p99_ms",
                 "mean_batch", "splices", "recycled"});

    std::vector<double> p99;
    for (int rep = 0; rep < reps; ++rep) {
        const std::vector<Arrival> trace =
            makeOpenLoopTrace(1000 + static_cast<uint64_t>(rep), 200,
                              /*mean_gap_us=*/700.0);
        const OpenLoopResult r = replayTrace(ckpt, scfg, trace);
        p99.push_back(r.p99_ms);
        table.addRow({std::to_string(rep), Table::fmt(r.offered_rps, 1),
                      std::to_string(r.completed),
                      Table::fmt(r.p50_ms, 3), Table::fmt(r.p95_ms, 3),
                      Table::fmt(r.p99_ms, 3),
                      Table::fmt(r.wait_p99_ms, 3),
                      Table::fmt(r.mean_batch, 2),
                      std::to_string(r.splices),
                      std::to_string(r.recycled)});
    }
    bench::emit(table, "serve_throughput_openloop");

    std::sort(p99.begin(), p99.end());
    bench::note("open-loop p99: " + Table::fmt(p99[p99.size() / 2], 3) +
                " ms (median of " + std::to_string(reps) + " rep(s))");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool open_loop = false;
    int reps = 3;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--open-loop") == 0)
            open_loop = true;
        else if (std::strncmp(argv[i], "--reps=", 7) == 0)
            reps = std::max(1, std::atoi(argv[i] + 7));
        else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc)
            reps = std::max(1, std::atoi(argv[++i]));
    }
    if (open_loop)
        return runOpenLoop(reps);

    bench::begin("serve_throughput",
                 "inference-serving throughput and latency percentiles "
                 "under closed-loop load (8 slots vs 1 slot)");
    std::error_code ec;
    std::filesystem::create_directories("results", ec);

    Table table({"model", "clients", "slots", "req/s", "p50_ms",
                 "p95_ms", "p99_ms", "mean_batch"});

    serve::SessionConfig batched;
    batched.slots = 8;
    batched.buckets = {8};
    serve::SessionConfig unbatched = batched;
    unbatched.slots = 1;

    const int kRequests = 40;

    const std::string lm_ckpt = makeWordLmCheckpoint();
    for (int clients : {1, 4, 16})
        addRow(table, "word_lm", clients, batched.slots,
               runLoad(lm_ckpt, batched, clients, kRequests, 0));
    const LoadResult lm_serial =
        runLoad(lm_ckpt, unbatched, 16, kRequests, 0);
    addRow(table, "word_lm", 16, unbatched.slots, lm_serial);

    const std::string nmt_ckpt = makeNmtCheckpoint();
    for (int clients : {1, 4, 16})
        addRow(table, "nmt", clients, batched.slots,
               runLoad(nmt_ckpt, batched, clients, kRequests, 4));
    const LoadResult nmt_serial =
        runLoad(nmt_ckpt, unbatched, 16, kRequests, 4);
    addRow(table, "nmt", 16, unbatched.slots, nmt_serial);

    bench::emit(table, "serve_throughput");

    const LoadResult lm_sat =
        runLoad(lm_ckpt, batched, 16, kRequests, 0);
    const LoadResult nmt_sat =
        runLoad(nmt_ckpt, batched, 16, kRequests, 4);
    bench::note("saturation batching gain (slots=8 vs slots=1): "
                "word_lm " +
                Table::fmt(lm_sat.throughput_rps /
                               lm_serial.throughput_rps,
                           2) +
                "x, nmt " +
                Table::fmt(nmt_sat.throughput_rps /
                               nmt_serial.throughput_rps,
                           2) +
                "x");
    return 0;
}
