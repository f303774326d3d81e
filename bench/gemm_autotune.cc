/**
 * @file
 * Searched-vs-fixed GEMM schedule comparison over the schedule space.
 *
 * ops::gemm always runs GemmSchedule::fixedDefault(); this bench
 * measures what a shape-specialized schedule would buy instead.  For
 * every shape in the skewed real-workload suite — the word-LM vocab
 * projection, single-slot decode, beam-widened decode, and the
 * K-skewed weight gradient, each under all four transpose combos —
 * plus the square control sizes, the harness:
 *
 *  1. measures every candidate tune::enumerateCandidates() offers
 *     (median of N, on this machine and build);
 *  2. checks each candidate, best first, byte for byte against
 *     gemmReference() — any mismatch fails the bench;
 *  3. re-measures the fastest candidate head to head against the
 *     fixed default and keeps the default unless the winner is
 *     strictly faster, then times the two back to back once more for
 *     the reported row;
 *  4. reports the per-shape speedup, the skewed-suite geometric mean,
 *     and the worst square regression.
 *
 * Emits results/BENCH_gemm_autotune.csv (Table mirror) and
 * results/BENCH_gemm_autotune.json with the raw rows plus the two
 * aggregates, so CI can archive the run and EXPERIMENTS.md can quote
 * it.  Exit status is 1 when any candidate was not byte-identical to
 * gemmReference — the bitwise contract is part of what this bench
 * certifies.
 */
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/rng.h"
#include "core/table.h"
#include "core/thread_pool.h"
#include "tensor/ops.h"
#include "tune/measure.h"
#include "tune/search_space.h"

using namespace echo;

namespace {

struct SuiteShape
{
    const char *name;
    int64_t m, n, k;
    bool trans_a, trans_b;
    bool square; // control shape: regression-gated, not in the geomean
};

struct Row
{
    SuiteShape shape;
    ops::GemmSchedule best;
    double fixed_us = 0.0;
    double tuned_us = 0.0;

    double speedup() const { return fixed_us / tuned_us; }
};

/** Median time of @p sch on @p key, microseconds (one warmup run). */
double
timeUs(const ops::GemmKey &key, const ops::GemmSchedule &sch, int reps)
{
    return tune::measureSchedule(key, sch, 1, reps).seconds * 1e6;
}

/**
 * The fastest candidate for @p key whose output is byte-identical to
 * gemmReference() on the measurement operands.  Every candidate is
 * checked; each mismatch is reported and counted in @p rejects.
 */
ops::GemmSchedule
searchKey(const ops::GemmKey &key, int reps, int &rejects)
{
    struct Timed
    {
        ops::GemmSchedule schedule;
        double us = 0.0;
    };
    std::vector<Timed> timed;
    for (const tune::ScoredSchedule &c : tune::enumerateCandidates(key))
        timed.push_back({c.schedule, timeUs(key, c.schedule, reps)});
    std::stable_sort(timed.begin(), timed.end(),
                     [](const Timed &a, const Timed &b) {
                         return a.us < b.us;
                     });

    // The same fixed-seed operands tune::measureSchedule multiplies.
    Rng rng(0x7u);
    const Tensor a = Tensor::uniform(
        key.trans_a ? Shape({key.k, key.m}) : Shape({key.m, key.k}),
        rng);
    const Tensor b = Tensor::uniform(
        key.trans_b ? Shape({key.n, key.k}) : Shape({key.k, key.n}),
        rng);
    const Tensor ref = ops::gemmReference(a, key.trans_a, b, key.trans_b);
    const size_t bytes = static_cast<size_t>(ref.shape().bytes());

    ops::GemmSchedule best = ops::GemmSchedule::fixedDefault();
    bool found = false;
    for (const Timed &t : timed) {
        const Tensor got = ops::gemmWithSchedule(
            a, key.trans_a, b, key.trans_b, 1.0f, t.schedule);
        if (std::memcmp(got.data(), ref.data(), bytes) != 0) {
            ++rejects;
            std::printf("  MISMATCH %s under %s\n",
                        key.toString().c_str(),
                        t.schedule.toString().c_str());
        } else if (!found) {
            best = t.schedule;
            found = true;
        }
    }
    return best;
}

std::string
comboName(bool ta, bool tb)
{
    std::string s;
    s += ta ? 'T' : 'N';
    s += tb ? 'T' : 'N';
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    // --reps N: timed runs per measurement, both during the search and
    // in the final back-to-back comparison (CI uses 1 for speed; the
    // recorded numbers use the defaults).
    int reps = 5;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--reps" && i + 1 < argc) {
            const std::string text = argv[++i];
            const char *end = text.data() + text.size();
            const auto [ptr, ec] = std::from_chars(text.data(), end, reps);
            if (ec != std::errc() || ptr != end || reps < 1) {
                std::fprintf(stderr, "%s: bad --reps value '%s'\n",
                             argv[0], text.c_str());
                return 2;
            }
        } else {
            std::fprintf(stderr, "usage: %s [--reps N]\n", argv[0]);
            return 2;
        }
    }

    bench::begin("BENCH_gemm_autotune — tuned vs fixed GEMM schedules",
                 "Shape-specialized schedule search on the skewed "
                 "workload suite; squares are the no-regression "
                 "control.");

    std::vector<SuiteShape> suite;
    const struct
    {
        const char *name;
        int64_t m, n, k;
    } workloads[] = {
        {"vocab_proj", 32, 10000, 650},
        {"step_decode", 1, 2600, 650},
        {"beam_decode", 8, 2600, 650},
        {"weight_grad", 2600, 650, 1120},
    };
    for (const auto &w : workloads)
        for (int combo = 0; combo < 4; ++combo)
            suite.push_back({w.name, w.m, w.n, w.k, (combo & 2) != 0,
                             (combo & 1) != 0, false});
    for (int64_t s : {128, 256, 512})
        suite.push_back({"square", s, s, s, false, false, true});

    const int threads = ThreadPool::global().numThreads();
    const int search_reps = std::min(reps, 3);
    const ops::GemmSchedule fixed = ops::GemmSchedule::fixedDefault();
    int rejects = 0;

    std::vector<Row> rows;
    for (const SuiteShape &s : suite) {
        const ops::GemmKey key{s.m, s.n, s.k, s.trans_a, s.trans_b,
                               threads};
        ops::GemmSchedule best = searchKey(key, search_reps, rejects);
        // Champion guard: the ranking used each candidate's own noisy
        // search-time median, so re-measure the winner head to head and
        // keep the default unless the winner is strictly faster.
        if (!(best == fixed)) {
            const double best_us = timeUs(key, best, search_reps);
            if (timeUs(key, fixed, search_reps) <= best_us)
                best = fixed;
        }
        // Re-measure both schedules back to back (median of N) for the
        // reported row.  When the default won there is nothing to
        // compare — timing identical code twice would only measure
        // machine noise — and the row is a definitional 1.00x.
        const double fixed_us = timeUs(key, fixed, reps);
        const double tuned_us =
            best == fixed ? fixed_us : timeUs(key, best, reps);
        rows.push_back({s, best, fixed_us, tuned_us});
        std::printf("  %-12s %5lld x %-5lld x %-5lld %s  fixed %9.1f us"
                    "  tuned %9.1f us  %.2fx\n",
                    s.name, static_cast<long long>(s.m),
                    static_cast<long long>(s.n),
                    static_cast<long long>(s.k),
                    comboName(s.trans_a, s.trans_b).c_str(), fixed_us,
                    tuned_us, fixed_us / tuned_us);
    }

    double log_sum = 0.0;
    int skewed = 0;
    double worst_square = 1e9;
    for (const Row &r : rows) {
        if (r.shape.square) {
            worst_square = std::min(worst_square, r.speedup());
        } else {
            log_sum += std::log(r.speedup());
            ++skewed;
        }
    }
    const double geomean = std::exp(log_sum / skewed);

    Table table({"shape", "M", "N", "K", "combo", "fixed_us", "tuned_us",
                 "speedup", "schedule"});
    for (const Row &r : rows)
        table.addRow({r.shape.name, std::to_string(r.shape.m),
                      std::to_string(r.shape.n),
                      std::to_string(r.shape.k),
                      comboName(r.shape.trans_a, r.shape.trans_b),
                      Table::fmt(r.fixed_us, 1), Table::fmt(r.tuned_us, 1),
                      Table::fmt(r.speedup(), 2), r.best.toString()});
    bench::emit(table, "BENCH_gemm_autotune");

    std::printf("skewed-suite geomean speedup: %.3fx (%d shapes)\n",
                geomean, skewed);
    std::printf("worst square tuned/fixed: %.3fx\n", worst_square);

    std::error_code ec;
    std::filesystem::create_directories("results", ec);
    std::ofstream json("results/BENCH_gemm_autotune.json");
    json << "{\n  \"isa\": \"" << ops::gemmIsaName() << "\",\n"
         << "  \"threads\": " << threads << ",\n  \"rows\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        json << "    {\"shape\": \"" << r.shape.name << "\", \"m\": "
             << r.shape.m << ", \"n\": " << r.shape.n << ", \"k\": "
             << r.shape.k << ", \"combo\": \""
             << comboName(r.shape.trans_a, r.shape.trans_b)
             << "\", \"fixed_us\": " << r.fixed_us
             << ", \"tuned_us\": " << r.tuned_us << ", \"speedup\": "
             << r.speedup() << ", \"square\": "
             << (r.shape.square ? "true" : "false") << ", \"schedule\": \""
             << r.best.toString() << "\"}"
             << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ],\n  \"skewed_geomean_speedup\": " << geomean
         << ",\n  \"worst_square_ratio\": " << worst_square << "\n}\n";
    json.close();
    bench::note("results/BENCH_gemm_autotune.json written");

    if (rejects != 0) {
        std::printf("FAIL: %d searched schedules were not byte-identical "
                    "to gemmReference\n",
                    rejects);
        return 1;
    }
    return 0;
}
