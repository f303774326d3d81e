/**
 * @file
 * echo-tune: command-line front end of the GEMM autotuner (src/tune).
 *
 * Modes (combinable; they run in the order warm, layout, dump, check):
 *
 *  - --warm=word_lm|nmt|shapes  Tune the model family's GEMM shape set
 *    at the given hyperparameters (--batch/--hidden/--vocab/--beam,
 *    or --suite=small|full presets; --shapes=MxNxK[:TT],... for the
 *    explicit form) and persist the winners to the cache.  A shape
 *    that already has a usable cache entry is NOT re-measured — a
 *    second warm run against the same cache performs zero measurement
 *    runs, which CI asserts via the tune.* counter summary.
 *  - --layout                   Fold the TBH-vs-THB layout choice into
 *    the tuner: tune both forms of the recurrent projection and print
 *    the measured decision.
 *  - --dump                     Print every cache entry.
 *  - --check                    Validate the cache file; exit nonzero
 *    on a missing-but-expected, wrong-version, or corrupt cache.
 *
 * Always prints the tune.* counters last, one "name=value" per line.
 *
 * usage: echo-tune [--cache PATH] [--warm word_lm|nmt|shapes]
 *                  [--suite small|full] [--shapes LIST]
 *                  [--batch N] [--hidden N] [--vocab N] [--beam N]
 *                  [--candidates N] [--reps N]
 *                  [--layout] [--dump] [--check]
 *        (both "--flag value" and "--flag=value" forms are accepted)
 */
#include <charconv>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/thread_pool.h"
#include "layout/layout_optimizer.h"
#include "obs/counters.h"
#include "tensor/gemm_schedule.h"
#include "tune/cache.h"
#include "tune/tuner.h"

namespace {

using namespace echo;

struct TuneCliOptions
{
    std::string cache_path; // empty: ECHO_TUNE_CACHE / default
    std::string warm;       // "", word_lm, nmt, shapes
    std::string suite;      // "", small, full
    std::string shapes;     // explicit MxNxK[:TT] list
    int64_t batch = 32;
    int64_t hidden = 650;
    int64_t vocab = 10000;
    int64_t beam = 8;
    int candidates = 16;
    int reps = 3;
    bool layout = false;
    bool dump = false;
    bool check = false;
};

void
usage(std::ostream &os)
{
    os << "usage: echo-tune [--cache PATH] [--warm word_lm|nmt|shapes]\n"
          "                 [--suite small|full] [--shapes MxNxK[:TT],...]\n"
          "                 [--batch N] [--hidden N] [--vocab N] [--beam N]\n"
          "                 [--candidates N] [--reps N]\n"
          "                 [--layout] [--dump] [--check]\n";
}

/** Parse "MxNxK" or "MxNxK:NT"-style entries (T/N per operand). */
bool
parseShape(const std::string &text, int threads, ops::GemmKey *out)
{
    ops::GemmKey key;
    key.threads = threads;
    char ta = 'N', tb = 'N';
    const int got =
        std::sscanf(text.c_str(), "%ldx%ldx%ld:%c%c", &key.m, &key.n,
                    &key.k, &ta, &tb);
    if (got != 3 && got != 5)
        return false;
    if ((ta != 'N' && ta != 'T') || (tb != 'N' && tb != 'T'))
        return false;
    if (key.m < 1 || key.n < 1 || key.k < 1)
        return false;
    key.trans_a = ta == 'T';
    key.trans_b = tb == 'T';
    *out = key;
    return true;
}

/**
 * The GEMM shape set of one LSTM LM / NMT configuration: the per-step
 * gate projections at training batch, single-slot decode, and beam
 * width; the vocab projection at each of those batches; and the
 * K-skewed weight-gradient forms of the training projections.
 */
std::vector<ops::GemmKey>
modelShapeSet(const TuneCliOptions &opt, bool nmt, int threads)
{
    const int64_t h = opt.hidden;
    std::vector<int64_t> batches{1, opt.beam, opt.batch};
    std::vector<ops::GemmKey> keys;
    for (int64_t b : batches) {
        // Gate projection X[b x H] * W^T[4H x H] and the vocab head.
        keys.push_back({b, 4 * h, h, false, true, threads});
        keys.push_back({b, opt.vocab, h, false, true, threads});
        if (nmt) // attention score head: [b x H] * Henc^T
            keys.push_back({b, h, h, false, true, threads});
    }
    // Weight gradients: dW = dY^T X, K = batch (K-skewed).
    keys.push_back({4 * h, h, opt.batch, true, false, threads});
    keys.push_back({opt.vocab, h, opt.batch, true, false, threads});
    return keys;
}

/** Small fixed suites for smoke runs and CI. */
std::vector<ops::GemmKey>
suiteShapeSet(const std::string &suite, int threads)
{
    std::vector<ops::GemmKey> keys;
    if (suite == "small") {
        keys.push_back({8, 32, 16, false, false, threads});
        keys.push_back({1, 48, 24, false, true, threads});
        keys.push_back({17, 24, 9, true, false, threads});
    } else { // full: the paper-workload skew set at default params
        keys.push_back({32, 10000, 650, false, true, threads});
        keys.push_back({1, 2600, 650, false, true, threads});
        keys.push_back({8, 2600, 650, false, true, threads});
        keys.push_back({2600, 650, 1120, true, false, threads});
    }
    return keys;
}

void
printCounters()
{
    // Register the full tune.* set up front so a run that never ticked
    // one still reports it as 0 — CI greps "tune.measure_runs=0" to
    // prove a warm-cache run measured nothing.
    for (const char *name :
         {"tune.sched_hit", "tune.sched_miss", "tune.search_runs",
          "tune.measure_runs", "tune.validate_reject",
          "tune.cache_entries_loaded", "tune.cache_entries_rejected"})
        (void)obs::counter(name, obs::CounterKind::kScheduling);
    for (const obs::CounterSample &c : obs::snapshotCounters())
        if (c.name.rfind("tune.", 0) == 0)
            std::printf("%s=%lld\n", c.name.c_str(),
                        static_cast<long long>(c.value));
}

} // namespace

int
main(int argc, char **argv)
{
    TuneCliOptions opt;
    std::vector<std::string> args(argv + 1, argv + argc);
    for (size_t i = 0; i < args.size(); ++i) {
        std::string flag = args[i];
        std::string value;
        if (const auto eq = flag.find('='); eq != std::string::npos) {
            value = flag.substr(eq + 1);
            flag = flag.substr(0, eq);
        }
        auto want_value = [&]() -> bool {
            if (!value.empty())
                return true;
            if (i + 1 < args.size()) {
                value = args[++i];
                return true;
            }
            std::cerr << "echo-tune: " << flag << " needs a value\n";
            return false;
        };
        if (flag == "--help" || flag == "-h") {
            usage(std::cout);
            return 0;
        } else if (flag == "--layout") {
            opt.layout = true;
        } else if (flag == "--dump") {
            opt.dump = true;
        } else if (flag == "--check") {
            opt.check = true;
        } else if (flag == "--cache") {
            if (!want_value())
                return 2;
            opt.cache_path = value;
        } else if (flag == "--warm") {
            if (!want_value())
                return 2;
            opt.warm = value;
        } else if (flag == "--suite") {
            if (!want_value())
                return 2;
            opt.suite = value;
        } else if (flag == "--shapes") {
            if (!want_value())
                return 2;
            opt.shapes = value;
            if (opt.warm.empty())
                opt.warm = "shapes";
        } else if (flag == "--batch" || flag == "--hidden" ||
                   flag == "--vocab" || flag == "--beam" ||
                   flag == "--candidates" || flag == "--reps") {
            if (!want_value())
                return 2;
            int64_t v = 0;
            const char *end = value.data() + value.size();
            const auto [ptr, ec] = std::from_chars(value.data(), end, v);
            if (ec != std::errc() || ptr != end || v < 1) {
                std::cerr << "echo-tune: bad " << flag << " value '"
                          << value << "' (need an integer >= 1)\n";
                return 2;
            }
            if (flag == "--batch")
                opt.batch = v;
            else if (flag == "--hidden")
                opt.hidden = v;
            else if (flag == "--vocab")
                opt.vocab = v;
            else if (flag == "--beam")
                opt.beam = v;
            else if (flag == "--candidates")
                opt.candidates = static_cast<int>(v);
            else
                opt.reps = static_cast<int>(v);
        } else {
            std::cerr << "echo-tune: unknown flag " << flag << "\n";
            usage(std::cerr);
            return 2;
        }
    }

    tune::TuneOptions topt;
    topt.cache_path = opt.cache_path;
    topt.max_candidates = opt.candidates;
    topt.reps = opt.reps;
    tune::Autotuner tuner(topt);
    const int threads = ThreadPool::global().numThreads();

    std::printf("echo-tune: cache %s, kernel isa %s (%d-byte vectors), "
                "%d threads\n",
                tuner.cachePath().c_str(), ops::gemmIsaName(),
                ops::gemmVectorWidthBytes(), threads);

    if (!opt.warm.empty()) {
        std::vector<ops::GemmKey> keys;
        if (!opt.suite.empty()) {
            if (opt.suite != "small" && opt.suite != "full") {
                std::cerr << "echo-tune: --suite must be small|full\n";
                return 2;
            }
            keys = suiteShapeSet(opt.suite, threads);
        } else if (opt.warm == "word_lm") {
            keys = modelShapeSet(opt, /*nmt=*/false, threads);
        } else if (opt.warm == "nmt") {
            keys = modelShapeSet(opt, /*nmt=*/true, threads);
        } else if (opt.warm == "shapes") {
            size_t at = 0;
            while (at < opt.shapes.size()) {
                size_t comma = opt.shapes.find(',', at);
                if (comma == std::string::npos)
                    comma = opt.shapes.size();
                ops::GemmKey key;
                const std::string item =
                    opt.shapes.substr(at, comma - at);
                if (!parseShape(item, threads, &key)) {
                    std::cerr << "echo-tune: bad shape \"" << item
                              << "\" (want MxNxK or MxNxK:TT)\n";
                    return 2;
                }
                keys.push_back(key);
                at = comma + 1;
            }
            if (keys.empty()) {
                std::cerr << "echo-tune: --warm shapes needs "
                             "--shapes\n";
                return 2;
            }
        } else {
            std::cerr << "echo-tune: --warm must be "
                         "word_lm|nmt|shapes\n";
            return 2;
        }
        const int searched = tuner.warmKeys(keys);
        std::printf("warm: %zu shapes, %d searched, %zu already "
                    "tuned\n",
                    keys.size(), searched,
                    keys.size() - static_cast<size_t>(searched));
        for (const tune::TuneOutcome &o : tuner.outcomes()) {
            if (!o.searched)
                continue;
            std::printf("  %-28s -> %-44s %8.1f us (fixed %8.1f us, "
                        "%.2fx)\n",
                        o.key.toString().c_str(),
                        o.best.toString().c_str(),
                        o.best_seconds * 1e6, o.fixed_seconds * 1e6,
                        o.speedup());
        }
    }

    if (opt.layout) {
        rnn::LstmSpec spec;
        spec.input_size = opt.hidden;
        spec.hidden = opt.hidden;
        spec.batch = opt.batch;
        spec.seq_len = 1;
        const layout::LayoutDecision d =
            layout::chooseLayoutTuned(spec, tuner, threads);
        std::printf("layout: %s (tuned %.1f us TBH vs %.1f us THB)\n",
                    layout::layoutName(d.layout), d.tbh_time_us,
                    d.thb_time_us);
    }

    int exit_code = 0;
    if (opt.dump || opt.check) {
        const tune::CacheLoadResult loaded =
            tune::loadTuneCache(tuner.cachePath());
        if (opt.dump) {
            std::printf("cache %s: %zu entries, %d rejected%s\n",
                        tuner.cachePath().c_str(),
                        loaded.entries.size(), loaded.rejected,
                        loaded.existed ? "" : " (no file)");
            for (const tune::CacheEntry &e : loaded.entries)
                std::printf("  %-28s %-8s vec%-3d %s\n",
                            e.key.toString().c_str(), e.isa.c_str(),
                            e.vector_width_bytes,
                            e.schedule.toString().c_str());
        }
        if (opt.check) {
            if (!loaded.existed) {
                std::printf("check: FAIL (cache file missing)\n");
                exit_code = 1;
            } else if (!loaded.ok) {
                std::printf("check: FAIL (bad header/version)\n");
                exit_code = 1;
            } else if (loaded.rejected > 0) {
                std::printf("check: FAIL (%d corrupt entries)\n",
                            loaded.rejected);
                exit_code = 1;
            } else {
                std::printf("check: OK (%zu entries)\n",
                            loaded.entries.size());
            }
        }
    }

    printCounters();
    return exit_code;
}
