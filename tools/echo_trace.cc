/**
 * @file
 * echo-trace: command-line front end of the observability layer
 * (src/obs).  Builds one of the repo's training models at a small
 * preset, optionally applies the Echo recompute pass, runs a few real
 * training iterations with tracing enabled, and emits:
 *
 *  - a Chrome Trace Event Format JSON (open in chrome://tracing or
 *    Perfetto) with per-op executor spans, thread-pool worker spans,
 *    trainer iteration spans, Echo pass decision events, and planner
 *    alloc/free events,
 *  - a footprint-curve CSV (schedule position vs live transient bytes)
 *    from the memory plan's replay (memory::replayPlan) — the
 *    Fig. 5-style per-iteration view,
 *  - a counter summary: the deterministic counters on stdout, which is
 *    byte-identical at any thread count, and the scheduling-dependent
 *    ones on stderr.
 *
 * The tool self-checks the plan replay: every transient has an
 * allocation of its size, no two live allocations overlap, and the
 * address peak is byte-identical to MemoryPlan::pool_peak_bytes.  Exit
 * status is nonzero when the self-check fails, so CI can gate on it.
 *
 * usage: echo-trace [--model word_lm|nmt] [--policy off|auto]
 *                   [--iters N] [--out trace.json] [--csv footprint.csv]
 *        (both "--flag value" and "--flag=value" forms are accepted)
 */
#include <charconv>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "data/batcher.h"
#include "pass/builtin_passes.h"
#include "graph/executor.h"
#include "memory/planner.h"
#include "models/nmt.h"
#include "models/word_lm.h"
#include "obs/obs.h"
#include "train/optimizer.h"
#include "train/trainer.h"

namespace {

using namespace echo;

struct TraceOptions
{
    std::string model = "word_lm"; // word_lm | nmt
    std::string policy = "auto";   // off | auto
    int64_t iters = 2;
    std::string out_path = "echo_trace.json";
    std::string csv_path = "echo_footprint.csv";
};

void
usage(std::ostream &os)
{
    os << "usage: echo-trace [--model word_lm|nmt] [--policy off|auto]\n"
          "                  [--iters N] [--out trace.json] "
          "[--csv footprint.csv]\n";
}

/** Parse "--flag=value" / "--flag value"; returns false on error. */
bool
parseArgs(int argc, char **argv, TraceOptions &opts)
{
    auto take = [&](int &i, const std::string &arg,
                    const std::string &flag,
                    std::string &out) -> bool {
        if (arg.rfind(flag + "=", 0) == 0) {
            out = arg.substr(flag.size() + 1);
            return true;
        }
        if (arg == flag && i + 1 < argc) {
            out = argv[++i];
            return true;
        }
        return false;
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string value;
        if (take(i, arg, "--model", opts.model) ||
            take(i, arg, "--policy", opts.policy) ||
            take(i, arg, "--out", opts.out_path) ||
            take(i, arg, "--csv", opts.csv_path)) {
            continue;
        }
        if (take(i, arg, "--iters", value)) {
            const char *end = value.data() + value.size();
            const auto [ptr, ec] =
                std::from_chars(value.data(), end, opts.iters);
            if (ec != std::errc() || ptr != end || opts.iters < 1) {
                std::cerr << "echo-trace: bad --iters value '" << value
                          << "' (need an integer >= 1)\n";
                return false;
            }
            continue;
        }
        std::cerr << "echo-trace: unknown argument " << arg << "\n";
        usage(std::cerr);
        return false;
    }
    if (opts.model != "word_lm" && opts.model != "nmt") {
        std::cerr << "echo-trace: bad --model value\n";
        return false;
    }
    if (opts.policy != "off" && opts.policy != "auto") {
        std::cerr << "echo-trace: bad --policy value\n";
        return false;
    }
    return true;
}

/** Train @p iters steps of a built model; shared by both model paths. */
template <typename Model, typename Batcher>
void
runIterations(Model &model, Batcher &batcher, int64_t iters)
{
    Rng rng(17);
    models::ParamStore params = model.initialParams(rng);
    train::SgdOptimizer opt(0.1, 0.9);

    graph::Executor ex(model.fetches());
    train::TrainLoopConfig loop;
    loop.iterations = iters;
    loop.seconds_per_iteration = 1.0;
    train::runTrainingLoop(
        ex, loop,
        [&](int64_t) { return model.makeFeed(params, batcher.next()); },
        [&](double, const std::vector<Tensor> &grads) {
            opt.step(params, model.weights(), grads);
        });
}

/** Plan memory, replay the plan, and write the footprint CSV.  Returns
 *  false when the self-check fails. */
bool
planAndReplay(const std::vector<graph::Val> &fetches,
              const std::vector<graph::Val> &weight_grads,
              const TraceOptions &opts)
{
    const memory::PlannedSchedule s =
        memory::planSchedule(fetches, weight_grads);
    const memory::MemoryPlan &plan = s.plan;
    const memory::PlanReplay replay = memory::replayPlan(s.liveness, plan);

    std::cout << "memory plan: pool peak " << plan.pool_peak_bytes
              << " B at slot " << plan.peak_pos << ", persistent "
              << plan.persistent_bytes << " B\n"
              << "plan replay: live peak " << replay.live_peak_bytes
              << " B at slot " << replay.peak_pos << ", address peak "
              << replay.address_peak_bytes << " B, "
              << plan.offsets.size() << " transients\n";

    bool ok = replay.ok();
    if (!ok)
        std::cerr << "echo-trace: plan replay found "
                  << replay.findings.size()
                  << " missing, undersized or overlapping allocation(s)\n";
    if (replay.address_peak_bytes != plan.pool_peak_bytes) {
        std::cerr << "echo-trace: replayed address peak "
                  << replay.address_peak_bytes
                  << " != planner pool peak " << plan.pool_peak_bytes
                  << "\n";
        ok = false;
    }

    if (!opts.csv_path.empty()) {
        std::ofstream csv(opts.csv_path);
        if (!csv.good()) {
            std::cerr << "echo-trace: cannot open " << opts.csv_path
                      << "\n";
            return false;
        }
        csv << "pos,live_bytes,high_water_bytes\n";
        for (const memory::FootprintPoint &p : replay.curve)
            csv << p.pos << ',' << p.live_bytes << ','
                << p.high_water_bytes << '\n';
        std::cout << "footprint curve written to " << opts.csv_path
                  << " (" << replay.curve.size() << " points)\n";
    }
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    TraceOptions opts;
    if (!parseArgs(argc, argv, opts))
        return 2;

    pass::PassConfig pass_cfg;
    pass_cfg.policy = opts.policy == "auto"
                          ? pass::PassConfig::Policy::kAuto
                          : pass::PassConfig::Policy::kOff;

    obs::startTrace(opts.out_path);

    bool ok = true;
    if (opts.model == "word_lm") {
        models::WordLmConfig cfg;
        cfg.vocab = 120;
        cfg.hidden = 32;
        cfg.layers = 2;
        cfg.batch = 8;
        cfg.seq_len = 16;
        models::WordLmModel model(cfg);
        pass::PipelineContext pctx(model.graph());
        pctx.fetches = model.fetches();
        pctx.weight_grads = model.weightGrads();
        pctx.recompute_config = pass_cfg;
        pass::buildPipeline("recompute")
            .runOrDie(pctx, "echo-trace recompute");
        const pass::PassResult pr = pctx.recompute;
        std::cout << "echo pass: " << pr.num_regions << " regions, "
                  << pr.bytes_saved << " B saved, " << pr.bytes_added
                  << " B added\n";

        data::CorpusConfig ccfg;
        ccfg.vocab = data::Vocab{cfg.vocab};
        ccfg.num_tokens = 20000;
        ccfg.seed = 13;
        data::Corpus corpus = data::Corpus::generate(ccfg);
        data::LmBatcher batcher(corpus, cfg.batch, cfg.seq_len);
        runIterations(model, batcher, opts.iters);
        ok = planAndReplay(model.fetches(), model.weightGrads(), opts);
    } else {
        models::NmtConfig cfg;
        cfg.src_vocab = 80;
        cfg.tgt_vocab = 90;
        cfg.hidden = 24;
        cfg.enc_layers = 1;
        cfg.batch = 4;
        cfg.src_len = 10;
        cfg.tgt_len = 10;
        models::NmtModel model(cfg);
        pass::PipelineContext pctx(model.graph());
        pctx.fetches = model.fetches();
        pctx.weight_grads = model.weightGrads();
        pctx.recompute_config = pass_cfg;
        pass::buildPipeline("recompute")
            .runOrDie(pctx, "echo-trace recompute");
        const pass::PassResult pr = pctx.recompute;
        std::cout << "echo pass: " << pr.num_regions << " regions, "
                  << pr.bytes_saved << " B saved, " << pr.bytes_added
                  << " B added\n";

        data::ParallelCorpusConfig ccfg;
        ccfg.src_vocab = data::Vocab{cfg.src_vocab};
        ccfg.tgt_vocab = data::Vocab{cfg.tgt_vocab};
        ccfg.num_pairs = 200;
        ccfg.max_len = 9;
        data::ParallelCorpus corpus =
            data::ParallelCorpus::generate(ccfg);
        data::NmtBatcher batcher(corpus, cfg.batch, cfg.src_len,
                                 cfg.tgt_len);
        runIterations(model, batcher, opts.iters);
        ok = planAndReplay(model.fetches(), model.weightGrads(), opts);
    }

    obs::stopTrace();
    std::cout << "trace written to " << opts.out_path << "\n";

    // Deterministic counters go to stdout, which is then byte-stable
    // across runs and thread counts; scheduling ones go to stderr.
    std::cout << "\ncounters (D = deterministic; S = scheduling, on "
                 "stderr):\n";
    for (const obs::CounterSample &c : obs::snapshotCounters()) {
        const bool det = c.kind == obs::CounterKind::kDeterministic;
        (det ? std::cout : std::cerr)
            << "  [" << (det ? 'D' : 'S') << "] " << c.name << " = "
            << c.value << "\n";
    }
    return ok ? 0 : 1;
}
