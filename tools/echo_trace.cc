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
 *    replayed from the memory plan's timeline — the Fig. 5-style
 *    per-iteration view,
 *  - a counter summary on stdout.
 *
 * The tool self-checks that the replayed timeline is consistent: no
 * overlapping live allocations, balanced allocs/frees, and an address
 * peak byte-identical to MemoryPlan::pool_peak_bytes.  Exit status is
 * nonzero when the self-check fails, so CI can gate on it.
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

/** Plan memory with a recorded timeline, replay it, and write the
 *  footprint CSV.  Returns false when the self-check fails. */
bool
planAndReplay(const std::vector<graph::Val> &fetches,
              const std::vector<graph::Val> &weight_grads,
              const TraceOptions &opts)
{
    const memory::LivenessResult live =
        memory::analyzeLiveness(fetches, weight_grads);
    obs::MemoryTimeline timeline;
    memory::PlannerOptions popts;
    popts.timeline = &timeline;
    const memory::MemoryPlan plan = memory::planMemory(live, popts);
    const obs::TimelineReplay replay = obs::replayTimeline(timeline);

    std::cout << "memory plan: pool peak " << plan.pool_peak_bytes
              << " B at slot " << plan.peak_pos << ", persistent "
              << plan.persistent_bytes << " B\n"
              << "timeline replay: live peak " << replay.live_peak_bytes
              << " B at slot " << replay.peak_pos << ", address peak "
              << replay.address_peak_bytes << " B, "
              << timeline.events.size() << " events\n";

    bool ok = true;
    for (const std::string &v : replay.violations) {
        std::cerr << "echo-trace: timeline violation: " << v << "\n";
        ok = false;
    }
    if (replay.outstanding_bytes != 0) {
        std::cerr << "echo-trace: timeline leaks "
                  << replay.outstanding_bytes << " bytes\n";
        ok = false;
    }
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
        obs::writeFootprintCsv(replay, csv);
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

    std::cout << "\ncounters (D = deterministic, S = scheduling):\n";
    for (const obs::CounterSample &c : obs::snapshotCounters()) {
        std::cout << "  ["
                  << (c.kind == obs::CounterKind::kDeterministic ? 'D'
                                                                 : 'S')
                  << "] " << c.name << " = " << c.value << "\n";
    }
    return ok ? 0 : 1;
}
