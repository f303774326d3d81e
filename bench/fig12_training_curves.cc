/**
 * @file
 * Fig. 12 — training curves.
 *
 * (a) Training perplexity versus global step for Default, Default with
 *     the Echo pass, and the Eco backend: the three curves coincide
 *     (the pass is bit-exact; the fused backend differs only in
 *     floating-point summation order).
 * (b) Validation BLEU versus modelled wall-clock: the larger batch the
 *     footprint reduction enables reaches the target BLEU in fewer
 *     iterations, and each iteration's wall-clock comes from the
 *     paper-scale GPU profile of the corresponding configuration.
 *
 * Numerics run the toy synthetic-translation task (learnable by the
 * attention model); wall-clock stamps come from the paper-scale
 * bucketed NMT profiles, composing real convergence behaviour with
 * modelled hardware time exactly as DESIGN.md describes.
 */
#include "bench_common.h"
#include "echo/recompute_pass.h"
#include "toy_convergence.h"
#include "train/nmt_eval.h"

using namespace echo;
using bench::RunResult;
using bench::toyConfig;
using bench::trainToy;

int
main()
{
    bench::begin("Fig. 12(a): training perplexity vs global step",
                 "Default, Default+EchoPass, and the Eco backend have "
                 "coinciding training curves.");

    const int64_t part_a_steps = 150;
    models::NmtModel default_model(toyConfig(32));
    models::NmtModel pass_model(toyConfig(32));
    {
        pass::PassConfig pc;
        pc.overhead_budget_fraction = -1.0;
        pass::runRecomputePass(pass_model.graph(), pass_model.fetches(),
                               pc);
    }
    models::NmtConfig eco_cfg = toyConfig(32);
    eco_cfg.encoder_backend = rnn::RnnBackend::kEco;
    models::NmtModel eco_model(eco_cfg);

    const RunResult r_default =
        trainToy(default_model, part_a_steps, 0.0, 1);
    const RunResult r_pass = trainToy(pass_model, part_a_steps, 0.0, 1);
    const RunResult r_eco = trainToy(eco_model, part_a_steps, 0.0, 1);

    Table curves({"step", "ppl Default", "ppl Default+pass",
                  "ppl Eco backend"});
    double max_pass_diff = 0.0, max_eco_diff = 0.0;
    for (size_t i = 0; i < r_default.losses.size(); ++i) {
        max_pass_diff =
            std::max(max_pass_diff,
                     std::abs(r_default.losses[i] - r_pass.losses[i]));
        max_eco_diff =
            std::max(max_eco_diff,
                     std::abs(r_default.losses[i] - r_eco.losses[i]));
        if ((i + 1) % 30 == 0 || i == 0) {
            curves.addRow(
                {std::to_string(i + 1),
                 Table::fmt(train::perplexity(r_default.losses[i]), 2),
                 Table::fmt(train::perplexity(r_pass.losses[i]), 2),
                 Table::fmt(train::perplexity(r_eco.losses[i]), 2)});
        }
    }
    bench::emit(curves, "fig12a_curves");
    bench::note("max |loss(Default) - loss(Default+pass)| = " +
                Table::fmt(max_pass_diff, 9) + " (bit-exact rewrite)");
    bench::note("max |loss(Default) - loss(Eco backend)| = " +
                Table::fmt(max_eco_diff, 6) +
                " (fused summation order only)");
    bench::note("paper: the three curves are 'almost completely "
                "overlapping'.");

    bench::begin("Fig. 12(b): validation BLEU vs modelled wall-clock",
                 "The larger batch converges in fewer steps; each "
                 "step's duration comes from the paper-scale profile.");

    // Steps to target BLEU on the toy task.
    const bench::ConvergenceSteps steps = bench::stepsToTargetBleu();

    // Paper-scale per-iteration times for the matching configurations;
    // the batch-256 row is the full EcoRNN system (layout-optimized
    // encoder + recomputation pass), as in Fig. 15.
    auto iter_seconds = [](int64_t batch,
                           pass::PassConfig::Policy policy,
                           rnn::RnnBackend encoder) {
        models::NmtConfig cfg;
        cfg.batch = batch;
        cfg.encoder_backend = encoder;
        train::NmtEvalOptions opts;
        opts.policy = policy;
        return train::profileNmtBucketed(cfg, train::iwsltBuckets(),
                                         opts)
            .mean_iteration_seconds;
    };
    const double sec_default_128 =
        iter_seconds(128, pass::PassConfig::Policy::kOff,
                     rnn::RnnBackend::kDefault);
    const double sec_eco_128 =
        iter_seconds(128, pass::PassConfig::Policy::kManual,
                     rnn::RnnBackend::kDefault);
    const double sec_eco_256 =
        iter_seconds(256, pass::PassConfig::Policy::kManual,
                     rnn::RnnBackend::kEco);

    const double steps_small = steps.baseline;
    const double steps_big = steps.doubled;

    Table conv({"configuration", "steps to BLEU>=60 (toy)",
                "paper-scale s/iter", "training time (rel)"});
    const double base_time = steps_small * sec_default_128;
    conv.addRow({"Default, B=128", Table::fmt(steps_small, 0),
                 Table::fmt(sec_default_128 * 1e3, 1) + " ms", "1.00x"});
    conv.addRow({"EcoRNN, B=128 (identical numerics)",
                 Table::fmt(steps_small, 0),
                 Table::fmt(sec_eco_128 * 1e3, 1) + " ms",
                 Table::fmt(steps_small * sec_eco_128 / base_time, 2) +
                     "x"});
    conv.addRow({"EcoRNN, B=256 (2x batch)", Table::fmt(steps_big, 0),
                 Table::fmt(sec_eco_256 * 1e3, 1) + " ms",
                 Table::fmt(steps_big * sec_eco_256 / base_time, 2) +
                     "x"});
    bench::emit(conv, "fig12b_convergence");
    bench::note("paper: EcoRNN B=128 finishes in 0.96x the baseline "
                "time; EcoRNN B=256 in 0.67x (1.5x faster), because "
                "the doubled batch needs fewer steps to the target "
                "BLEU and throughput is 1.3x.");
    return 0;
}
