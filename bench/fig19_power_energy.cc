/**
 * @file
 * Fig. 19 — power and energy: all configurations draw about the same
 * board power, so energy is proportional to training time and the
 * faster-converging Echo-with-big-batch run wins on energy by the same
 * factor it wins on time.  Training time is iteration time x steps to
 * the target BLEU, measured by the Fig. 12 convergence experiment.
 */
#include "bench_common.h"
#include "gpusim/power.h"
#include "toy_convergence.h"
#include "train/nmt_eval.h"

using namespace echo;
using pass::PassConfig;

int
main()
{
    bench::begin("Fig. 19: power and energy",
                 "Power is flat across configurations; energy follows "
                 "training time.");

    // Steps to the target BLEU, as Fig. 12(b) measures them: the
    // doubled batch needs fewer under linear LR scaling.
    const bench::ConvergenceSteps steps = bench::stepsToTargetBleu();

    struct Config
    {
        const char *name;
        int64_t batch;
        PassConfig::Policy policy;
        rnn::RnnBackend encoder;
        /** Training iterations to the target BLEU, relative to the
         *  baseline. */
        double relative_iterations;
    };
    const Config configs[] = {
        {"Default, B=128", 128, PassConfig::Policy::kOff,
         rnn::RnnBackend::kDefault, 1.0},
        {"EcoRNN, B=128", 128, PassConfig::Policy::kManual,
         rnn::RnnBackend::kDefault, 1.0},
        {"EcoRNN (full), B=256", 256, PassConfig::Policy::kManual,
         rnn::RnnBackend::kEco, steps.doubled / steps.baseline},
    };

    Table table({"configuration", "avg power (W)", "iter time (ms)",
                 "training time (rel)", "energy (rel)"});
    double base_time = 0.0;
    double base_energy = 0.0;
    for (const Config &c : configs) {
        models::NmtConfig cfg;
        cfg.batch = c.batch;
        cfg.encoder_backend = c.encoder;
        train::NmtEvalOptions opts;
        opts.policy = c.policy;
        const auto prof =
            train::profileNmtBucketed(cfg, train::iwsltBuckets(), opts);
        const double training_time =
            prof.mean_iteration_seconds * c.relative_iterations;
        const double energy = prof.avg_power_w * training_time;
        if (base_time == 0.0) {
            base_time = training_time;
            base_energy = energy;
        }
        table.addRow({c.name, Table::fmt(prof.avg_power_w, 0),
                      Table::fmt(prof.mean_iteration_seconds * 1e3, 1),
                      Table::fmt(training_time / base_time, 2) + "x",
                      Table::fmt(energy / base_energy, 2) + "x"});
    }
    bench::emit(table, "fig19");
    bench::note("paper: power is ~equal (nvidia-smi sampling), so the "
                "1.5x-faster Echo-256 training is 1.5x more "
                "energy-efficient.  Steps to BLEU>=60 (toy): " +
                Table::fmt(steps.baseline, 0) + " at the baseline "
                "batch, " + Table::fmt(steps.doubled, 0) +
                " at the doubled batch (the Fig. 12(b) convergence "
                "experiment).");
    return 0;
}
