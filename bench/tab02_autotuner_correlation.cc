/**
 * @file
 * Table 2 + Fig. 11 — the autotuning microbenchmark: per-backend
 * microbenchmark times, the backend it selects for each LM
 * configuration, and the Pearson correlation between 1/T(microbench)
 * and the full-model training throughput that justifies using the
 * microbenchmark as the selector.
 */
#include "bench_common.h"
#include "data/vocab.h"
#include "core/stats.h"
#include "layout/autotuner.h"
#include "models/word_lm.h"
#include "train/simulation.h"

using namespace echo;

namespace {

double
runDataset(const char *name, int64_t vocab, const std::string &csv_name)
{
    std::printf("--- %s (vocab %lld) ---\n", name,
                static_cast<long long>(vocab));
    Table table({"hidden", "backend", "microbench (us)",
                 "LM throughput (samp/s)", "selected"});
    std::vector<double> inv_micro;
    std::vector<double> train_thpt;
    for (const int64_t hidden : {200, 650, 1500}) {
        rnn::LstmSpec spec;
        spec.input_size = hidden;
        spec.hidden = hidden;
        spec.layers = 2;
        spec.batch = 32;
        spec.seq_len = 35;
        const layout::AutotuneResult tuned =
            layout::autotune(spec, gpusim::GpuSpec::titanXp());

        for (const rnn::RnnBackend backend :
             {rnn::RnnBackend::kDefault, rnn::RnnBackend::kCudnn,
              rnn::RnnBackend::kEco}) {
            models::WordLmConfig cfg;
            cfg.vocab = vocab;
            cfg.hidden = hidden;
            cfg.layers = 2;
            cfg.batch = 32;
            cfg.seq_len = 35;
            cfg.backend = backend;
            models::WordLmModel model(cfg);
            const auto prof = train::profileIteration(
                model.fetches(), model.weightGrads());
            const double micro = tuned.iteration_time_us.at(backend);
            const double thpt = prof.throughput(cfg.batch);
            inv_micro.push_back(1.0 / micro);
            train_thpt.push_back(thpt);
            table.addRow({std::to_string(hidden),
                          rnn::backendName(backend),
                          Table::fmt(micro, 0), Table::fmt(thpt, 0),
                          backend == tuned.best ? "<== picked" : ""});
        }
    }
    bench::emit(table, csv_name);
    return pearsonCorrelation(inv_micro, train_thpt);
}

} // namespace

int
main()
{
    bench::begin("Table 2 / Fig. 11: autotuning microbenchmark",
                 "1/T on the pure-LSTM microbenchmark predicts the "
                 "full LM training throughput, so the tuner can pick "
                 "the backend transparently before training starts.");

    const double rho_ptb =
        runDataset("PTB-scale", data::Vocab::ptb().size, "tab02_ptb");
    const double rho_wt2 = runDataset(
        "Wikitext-2-scale", data::Vocab::wikitext2().size, "tab02_wikitext2");

    Table table({"dataset", "correlation rho(1/T, throughput)",
                 "paper"});
    table.addRow({"PTB", Table::fmt(rho_ptb, 3), "0.971"});
    table.addRow({"Wikitext-2", Table::fmt(rho_wt2, 3), "0.950"});
    bench::emit(table, "tab02_correlation");
    bench::note("paper: the microbenchmark runs once (~0.1 s) before "
                "training and its runtime is highly correlated with "
                "training throughput.");
    return 0;
}
