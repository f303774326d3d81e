/**
 * @file
 * Fig. 21 — word-level language-modeling training throughput on the
 * PTB-scale and Wikitext-2-scale configurations, across the hidden
 * sizes of MXNet's example hyperparameters, for all three backends.
 */
#include "bench_common.h"
#include "data/vocab.h"
#include "models/word_lm.h"
#include "train/simulation.h"

using namespace echo;

namespace {

void
runDataset(const char *name, int64_t vocab, const std::string &csv_name)
{
    std::printf("--- %s (vocab %lld, L=2, B=32, T=35) ---\n", name,
                static_cast<long long>(vocab));
    Table table({"hidden", "Default (samp/s)", "CuDNN (samp/s)",
                 "Eco (samp/s)", "Eco/Default", "Eco/CuDNN"});
    for (const int64_t hidden : {200, 650, 1500}) {
        double thpt[3];
        int idx = 0;
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
            thpt[idx++] = prof.throughput(cfg.batch);
        }
        table.addRow({std::to_string(hidden), Table::fmt(thpt[0], 0),
                      Table::fmt(thpt[1], 0), Table::fmt(thpt[2], 0),
                      Table::fmt(thpt[2] / thpt[0], 2) + "x",
                      Table::fmt(thpt[2] / thpt[1], 2) + "x"});
    }
    bench::emit(table, csv_name);
}

} // namespace

int
main()
{
    bench::begin("Fig. 21: word-level LM training throughput",
                 "Eco beats Default everywhere and cuDNN in most "
                 "configurations thanks to the data-layout "
                 "optimization.");
    runDataset("PTB-scale", data::Vocab::ptb().size, "fig21a_ptb");
    runDataset("Wikitext-2-scale", data::Vocab::wikitext2().size,
               "fig21b_wikitext2");
    bench::note("paper: Eco up to 2x over Default and up to 1.2x over "
                "cuDNN on the LM task; the few cuDNN wins are within "
                "20% and the autotuner falls back to cuDNN there.");
    return 0;
}
