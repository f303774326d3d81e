/**
 * @file
 * The toy synthetic-translation convergence experiment shared by
 * Fig. 12 (training curves, steps to the target BLEU) and Fig. 19
 * (energy = power x training time, where training time scales with
 * those steps).  Header-only like bench_common.h.
 */
#ifndef ECHO_BENCH_TOY_CONVERGENCE_H
#define ECHO_BENCH_TOY_CONVERGENCE_H

#include <optional>

#include "data/batcher.h"
#include "graph/executor.h"
#include "models/nmt.h"
#include "train/metrics.h"
#include "train/optimizer.h"

namespace echo::bench {

inline models::NmtConfig
toyConfig(int64_t batch)
{
    models::NmtConfig cfg;
    cfg.src_vocab = 44;
    cfg.tgt_vocab = 44;
    cfg.hidden = 48;
    cfg.batch = batch;
    cfg.src_len = 8;
    cfg.tgt_len = 8;
    return cfg;
}

inline data::ParallelCorpus
toyCorpus(uint64_t seed)
{
    data::ParallelCorpusConfig pcc;
    pcc.src_vocab = data::Vocab{44};
    pcc.tgt_vocab = data::Vocab{44};
    pcc.num_pairs = 2048;
    pcc.min_len = 3;
    pcc.max_len = 6;
    pcc.zipf_s = 0.7;
    pcc.seed = seed;
    return data::ParallelCorpus::generate(pcc);
}

/** Train one configuration; returns per-step losses and (optionally)
 *  the step at which held-out BLEU first reaches @p bleu_target. */
struct RunResult
{
    std::vector<double> losses;
    std::optional<int64_t> steps_to_target;
};

inline RunResult
trainToy(models::NmtModel &model, int64_t iterations,
         double bleu_target, int64_t eval_every)
{
    const int64_t batch = model.config().batch;
    const data::ParallelCorpus corpus = toyCorpus(33);
    data::NmtBatcher batcher(corpus, batch, 8, 8);

    Rng rng(9);
    models::ParamStore params = model.initialParams(rng);
    // Linear learning-rate scaling with batch size (Smith et al.,
    // which the paper cites for its large-batch convergence argument).
    train::AdamOptimizer opt(5e-3 * static_cast<double>(batch) / 16.0);
    graph::Executor ex(model.fetches());

    // Held-out references for BLEU.
    const data::ParallelCorpus held = toyCorpus(77);
    data::NmtBatcher held_batcher(held, batch, 8, 8);
    const data::NmtBatch held_batch = held_batcher.next();
    std::vector<std::vector<int64_t>> refs;
    for (int64_t r = 0; r < batch; ++r) {
        std::vector<int64_t> ref;
        for (int64_t t = 0; t < 8; ++t) {
            const float l = held_batch.tgt_labels.at(r * 8 + t);
            if (l >= static_cast<float>(data::Vocab::kFirstWord))
                ref.push_back(static_cast<int64_t>(l));
        }
        refs.push_back(std::move(ref));
    }

    RunResult result;
    for (int64_t step = 1; step <= iterations; ++step) {
        const data::NmtBatch batch_data = batcher.next();
        const auto out = ex.run(model.makeFeed(params, batch_data));
        result.losses.push_back(out[0].at(0));
        std::vector<Tensor> grads(out.begin() + 1, out.end());
        opt.step(params, model.weights(), grads);

        if (bleu_target > 0.0 && step % eval_every == 0 &&
            !result.steps_to_target) {
            const auto hyp =
                model.greedyDecode(params, held_batch.src, 8);
            if (train::corpusBleu(hyp, refs) >= bleu_target) {
                result.steps_to_target = step;
                break;
            }
        }
    }
    return result;
}


/** Steps to BLEU >= 60 on the toy task (Fig. 12(b)): the baseline
 *  batch (16, standing in for the paper's 128) and the doubled batch
 *  (32, for 256), each capped at 1400 steps. */
struct ConvergenceSteps
{
    double baseline = 0.0;
    double doubled = 0.0;
};

inline ConvergenceSteps
stepsToTargetBleu()
{
    const double target_bleu = 60.0;
    const int64_t max_steps = 1400;
    models::NmtModel small_model(toyConfig(16));
    models::NmtModel big_model(toyConfig(32));
    const RunResult conv_small =
        trainToy(small_model, max_steps, target_bleu, 20);
    const RunResult conv_big =
        trainToy(big_model, max_steps, target_bleu, 20);
    return {static_cast<double>(
                conv_small.steps_to_target.value_or(max_steps)),
            static_cast<double>(
                conv_big.steps_to_target.value_or(max_steps))};
}

} // namespace echo::bench

#endif // ECHO_BENCH_TOY_CONVERGENCE_H
