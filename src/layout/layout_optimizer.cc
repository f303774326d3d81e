#include "layout/layout_optimizer.h"

#include "core/thread_pool.h"

namespace echo::layout {

const char *
layoutName(RnnLayout layout)
{
    return layout == RnnLayout::kTBH ? "[TxBxH]" : "[TxHxB]";
}

LayoutDecision
chooseLayoutTuned(const rnn::LstmSpec &spec, tune::Autotuner &tuner,
                  int threads)
{
    if (threads <= 0)
        threads = ThreadPool::global().numThreads();
    // The two forms of the recurrent projection: batch-major
    // multiplies [B x H] by W^T (N-transposed weights, output rows =
    // B); the transposed form multiplies [4H x H] W by X^T (output
    // rows = 4H).
    const ops::GemmKey tbh{spec.batch, 4 * spec.hidden, spec.hidden,
                           /*trans_a=*/false, /*trans_b=*/true,
                           threads};
    const ops::GemmKey thb{4 * spec.hidden, spec.batch, spec.hidden,
                           /*trans_a=*/false, /*trans_b=*/true,
                           threads};
    const tune::TuneOutcome tbh_tuned = tuner.tuneKey(tbh);
    const tune::TuneOutcome thb_tuned = tuner.tuneKey(thb);

    LayoutDecision d;
    d.tbh_time_us = tbh_tuned.best_seconds * 1e6;
    d.thb_time_us = thb_tuned.best_seconds * 1e6;
    d.layout = d.thb_time_us < d.tbh_time_us ? RnnLayout::kTHB
                                             : RnnLayout::kTBH;
    return d;
}

} // namespace echo::layout
