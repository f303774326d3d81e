/**
 * @file
 * Tests for the autotuning microbenchmark (§5.4).
 */
#include <gtest/gtest.h>

#include "layout/autotuner.h"

namespace echo::layout {
namespace {

using gpusim::GpuSpec;
using rnn::LstmSpec;
using rnn::RnnBackend;

LstmSpec
makeSpec(int64_t batch, int64_t hidden, int64_t layers = 1,
         int64_t seq_len = 50)
{
    LstmSpec s;
    s.input_size = hidden;
    s.hidden = hidden;
    s.layers = layers;
    s.batch = batch;
    s.seq_len = seq_len;
    return s;
}

TEST(Autotuner, PicksEcoOnSkewedHyperparameters)
{
    // B=64, H=512: the paper's headline case — Eco wins.
    const AutotuneResult r =
        autotune(makeSpec(64, 512), GpuSpec::titanXp());
    EXPECT_EQ(r.best, RnnBackend::kEco);
    EXPECT_EQ(r.iteration_time_us.size(), 3u);
    EXPECT_LE(r.bestTime(),
              r.iteration_time_us.at(RnnBackend::kDefault));
    EXPECT_LE(r.bestTime(),
              r.iteration_time_us.at(RnnBackend::kCudnn));
}

TEST(Autotuner, DefaultIsNeverFastestAtScale)
{
    // Fig. 20: Default loses everywhere at realistic sizes because of
    // launch overhead.
    for (int64_t batch : {32, 64, 128}) {
        for (int64_t hidden : {256, 512, 1024}) {
            const AutotuneResult r = autotune(
                makeSpec(batch, hidden), GpuSpec::titanXp());
            EXPECT_NE(r.best, RnnBackend::kDefault)
                << "B=" << batch << " H=" << hidden;
        }
    }
}

TEST(Autotuner, MicrobenchmarkTimesArePositiveAndOrdered)
{
    const AutotuneResult r =
        autotune(makeSpec(64, 512, 2), GpuSpec::titanXp());
    for (const auto &[backend, t] : r.iteration_time_us)
        EXPECT_GT(t, 0.0);
    // Larger models take longer under every backend.
    const AutotuneResult big =
        autotune(makeSpec(64, 1024, 2), GpuSpec::titanXp());
    for (const auto &[backend, t] : r.iteration_time_us)
        EXPECT_GT(big.iteration_time_us.at(backend), t);
}

TEST(Autotuner, RespondsToGpuGeneration)
{
    const AutotuneResult xp =
        autotune(makeSpec(64, 512), GpuSpec::titanXp());
    const AutotuneResult v =
        autotune(makeSpec(64, 512), GpuSpec::titanV());
    EXPECT_LT(v.bestTime(), xp.bestTime());
}

} // namespace
} // namespace echo::layout
