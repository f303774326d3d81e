/**
 * @file
 * Tests of the GEMM schedule space: schedule legality, the bitwise
 * contract (every legal schedule byte-identical to gemmReference,
 * across micro-tiles, packing modes, loop orders, parallel axes, and
 * thread counts), candidate enumeration, and the measurement harness.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "obs/counters.h"
#include "tensor/ops.h"
#include "tune/measure.h"
#include "tune/search_space.h"

namespace echo::tune {
namespace {

class TuneTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        ThreadPool::setGlobalNumThreads(ThreadPool::defaultNumThreads());
    }
};

/** Byte equality with a useful failure message. */
::testing::AssertionResult
bytesEqual(const Tensor &want, const Tensor &got)
{
    if (!(want.shape() == got.shape()))
        return ::testing::AssertionFailure()
               << "shape " << got.shape().toString() << " != "
               << want.shape().toString();
    if (std::memcmp(want.data(), got.data(),
                    static_cast<size_t>(want.shape().bytes())) != 0) {
        for (int64_t i = 0; i < want.shape().numel(); ++i)
            if (want.data()[i] != got.data()[i])
                return ::testing::AssertionFailure()
                       << "first byte difference at flat index " << i
                       << ": " << want.data()[i] << " vs "
                       << got.data()[i];
        return ::testing::AssertionFailure() << "memcmp != 0";
    }
    return ::testing::AssertionSuccess();
}

std::pair<Tensor, Tensor>
operands(int64_t m, int64_t n, int64_t k, bool ta, bool tb,
         uint64_t seed)
{
    Rng rng(seed);
    return {Tensor::uniform(ta ? Shape({k, m}) : Shape({m, k}), rng),
            Tensor::uniform(tb ? Shape({n, k}) : Shape({k, n}), rng)};
}

// ------------------------------------------------------- legality --

TEST_F(TuneTest, FixedDefaultIsLegal)
{
    std::string why;
    EXPECT_TRUE(ops::scheduleLegal(ops::GemmSchedule::fixedDefault(),
                                   false, &why))
        << why;
    EXPECT_TRUE(ops::scheduleLegal(ops::GemmSchedule::fixedDefault(),
                                   true, &why))
        << why;
}

TEST_F(TuneTest, IllegalSchedulesAreNamed)
{
    std::string why;
    ops::GemmSchedule s;

    s.mr = 3; // not a compiled micro-tile
    EXPECT_FALSE(ops::scheduleLegal(s, false, &why));
    EXPECT_NE(why.find("micro-tile"), std::string::npos) << why;

    s = {};
    s.mc = 60; // not a multiple of mr=8
    EXPECT_FALSE(ops::scheduleLegal(s, false, &why));
    EXPECT_NE(why.find("mc"), std::string::npos) << why;

    s = {};
    s.kc = ops::kGemmMaxKc + 1;
    EXPECT_FALSE(ops::scheduleLegal(s, false, &why));
    EXPECT_NE(why.find("kc"), std::string::npos) << why;

    s = {};
    s.pack_b = ops::GemmPackB::kDirect;
    EXPECT_TRUE(ops::scheduleLegal(s, false, &why)) << why;
    EXPECT_FALSE(ops::scheduleLegal(s, true, &why));
    EXPECT_NE(why.find("directB"), std::string::npos) << why;
}

TEST_F(TuneTest, GemmWithIllegalScheduleDies)
{
    const auto [a, b] = operands(4, 4, 4, false, true, 1);
    ops::GemmSchedule s;
    s.pack_b = ops::GemmPackB::kDirect; // illegal for trans_b
    EXPECT_DEATH(
        (void)ops::gemmWithSchedule(a, false, b, true, 1.0f, s),
        "directB");
}

TEST_F(TuneTest, RandomLegalSchedulesAreLegal)
{
    Rng rng(7);
    for (int i = 0; i < 200; ++i) {
        const bool tb = rng.uniformInt(2) != 0;
        const ops::GemmSchedule s = randomLegalSchedule(rng, tb, 4);
        std::string why;
        EXPECT_TRUE(ops::scheduleLegal(s, tb, &why))
            << s.toString() << ": " << why;
    }
}

// ------------------------------------------- the bitwise contract --

/**
 * The acceptance sweep: every (M, N, K) in {1,7,8,9,15,16,17,63,65}^3
 * under all four transpose combos, byte-compared against
 * gemmReference under 1-, 2-, and 4-thread pools.  The reference is
 * computed once per geometry; the tail extents straddle every
 * micro-tile and block boundary of the default schedule.
 */
TEST_F(TuneTest, TailShapesMatchReferenceAcrossThreadCounts)
{
    const int64_t extents[] = {1, 7, 8, 9, 15, 16, 17, 63, 65};
    // Exercise the parallel paths even at tiny sizes.
    ops::GemmSchedule par = ops::GemmSchedule::fixedDefault();
    par.parallel_min_madds = 0;
    for (const int64_t m : extents)
        for (const int64_t n : extents)
            for (const int64_t k : extents)
                for (int combo = 0; combo < 4; ++combo) {
                    const bool ta = (combo & 2) != 0;
                    const bool tb = (combo & 1) != 0;
                    const auto [a, b] =
                        operands(m, n, k, ta, tb,
                                 static_cast<uint64_t>(
                                     (m * 73 + n) * 73 + k + combo));
                    const Tensor want =
                        ops::gemmReference(a, ta, b, tb);
                    for (const int threads : {1, 2, 4}) {
                        ThreadPool::setGlobalNumThreads(threads);
                        ASSERT_TRUE(bytesEqual(
                            want, ops::gemmWithSchedule(a, ta, b, tb,
                                                        1.0f, par)))
                            << m << "x" << n << "x" << k << " combo "
                            << combo << " threads " << threads;
                    }
                }
}

/** Handwritten schedule corners: multi-panel kc, direct B, every
 *  micro-tile row count, column parallelism, K-outer order. */
TEST_F(TuneTest, ScheduleVariantsMatchReference)
{
    struct Case
    {
        const char *what;
        ops::GemmSchedule s;
        bool tb;
    };
    std::vector<Case> cases;
    auto add = [&cases](const char *what, bool tb,
                        auto mutate) {
        ops::GemmSchedule s;
        s.parallel_min_madds = 0;
        mutate(s);
        cases.push_back({what, s, tb});
    };
    add("kc splits K into panels", false,
        [](ops::GemmSchedule &s) { s.kc = 16; });
    add("kc=1 degenerate panels", true,
        [](ops::GemmSchedule &s) { s.kc = 1; });
    add("direct B", false,
        [](ops::GemmSchedule &s) { s.pack_b = ops::GemmPackB::kDirect; });
    add("mr=1", false, [](ops::GemmSchedule &s) {
        s.mr = 1;
        s.mc = 7;
    });
    add("mr=2 nr=32", true, [](ops::GemmSchedule &s) {
        s.mr = 2;
        s.nr = 32;
        s.mc = 6;
        s.nc = 64;
    });
    add("mr=4 nr=8", false, [](ops::GemmSchedule &s) {
        s.mr = 4;
        s.nr = 8;
        s.mc = 12;
        s.nc = 24;
    });
    add("column parallel", false, [](ops::GemmSchedule &s) {
        s.parallel = ops::GemmParallel::kCols;
        s.nc = 16;
    });
    add("K-outer order", false, [](ops::GemmSchedule &s) {
        s.loop_order = ops::GemmLoopOrder::kKOuter;
        s.kc = 24;
    });
    add("K-outer + direct B + cols", false, [](ops::GemmSchedule &s) {
        s.loop_order = ops::GemmLoopOrder::kKOuter;
        s.pack_b = ops::GemmPackB::kDirect;
        s.parallel = ops::GemmParallel::kCols;
        s.kc = 10;
        s.nc = 16;
    });

    const int64_t m = 37, n = 53, k = 41;
    for (const Case &c : cases) {
        std::string why;
        ASSERT_TRUE(ops::scheduleLegal(c.s, c.tb, &why))
            << c.what << ": " << why;
        const auto [a, b] = operands(m, n, k, false, c.tb, 99);
        const Tensor want = ops::gemmReference(a, false, b, c.tb);
        for (const int threads : {1, 2, 4}) {
            ThreadPool::setGlobalNumThreads(threads);
            ASSERT_TRUE(bytesEqual(
                want,
                ops::gemmWithSchedule(a, false, b, c.tb, 1.0f, c.s)))
                << c.what << " threads " << threads;
        }
    }
}

TEST_F(TuneTest, AlphaScalingMatchesReference)
{
    const auto [a, b] = operands(17, 23, 9, false, false, 3);
    ops::GemmSchedule s;
    s.kc = 4;
    const Tensor want = ops::gemmReference(a, false, b, false, 0.25f);
    ASSERT_TRUE(bytesEqual(
        want, ops::gemmWithSchedule(a, false, b, false, 0.25f, s)));
}

TEST_F(TuneTest, BmmMatchesPerItemGemmUnderAnySchedule)
{
    Rng rng(11);
    const int64_t batch = 3, m = 9, n = 17, k = 5;
    const Tensor a = Tensor::uniform(Shape({batch, m, k}), rng);
    const Tensor b = Tensor::uniform(Shape({batch, k, n}), rng);
    ops::GemmSchedule s;
    s.mr = 2;
    s.nr = 8;
    s.mc = 4;
    s.nc = 16;
    s.kc = 3;
    s.parallel_min_madds = 0;
    s.batch_parallel = 1;
    for (const int threads : {1, 2, 4}) {
        ThreadPool::setGlobalNumThreads(threads);
        const Tensor out = ops::bmmWithSchedule(a, false, b, false, s);
        for (int64_t i = 0; i < batch; ++i) {
            const Tensor ai = ops::slice(a, 0, i, i + 1);
            const Tensor bi = ops::slice(b, 0, i, i + 1);
            const Tensor want = ops::gemmReference(
                Tensor(Shape({m, k}),
                       std::vector<float>(ai.data(),
                                          ai.data() + m * k)),
                false,
                Tensor(Shape({k, n}),
                       std::vector<float>(bi.data(),
                                          bi.data() + k * n)),
                false);
            EXPECT_EQ(std::memcmp(want.data(),
                                  out.data() + i * m * n,
                                  static_cast<size_t>(m * n) * 4),
                      0)
                << "batch item " << i << " threads " << threads;
        }
    }
}

// --------------------------------------------------- search space --

TEST_F(TuneTest, CandidatesAreLegalDedupedAndIncludeFixed)
{
    const ops::GemmKey key{32, 10000, 650, false, true, 1};
    const auto candidates = enumerateCandidates(key, 16);
    ASSERT_LE(candidates.size(), 17u); // 16 + possibly appended fixed
    bool have_fixed = false;
    for (size_t i = 0; i < candidates.size(); ++i) {
        std::string why;
        EXPECT_TRUE(
            ops::scheduleLegal(candidates[i].schedule, key.trans_b, &why))
            << candidates[i].schedule.toString() << ": " << why;
        if (candidates[i].schedule == ops::GemmSchedule::fixedDefault())
            have_fixed = true;
        for (size_t j = i + 1; j < candidates.size(); ++j)
            EXPECT_FALSE(candidates[i].schedule ==
                         candidates[j].schedule)
                << "duplicate candidate "
                << candidates[i].schedule.toString();
    }
    EXPECT_TRUE(have_fixed);
}

TEST_F(TuneTest, SingleThreadKeyEnumeratesNoParallelSchedules)
{
    // The fixed default is always appended (it carries kRows, gated
    // by its madds threshold); every *enumerated* candidate must be
    // serial for a single-thread key.
    for (const auto &c :
         enumerateCandidates({64, 64, 64, false, false, 1}, 32)) {
        if (c.schedule == ops::GemmSchedule::fixedDefault())
            continue;
        EXPECT_EQ(c.schedule.parallel, ops::GemmParallel::kNone)
            << c.schedule.toString();
    }
}

/** Every candidate the search space offers for a shape — the set
 *  bench/gemm_autotune measures — is byte-identical to the reference
 *  under 1-, 2- and 4-thread pools.  (Gemm.BitIdenticalAcrossThreadCounts
 *  covers ops::gemm's fixed default.) */
TEST_F(TuneTest, TunedResultsAreByteIdenticalAcrossThreadCounts)
{
    const ops::GemmKey key{33, 65, 40, false, false, 4};
    const auto [a, b] =
        operands(key.m, key.n, key.k, key.trans_a, key.trans_b, 21);
    const Tensor want = ops::gemmReference(a, false, b, false);
    for (const ScoredSchedule &c : enumerateCandidates(key, 6))
        for (const int threads : {1, 2, 4}) {
            ThreadPool::setGlobalNumThreads(threads);
            ASSERT_TRUE(bytesEqual(
                want, ops::gemmWithSchedule(a, false, b, false, 1.0f,
                                            c.schedule)))
                << c.schedule.toString() << " threads " << threads;
        }
}

TEST_F(TuneTest, MeasureScheduleTicksCounter)
{
    obs::Counter &measure_runs = obs::counter(
        "tune.measure_runs", obs::CounterKind::kScheduling);
    const int64_t before = measure_runs.value();
    const Measurement m = measureSchedule(
        {8, 8, 8, false, false, 1}, ops::GemmSchedule::fixedDefault(),
        /*warmup=*/0, /*reps=*/3);
    EXPECT_EQ(measure_runs.value(), before + 3);
    EXPECT_GT(m.seconds, 0.0);
    EXPECT_EQ(m.timed_runs, 3);
}

} // namespace
} // namespace echo::tune
