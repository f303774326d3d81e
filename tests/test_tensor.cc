/**
 * @file
 * Tests for the tensor library: shapes, storage semantics, and every op
 * against hand-computed or reference results, including TEST_P sweeps
 * over GEMM transpose combinations; plus the persistent packed-weight
 * cache (hits, version-bump invalidation, address reuse, a training
 * iteration's pack set) and the PackScratch shrink policy; and the
 * vectorized exp / tanh / sigmoid against std:: (ulp bounds, special
 * values, vector lanes vs scalar tails, fused vs unfused).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "data/batcher.h"
#include "graph/executor.h"
#include "graph/ops/op_fused_elementwise.h"
#include "models/word_lm.h"
#include "tensor/ops.h"
#include "tensor/pack_cache.h"
#include "tensor/pack_scratch.h"
#include "tensor/tensor.h"
#include "tensor/vec_math.h"

namespace echo {
namespace {

TEST(Shape, Basics)
{
    Shape s({2, 3, 4});
    EXPECT_EQ(s.ndim(), 3);
    EXPECT_EQ(s.numel(), 24);
    EXPECT_EQ(s.bytes(), 96);
    EXPECT_EQ(s.dim(-1), 4);
    EXPECT_EQ(s.toString(), "[2x3x4]");
}

TEST(Shape, DropAndInsertAxis)
{
    Shape s({2, 3, 4});
    EXPECT_EQ(s.dropAxis(1), Shape({2, 4}));
    EXPECT_EQ(s.insertAxis(0, 7), Shape({7, 2, 3, 4}));
    EXPECT_EQ(s.insertAxis(3, 7), Shape({2, 3, 4, 7}));
}

TEST(Shape, Equality)
{
    EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
    EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
}

TEST(Tensor, ZerosAndFill)
{
    Tensor t = Tensor::zeros(Shape({2, 2}));
    EXPECT_DOUBLE_EQ(t.sum(), 0.0);
    EXPECT_DOUBLE_EQ(Tensor(Shape({5})).sum(), 0.0);
    EXPECT_DOUBLE_EQ(Tensor(Shape({4}), 1.5f).sum(), 6.0);
    t.fill(2.5f);
    EXPECT_DOUBLE_EQ(t.sum(), 10.0);
}

TEST(Tensor, ReshapeSharesStorage)
{
    Tensor t = Tensor::zeros(Shape({2, 3}));
    Tensor r = t.reshape(Shape({3, 2}));
    r.at(0) = 5.0f;
    EXPECT_FLOAT_EQ(t.at(0), 5.0f);
}

TEST(Tensor, CloneIsDeep)
{
    Tensor t = Tensor::full(Shape({2}), 1.0f);
    Tensor c = t.clone();
    c.at(0) = 9.0f;
    EXPECT_FLOAT_EQ(t.at(0), 1.0f);
}

TEST(Tensor, UniformMatchesPerElementRngStream)
{
    // Tensor::uniform fills in one loop; it must draw the exact stream
    // and values of one Rng::uniform(lo, hi) call per element, and
    // leave the generator where those calls would.
    for (const float lo : {-2.0f, -0.1f, 0.0f}) {
        const float hi = lo + 3.25f;
        Rng fill_rng(0xEC40F5ED), ref_rng(0xEC40F5ED);
        const Tensor t = Tensor::uniform(Shape({37, 5}), fill_rng, lo, hi);
        std::vector<float> want(static_cast<size_t>(t.numel()));
        for (float &v : want)
            v = static_cast<float>(ref_rng.uniform(lo, hi));
        EXPECT_EQ(std::memcmp(t.data(), want.data(),
                              want.size() * sizeof(float)),
                  0);
        EXPECT_EQ(fill_rng.next(), ref_rng.next());
    }
}

TEST(Tensor, AllFiniteDetectsNan)
{
    Tensor t = Tensor::zeros(Shape({3}));
    EXPECT_TRUE(t.allFinite());
    t.at(1) = std::nanf("");
    EXPECT_FALSE(t.allFinite());
}

TEST(Tensor, MultiDimAccess)
{
    Tensor t = Tensor::zeros(Shape({2, 3, 4}));
    t.at(1, 2, 3) = 7.0f;
    EXPECT_FLOAT_EQ(t.at(1 * 12 + 2 * 4 + 3), 7.0f);
}

// ----------------------------------------------------------------------
// GEMM: all four transpose combinations against a naive reference.
// ----------------------------------------------------------------------

class GemmTransposes
    : public ::testing::TestWithParam<std::tuple<bool, bool>>
{
};

TEST_P(GemmTransposes, MatchesNaiveReference)
{
    const auto [ta, tb] = GetParam();
    const int64_t m = 3, n = 5, k = 4;
    Rng rng(17);
    Tensor a = Tensor::uniform(ta ? Shape({k, m}) : Shape({m, k}), rng,
                               -1.0f, 1.0f);
    Tensor b = Tensor::uniform(tb ? Shape({n, k}) : Shape({k, n}), rng,
                               -1.0f, 1.0f);
    Tensor c = ops::gemm(a, ta, b, tb);
    ASSERT_EQ(c.shape(), Shape({m, n}));
    for (int64_t i = 0; i < m; ++i)
        for (int64_t j = 0; j < n; ++j) {
            double ref = 0.0;
            for (int64_t p = 0; p < k; ++p) {
                const float av = ta ? a.at(p, i) : a.at(i, p);
                const float bv = tb ? b.at(j, p) : b.at(p, j);
                ref += av * bv;
            }
            EXPECT_NEAR(c.at(i, j), ref, 1e-4);
        }
}

INSTANTIATE_TEST_SUITE_P(AllCombos, GemmTransposes,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

TEST(Gemm, MathematicallyEquivalentLayouts)
{
    // The paper's Fig. 9 setup: Y = X W^T must equal (W X^T)^T exactly.
    Rng rng(3);
    Tensor x = Tensor::uniform(Shape({8, 16}), rng, -1.0f, 1.0f);
    Tensor w = Tensor::uniform(Shape({32, 16}), rng, -1.0f, 1.0f);
    Tensor y1 = ops::gemm(x, false, w, true);           // [8x32]
    Tensor y2t = ops::gemm(w, false, x, true);          // [32x8]
    Tensor y2 = ops::transpose2d(y2t);
    ASSERT_EQ(y1.shape(), y2.shape());
    for (int64_t i = 0; i < y1.numel(); ++i)
        EXPECT_NEAR(y1.at(i), y2.at(i), 1e-4);
}

TEST(Gemm, RejectsMismatchedInner)
{
    Tensor a = Tensor::zeros(Shape({2, 3}));
    Tensor b = Tensor::zeros(Shape({4, 5}));
    EXPECT_DEATH({ ops::gemm(a, false, b, false); }, "");
}

TEST(Bmm, BatchesIndependently)
{
    Rng rng(5);
    Tensor a = Tensor::uniform(Shape({2, 3, 4}), rng);
    Tensor b = Tensor::uniform(Shape({2, 4, 5}), rng);
    Tensor c = ops::bmm(a, false, b, false);
    ASSERT_EQ(c.shape(), Shape({2, 3, 5}));
    for (int64_t bi = 0; bi < 2; ++bi) {
        Tensor ab = ops::slice(a, 0, bi, bi + 1).reshape(Shape({3, 4}));
        Tensor bb = ops::slice(b, 0, bi, bi + 1).reshape(Shape({4, 5}));
        Tensor ref = ops::gemm(ab, false, bb, false);
        for (int64_t i = 0; i < 15; ++i)
            EXPECT_NEAR(c.at(bi * 15 + i), ref.at(i), 1e-5);
    }
}

// ----------------------------------------------------------------------
// Element-wise and broadcast ops
// ----------------------------------------------------------------------

TEST(Elementwise, AddSubMul)
{
    Tensor a(Shape({3}), {1, 2, 3});
    Tensor b(Shape({3}), {4, 5, 6});
    EXPECT_FLOAT_EQ(ops::add(a, b).at(1), 7.0f);
    EXPECT_FLOAT_EQ(ops::sub(a, b).at(1), -3.0f);
    EXPECT_FLOAT_EQ(ops::mul(a, b).at(1), 10.0f);
}

TEST(Elementwise, Activations)
{
    Tensor x(Shape({3}), {-1.0f, 0.0f, 1.0f});
    EXPECT_NEAR(ops::tanh(x).at(0), std::tanh(-1.0f), 1e-6);
    EXPECT_NEAR(ops::sigmoid(x).at(2), 1.0f / (1.0f + std::exp(-1.0f)),
                1e-6);
    EXPECT_FLOAT_EQ(ops::relu(x).at(0), 0.0f);
    EXPECT_FLOAT_EQ(ops::relu(x).at(2), 1.0f);
    EXPECT_FLOAT_EQ(ops::negate(x).at(2), -1.0f);
}

TEST(Elementwise, BiasAndReduce)
{
    Tensor x(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
    Tensor b(Shape({3}), {10, 20, 30});
    Tensor y = ops::addBias(x, b);
    EXPECT_FLOAT_EQ(y.at(1, 2), 36.0f);
    Tensor s = ops::sumToBias(y, 3);
    EXPECT_FLOAT_EQ(s.at(0), 1 + 4 + 20.0f);
}

// ----------------------------------------------------------------------
// Vectorized exp / tanh / sigmoid (tensor/vec_math.h), with std:: as
// the reference
// ----------------------------------------------------------------------

/** Distance in ulps between two non-NaN floats of any sign. */
int64_t
ulpDistance(float a, float b)
{
    auto key = [](float f) {
        const int64_t i = std::bit_cast<int32_t>(f);
        return i < 0 ? int64_t(INT32_MIN) - i : i;
    };
    return std::llabs(key(a) - key(b));
}

struct SweepError
{
    int64_t max_ulp = 0;
    double max_abs = 0.0;
};

/**
 * Worst error of @p f against the float-rounded double reference
 * @p ref over every 1021st float bit pattern.  A reference below
 * FLT_MIN (where vec::exp flushes to zero) must be matched within
 * FLT_MIN instead of in ulps.
 */
template <typename F, typename R>
SweepError
sweepAgainstStd(F f, R ref)
{
    SweepError worst;
    for (uint64_t b = 0; b <= 0xffffffffu; b += 1021) {
        const float x = std::bit_cast<float>(static_cast<uint32_t>(b));
        if (std::isnan(x))
            continue;
        const float want = ref(x);
        const float got = f(x);
        if (std::fabs(want) < FLT_MIN) {
            EXPECT_LE(std::fabs(got - want), FLT_MIN) << "x=" << x;
            continue;
        }
        worst.max_ulp = std::max(worst.max_ulp, ulpDistance(got, want));
        if (std::isfinite(want))
            worst.max_abs = std::max(
                worst.max_abs,
                std::fabs(static_cast<double>(got) - want));
    }
    return worst;
}

TEST(VecMath, WithinUlpBoundsOfStdOverStridedBitPatterns)
{
    const SweepError e = sweepAgainstStd(
        [](float x) { return vec::exp(x); },
        [](float x) { return static_cast<float>(std::exp(double(x))); });
    EXPECT_LE(e.max_ulp, 1);
    const SweepError t = sweepAgainstStd(
        [](float x) { return vec::tanh(x); },
        [](float x) { return static_cast<float>(std::tanh(double(x))); });
    EXPECT_LE(t.max_ulp, 7);
    EXPECT_LE(t.max_abs, 4.2e-7);
    const SweepError s = sweepAgainstStd(
        [](float x) { return vec::sigmoid(x); },
        [](float x) {
            return static_cast<float>(1.0 / (1.0 + std::exp(-double(x))));
        });
    EXPECT_LE(s.max_ulp, 2);
}

TEST(VecMath, SpecialValuesAreExact)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    EXPECT_TRUE(std::isnan(vec::exp(nan)));
    EXPECT_EQ(vec::exp(inf), inf);
    EXPECT_EQ(vec::exp(-inf), 0.0f);
    EXPECT_EQ(vec::exp(0.0f), 1.0f);
    EXPECT_EQ(vec::exp(-0.0f), 1.0f);
    EXPECT_EQ(vec::exp(89.0f), inf);
    EXPECT_TRUE(std::isfinite(vec::exp(88.72283f)));
    // Every input below ln(FLT_MIN) gives exactly 0, never a subnormal.
    const float ln_min = static_cast<float>(std::log(double(FLT_MIN)));
    for (float x = std::nextafter(ln_min, -inf); x > -200.0f;
         x = x * 1.001f - 1e-3f) {
        ASSERT_LT(double(x), std::log(double(FLT_MIN)));
        EXPECT_EQ(std::bit_cast<uint32_t>(vec::exp(x)), 0u) << x;
    }
    EXPECT_GE(vec::exp(std::nextafter(ln_min, 0.0f)), FLT_MIN * 0.99f);

    EXPECT_EQ(vec::tanh(inf), 1.0f);
    EXPECT_EQ(vec::tanh(-inf), -1.0f);
    EXPECT_EQ(vec::tanh(0.0f), 0.0f);
    EXPECT_TRUE(std::signbit(vec::tanh(-0.0f)));
    EXPECT_EQ(vec::tanh(-0.0f), 0.0f);
    EXPECT_TRUE(std::isnan(vec::tanh(nan)));
    EXPECT_EQ(vec::tanh(1e-30f), 1e-30f);

    EXPECT_EQ(vec::sigmoid(-inf), 0.0f);
    EXPECT_EQ(vec::sigmoid(inf), 1.0f);
    EXPECT_EQ(vec::sigmoid(0.0f), 0.5f);
    EXPECT_TRUE(std::isnan(vec::sigmoid(nan)));

    // A non-finite logit still gives a non-finite loss.
    Tensor logits(Shape({2, 3}), {0.5f, nan, 1.0f, 0.0f, 1.0f, 2.0f});
    Tensor labels(Shape({2}), {0.0f, 1.0f});
    EXPECT_FALSE(ops::crossEntropy(logits, labels).allFinite());
    logits.at(1) = inf;
    EXPECT_FALSE(ops::crossEntropy(logits, labels).allFinite());
}

/**
 * Inputs of length @p n mixing ordinary values and special ones, the
 * specials at indices @p first, first + 7, ...
 */
Tensor
laneInputs(int64_t n, float lo, float hi, uint64_t seed,
           int64_t first = 5)
{
    Rng rng(seed);
    Tensor x = Tensor::uniform(Shape({n}), rng, lo, hi);
    const float specials[] = {std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              -0.0f, 1e-5f, 9.0f, -9.0f, 88.8f, -88.8f,
                              std::numeric_limits<float>::quiet_NaN()};
    for (int64_t i = first; i < n; i += 7)
        x.at(i) = specials[(i / 7) % std::size(specials)];
    return x;
}

bool
sameBytes(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.numel()) * sizeof(float)) ==
               0;
}

TEST(VecMath, VectorLanesMatchElementByElement)
{
    for (int64_t n = 1; n <= 67; ++n) {
        const Tensor x = laneInputs(n, -12.0f, 12.0f, 100 + n);
        const Tensor th = ops::tanh(x);
        const Tensor sg = ops::sigmoid(x);
        for (int64_t i = 0; i < n; ++i) {
            const Tensor xi(Shape({1}), {x.at(i)});
            EXPECT_TRUE(sameBytes(ops::tanh(xi),
                                  Tensor(Shape({1}), {th.at(i)})))
                << "tanh n=" << n << " i=" << i;
            EXPECT_TRUE(sameBytes(ops::sigmoid(xi),
                                  Tensor(Shape({1}), {sg.at(i)})))
                << "sigmoid n=" << n << " i=" << i;
        }
        // Rows start at every offset modulo the vector width, so the
        // lanes and scalar tails a row falls into differ from its
        // standalone evaluation.
        const int64_t rows = 3;
        const Tensor m = laneInputs(rows * n, -60.0f, 60.0f, 200 + n)
                             .reshape(Shape({rows, n}));
        const Tensor sm = ops::softmaxLastAxis(m);
        for (int64_t r = 0; r < rows; ++r) {
            const Tensor row = ops::slice(m, 0, r, r + 1);
            EXPECT_TRUE(sameBytes(ops::softmaxLastAxis(row),
                                  ops::slice(sm, 0, r, r + 1)))
                << "softmax n=" << n << " row=" << r;
        }
    }
}

TEST(VecMath, FusedTanhSigmoidProgramMatchesUnfusedOps)
{
    // r2 = tanh(r0); r3 = sigmoid(r1); r4 = r2 * r3
    graph::oplib::FusedElementwiseSpec spec;
    spec.num_inputs = 2;
    spec.num_regs = 5;
    spec.out_reg = 4;
    spec.program = {{graph::EwOpcode::kTanh, 2, 0, -1, 0.0f},
                    {graph::EwOpcode::kSigmoid, 3, 1, -1, 0.0f},
                    {graph::EwOpcode::kMul, 4, 2, 3, 0.0f}};
    spec.fused_ops = "tanh,sigmoid,mul";
    const graph::oplib::FusedElementwiseOp op(spec);
    // Odd lengths: scalar tails, the 512-element interpreter block
    // boundary, and (20001) a parallel split.  The two inputs never hold
    // NaN at the same index: with a NaN in both operands of the mul,
    // which one propagates depends on the operand order the compiler
    // picks.
    for (int64_t n : {1, 3, 15, 67, 511, 513, 1031, 20001}) {
        const Tensor a = laneInputs(n, -12.0f, 12.0f, 300 + n);
        const Tensor b = laneInputs(n, -30.0f, 30.0f, 400 + n, 2);
        std::vector<Tensor> out(1);
        op.forward({a, b}, out);
        EXPECT_TRUE(sameBytes(out[0],
                              ops::mul(ops::tanh(a), ops::sigmoid(b))))
            << "n=" << n;
    }
}

TEST(Broadcast, AddBTAndSumAxis1RoundTrip)
{
    Rng rng(23);
    Tensor x = Tensor::zeros(Shape({2, 3, 4}));
    Tensor q = Tensor::uniform(Shape({2, 4}), rng);
    Tensor y = ops::broadcastAddBT(x, q);
    for (int64_t b = 0; b < 2; ++b)
        for (int64_t t = 0; t < 3; ++t)
            for (int64_t h = 0; h < 4; ++h)
                EXPECT_FLOAT_EQ(y.at(b, t, h), q.at(b, h));
    Tensor s = ops::sumAxis1(y);
    for (int64_t b = 0; b < 2; ++b)
        for (int64_t h = 0; h < 4; ++h)
            EXPECT_NEAR(s.at(b, h), 3.0f * q.at(b, h), 1e-5);
}

TEST(Broadcast, DotAndOuterLastAxis)
{
    Tensor x(Shape({1, 2, 3}), {1, 2, 3, 4, 5, 6});
    Tensor v(Shape({3}), {1, 0, 2});
    Tensor d = ops::dotLastAxis(x, v);
    ASSERT_EQ(d.shape(), Shape({1, 2}));
    EXPECT_FLOAT_EQ(d.at(0), 1 + 6.0f);
    EXPECT_FLOAT_EQ(d.at(1), 4 + 12.0f);

    Tensor o = ops::outerLastAxis(d, v);
    ASSERT_EQ(o.shape(), Shape({1, 2, 3}));
    EXPECT_FLOAT_EQ(o.at(0, 1, 2), d.at(1) * 2.0f);
}

TEST(Broadcast, ScaleRowsAndRowDot)
{
    Tensor x(Shape({1, 2, 2}), {1, 2, 3, 4});
    Tensor w(Shape({1, 2}), {2, 3});
    Tensor y = ops::scaleRowsBT(x, w);
    EXPECT_FLOAT_EQ(y.at(0, 0, 1), 4.0f);
    EXPECT_FLOAT_EQ(y.at(0, 1, 0), 9.0f);

    Tensor d = ops::rowDotBT(x, x);
    EXPECT_FLOAT_EQ(d.at(0), 5.0f);
    EXPECT_FLOAT_EQ(d.at(1), 25.0f);
}

// ----------------------------------------------------------------------
// Shape ops
// ----------------------------------------------------------------------

TEST(ShapeOps, Transpose2d)
{
    Tensor a(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
    Tensor t = ops::transpose2d(a);
    ASSERT_EQ(t.shape(), Shape({3, 2}));
    EXPECT_FLOAT_EQ(t.at(2, 1), 6.0f);
    EXPECT_FLOAT_EQ(t.at(0, 1), 4.0f);
}

TEST(ShapeOps, Permute3dRoundTrip)
{
    Rng rng(31);
    Tensor a = Tensor::uniform(Shape({2, 3, 4}), rng);
    Tensor p = ops::permute3d(a, {2, 0, 1});
    ASSERT_EQ(p.shape(), Shape({4, 2, 3}));
    EXPECT_FLOAT_EQ(p.at(3, 1, 2), a.at(1, 2, 3));
    Tensor back = ops::permute3d(p, {1, 2, 0});
    for (int64_t i = 0; i < a.numel(); ++i)
        EXPECT_FLOAT_EQ(back.at(i), a.at(i));
}

TEST(ShapeOps, ConcatAndSliceInverse)
{
    Tensor a(Shape({2, 2}), {1, 2, 3, 4});
    Tensor b(Shape({2, 3}), {5, 6, 7, 8, 9, 10});
    Tensor c = ops::concat({a, b}, 1);
    ASSERT_EQ(c.shape(), Shape({2, 5}));
    EXPECT_FLOAT_EQ(c.at(1, 1), 4.0f);
    EXPECT_FLOAT_EQ(c.at(1, 4), 10.0f);

    Tensor sa = ops::slice(c, 1, 0, 2);
    Tensor sb = ops::slice(c, 1, 2, 5);
    for (int64_t i = 0; i < 4; ++i)
        EXPECT_FLOAT_EQ(sa.at(i), a.at(i));
    for (int64_t i = 0; i < 6; ++i)
        EXPECT_FLOAT_EQ(sb.at(i), b.at(i));
}

TEST(ShapeOps, ConcatAxis0)
{
    Tensor a(Shape({1, 2}), {1, 2});
    Tensor b(Shape({2, 2}), {3, 4, 5, 6});
    Tensor c = ops::concat({a, b}, 0);
    ASSERT_EQ(c.shape(), Shape({3, 2}));
    EXPECT_FLOAT_EQ(c.at(2, 1), 6.0f);
}

TEST(ShapeOps, ReverseAxisIsInvolution)
{
    Rng rng(37);
    Tensor a = Tensor::uniform(Shape({3, 2, 2}), rng);
    Tensor r = ops::reverseAxis(a, 0);
    EXPECT_FLOAT_EQ(r.at(0, 1, 1), a.at(2, 1, 1));
    Tensor rr = ops::reverseAxis(r, 0);
    for (int64_t i = 0; i < a.numel(); ++i)
        EXPECT_FLOAT_EQ(rr.at(i), a.at(i));
}

// ----------------------------------------------------------------------
// NN ops
// ----------------------------------------------------------------------

TEST(NN, SoftmaxRowsSumToOne)
{
    Rng rng(41);
    Tensor x = Tensor::uniform(Shape({4, 7}), rng, -5.0f, 5.0f);
    Tensor y = ops::softmaxLastAxis(x);
    for (int64_t r = 0; r < 4; ++r) {
        double s = 0.0;
        for (int64_t j = 0; j < 7; ++j) {
            EXPECT_GT(y.at(r, j), 0.0f);
            s += y.at(r, j);
        }
        EXPECT_NEAR(s, 1.0, 1e-5);
    }
}

TEST(NN, SoftmaxIsShiftInvariantAndStable)
{
    Tensor x(Shape({1, 3}), {1000.0f, 1001.0f, 1002.0f});
    Tensor y = ops::softmaxLastAxis(x);
    EXPECT_TRUE(y.allFinite());
    Tensor x2(Shape({1, 3}), {0.0f, 1.0f, 2.0f});
    Tensor y2 = ops::softmaxLastAxis(x2);
    for (int64_t i = 0; i < 3; ++i)
        EXPECT_NEAR(y.at(i), y2.at(i), 1e-5);
}

TEST(NN, LogSoftmaxMatchesLogOfSoftmax)
{
    // crossEntropy's inline per-row log-softmax, read at each label,
    // matches the log of softmaxLastAxis.
    Rng rng(43);
    Tensor x = Tensor::uniform(Shape({2, 5}), rng, -3.0f, 3.0f);
    Tensor s = ops::softmaxLastAxis(x);
    for (int64_t r = 0; r < 2; ++r)
        for (int64_t j = 0; j < 5; ++j) {
            Tensor labels(Shape({2}), -1.0f);
            labels.at(r) = static_cast<float>(j);
            EXPECT_NEAR(-ops::crossEntropy(x, labels).at(0),
                        std::log(s.at(r, j)), 1e-5);
        }
}

TEST(NN, CrossEntropyUniformLogitsIsLogV)
{
    Tensor logits = Tensor::zeros(Shape({4, 10}));
    Tensor labels(Shape({4}), {0, 3, 5, 9});
    Tensor loss = ops::crossEntropy(logits, labels);
    EXPECT_NEAR(loss.at(0), std::log(10.0), 1e-5);
}

TEST(NN, CrossEntropyIgnoresPadding)
{
    Tensor logits = Tensor::zeros(Shape({2, 4}));
    logits.at(0, 1) = 10.0f;
    Tensor labels(Shape({2}), {1.0f, -1.0f});
    Tensor loss = ops::crossEntropy(logits, labels);
    EXPECT_LT(loss.at(0), 0.01f);
}

TEST(NN, CrossEntropyGradSumsToZeroPerRow)
{
    Rng rng(47);
    Tensor logits = Tensor::uniform(Shape({3, 6}), rng, -2.0f, 2.0f);
    Tensor labels(Shape({3}), {0, 2, 5});
    Tensor g = ops::crossEntropyGrad(logits, labels);
    for (int64_t r = 0; r < 3; ++r) {
        double s = 0.0;
        for (int64_t j = 0; j < 6; ++j)
            s += g.at(r, j);
        EXPECT_NEAR(s, 0.0, 1e-5);
    }
}

TEST(NN, LayerNormNormalizesRows)
{
    Rng rng(53);
    Tensor x = Tensor::uniform(Shape({3, 16}), rng, -4.0f, 4.0f);
    Tensor y = ops::layerNormLastAxis(x);
    for (int64_t r = 0; r < 3; ++r) {
        double mean = 0.0, var = 0.0;
        for (int64_t j = 0; j < 16; ++j)
            mean += y.at(r, j);
        mean /= 16.0;
        for (int64_t j = 0; j < 16; ++j)
            var += (y.at(r, j) - mean) * (y.at(r, j) - mean);
        var /= 16.0;
        EXPECT_NEAR(mean, 0.0, 1e-4);
        EXPECT_NEAR(var, 1.0, 1e-2);
    }
}

TEST(NN, EmbeddingLookupAndGrad)
{
    Tensor table(Shape({3, 2}), {0, 1, 10, 11, 20, 21});
    Tensor ids(Shape({2, 2}), {2, 0, 1, 2});
    Tensor y = ops::embeddingLookup(table, ids);
    ASSERT_EQ(y.shape(), Shape({2, 2, 2}));
    EXPECT_FLOAT_EQ(y.at(0, 0, 0), 20.0f);
    EXPECT_FLOAT_EQ(y.at(1, 0, 1), 11.0f);

    Tensor dy = Tensor::full(Shape({2, 2, 2}), 1.0f);
    Tensor dt = ops::embeddingGrad(table.shape(), ids, dy);
    // Token 2 appears twice -> each of its columns accumulates 2.
    EXPECT_FLOAT_EQ(dt.at(2, 0), 2.0f);
    EXPECT_FLOAT_EQ(dt.at(0, 0), 1.0f);
}

TEST(NN, EmbeddingPaddingGivesZeroVector)
{
    Tensor table(Shape({2, 2}), {1, 2, 3, 4});
    Tensor ids(Shape({2}), {-1.0f, 1.0f});
    Tensor y = ops::embeddingLookup(table, ids);
    EXPECT_FLOAT_EQ(y.at(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(y.at(1, 1), 4.0f);
}

// ----------------------------------------------------------------------
// Blocked GEMM vs golden reference, and thread-count determinism
// ----------------------------------------------------------------------

TEST_P(GemmTransposes, BlockedMatchesReferenceAcrossBlockBoundaries)
{
    // Sizes straddle the Mc=64 / Kc=256 / Nc=512 blocking boundaries
    // with ragged micro-tile tails, so packing, K-panel accumulation,
    // and edge handling are all exercised.  The blocked kernel sums in
    // a different (fixed) order than the reference, so exact equality
    // is not expected — only closeness.
    const auto [ta, tb] = GetParam();
    const int64_t m = 67, n = 130, k = 300;
    Rng rng(23);
    Tensor a = Tensor::uniform(ta ? Shape({k, m}) : Shape({m, k}), rng,
                               -0.5f, 0.5f);
    Tensor b = Tensor::uniform(tb ? Shape({n, k}) : Shape({k, n}), rng,
                               -0.5f, 0.5f);
    Tensor c = ops::gemm(a, ta, b, tb, 0.75f);
    Tensor ref = ops::gemmReference(a, ta, b, tb, 0.75f);
    ASSERT_EQ(c.shape(), ref.shape());
    for (int64_t i = 0; i < c.numel(); ++i)
        ASSERT_NEAR(c.at(i), ref.at(i), 2e-3) << "element " << i;
}

TEST(Gemm, BitIdenticalAcrossThreadCounts)
{
    // Big enough that the blocked kernel actually splits row blocks
    // across threads; the chunking must not change a single bit.
    Rng rng(29);
    Tensor a = Tensor::uniform(Shape({200, 300}), rng, -1.0f, 1.0f);
    Tensor b = Tensor::uniform(Shape({300, 170}), rng, -1.0f, 1.0f);
    ThreadPool::setGlobalNumThreads(1);
    Tensor c1 = ops::gemm(a, false, b, false);
    ThreadPool::setGlobalNumThreads(8);
    Tensor c8 = ops::gemm(a, false, b, false);
    ThreadPool::setGlobalNumThreads(ThreadPool::defaultNumThreads());
    ASSERT_EQ(c1.shape(), c8.shape());
    EXPECT_EQ(std::memcmp(c1.data(), c8.data(),
                          static_cast<size_t>(c1.numel()) *
                              sizeof(float)),
              0);
}

TEST(Elementwise, BitIdenticalAcrossThreadCounts)
{
    // One representative of each parallelization scheme: element-wise
    // map, row-wise reduction, column-wise accumulation, and the
    // column-parallel scatter-add of embeddingGrad.
    const int64_t rows = 512, cols = 96;
    Rng rng(31);
    Tensor x = Tensor::uniform(Shape({rows, cols}), rng, -2.0f, 2.0f);
    Tensor table = Tensor::uniform(Shape({40, cols}), rng);
    Tensor ids(Shape({rows}));
    for (int64_t i = 0; i < rows; ++i)
        ids.at(i) = static_cast<float>(i % 40);

    auto all = [&] {
        std::vector<Tensor> r;
        r.push_back(ops::tanh(x));
        r.push_back(ops::softmaxLastAxis(x));
        r.push_back(ops::layerNormLastAxis(x));
        r.push_back(ops::sumToBias(x, cols));
        r.push_back(ops::embeddingGrad(table.shape(), ids, x));
        return r;
    };
    ThreadPool::setGlobalNumThreads(1);
    const std::vector<Tensor> serial = all();
    ThreadPool::setGlobalNumThreads(8);
    const std::vector<Tensor> threaded = all();
    ThreadPool::setGlobalNumThreads(ThreadPool::defaultNumThreads());
    ASSERT_EQ(serial.size(), threaded.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(serial[i].shape(), threaded[i].shape());
        EXPECT_EQ(std::memcmp(serial[i].data(), threaded[i].data(),
                              static_cast<size_t>(serial[i].numel()) *
                                  sizeof(float)),
                  0)
            << "kernel " << i;
    }
}

// ---------------------------------------------------------------------
// Persistent packed-weight cache
// ---------------------------------------------------------------------

TEST(PackCache, SecondLookupHitsAndVersionBumpInvalidates)
{
    ops::clearPackCacheForTest();
    const int64_t k = 8, n = 16;
    Tensor b(Shape({k, n}));
    std::fill(b.data(), b.data() + b.numel(), 3.0f);
    ops::registerPackableTensor(b);
    const ops::GemmSchedule sch = ops::GemmSchedule::fixedDefault();

    ops::PackCacheStats s0 = ops::packCacheStats();
    ops::CachedPackHold hold;
    const ops::CachedPack p1 =
        ops::lookupPackedB(b, false, k, n, sch, hold);
    ASSERT_TRUE(p1);
    EXPECT_EQ(p1.data[p1.offsets[0]], 3.0f);
    ops::PackCacheStats s1 = ops::packCacheStats();
    EXPECT_EQ(s1.misses, s0.misses + 1);

    // Steady state: same operand, same schedule -> pure hits.
    for (int i = 0; i < 3; ++i) {
        ops::CachedPackHold h2;
        EXPECT_TRUE(ops::lookupPackedB(b, false, k, n, sch, h2));
    }
    ops::PackCacheStats s2 = ops::packCacheStats();
    EXPECT_EQ(s2.misses, s1.misses);
    EXPECT_EQ(s2.hits, s1.hits + 3);

    // In-place update + version bump: old packs dropped, the next
    // lookup rebuilds from the new contents.
    std::fill(b.data(), b.data() + b.numel(), 7.0f);
    ops::bumpTensorVersion(b);
    ops::PackCacheStats s3 = ops::packCacheStats();
    EXPECT_GT(s3.invalidations, s2.invalidations);
    ops::CachedPackHold h3;
    const ops::CachedPack p2 =
        ops::lookupPackedB(b, false, k, n, sch, h3);
    ASSERT_TRUE(p2);
    EXPECT_EQ(p2.data[p2.offsets[0]], 7.0f);
    ops::clearPackCacheForTest();
}

TEST(PackCache, AddressReuseAfterFreeNeverServesStalePanels)
{
    // The dead-store scenario: register a tensor, cache its pack, let
    // the tensor die, then register a NEW tensor (which frequently
    // lands on the same heap address).  The cache must rebuild from
    // the new bytes — never serve the dead tensor's panels.
    ops::clearPackCacheForTest();
    const int64_t k = 8, n = 16;
    const ops::GemmSchedule sch = ops::GemmSchedule::fixedDefault();
    {
        Tensor dead(Shape({k, n}));
        std::fill(dead.data(), dead.data() + dead.numel(), 1.0f);
        ops::registerPackableTensor(dead);
        ops::CachedPackHold hold;
        ASSERT_TRUE(ops::lookupPackedB(dead, false, k, n, sch, hold));
    }
    Tensor fresh(Shape({k, n}));
    std::fill(fresh.data(), fresh.data() + fresh.numel(), 2.0f);
    ops::registerPackableTensor(fresh);
    ops::CachedPackHold hold;
    const ops::CachedPack p =
        ops::lookupPackedB(fresh, false, k, n, sch, hold);
    ASSERT_TRUE(p);
    EXPECT_EQ(p.data[p.offsets[0]], 2.0f);
    ops::clearPackCacheForTest();
}

TEST(PackCache, SteadyStateTrainingIterationHitsEveryPack)
{
    // After the first (warm) iteration every weight pack must be
    // served from the cache: zero further misses.
    ops::clearPackCacheForTest();
    models::WordLmConfig cfg;
    cfg.vocab = 50;
    cfg.hidden = 8;
    cfg.layers = 2;
    cfg.batch = 4;
    cfg.seq_len = 6;
    models::WordLmModel model(cfg);
    Rng rng(17);
    models::ParamStore params = model.initialParams(rng);
    data::CorpusConfig corpus_cfg;
    corpus_cfg.vocab = data::Vocab{50};
    corpus_cfg.num_tokens = 2000;
    corpus_cfg.seed = 3;
    const data::Corpus corpus = data::Corpus::generate(corpus_cfg);
    data::LmBatcher batcher(corpus, 4, 6);
    const graph::FeedDict feed = model.makeFeed(params, batcher.next());

    ThreadPool::setGlobalNumThreads(1);
    graph::Executor ex(model.fetches(), graph::ExecMode::kSerial);
    (void)ex.run(feed); // warm: builds every pack once
    const ops::PackCacheStats warm = ops::packCacheStats();
    (void)ex.run(feed);
    (void)ex.run(feed);
    const ops::PackCacheStats steady = ops::packCacheStats();
    EXPECT_EQ(steady.misses, warm.misses);
    EXPECT_GT(steady.hits, warm.hits);
    ThreadPool::setGlobalNumThreads(ThreadPool::defaultNumThreads());
    ops::clearPackCacheForTest();
}

// ---------------------------------------------------------------------
// PackScratch shrink policy
// ---------------------------------------------------------------------

TEST(PackScratch, ShrinksAfterSustainedOversizedStreak)
{
    ops::PackScratch s;
    ASSERT_NE(s.acquire(1 << 16), nullptr);
    EXPECT_GE(s.capacityElems(), size_t(1) << 16);
    // A sustained run of small acquires (oversized by > kShrinkFactor)
    // must release the high-water buffer.
    for (int i = 0; i < ops::PackScratch::kShrinkStreak; ++i)
        ASSERT_NE(s.acquire(64), nullptr);
    EXPECT_LT(s.capacityElems(), (size_t(1) << 16) /
                                     ops::PackScratch::kShrinkFactor);
}

TEST(PackScratch, AlternatingShapesDoNotThrash)
{
    ops::PackScratch s;
    ASSERT_NE(s.acquire(1 << 14), nullptr);
    const size_t big_cap = s.capacityElems();
    // Alternating small/large requests keep resetting the oversized
    // streak, so the big buffer is retained (no realloc churn).
    for (int i = 0; i < 4 * ops::PackScratch::kShrinkStreak; ++i) {
        ASSERT_NE(s.acquire(16), nullptr);
        ASSERT_NE(s.acquire(1 << 14), nullptr);
    }
    EXPECT_EQ(s.capacityElems(), big_cap);
}

TEST(PackScratch, PeriodicBurstSettlesAtHighWater)
{
    // A training iteration's pack pattern: a long run of small packs,
    // then a burst the streak window cannot see (the smalls outnumber
    // the streak requirement).  A fixed streak shrinks and regrows
    // every period; the adaptive backoff must instead settle at the
    // burst size after a bounded number of wasted cycles.
    ops::PackScratch s;
    auto period = [&s] {
        for (int i = 0; i < 2 * ops::PackScratch::kShrinkStreak; ++i)
            ASSERT_NE(s.acquire(64), nullptr);
        ASSERT_NE(s.acquire(1 << 15), nullptr);
    };
    // Let the policy learn (each premature shrink doubles the window;
    // log2(kShrinkStreakMax / kShrinkStreak) cycles suffice).
    for (int cycle = 0; cycle < 12; ++cycle)
        period();
    // Steady state: capacity pinned at the burst size, no reallocs.
    const size_t settled = s.capacityElems();
    EXPECT_GE(settled, size_t(1) << 15);
    for (int cycle = 0; cycle < 4; ++cycle) {
        period();
        EXPECT_EQ(s.capacityElems(), settled);
    }
}

} // namespace
} // namespace echo
