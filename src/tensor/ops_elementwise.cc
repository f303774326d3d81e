#include "core/logging.h"
#include "tensor/kernel_par.h"
#include "tensor/ops.h"
#include "tensor/vec_math.h"

namespace echo::ops {

namespace {

using detail::parallelUnits;

/**
 * Apply a binary functor element-wise; shapes must match exactly.
 * Element-parallel: every output element depends only on the matching
 * input elements, so chunking cannot change any value.
 */
template <typename F>
Tensor
zipWith(const Tensor &a, const Tensor &b, F f, const char *what)
{
    ECHO_REQUIRE(a.shape() == b.shape(), what, ": shape mismatch ",
                 a.shape().toString(), " vs ", b.shape().toString());
    Tensor c(a.shape());
    const float *pa = a.data();
    const float *pb = b.data();
    float *pc = c.data();
    parallelUnits(a.numel(), 1, [=](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i)
            pc[i] = f(pa[i], pb[i]);
    });
    return c;
}

/** Apply a unary functor element-wise (element-parallel). */
template <typename F>
Tensor
mapWith(const Tensor &a, F f)
{
    Tensor c(a.shape());
    const float *pa = a.data();
    float *pc = c.data();
    parallelUnits(a.numel(), 1, [=](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i)
            pc[i] = f(pa[i]);
    });
    return c;
}

} // namespace

Tensor
add(const Tensor &a, const Tensor &b)
{
    return zipWith(a, b, [](float x, float y) { return x + y; }, "add");
}

Tensor
sub(const Tensor &a, const Tensor &b)
{
    return zipWith(a, b, [](float x, float y) { return x - y; }, "sub");
}

Tensor
mul(const Tensor &a, const Tensor &b)
{
    return zipWith(a, b, [](float x, float y) { return x * y; }, "mul");
}

Tensor
mulScalar(const Tensor &a, float s)
{
    return mapWith(a, [s](float x) { return x * s; });
}

Tensor
tanh(const Tensor &a)
{
    return mapWith(a, [](float x) { return vec::tanh(x); });
}

Tensor
sigmoid(const Tensor &a)
{
    return mapWith(a, [](float x) { return vec::sigmoid(x); });
}

Tensor
relu(const Tensor &a)
{
    return mapWith(a, [](float x) { return x > 0.0f ? x : 0.0f; });
}

Tensor
negate(const Tensor &a)
{
    return mapWith(a, [](float x) { return -x; });
}

void
accumulateInto(Tensor &dst, const Tensor &src)
{
    ECHO_REQUIRE(dst.shape() == src.shape(),
                 "accumulateInto shape mismatch");
    float *pd = dst.data();
    const float *ps = src.data();
    parallelUnits(dst.numel(), 1, [=](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i)
            pd[i] += ps[i];
    });
}

Tensor
addBias(const Tensor &a, const Tensor &bias)
{
    ECHO_REQUIRE(bias.shape().ndim() == 1, "bias must be 1-D");
    const int64_t n = bias.shape()[0];
    ECHO_REQUIRE(a.shape().dim(-1) == n, "bias length mismatch");
    Tensor c(a.shape());
    const float *pa = a.data();
    const float *pb = bias.data();
    float *pc = c.data();
    const int64_t rows = a.numel() / n;
    parallelUnits(rows, n, [=](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r)
            for (int64_t j = 0; j < n; ++j)
                pc[r * n + j] = pa[r * n + j] + pb[j];
    });
    return c;
}

Tensor
sumToBias(const Tensor &a, int64_t n)
{
    ECHO_REQUIRE(a.shape().dim(-1) == n, "sumToBias length mismatch");
    Tensor c = Tensor::zeros(Shape({n}));
    const float *pa = a.data();
    float *pc = c.data();
    const int64_t rows = a.numel() / n;
    // Column-parallel: each chunk owns a j-range of the output and walks
    // the rows in increasing order, so per-column accumulation order is
    // the serial order regardless of the chunking.
    parallelUnits(n, rows, [=](int64_t j0, int64_t j1) {
        for (int64_t r = 0; r < rows; ++r)
            for (int64_t j = j0; j < j1; ++j)
                pc[j] += pa[r * n + j];
    });
    return c;
}

Tensor
broadcastAddBT(const Tensor &x, const Tensor &q)
{
    ECHO_REQUIRE(x.shape().ndim() == 3 && q.shape().ndim() == 2,
                 "broadcastAddBT expects [BxTxH] and [BxH]");
    const int64_t b = x.shape()[0];
    const int64_t t = x.shape()[1];
    const int64_t h = x.shape()[2];
    ECHO_REQUIRE(q.shape()[0] == b && q.shape()[1] == h,
                 "broadcastAddBT operand mismatch");
    Tensor c(x.shape());
    const float *px_base = x.data();
    const float *pq_base = q.data();
    float *pc_base = c.data();
    parallelUnits(b * t, h, [=](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
            const float *pq = pq_base + (r / t) * h;
            const float *px = px_base + r * h;
            float *pc = pc_base + r * h;
            for (int64_t j = 0; j < h; ++j)
                pc[j] = px[j] + pq[j];
        }
    });
    return c;
}

Tensor
sumAxis1(const Tensor &x)
{
    ECHO_REQUIRE(x.shape().ndim() == 3, "sumAxis1 expects 3-D");
    const int64_t b = x.shape()[0];
    const int64_t t = x.shape()[1];
    const int64_t h = x.shape()[2];
    Tensor c = Tensor::zeros(Shape({b, h}));
    const float *px = x.data();
    float *pc = c.data();
    // Batch-parallel: each output row [i, :] is owned by one chunk and
    // accumulated over s in serial order.
    parallelUnits(b, t * h, [=](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i)
            for (int64_t s = 0; s < t; ++s)
                for (int64_t j = 0; j < h; ++j)
                    pc[i * h + j] += px[(i * t + s) * h + j];
    });
    return c;
}

Tensor
dotLastAxis(const Tensor &x, const Tensor &v)
{
    ECHO_REQUIRE(v.shape().ndim() == 1, "dotLastAxis: v must be 1-D");
    const int64_t h = v.shape()[0];
    ECHO_REQUIRE(x.shape().dim(-1) == h, "dotLastAxis length mismatch");
    const int64_t rows = x.numel() / h;
    Shape out_shape = x.shape().dropAxis(x.shape().ndim() - 1);
    Tensor c(out_shape);
    const float *px = x.data();
    const float *pv = v.data();
    float *pc = c.data();
    parallelUnits(rows, h, [=](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
            double acc = 0.0;
            for (int64_t j = 0; j < h; ++j)
                acc += px[r * h + j] * pv[j];
            pc[r] = static_cast<float>(acc);
        }
    });
    return c;
}

Tensor
outerLastAxis(const Tensor &s, const Tensor &v)
{
    ECHO_REQUIRE(v.shape().ndim() == 1, "outerLastAxis: v must be 1-D");
    const int64_t h = v.shape()[0];
    const int64_t rows = s.numel();
    Shape out_shape = s.shape().insertAxis(s.shape().ndim(), h);
    Tensor c(out_shape);
    const float *ps = s.data();
    const float *pv = v.data();
    float *pc = c.data();
    parallelUnits(rows, h, [=](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r)
            for (int64_t j = 0; j < h; ++j)
                pc[r * h + j] = ps[r] * pv[j];
    });
    return c;
}

Tensor
scaleRowsBT(const Tensor &x, const Tensor &w)
{
    ECHO_REQUIRE(x.shape().ndim() == 3 && w.shape().ndim() == 2,
                 "scaleRowsBT expects [BxTxH] and [BxT]");
    const int64_t b = x.shape()[0];
    const int64_t t = x.shape()[1];
    const int64_t h = x.shape()[2];
    ECHO_REQUIRE(w.shape()[0] == b && w.shape()[1] == t,
                 "scaleRowsBT weight mismatch");
    Tensor c(x.shape());
    const float *px = x.data();
    const float *pw = w.data();
    float *pc = c.data();
    parallelUnits(b * t, h, [=](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
            const float ws = pw[r];
            for (int64_t j = 0; j < h; ++j)
                pc[r * h + j] = ws * px[r * h + j];
        }
    });
    return c;
}

Tensor
rowDotBT(const Tensor &a, const Tensor &b)
{
    ECHO_REQUIRE(a.shape().ndim() == 3 && a.shape() == b.shape(),
                 "rowDotBT expects matching [BxTxH]");
    const int64_t bsz = a.shape()[0];
    const int64_t t = a.shape()[1];
    const int64_t h = a.shape()[2];
    Tensor c(Shape({bsz, t}));
    const float *pa = a.data();
    const float *pb = b.data();
    float *pc = c.data();
    parallelUnits(bsz * t, h, [=](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
            double acc = 0.0;
            const int64_t base = r * h;
            for (int64_t j = 0; j < h; ++j)
                acc += pa[base + j] * pb[base + j];
            pc[r] = static_cast<float>(acc);
        }
    });
    return c;
}

} // namespace echo::ops
