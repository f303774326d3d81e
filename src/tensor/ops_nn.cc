#include <algorithm>
#include <cmath>
#include <vector>

#include "core/logging.h"
#include "tensor/kernel_par.h"
#include "tensor/ops.h"
#include "tensor/vec_math.h"

namespace echo::ops {

namespace {

using detail::parallelUnits;

} // namespace

Tensor
softmaxLastAxis(const Tensor &a)
{
    const int64_t n = a.shape().dim(-1);
    const int64_t rows = a.numel() / n;
    Tensor c(a.shape());
    const float *pa = a.data();
    float *pc = c.data();
    // Row-parallel: each row's max/denominator reduction stays within
    // one chunk, in serial order.
    parallelUnits(rows, n, [=](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
            const float *src = pa + r * n;
            float *dst = pc + r * n;
            float mx = src[0];
            for (int64_t j = 1; j < n; ++j)
                mx = std::max(mx, src[j]);
            for (int64_t j = 0; j < n; ++j)
                dst[j] = vec::exp(src[j] - mx);
            double denom = 0.0;
            for (int64_t j = 0; j < n; ++j)
                denom += dst[j];
            const float inv = static_cast<float>(1.0 / denom);
            for (int64_t j = 0; j < n; ++j)
                dst[j] *= inv;
        }
    });
    return c;
}

namespace {

/** Count the non-padding labels (label >= 0). */
int64_t
countValidLabels(const Tensor &labels)
{
    const float *lp = labels.data();
    const int64_t n = labels.numel();
    int64_t valid = 0;
    for (int64_t i = 0; i < n; ++i)
        if (lp[i] >= 0.0f)
            ++valid;
    return valid;
}

} // namespace

Tensor
crossEntropy(const Tensor &logits, const Tensor &labels)
{
    ECHO_REQUIRE(logits.shape().ndim() == 2, "crossEntropy wants [N x V]");
    const int64_t n = logits.shape()[0];
    const int64_t v = logits.shape()[1];
    ECHO_REQUIRE(labels.numel() == n, "label count mismatch");

    // Per-row log-softmax computed inline, without materializing an
    // [N x V] temporary per call; the exponentials go through one
    // reused per-thread row.  The serial loop keeps the summation order
    // fixed.
    thread_local std::vector<float> row_scratch;
    row_scratch.resize(static_cast<size_t>(v));
    float *row = row_scratch.data();
    const float *lp = labels.data();
    const float *logits_p = logits.data();
    double loss = 0.0;
    const int64_t valid = countValidLabels(labels);
    for (int64_t i = 0; i < n; ++i) {
        const float lf = lp[i];
        if (lf < 0.0f)
            continue;
        const int64_t label = static_cast<int64_t>(lf);
        ECHO_REQUIRE(label < v, "label ", label, " out of vocab ", v);
        const float *src = logits_p + i * v;
        float mx = src[0];
        for (int64_t j = 1; j < v; ++j)
            mx = std::max(mx, src[j]);
        for (int64_t j = 0; j < v; ++j)
            row[j] = vec::exp(src[j] - mx);
        double denom = 0.0;
        for (int64_t j = 0; j < v; ++j)
            denom += row[j];
        const float log_denom =
            static_cast<float>(std::log(denom)) + mx;
        loss -= src[label] - log_denom;
    }
    Tensor out(Shape({1}));
    out.data()[0] =
        static_cast<float>(valid > 0 ? loss / static_cast<double>(valid)
                                     : 0.0);
    return out;
}

Tensor
crossEntropyGrad(const Tensor &logits, const Tensor &labels,
                 float loss_grad)
{
    const int64_t n = logits.shape()[0];
    const int64_t v = logits.shape()[1];
    Tensor grad = softmaxLastAxis(logits);
    const int64_t valid = countValidLabels(labels);
    const float scale =
        (valid > 0 ? 1.0f / static_cast<float>(valid) : 0.0f) *
        loss_grad;
    const float *pl = labels.data();
    float *pg = grad.data();
    parallelUnits(n, v, [=](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
            const float lf = pl[i];
            if (lf < 0.0f) {
                for (int64_t j = 0; j < v; ++j)
                    pg[i * v + j] = 0.0f;
                continue;
            }
            const int64_t label = static_cast<int64_t>(lf);
            pg[i * v + label] -= 1.0f;
            for (int64_t j = 0; j < v; ++j)
                pg[i * v + j] *= scale;
        }
    });
    return grad;
}

Tensor
layerNormLastAxis(const Tensor &a, float eps)
{
    const int64_t n = a.shape().dim(-1);
    const int64_t rows = a.numel() / n;
    Tensor c(a.shape());
    const float *pa = a.data();
    float *pc = c.data();
    parallelUnits(rows, n, [=](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
            const float *src = pa + r * n;
            float *dst = pc + r * n;
            double mean = 0.0;
            for (int64_t j = 0; j < n; ++j)
                mean += src[j];
            mean /= static_cast<double>(n);
            double var = 0.0;
            for (int64_t j = 0; j < n; ++j) {
                const double d = src[j] - mean;
                var += d * d;
            }
            var /= static_cast<double>(n);
            const float rstd =
                static_cast<float>(1.0 / std::sqrt(var + eps));
            for (int64_t j = 0; j < n; ++j)
                dst[j] = (src[j] - static_cast<float>(mean)) * rstd;
        }
    });
    return c;
}

Tensor
embeddingLookup(const Tensor &table, const Tensor &ids)
{
    ECHO_REQUIRE(table.shape().ndim() == 2, "embedding table is [V x H]");
    const int64_t v = table.shape()[0];
    const int64_t h = table.shape()[1];
    Shape out_shape = ids.shape().insertAxis(ids.shape().ndim(), h);
    Tensor c(out_shape);
    const float *pt = table.data();
    const float *pi = ids.data();
    float *pc = c.data();
    parallelUnits(ids.numel(), h, [=](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
            const float idf = pi[i];
            const int64_t id =
                idf < 0.0f ? 0 : static_cast<int64_t>(idf);
            ECHO_REQUIRE(id < v, "token id ", id, " out of vocab ", v);
            const float *src = pt + id * h;
            float *dst = pc + i * h;
            for (int64_t j = 0; j < h; ++j)
                dst[j] = idf < 0.0f ? 0.0f : src[j];
        }
    });
    return c;
}

Tensor
embeddingGrad(const Shape &table_shape, const Tensor &ids,
              const Tensor &out_grad)
{
    const int64_t h = table_shape[1];
    const int64_t count = ids.numel();
    ECHO_REQUIRE(out_grad.numel() == count * h,
                 "embeddingGrad size mismatch");
    Tensor grad = Tensor::zeros(table_shape);
    const float *pi = ids.data();
    const float *pg = out_grad.data();
    float *pd = grad.data();
    // Column-parallel scatter-add: duplicate ids make row-parallelism a
    // data race, so each chunk owns a j-range of the embedding width
    // and walks the ids in serial order.  Accumulation order per
    // element matches the serial kernel exactly.
    parallelUnits(h, count, [=](int64_t j0, int64_t j1) {
        for (int64_t i = 0; i < count; ++i) {
            const float idf = pi[i];
            if (idf < 0.0f)
                continue;
            const int64_t id = static_cast<int64_t>(idf);
            float *dst = pd + id * h;
            const float *src = pg + i * h;
            for (int64_t j = j0; j < j1; ++j)
                dst[j] += src[j];
        }
    });
    return grad;
}

} // namespace echo::ops
