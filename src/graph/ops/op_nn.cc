/**
 * @file
 * Neural-network head operators: softmax, layer normalization (with the
 * stashed rstd statistic), cross-entropy, embedding lookup, and the CNN
 * proxy's convolution / pooling ops used by the Fig. 4(a) motivation
 * experiment.
 */
#include <cmath>

#include "graph/graph.h"
#include "graph/ops/oplib.h"
#include "tensor/ops.h"

#include "core/logging.h"

namespace echo::graph::oplib {

namespace {

class SoftmaxOp : public Op
{
  public:
    std::string name() const override { return "softmax"; }

    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        ECHO_REQUIRE(in.size() == 1, "softmax wants one input");
        return {in[0]};
    }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        out[0] = ops::softmaxLastAxis(in[0]);
    }

    std::vector<Val>
    buildGradient(GradContext &ctx) const override
    {
        const Val dy = ctx.out_grads[0];
        if (!dy.defined())
            return {Val{}};
        return {
            ctx.graph->apply1(softmaxGrad(), {dy, ctx.node->out(0)})};
    }

    std::vector<KernelDesc>
    kernels(const std::vector<Shape> &in,
            const std::vector<Shape> &out) const override
    {
        KernelDesc k;
        k.category = "softmax";
        k.flops = 4 * totalElems(in);
        k.bytes_read = totalElems(in) * 4;
        k.bytes_written = totalElems(out) * 4;
        return {k};
    }
};

class SoftmaxGradOp : public Op
{
  public:
    std::string name() const override { return "softmax_grad"; }

    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        ECHO_REQUIRE(in.size() == 2 && in[0] == in[1],
                     "softmax_grad wants matching (dY, Y)");
        return {in[0]};
    }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        const Tensor &dy = in[0];
        const Tensor &y = in[1];
        const int64_t n = y.shape().dim(-1);
        const int64_t rows = y.numel() / n;
        Tensor dx(y.shape());
        const float *dyp = dy.data();
        const float *yp = y.data();
        float *dxp = dx.data();
        for (int64_t r = 0; r < rows; ++r) {
            double dot = 0.0;
            for (int64_t j = 0; j < n; ++j)
                dot += dyp[r * n + j] * yp[r * n + j];
            for (int64_t j = 0; j < n; ++j)
                dxp[r * n + j] =
                    yp[r * n + j] *
                    (dyp[r * n + j] - static_cast<float>(dot));
        }
        out[0] = std::move(dx);
    }

    std::vector<Val>
    buildGradient(GradContext &) const override
    {
        ECHO_PANIC("softmax_grad: second-order unsupported");
    }

    std::vector<KernelDesc>
    kernels(const std::vector<Shape> &in,
            const std::vector<Shape> &out) const override
    {
        KernelDesc k;
        k.category = "softmax";
        k.flops = 3 * totalElems(out);
        k.bytes_read = totalElems(in) * 4;
        k.bytes_written = totalElems(out) * 4;
        return {k};
    }
};

class LayerNormOp : public Op
{
  public:
    explicit LayerNormOp(float eps) : eps_(eps) {}

    std::string name() const override { return "layer_norm"; }

    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        ECHO_REQUIRE(in.size() == 1 && in[0].ndim() >= 1,
                     "layer_norm wants one input");
        Shape stats = in[0].dropAxis(in[0].ndim() - 1);
        if (stats.ndim() == 0)
            stats = Shape({1});
        return {in[0], stats};
    }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        const Tensor &x = in[0];
        const int64_t n = x.shape().dim(-1);
        const int64_t rows = x.numel() / n;
        Shape stats_shape = x.shape().dropAxis(x.shape().ndim() - 1);
        if (stats_shape.ndim() == 0)
            stats_shape = Shape({1});
        Tensor y(x.shape());
        Tensor rstd(stats_shape);
        const float *xp = x.data();
        float *yp = y.data();
        float *rstdp = rstd.data();
        for (int64_t r = 0; r < rows; ++r) {
            const float *src = xp + r * n;
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
            const float r_inv =
                static_cast<float>(1.0 / std::sqrt(var + eps_));
            rstdp[r] = r_inv;
            float *dst = yp + r * n;
            for (int64_t j = 0; j < n; ++j)
                dst[j] =
                    (src[j] - static_cast<float>(mean)) * r_inv;
        }
        out[0] = std::move(y);
        out[1] = std::move(rstd);
    }

    std::vector<Val>
    buildGradient(GradContext &ctx) const override
    {
        const Val dy = ctx.out_grads[0];
        if (!dy.defined())
            return {Val{}};
        // The gradient consumes the normalized output and the stashed
        // rstd statistic (both feature maps of this op).
        return {ctx.graph->apply1(
            layerNormGrad(), {dy, ctx.node->out(0), ctx.node->out(1)})};
    }

    std::vector<KernelDesc>
    kernels(const std::vector<Shape> &in,
            const std::vector<Shape> &out) const override
    {
        KernelDesc k;
        k.category = "layer_norm";
        k.flops = 6 * totalElems(in);
        k.bytes_read = totalElems(in) * 4;
        k.bytes_written = totalElems(out) * 4;
        return {k};
    }

  private:
    float eps_;
};

class LayerNormGradOp : public Op
{
  public:
    std::string name() const override { return "layer_norm_grad"; }

    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        ECHO_REQUIRE(in.size() == 3 && in[0] == in[1],
                     "layer_norm_grad wants (dY, Y, rstd)");
        return {in[0]};
    }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        const Tensor &dy = in[0];
        const Tensor &y = in[1];
        const Tensor &rstd = in[2];
        const int64_t n = y.shape().dim(-1);
        const int64_t rows = y.numel() / n;
        Tensor dx(y.shape());
        const float *dyp = dy.data();
        const float *yp = y.data();
        const float *rstdp = rstd.data();
        float *dxp = dx.data();
        for (int64_t r = 0; r < rows; ++r) {
            double mean_dy = 0.0;
            double mean_dyy = 0.0;
            for (int64_t j = 0; j < n; ++j) {
                mean_dy += dyp[r * n + j];
                mean_dyy += dyp[r * n + j] * yp[r * n + j];
            }
            mean_dy /= static_cast<double>(n);
            mean_dyy /= static_cast<double>(n);
            const float r_inv = rstdp[r];
            for (int64_t j = 0; j < n; ++j)
                dxp[r * n + j] =
                    r_inv *
                    static_cast<float>(dyp[r * n + j] - mean_dy -
                                       yp[r * n + j] * mean_dyy);
        }
        out[0] = std::move(dx);
    }

    std::vector<Val>
    buildGradient(GradContext &) const override
    {
        ECHO_PANIC("layer_norm_grad: second-order unsupported");
    }

    std::vector<KernelDesc>
    kernels(const std::vector<Shape> &in,
            const std::vector<Shape> &out) const override
    {
        KernelDesc k;
        k.category = "layer_norm";
        k.flops = 8 * totalElems(out);
        k.bytes_read = totalElems(in) * 4;
        k.bytes_written = totalElems(out) * 4;
        return {k};
    }
};

class CrossEntropyLossOp : public Op
{
  public:
    std::string name() const override { return "cross_entropy"; }

    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        ECHO_REQUIRE(in.size() == 2 && in[0].ndim() == 2 &&
                         in[1].numel() == in[0][0],
                     "cross_entropy wants (logits [NxV], labels [N])");
        return {Shape({1})};
    }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        out[0] = ops::crossEntropy(in[0], in[1]);
    }

    std::vector<Val>
    buildGradient(GradContext &ctx) const override
    {
        const Val dl = ctx.out_grads[0];
        if (!dl.defined())
            return {Val{}, Val{}};
        const Val dlogits = ctx.graph->apply1(
            crossEntropyGrad(),
            {dl, ctx.node->inputs[0], ctx.node->inputs[1]});
        return {dlogits, Val{}};
    }

    std::vector<KernelDesc>
    kernels(const std::vector<Shape> &in,
            const std::vector<Shape> &out) const override
    {
        KernelDesc k;
        k.category = "softmax";
        k.flops = 5 * totalElems(in);
        k.bytes_read = totalElems(in) * 4;
        k.bytes_written = totalElems(out) * 4;
        return {k};
    }
};

class CrossEntropyGradOp : public Op
{
  public:
    std::string name() const override { return "cross_entropy_grad"; }

    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        ECHO_REQUIRE(in.size() == 3 && in[1].ndim() == 2,
                     "cross_entropy_grad wants (dL, logits, labels)");
        return {in[1]};
    }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        // Fold the upstream dL into the masking pass: one output-sized
        // allocation and no [N x V] temporary.
        out[0] = ops::crossEntropyGrad(in[1], in[2], in[0].at(0));
    }

    std::vector<Val>
    buildGradient(GradContext &) const override
    {
        ECHO_PANIC("cross_entropy_grad: second-order unsupported");
    }

    std::vector<KernelDesc>
    kernels(const std::vector<Shape> &in,
            const std::vector<Shape> &out) const override
    {
        KernelDesc k;
        k.category = "softmax";
        k.flops = 4 * totalElems(out);
        k.bytes_read = totalElems(in) * 4;
        k.bytes_written = totalElems(out) * 4;
        return {k};
    }
};

class EmbeddingOp : public Op
{
  public:
    std::string name() const override { return "embedding"; }

    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        ECHO_REQUIRE(in.size() == 2 && in[0].ndim() == 2,
                     "embedding wants (table [VxH], ids)");
        return {in[1].insertAxis(in[1].ndim(), in[0][1])};
    }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        out[0] = ops::embeddingLookup(in[0], in[1]);
    }

    std::vector<Val>
    buildGradient(GradContext &ctx) const override
    {
        const Val dy = ctx.out_grads[0];
        if (!dy.defined())
            return {Val{}, Val{}};
        const Shape &table_shape = Graph::shapeOf(ctx.node->inputs[0]);
        const Val dtable = ctx.graph->apply1(
            embeddingGrad(table_shape), {ctx.node->inputs[1], dy});
        return {dtable, Val{}};
    }

    std::vector<KernelDesc>
    kernels(const std::vector<Shape> &in,
            const std::vector<Shape> &out) const override
    {
        KernelDesc k;
        k.category = "embedding";
        // Gather: reads the looked-up rows plus the id vector.
        k.bytes_read = (totalElems(out) + totalElems({in[1]})) * 4;
        k.bytes_written = totalElems(out) * 4;
        return {k};
    }
};

class EmbeddingGradOp : public Op
{
  public:
    explicit EmbeddingGradOp(Shape table_shape)
        : table_shape_(std::move(table_shape))
    {
    }

    std::string name() const override { return "embedding_grad"; }

    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        ECHO_REQUIRE(in.size() == 2, "embedding_grad wants (ids, dY)");
        return {table_shape_};
    }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        out[0] = ops::embeddingGrad(table_shape_, in[0], in[1]);
    }

    std::vector<Val>
    buildGradient(GradContext &) const override
    {
        ECHO_PANIC("embedding_grad: second-order unsupported");
    }

    std::vector<KernelDesc>
    kernels(const std::vector<Shape> &in,
            const std::vector<Shape> &out) const override
    {
        KernelDesc k;
        k.category = "embedding";
        k.bytes_read = totalElems(in) * 4;
        k.bytes_written = totalElems(out) * 4;
        return {k};
    }

  private:
    Shape table_shape_;
};

// ----------------------------------------------------------------------
// CNN proxy ops (Fig. 4(a) motivation experiment)
// ----------------------------------------------------------------------

/** Output spatial extent of a same-padded, strided convolution. */
int64_t
convOutExtent(int64_t in, int stride)
{
    return (in + stride - 1) / stride;
}

class Conv2dOp : public Op
{
  public:
    explicit Conv2dOp(int stride) : stride_(stride) {}

    std::string name() const override { return "conv2d"; }

    bool cheapToRecompute() const override { return false; }

    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        ECHO_REQUIRE(in.size() == 2 && in[0].ndim() == 4 &&
                         in[1].ndim() == 4 && in[0][1] == in[1][1],
                     "conv2d wants (X [NxCxHxW], W [KxCxRxS])");
        return {Shape({in[0][0], in[1][0],
                       convOutExtent(in[0][2], stride_),
                       convOutExtent(in[0][3], stride_)})};
    }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        const Tensor &x = in[0];
        const Tensor &w = in[1];
        const int64_t n = x.shape()[0], c = x.shape()[1];
        const int64_t h = x.shape()[2], wd = x.shape()[3];
        const int64_t kf = w.shape()[0], r = w.shape()[2],
                      s = w.shape()[3];
        const int64_t ho = convOutExtent(h, stride_);
        const int64_t wo = convOutExtent(wd, stride_);
        const int64_t pad_h = ((ho - 1) * stride_ + r - h) / 2;
        const int64_t pad_w = ((wo - 1) * stride_ + s - wd) / 2;

        Tensor y = Tensor::zeros(Shape({n, kf, ho, wo}));
        const float *xp = x.data();
        const float *wp = w.data();
        float *yp = y.data();
        for (int64_t i = 0; i < n; ++i)
            for (int64_t k = 0; k < kf; ++k)
                for (int64_t oy = 0; oy < ho; ++oy)
                    for (int64_t ox = 0; ox < wo; ++ox) {
                        double acc = 0.0;
                        for (int64_t ci = 0; ci < c; ++ci)
                            for (int64_t ry = 0; ry < r; ++ry)
                                for (int64_t rx = 0; rx < s; ++rx) {
                                    const int64_t iy =
                                        oy * stride_ + ry - pad_h;
                                    const int64_t ix =
                                        ox * stride_ + rx - pad_w;
                                    if (iy < 0 || iy >= h || ix < 0 ||
                                        ix >= wd)
                                        continue;
                                    acc += xp[((i * c + ci) * h + iy) *
                                                  wd + ix] *
                                           wp[((k * c + ci) * r + ry) *
                                                  s + rx];
                                }
                        yp[((i * kf + k) * ho + oy) * wo + ox] =
                            static_cast<float>(acc);
                    }
        out[0] = std::move(y);
    }

    std::vector<Val>
    buildGradient(GradContext &ctx) const override
    {
        const Val dy = ctx.out_grads[0];
        if (!dy.defined())
            return {Val{}, Val{}};
        const Shape &x_shape = Graph::shapeOf(ctx.node->inputs[0]);
        const Shape &w_shape = Graph::shapeOf(ctx.node->inputs[1]);
        const Val dx = ctx.graph->apply1(
            conv2dGradInput(stride_, x_shape),
            {dy, ctx.node->inputs[1]});
        const Val dw = ctx.graph->apply1(
            conv2dGradWeight(stride_, w_shape),
            {dy, ctx.node->inputs[0]});
        return {dx, dw};
    }

    std::vector<KernelDesc>
    kernels(const std::vector<Shape> &in,
            const std::vector<Shape> &out) const override
    {
        // Implicit-GEMM lowering: M = N*Ho*Wo (large), so convolutions
        // run near peak FLOPS in the model, giving CNNs their
        // compute-bound, batch-saturating behaviour.
        KernelDesc k;
        k.category = "convolution";
        k.is_gemm = true;
        k.gemm_m = out[0][0] * out[0][2] * out[0][3];
        k.gemm_n = in[1][0];
        k.gemm_k = in[1][1] * in[1][2] * in[1][3];
        k.flops = 2 * k.gemm_m * k.gemm_n * k.gemm_k;
        k.bytes_read = (totalElems(in)) * 4;
        k.bytes_written = totalElems(out) * 4;
        return {k};
    }

  private:
    int stride_;
};

class Conv2dGradInputOp : public Op
{
  public:
    Conv2dGradInputOp(int stride, Shape x_shape)
        : stride_(stride), x_shape_(std::move(x_shape))
    {
    }

    std::string name() const override { return "conv2d_grad_input"; }

    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        ECHO_REQUIRE(in.size() == 2, "conv2d_grad_input wants (dY, W)");
        return {x_shape_};
    }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        const Tensor &dy = in[0];
        const Tensor &w = in[1];
        const int64_t n = x_shape_[0], c = x_shape_[1];
        const int64_t h = x_shape_[2], wd = x_shape_[3];
        const int64_t kf = w.shape()[0], r = w.shape()[2],
                      s = w.shape()[3];
        const int64_t ho = dy.shape()[2], wo = dy.shape()[3];
        const int64_t pad_h = ((ho - 1) * stride_ + r - h) / 2;
        const int64_t pad_w = ((wo - 1) * stride_ + s - wd) / 2;

        Tensor dx = Tensor::zeros(x_shape_);
        const float *dyp = dy.data();
        const float *wp = w.data();
        float *dxp = dx.data();
        for (int64_t i = 0; i < n; ++i)
            for (int64_t k = 0; k < kf; ++k)
                for (int64_t oy = 0; oy < ho; ++oy)
                    for (int64_t ox = 0; ox < wo; ++ox) {
                        const float g =
                            dyp[((i * kf + k) * ho + oy) * wo + ox];
                        for (int64_t ci = 0; ci < c; ++ci)
                            for (int64_t ry = 0; ry < r; ++ry)
                                for (int64_t rx = 0; rx < s; ++rx) {
                                    const int64_t iy =
                                        oy * stride_ + ry - pad_h;
                                    const int64_t ix =
                                        ox * stride_ + rx - pad_w;
                                    if (iy < 0 || iy >= h || ix < 0 ||
                                        ix >= wd)
                                        continue;
                                    dxp[((i * c + ci) * h + iy) * wd +
                                        ix] +=
                                        g * wp[((k * c + ci) * r + ry) *
                                                   s + rx];
                                }
                    }
        out[0] = std::move(dx);
    }

    std::vector<Val>
    buildGradient(GradContext &) const override
    {
        ECHO_PANIC("conv2d_grad_input: second-order unsupported");
    }

    std::vector<KernelDesc>
    kernels(const std::vector<Shape> &in,
            const std::vector<Shape> &out) const override
    {
        KernelDesc k;
        k.category = "convolution";
        k.is_gemm = true;
        k.gemm_m = out[0][0] * out[0][2] * out[0][3];
        k.gemm_n = out[0][1];
        k.gemm_k = in[1][0] * in[1][2] * in[1][3];
        k.flops = 2 * k.gemm_m * k.gemm_n * k.gemm_k;
        k.bytes_read = totalElems(in) * 4;
        k.bytes_written = totalElems(out) * 4;
        return {k};
    }

  private:
    int stride_;
    Shape x_shape_;
};

class Conv2dGradWeightOp : public Op
{
  public:
    Conv2dGradWeightOp(int stride, Shape w_shape)
        : stride_(stride), w_shape_(std::move(w_shape))
    {
    }

    std::string name() const override { return "conv2d_grad_weight"; }

    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        ECHO_REQUIRE(in.size() == 2, "conv2d_grad_weight wants (dY, X)");
        return {w_shape_};
    }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        const Tensor &dy = in[0];
        const Tensor &x = in[1];
        const int64_t n = x.shape()[0], c = x.shape()[1];
        const int64_t h = x.shape()[2], wd = x.shape()[3];
        const int64_t kf = w_shape_[0], r = w_shape_[2],
                      s = w_shape_[3];
        const int64_t ho = dy.shape()[2], wo = dy.shape()[3];
        const int64_t pad_h = ((ho - 1) * stride_ + r - h) / 2;
        const int64_t pad_w = ((wo - 1) * stride_ + s - wd) / 2;

        Tensor dw = Tensor::zeros(w_shape_);
        const float *dyp = dy.data();
        const float *xp = x.data();
        float *dwp = dw.data();
        for (int64_t i = 0; i < n; ++i)
            for (int64_t k = 0; k < kf; ++k)
                for (int64_t oy = 0; oy < ho; ++oy)
                    for (int64_t ox = 0; ox < wo; ++ox) {
                        const float g =
                            dyp[((i * kf + k) * ho + oy) * wo + ox];
                        for (int64_t ci = 0; ci < c; ++ci)
                            for (int64_t ry = 0; ry < r; ++ry)
                                for (int64_t rx = 0; rx < s; ++rx) {
                                    const int64_t iy =
                                        oy * stride_ + ry - pad_h;
                                    const int64_t ix =
                                        ox * stride_ + rx - pad_w;
                                    if (iy < 0 || iy >= h || ix < 0 ||
                                        ix >= wd)
                                        continue;
                                    dwp[((k * c + ci) * r + ry) * s +
                                        rx] +=
                                        g * xp[((i * c + ci) * h + iy) *
                                                   wd + ix];
                                }
                    }
        out[0] = std::move(dw);
    }

    std::vector<Val>
    buildGradient(GradContext &) const override
    {
        ECHO_PANIC("conv2d_grad_weight: second-order unsupported");
    }

    std::vector<KernelDesc>
    kernels(const std::vector<Shape> &in,
            const std::vector<Shape> &out) const override
    {
        KernelDesc k;
        k.category = "convolution";
        k.is_gemm = true;
        k.gemm_m = out[0][0];
        k.gemm_n = out[0][1] * out[0][2] * out[0][3];
        k.gemm_k = in[0][0] * in[0][2] * in[0][3];
        k.flops = 2 * k.gemm_m * k.gemm_n * k.gemm_k;
        k.bytes_read = totalElems(in) * 4;
        k.bytes_written = totalElems(out) * 4;
        return {k};
    }

  private:
    int stride_;
    Shape w_shape_;
};

class GlobalAvgPoolOp : public Op
{
  public:
    std::string name() const override { return "global_avg_pool"; }

    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        ECHO_REQUIRE(in.size() == 1 && in[0].ndim() == 4,
                     "global_avg_pool wants [NxCxHxW]");
        return {Shape({in[0][0], in[0][1]})};
    }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        const Tensor &x = in[0];
        const int64_t n = x.shape()[0], c = x.shape()[1];
        const int64_t hw = x.shape()[2] * x.shape()[3];
        Tensor y(Shape({n, c}));
        const float *xp = x.data();
        float *yp = y.data();
        for (int64_t i = 0; i < n * c; ++i) {
            double acc = 0.0;
            for (int64_t j = 0; j < hw; ++j)
                acc += xp[i * hw + j];
            yp[i] = static_cast<float>(acc / static_cast<double>(hw));
        }
        out[0] = std::move(y);
    }

    std::vector<Val>
    buildGradient(GradContext &ctx) const override
    {
        const Val dy = ctx.out_grads[0];
        if (!dy.defined())
            return {Val{}};
        return {ctx.graph->apply1(globalAvgPoolGrad(),
                                  {dy, ctx.node->inputs[0]})};
    }
};

class GlobalAvgPoolGradOp : public Op
{
  public:
    std::string name() const override { return "global_avg_pool_grad"; }

    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        ECHO_REQUIRE(in.size() == 2 && in[1].ndim() == 4,
                     "global_avg_pool_grad wants (dY, X)");
        return {in[1]};
    }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        const Tensor &dy = in[0];
        const Shape &xs = in[1].shape();
        const int64_t hw = xs[2] * xs[3];
        Tensor dx(xs);
        const float inv = 1.0f / static_cast<float>(hw);
        const float *dyp = dy.data();
        float *dxp = dx.data();
        for (int64_t i = 0; i < xs[0] * xs[1]; ++i)
            for (int64_t j = 0; j < hw; ++j)
                dxp[i * hw + j] = dyp[i] * inv;
        out[0] = std::move(dx);
    }

    std::vector<Val>
    buildGradient(GradContext &) const override
    {
        ECHO_PANIC("global_avg_pool_grad: second-order unsupported");
    }
};

} // namespace

OpPtr softmax() { return std::make_shared<SoftmaxOp>(); }
OpPtr softmaxGrad() { return std::make_shared<SoftmaxGradOp>(); }
OpPtr layerNorm(float eps) { return std::make_shared<LayerNormOp>(eps); }
OpPtr layerNormGrad() { return std::make_shared<LayerNormGradOp>(); }
OpPtr crossEntropyLoss()
{
    return std::make_shared<CrossEntropyLossOp>();
}
OpPtr crossEntropyGrad()
{
    return std::make_shared<CrossEntropyGradOp>();
}
OpPtr embedding() { return std::make_shared<EmbeddingOp>(); }
OpPtr
embeddingGrad(Shape table_shape)
{
    return std::make_shared<EmbeddingGradOp>(std::move(table_shape));
}
OpPtr conv2d(int stride) { return std::make_shared<Conv2dOp>(stride); }
OpPtr
conv2dGradInput(int stride, Shape x_shape)
{
    return std::make_shared<Conv2dGradInputOp>(stride,
                                               std::move(x_shape));
}
OpPtr
conv2dGradWeight(int stride, Shape w_shape)
{
    return std::make_shared<Conv2dGradWeightOp>(stride,
                                                std::move(w_shape));
}
OpPtr globalAvgPool() { return std::make_shared<GlobalAvgPoolOp>(); }
OpPtr
globalAvgPoolGrad()
{
    return std::make_shared<GlobalAvgPoolGradOp>();
}

} // namespace echo::graph::oplib
