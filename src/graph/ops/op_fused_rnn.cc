#include "graph/ops/op_fused_rnn.h"

#include <algorithm>

#include "core/logging.h"
#include "graph/graph.h"
#include "graph/ops/oplib.h"
#include "tensor/ops.h"
#include "tensor/vec_math.h"

namespace echo::graph::oplib {

namespace {

/**
 * Emit the GEMM kernel descriptors shared by both fused styles.
 * @p fast selects the transposed Y^T = W X^T form (M = rows of W).
 */
KernelDesc
rnnGemmDesc(int64_t m_batch, int64_t n_wide, int64_t k, bool fast,
            int launches)
{
    KernelDesc d;
    d.category = "fully_connected";
    d.is_gemm = true;
    if (fast) {
        d.gemm_m = n_wide; // rows of W (4H)
        d.gemm_n = m_batch;
    } else {
        d.gemm_m = m_batch; // batch rows
        d.gemm_n = n_wide;
    }
    d.gemm_k = k;
    d.flops = 2 * d.gemm_m * d.gemm_n * d.gemm_k;
    d.bytes_read = (d.gemm_m * d.gemm_k + d.gemm_k * d.gemm_n) * 4;
    d.bytes_written = d.gemm_m * d.gemm_n * 4;
    d.launches = launches;
    return d;
}

class FusedLstmLayerOp : public Op
{
  public:
    FusedLstmLayerOp(FusedRnnStyle style, bool overlap)
        : style_(style), overlap_(overlap)
    {
    }

    std::string name() const override
    {
        return style_ == FusedRnnStyle::kCudnn ? "fused_lstm_cudnn"
                                               : "fused_lstm_eco";
    }

    bool cheapToRecompute() const override { return false; }

    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        ECHO_REQUIRE(in.size() == 6, "fused_lstm wants 6 inputs");
        const Shape &x = in[0];
        ECHO_REQUIRE(x.ndim() == 3, "X must be [TxBxI]");
        const int64_t t = x[0], b = x[1], i = x[2];
        const int64_t h4 = in[1][0];
        ECHO_REQUIRE(h4 % 4 == 0 && in[1][1] == i,
                     "Wx must be [4HxI], got ", in[1].toString());
        const int64_t h = h4 / 4;
        ECHO_REQUIRE(in[2] == Shape({4 * h, h}), "Wh must be [4HxH]");
        ECHO_REQUIRE(in[3] == Shape({4 * h}), "bias must be [4H]");
        ECHO_REQUIRE(in[4] == Shape({b, h}) && in[5] == Shape({b, h}),
                     "h0/c0 must be [BxH]");
        return {Shape({t, b, h}), Shape({b, h}), Shape({b, h}),
                Shape({t, b, 5 * h})};
    }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        const Tensor &x = in[0];
        const Tensor &wx = in[1];
        const Tensor &wh = in[2];
        const Tensor &bias = in[3];
        const int64_t t = x.shape()[0], b = x.shape()[1];
        const int64_t h = wh.shape()[1];

        Tensor hs(Shape({t, b, h}));
        Tensor reserve(Shape({t, b, 5 * h}));
        Tensor h_prev = in[4].clone();
        Tensor c_prev = in[5].clone();

        for (int64_t step = 0; step < t; ++step) {
            const Tensor x_t =
                ops::slice(x, 0, step, step + 1)
                    .reshape(Shape({b, x.shape()[2]}));
            Tensor gates = ops::addBias(
                ops::add(ops::gemm(x_t, false, wx, true),
                         ops::gemm(h_prev, false, wh, true)),
                bias);
            Tensor h_t(Shape({b, h}));
            Tensor c_t(Shape({b, h}));
            for (int64_t r = 0; r < b; ++r) {
                const float *g = gates.data() + r * 4 * h;
                const float *cp = c_prev.data() + r * h;
                float *ct = c_t.data() + r * h;
                float *ht = h_t.data() + r * h;
                float *res = reserve.data() + ((step * b + r) * 5 * h);
                for (int64_t j = 0; j < h; ++j) {
                    const float gi = vec::sigmoid(g[0 * h + j]);
                    const float gf = vec::sigmoid(g[1 * h + j]);
                    const float gg = vec::tanh(g[2 * h + j]);
                    const float go = vec::sigmoid(g[3 * h + j]);
                    const float c = gf * cp[j] + gi * gg;
                    ct[j] = c;
                    ht[j] = go * vec::tanh(c);
                    res[0 * h + j] = gi;
                    res[1 * h + j] = gf;
                    res[2 * h + j] = gg;
                    res[3 * h + j] = go;
                    res[4 * h + j] = c;
                }
            }
            std::copy(h_t.data(), h_t.data() + b * h,
                      hs.data() + step * b * h);
            h_prev = std::move(h_t);
            c_prev = std::move(c_t);
        }
        out[0] = std::move(hs);
        out[1] = std::move(h_prev);
        out[2] = std::move(c_prev);
        out[3] = std::move(reserve);
    }

    std::vector<Val>
    buildGradient(GradContext &ctx) const override
    {
        Graph &g = *ctx.graph;
        Node *n = ctx.node;
        auto grad_or_zero = [&](int out_idx) {
            if (ctx.out_grads[static_cast<size_t>(out_idx)].defined())
                return ctx.out_grads[static_cast<size_t>(out_idx)];
            return g.apply1(
                constant(n->out_shapes[static_cast<size_t>(out_idx)],
                         0.0f),
                {});
        };
        const Val dhs = grad_or_zero(0);
        const Val dht = grad_or_zero(1);
        const Val dct = grad_or_zero(2);
        std::vector<Val> grads = g.apply(
            fusedLstmLayerGrad(style_, overlap_),
            {dhs, dht, dct, n->inputs[0], n->out(0), n->out(3),
             n->inputs[1], n->inputs[2], n->inputs[4], n->inputs[5]});
        // grads = dX, dWx, dWh, dbias, dh0, dc0 — matching input order
        // X, Wx, Wh, bias, h0, c0.
        return {grads[0], grads[1], grads[2],
                grads[3], grads[4], grads[5]};
    }

    std::vector<KernelDesc>
    kernels(const std::vector<Shape> &in,
            const std::vector<Shape> &out) const override
    {
        const int64_t t = in[0][0], b = in[0][1], i = in[0][2];
        const int64_t h = in[2][1];
        const bool fast = style_ == FusedRnnStyle::kEco;

        // Wavefront overlap across stacked layers hides part of the
        // serialized per-step work (cuDNN only).
        const double overlap_scale = overlap_ ? 0.8 : 1.0;

        std::vector<KernelDesc> ks;
        // Input projection, batched across all T steps.
        ks.push_back(rnnGemmDesc(t * b, 4 * h, i, fast, 1));
        // Recurrent projection, per step (cannot be batched).
        ks.push_back(rnnGemmDesc(b, 4 * h, h, fast,
                                 static_cast<int>(t)));
        ks.back().time_scale = overlap_scale;
        // One fused point-wise kernel per step (gates + cell update).
        KernelDesc pw;
        pw.category = "elementwise";
        pw.launches = static_cast<int>(t);
        pw.flops = b * h * 16;
        pw.bytes_read = b * 6 * h * 4;
        pw.bytes_written = b * 7 * h * 4;
        pw.time_scale = overlap_scale;
        ks.push_back(pw);
        if (fast) {
            // Boundary layout transforms [TxBxI] <-> [TxIxB].
            KernelDesc tr;
            tr.category = "transpose";
            tr.launches = 2;
            tr.bytes_read = (in[0].numel() + out[0].numel()) / 2 * 4;
            tr.bytes_written = tr.bytes_read;
            ks.push_back(tr);
        }
        return ks;
    }

  private:
    FusedRnnStyle style_;
    bool overlap_;
};

class FusedLstmLayerGradOp : public Op
{
  public:
    FusedLstmLayerGradOp(FusedRnnStyle style, bool overlap)
        : style_(style), overlap_(overlap)
    {
    }

    std::string name() const override
    {
        return style_ == FusedRnnStyle::kCudnn
                   ? "fused_lstm_cudnn_grad"
                   : "fused_lstm_eco_grad";
    }

    bool cheapToRecompute() const override { return false; }

    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        ECHO_REQUIRE(in.size() == 10, "fused_lstm_grad wants 10 inputs");
        const Shape &x = in[3];
        const Shape &wx = in[6];
        const Shape &wh = in[7];
        const int64_t b = x[1];
        const int64_t h = wh[1];
        return {x, wx, wh, Shape({4 * h}), Shape({b, h}),
                Shape({b, h})};
    }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        const Tensor &dhs = in[0];
        const Tensor &dht = in[1];
        const Tensor &dct = in[2];
        const Tensor &x = in[3];
        const Tensor &hs = in[4];
        const Tensor &reserve = in[5];
        const Tensor &wx = in[6];
        const Tensor &wh = in[7];
        const Tensor &h0 = in[8];
        const Tensor &c0 = in[9];

        const int64_t t = x.shape()[0], b = x.shape()[1],
                      i = x.shape()[2];
        const int64_t h = wh.shape()[1];

        Tensor dx = Tensor::zeros(x.shape());
        Tensor dwx = Tensor::zeros(wx.shape());
        Tensor dwh = Tensor::zeros(wh.shape());
        Tensor dbias = Tensor::zeros(Shape({4 * h}));
        Tensor dh = dht.clone();
        Tensor dc = dct.clone();
        const float *reserve_p = reserve.data();

        for (int64_t step = t - 1; step >= 0; --step) {
            // Fold in the per-step hidden-state gradient.
            for (int64_t r = 0; r < b; ++r)
                for (int64_t j = 0; j < h; ++j)
                    dh.at(r, j) += dhs.at(step, r, j);

            Tensor dgates(Shape({b, 4 * h}));
            for (int64_t r = 0; r < b; ++r) {
                const float *res = reserve_p + ((step * b + r) * 5 * h);
                for (int64_t j = 0; j < h; ++j) {
                    const float gi = res[0 * h + j];
                    const float gf = res[1 * h + j];
                    const float gg = res[2 * h + j];
                    const float go = res[3 * h + j];
                    const float c = res[4 * h + j];
                    const float c_prev =
                        step > 0 ? reserve_p[(((step - 1) * b + r) * 5 +
                                              4) * h + j]
                                 : c0.at(r, j);
                    const float tc = vec::tanh(c);
                    const float dht_ = dh.at(r, j);
                    const float do_ = dht_ * tc;
                    float dc_ = dc.at(r, j) +
                                dht_ * go * (1.0f - tc * tc);
                    const float di = dc_ * gg;
                    const float dg = dc_ * gi;
                    const float df = dc_ * c_prev;
                    // Save the gradient flowing into c_{t-1}.
                    dc.at(r, j) = dc_ * gf;
                    dgates.at(r, 0 * h + j) =
                        di * gi * (1.0f - gi);
                    dgates.at(r, 1 * h + j) =
                        df * gf * (1.0f - gf);
                    dgates.at(r, 2 * h + j) =
                        dg * (1.0f - gg * gg);
                    dgates.at(r, 3 * h + j) =
                        do_ * go * (1.0f - go);
                }
            }

            const Tensor x_t = ops::slice(x, 0, step, step + 1)
                                   .reshape(Shape({b, i}));
            const Tensor h_prev =
                step > 0 ? ops::slice(hs, 0, step - 1, step)
                               .reshape(Shape({b, h}))
                         : h0;

            // dX_t = dgates * Wx ; dh_prev = dgates * Wh
            const Tensor dx_t = ops::gemm(dgates, false, wx, false);
            dh = ops::gemm(dgates, false, wh, false);
            for (int64_t r = 0; r < b; ++r)
                for (int64_t j = 0; j < i; ++j)
                    dx.at(step, r, j) = dx_t.at(r, j);

            // Weight gradients accumulate across steps.
            ops::accumulateInto(
                dwx, ops::gemm(dgates, true, x_t, false));
            ops::accumulateInto(
                dwh, ops::gemm(dgates, true, h_prev, false));
            ops::accumulateInto(dbias,
                                ops::sumToBias(dgates, 4 * h));
        }

        out[0] = std::move(dx);
        out[1] = std::move(dwx);
        out[2] = std::move(dwh);
        out[3] = std::move(dbias);
        out[4] = std::move(dh);
        out[5] = std::move(dc);
    }

    std::vector<Val>
    buildGradient(GradContext &) const override
    {
        ECHO_PANIC("fused_lstm_grad: second-order unsupported");
    }

    std::vector<KernelDesc>
    kernels(const std::vector<Shape> &in,
            const std::vector<Shape> &out) const override
    {
        const Shape &x = in[3];
        const int64_t t = x[0], b = x[1], i = x[2];
        const int64_t h = in[7][1];
        const bool fast = style_ == FusedRnnStyle::kEco;

        const double overlap_scale = overlap_ ? 0.8 : 1.0;

        std::vector<KernelDesc> ks;
        // Per-step fused point-wise gradient kernel.
        KernelDesc pw;
        pw.category = "elementwise";
        pw.launches = static_cast<int>(t);
        pw.flops = b * h * 24;
        pw.bytes_read = b * 8 * h * 4;
        pw.bytes_written = b * 5 * h * 4;
        pw.time_scale = overlap_scale;
        ks.push_back(pw);
        // Per-step data-gradient GEMM (recurrent path).
        ks.push_back(rnnGemmDesc(b, h, 4 * h, fast,
                                 static_cast<int>(t)));
        ks.back().time_scale = overlap_scale;
        // Batched input-gradient GEMM across all steps.
        ks.push_back(rnnGemmDesc(t * b, i, 4 * h, fast, 1));
        // Weight-gradient GEMMs, batched across steps: M = 4H always
        // (these are never skewed-slow).
        for (int64_t n_dim : {i, h}) {
            KernelDesc wg;
            wg.category = "fully_connected";
            wg.is_gemm = true;
            wg.gemm_m = 4 * h;
            wg.gemm_n = n_dim;
            wg.gemm_k = t * b;
            wg.flops = 2 * wg.gemm_m * wg.gemm_n * wg.gemm_k;
            wg.bytes_read =
                (wg.gemm_m * wg.gemm_k + wg.gemm_k * wg.gemm_n) * 4;
            wg.bytes_written = wg.gemm_m * wg.gemm_n * 4;
            ks.push_back(wg);
        }
        (void)out;
        return ks;
    }

  private:
    FusedRnnStyle style_;
    bool overlap_;
};

} // namespace

OpPtr
fusedLstmLayer(FusedRnnStyle style, bool multilayer_overlap)
{
    return std::make_shared<FusedLstmLayerOp>(style, multilayer_overlap);
}

OpPtr
fusedLstmLayerGrad(FusedRnnStyle style, bool multilayer_overlap)
{
    return std::make_shared<FusedLstmLayerGradOp>(style,
                                                  multilayer_overlap);
}

} // namespace echo::graph::oplib
