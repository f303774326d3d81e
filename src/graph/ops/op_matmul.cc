/**
 * @file
 * GEMM-family graph operators — the paper's "fully-connected layers".
 *
 * These are the only ops with is_gemm kernel descriptors: the GPU model
 * costs them through the layout-sensitive tiled-GEMM model, and the Echo
 * pass refuses to recompute them (cheapToRecompute() == false).
 */
#include "graph/graph.h"
#include "graph/ops/oplib.h"
#include "tensor/ops.h"

#include "core/logging.h"

namespace echo::graph::oplib {

namespace {

class GemmOp : public Op
{
  public:
    GemmOp(bool trans_a, bool trans_b)
        : trans_a_(trans_a), trans_b_(trans_b)
    {
    }

    std::string name() const override { return "gemm"; }

    bool cheapToRecompute() const override { return false; }

    std::optional<GemmTransposes> gemmTransposes() const override
    {
        return GemmTransposes{trans_a_, trans_b_};
    }

    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        ECHO_REQUIRE(in.size() == 2 && in[0].ndim() == 2 &&
                         in[1].ndim() == 2,
                     "gemm wants two matrices");
        const int64_t m = trans_a_ ? in[0][1] : in[0][0];
        const int64_t k = trans_a_ ? in[0][0] : in[0][1];
        const int64_t kb = trans_b_ ? in[1][1] : in[1][0];
        const int64_t n = trans_b_ ? in[1][0] : in[1][1];
        ECHO_REQUIRE(k == kb, "gemm inner dim mismatch: ",
                     in[0].toString(), (trans_a_ ? "^T" : ""), " * ",
                     in[1].toString(), (trans_b_ ? "^T" : ""));
        return {Shape({m, n})};
    }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        out[0] = ops::gemm(in[0], trans_a_, in[1], trans_b_);
    }

    std::vector<Val>
    buildGradient(GradContext &ctx) const override
    {
        const Val dc = ctx.out_grads[0];
        if (!dc.defined())
            return {Val{}, Val{}};
        Graph &g = *ctx.graph;
        const Val a = ctx.node->inputs[0];
        const Val b = ctx.node->inputs[1];

        Val da;
        if (!trans_a_) {
            // dA = dC * op(B)^T
            da = g.apply1(gemm(false, !trans_b_), {dc, b});
        } else {
            // dA = op(B) * dC^T
            da = g.apply1(gemm(trans_b_, true), {b, dc});
        }
        Val db;
        if (!trans_b_) {
            // dB = op(A)^T * dC
            db = g.apply1(gemm(!trans_a_, false), {a, dc});
        } else {
            // dB = dC^T * op(A)
            db = g.apply1(gemm(true, trans_a_), {dc, a});
        }
        return {da, db};
    }

    std::vector<KernelDesc>
    kernels(const std::vector<Shape> &in,
            const std::vector<Shape> &out) const override
    {
        KernelDesc k;
        k.category = "fully_connected";
        k.is_gemm = true;
        k.gemm_m = out[0][0];
        k.gemm_n = out[0][1];
        k.gemm_k = trans_a_ ? in[0][0] : in[0][1];
        k.gemm_trans_a = trans_a_;
        k.gemm_trans_b = trans_b_;
        k.flops = 2 * k.gemm_m * k.gemm_n * k.gemm_k;
        k.bytes_read = (in[0].numel() + in[1].numel()) * 4;
        k.bytes_written = out[0].numel() * 4;
        return {k};
    }

  private:
    bool trans_a_;
    bool trans_b_;
};

class BmmOp : public Op
{
  public:
    BmmOp(bool trans_a, bool trans_b)
        : trans_a_(trans_a), trans_b_(trans_b)
    {
    }

    std::string name() const override { return "bmm"; }

    bool cheapToRecompute() const override { return false; }

    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        ECHO_REQUIRE(in.size() == 2 && in[0].ndim() == 3 &&
                         in[1].ndim() == 3 && in[0][0] == in[1][0],
                     "bmm wants two batched matrices");
        const int64_t m = trans_a_ ? in[0][2] : in[0][1];
        const int64_t k = trans_a_ ? in[0][1] : in[0][2];
        const int64_t kb = trans_b_ ? in[1][2] : in[1][1];
        const int64_t n = trans_b_ ? in[1][1] : in[1][2];
        ECHO_REQUIRE(k == kb, "bmm inner dim mismatch");
        return {Shape({in[0][0], m, n})};
    }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        out[0] = ops::bmm(in[0], trans_a_, in[1], trans_b_);
    }

    std::vector<Val>
    buildGradient(GradContext &ctx) const override
    {
        const Val dc = ctx.out_grads[0];
        if (!dc.defined())
            return {Val{}, Val{}};
        Graph &g = *ctx.graph;
        const Val a = ctx.node->inputs[0];
        const Val b = ctx.node->inputs[1];

        Val da;
        if (!trans_a_) {
            da = g.apply1(bmm(false, !trans_b_), {dc, b});
        } else {
            da = g.apply1(bmm(trans_b_, true), {b, dc});
        }
        Val db;
        if (!trans_b_) {
            db = g.apply1(bmm(!trans_a_, false), {a, dc});
        } else {
            db = g.apply1(bmm(true, trans_a_), {dc, a});
        }
        return {da, db};
    }

    std::vector<KernelDesc>
    kernels(const std::vector<Shape> &in,
            const std::vector<Shape> &out) const override
    {
        const int64_t batch = out[0][0];
        KernelDesc k;
        k.category = "fully_connected";
        k.is_gemm = true;
        k.gemm_m = out[0][1];
        k.gemm_n = out[0][2];
        k.gemm_k = trans_a_ ? in[0][1] : in[0][2];
        k.gemm_trans_a = trans_a_;
        k.gemm_trans_b = trans_b_;
        // One batched launch doing `batch` independent GEMMs.
        k.flops = 2 * batch * k.gemm_m * k.gemm_n * k.gemm_k;
        k.bytes_read = (in[0].numel() + in[1].numel()) * 4;
        k.bytes_written = out[0].numel() * 4;
        return {k};
    }

  private:
    bool trans_a_;
    bool trans_b_;
};

} // namespace

OpPtr
gemm(bool trans_a, bool trans_b)
{
    return std::make_shared<GemmOp>(trans_a, trans_b);
}

OpPtr
bmm(bool trans_a, bool trans_b)
{
    return std::make_shared<BmmOp>(trans_a, trans_b);
}

} // namespace echo::graph::oplib
