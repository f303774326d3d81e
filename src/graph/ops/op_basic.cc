/**
 * @file
 * Element-wise, broadcast, and reduction operators.
 *
 * Gradients are themselves built from these primitives (or dedicated
 * *Grad ops mirroring the fused gradient kernels real frameworks ship),
 * so the backward pass is an ordinary subgraph that references forward
 * outputs — the feature maps the Echo pass optimizes.
 */
#include "graph/graph.h"
#include "graph/ops/oplib.h"
#include "tensor/kernel_par.h"
#include "tensor/ops.h"

#include "core/logging.h"

namespace echo::graph::oplib {

namespace {

/** Shared base for unary ops whose output shape equals the input's. */
class UnaryShapeOp : public Op
{
  public:
    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        ECHO_REQUIRE(in.size() == 1, name(), ": wants one input");
        return {in[0]};
    }
};

/** Shared base for binary ops requiring identical input shapes. */
class BinarySameShapeOp : public Op
{
  public:
    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        ECHO_REQUIRE(in.size() == 2 && in[0] == in[1], name(),
                     ": wants two inputs of equal shape");
        return {in[0]};
    }
};

// ----------------------------------------------------------------------
// Binary element-wise ops
// ----------------------------------------------------------------------

class AddOp : public BinarySameShapeOp
{
  public:
    std::string name() const override { return "add"; }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        out[0] = ops::add(in[0], in[1]);
    }

    std::vector<Val>
    buildGradient(GradContext &ctx) const override
    {
        const Val dy = ctx.out_grads[0];
        return {dy, dy};
    }

    std::vector<EwInstr> elementwiseLowering() const override
    {
        return {{EwOpcode::kAdd, 2, 0, 1}};
    }
};

class SubOp : public BinarySameShapeOp
{
  public:
    std::string name() const override { return "sub"; }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        out[0] = ops::sub(in[0], in[1]);
    }

    std::vector<Val>
    buildGradient(GradContext &ctx) const override
    {
        const Val dy = ctx.out_grads[0];
        if (!dy.defined())
            return {Val{}, Val{}};
        const Val db = ctx.graph->apply1(neg(), {dy});
        return {dy, db};
    }

    std::vector<EwInstr> elementwiseLowering() const override
    {
        return {{EwOpcode::kSub, 2, 0, 1}};
    }
};

class MulOp : public BinarySameShapeOp
{
  public:
    std::string name() const override { return "mul"; }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        out[0] = ops::mul(in[0], in[1]);
    }

    std::vector<Val>
    buildGradient(GradContext &ctx) const override
    {
        const Val dy = ctx.out_grads[0];
        if (!dy.defined())
            return {Val{}, Val{}};
        const Val da =
            ctx.graph->apply1(mul(), {dy, ctx.node->inputs[1]});
        const Val db =
            ctx.graph->apply1(mul(), {dy, ctx.node->inputs[0]});
        return {da, db};
    }

    std::vector<EwInstr> elementwiseLowering() const override
    {
        return {{EwOpcode::kMul, 2, 0, 1}};
    }
};

// ----------------------------------------------------------------------
// Unary element-wise ops
// ----------------------------------------------------------------------

class NegOp : public UnaryShapeOp
{
  public:
    std::string name() const override { return "neg"; }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        out[0] = ops::negate(in[0]);
    }

    std::vector<Val>
    buildGradient(GradContext &ctx) const override
    {
        const Val dy = ctx.out_grads[0];
        if (!dy.defined())
            return {Val{}};
        return {ctx.graph->apply1(neg(), {dy})};
    }

    std::vector<EwInstr> elementwiseLowering() const override
    {
        return {{EwOpcode::kNeg, 1, 0}};
    }
};

class ScaleOp : public UnaryShapeOp
{
  public:
    explicit ScaleOp(float s) : s_(s) {}

    std::string name() const override { return "scale"; }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        out[0] = ops::mulScalar(in[0], s_);
    }

    std::vector<Val>
    buildGradient(GradContext &ctx) const override
    {
        const Val dy = ctx.out_grads[0];
        if (!dy.defined())
            return {Val{}};
        return {ctx.graph->apply1(scale(s_), {dy})};
    }

    std::vector<EwInstr> elementwiseLowering() const override
    {
        return {{EwOpcode::kMulScalar, 1, 0, -1, s_}};
    }

  private:
    float s_;
};

class TanhOp : public UnaryShapeOp
{
  public:
    std::string name() const override { return "tanh"; }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        out[0] = ops::tanh(in[0]);
    }

    std::vector<Val>
    buildGradient(GradContext &ctx) const override
    {
        const Val dy = ctx.out_grads[0];
        if (!dy.defined())
            return {Val{}};
        // References the forward *output* (feature map), like real
        // frameworks: y' = 1 - tanh(x)^2 = 1 - y^2.
        return {ctx.graph->apply1(tanhGrad(), {dy, ctx.node->out(0)})};
    }

    std::vector<EwInstr> elementwiseLowering() const override
    {
        return {{EwOpcode::kTanh, 1, 0}};
    }
};

class SigmoidOp : public UnaryShapeOp
{
  public:
    std::string name() const override { return "sigmoid"; }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        out[0] = ops::sigmoid(in[0]);
    }

    std::vector<Val>
    buildGradient(GradContext &ctx) const override
    {
        const Val dy = ctx.out_grads[0];
        if (!dy.defined())
            return {Val{}};
        return {
            ctx.graph->apply1(sigmoidGrad(), {dy, ctx.node->out(0)})};
    }

    std::vector<EwInstr> elementwiseLowering() const override
    {
        return {{EwOpcode::kSigmoid, 1, 0}};
    }
};

class ReluOp : public UnaryShapeOp
{
  public:
    std::string name() const override { return "relu"; }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        out[0] = ops::relu(in[0]);
    }

    std::vector<Val>
    buildGradient(GradContext &ctx) const override
    {
        const Val dy = ctx.out_grads[0];
        if (!dy.defined())
            return {Val{}};
        return {ctx.graph->apply1(reluGrad(), {dy, ctx.node->out(0)})};
    }

    std::vector<EwInstr> elementwiseLowering() const override
    {
        return {{EwOpcode::kRelu, 1, 0}};
    }
};

/** Base for (dY, Y) -> dX activation-gradient kernels. */
class ActGradOp : public Op
{
  public:
    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        ECHO_REQUIRE(in.size() == 2 && in[0] == in[1],
                     name(), ": wants matching (dY, Y)");
        return {in[0]};
    }

    std::vector<Val>
    buildGradient(GradContext &) const override
    {
        ECHO_PANIC(name(), ": second-order gradients are unsupported");
    }
};

class TanhGradOp : public ActGradOp
{
  public:
    std::string name() const override { return "tanh_grad"; }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        // One output-sized allocation, no temporaries; per-element
        // float ops in the lowering's exact order: square, neg, +1,
        // mul — bit-identical to both the op chain and the fused form.
        Tensor r(in[1].shape());
        const float *pd = in[0].data();
        const float *py = in[1].data();
        float *pr = r.data();
        ops::detail::parallelUnits(r.numel(), 1,
                                   [=](int64_t i0, int64_t i1) {
                                       for (int64_t i = i0; i < i1; ++i)
                                           pr[i] = pd[i] *
                                                   (-(py[i] * py[i]) +
                                                    1.0f);
                                   });
        out[0] = std::move(r);
    }

    // Same primitive steps as forward(): square, negate, +1, multiply.
    std::vector<EwInstr> elementwiseLowering() const override
    {
        return {{EwOpcode::kSquare, 2, 1},
                {EwOpcode::kNeg, 3, 2},
                {EwOpcode::kAddScalar, 4, 3, -1, 1.0f},
                {EwOpcode::kMul, 5, 0, 4}};
    }
};

class SigmoidGradOp : public ActGradOp
{
  public:
    std::string name() const override { return "sigmoid_grad"; }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        // Single allocation; float-op order matches the lowering:
        // neg, +1, mul by y, mul by dy.
        Tensor r(in[1].shape());
        const float *pd = in[0].data();
        const float *py = in[1].data();
        float *pr = r.data();
        ops::detail::parallelUnits(r.numel(), 1,
                                   [=](int64_t i0, int64_t i1) {
                                       for (int64_t i = i0; i < i1; ++i)
                                           pr[i] = pd[i] *
                                                   (py[i] *
                                                    (-py[i] + 1.0f));
                                   });
        out[0] = std::move(r);
    }

    std::vector<EwInstr> elementwiseLowering() const override
    {
        return {{EwOpcode::kNeg, 2, 1},
                {EwOpcode::kAddScalar, 3, 2, -1, 1.0f},
                {EwOpcode::kMul, 4, 1, 3},
                {EwOpcode::kMul, 5, 0, 4}};
    }
};

class ReluGradOp : public ActGradOp
{
  public:
    std::string name() const override { return "relu_grad"; }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        // Single allocation; mask-then-multiply per element, matching
        // the lowering's kGtZeroMask + kMul order.
        Tensor r(in[1].shape());
        const float *pd = in[0].data();
        const float *py = in[1].data();
        float *pr = r.data();
        ops::detail::parallelUnits(
            r.numel(), 1, [=](int64_t i0, int64_t i1) {
                for (int64_t i = i0; i < i1; ++i)
                    pr[i] = pd[i] * (py[i] > 0.0f ? 1.0f : 0.0f);
            });
        out[0] = std::move(r);
    }

    std::vector<EwInstr> elementwiseLowering() const override
    {
        return {{EwOpcode::kGtZeroMask, 2, 1},
                {EwOpcode::kMul, 3, 0, 2}};
    }
};

// ----------------------------------------------------------------------
// Constant
// ----------------------------------------------------------------------

class ConstantOp : public Op
{
  public:
    ConstantOp(Shape shape, float value)
        : shape_(std::move(shape)), value_(value)
    {
    }

    std::string name() const override { return "constant"; }

    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        ECHO_REQUIRE(in.empty(), "constant takes no inputs");
        return {shape_};
    }

    void
    forward(const std::vector<Tensor> &,
            std::vector<Tensor> &out) const override
    {
        out[0] = Tensor::full(shape_, value_);
    }

    std::vector<Val>
    buildGradient(GradContext &) const override
    {
        return {};
    }

    std::vector<KernelDesc>
    kernels(const std::vector<Shape> &,
            const std::vector<Shape> &out) const override
    {
        KernelDesc k;
        k.category = "elementwise";
        k.bytes_written = totalElems(out) * 4;
        return {k};
    }

  private:
    Shape shape_;
    float value_;
};

// ----------------------------------------------------------------------
// Broadcast / reduce ops
// ----------------------------------------------------------------------

class AddBiasOp : public Op
{
  public:
    std::string name() const override { return "add_bias"; }

    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        ECHO_REQUIRE(in.size() == 2 && in[1].ndim() == 1 &&
                         in[0].dim(-1) == in[1][0],
                     "add_bias wants ([...xN], [N])");
        return {in[0]};
    }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        out[0] = ops::addBias(in[0], in[1]);
    }

    std::vector<Val>
    buildGradient(GradContext &ctx) const override
    {
        const Val dy = ctx.out_grads[0];
        if (!dy.defined())
            return {Val{}, Val{}};
        const Val db = ctx.graph->apply1(sumToBias(), {dy});
        return {dy, db};
    }
};

class SumToBiasOp : public Op
{
  public:
    std::string name() const override { return "sum_to_bias"; }

    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        ECHO_REQUIRE(in.size() == 1 && in[0].ndim() >= 1,
                     "sum_to_bias wants one input");
        return {Shape({in[0].dim(-1)})};
    }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        out[0] = ops::sumToBias(in[0], in[0].shape().dim(-1));
    }

    std::vector<Val>
    buildGradient(GradContext &) const override
    {
        ECHO_PANIC("sum_to_bias: second-order unsupported");
    }
};

class BroadcastAddBTOp : public Op
{
  public:
    std::string name() const override { return "broadcast_add_bt"; }

    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        ECHO_REQUIRE(in.size() == 2 && in[0].ndim() == 3 &&
                         in[1].ndim() == 2 && in[0][0] == in[1][0] &&
                         in[0][2] == in[1][1],
                     "broadcast_add_bt wants ([BxTxH], [BxH])");
        return {in[0]};
    }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        out[0] = ops::broadcastAddBT(in[0], in[1]);
    }

    std::vector<Val>
    buildGradient(GradContext &ctx) const override
    {
        const Val dy = ctx.out_grads[0];
        if (!dy.defined())
            return {Val{}, Val{}};
        const Val dq = ctx.graph->apply1(sumAxis1(), {dy});
        return {dy, dq};
    }
};

class BroadcastToBTOp : public Op
{
  public:
    explicit BroadcastToBTOp(int64_t t) : t_(t) {}

    std::string name() const override { return "broadcast_to_bt"; }

    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        ECHO_REQUIRE(in.size() == 1 && in[0].ndim() == 2,
                     "broadcast_to_bt wants [BxH]");
        return {Shape({in[0][0], t_, in[0][1]})};
    }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        const Tensor zeros =
            Tensor::zeros(Shape({in[0].shape()[0], t_,
                                 in[0].shape()[1]}));
        out[0] = ops::broadcastAddBT(zeros, in[0]);
    }

    std::vector<Val>
    buildGradient(GradContext &ctx) const override
    {
        const Val dy = ctx.out_grads[0];
        if (!dy.defined())
            return {Val{}};
        return {ctx.graph->apply1(sumAxis1(), {dy})};
    }

  private:
    int64_t t_;
};

class SumAxis1Op : public Op
{
  public:
    std::string name() const override { return "sum_axis1"; }

    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        ECHO_REQUIRE(in.size() == 1 && in[0].ndim() == 3,
                     "sum_axis1 wants [BxTxH]");
        return {Shape({in[0][0], in[0][2]})};
    }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        out[0] = ops::sumAxis1(in[0]);
    }

    std::vector<Val>
    buildGradient(GradContext &ctx) const override
    {
        const Val dy = ctx.out_grads[0];
        if (!dy.defined())
            return {Val{}};
        const int64_t t = Graph::shapeOf(ctx.node->inputs[0])[1];
        return {ctx.graph->apply1(broadcastToBT(t), {dy})};
    }
};

class DotLastAxisOp : public Op
{
  public:
    std::string name() const override { return "dot_last_axis"; }

    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        ECHO_REQUIRE(in.size() == 2 && in[1].ndim() == 1 &&
                         in[0].dim(-1) == in[1][0],
                     "dot_last_axis wants ([...xH], [H])");
        return {in[0].dropAxis(in[0].ndim() - 1)};
    }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        out[0] = ops::dotLastAxis(in[0], in[1]);
    }

    std::vector<Val>
    buildGradient(GradContext &ctx) const override
    {
        const Val dy = ctx.out_grads[0];
        if (!dy.defined())
            return {Val{}, Val{}};
        const Val dx = ctx.graph->apply1(outerLastAxis(),
                                         {dy, ctx.node->inputs[1]});
        const Val scaled = ctx.graph->apply1(
            scaleRowsBT(), {ctx.node->inputs[0], dy});
        const Val dv = ctx.graph->apply1(sumToBias(), {scaled});
        return {dx, dv};
    }
};

class OuterLastAxisOp : public Op
{
  public:
    std::string name() const override { return "outer_last_axis"; }

    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        ECHO_REQUIRE(in.size() == 2 && in[1].ndim() == 1,
                     "outer_last_axis wants ([...], [H])");
        return {in[0].insertAxis(in[0].ndim(), in[1][0])};
    }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        out[0] = ops::outerLastAxis(in[0], in[1]);
    }

    std::vector<Val>
    buildGradient(GradContext &ctx) const override
    {
        const Val dy = ctx.out_grads[0];
        if (!dy.defined())
            return {Val{}, Val{}};
        const Val ds = ctx.graph->apply1(
            dotLastAxis(), {dy, ctx.node->inputs[1]});
        const Val scaled = ctx.graph->apply1(
            scaleRowsBT(), {dy, ctx.node->inputs[0]});
        const Val dv = ctx.graph->apply1(sumToBias(), {scaled});
        return {ds, dv};
    }
};

class ScaleRowsBTOp : public Op
{
  public:
    std::string name() const override { return "scale_rows_bt"; }

    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        ECHO_REQUIRE(in.size() == 2 && in[0].ndim() == 3 &&
                         in[1].ndim() == 2 && in[0][0] == in[1][0] &&
                         in[0][1] == in[1][1],
                     "scale_rows_bt wants ([BxTxH], [BxT])");
        return {in[0]};
    }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        out[0] = ops::scaleRowsBT(in[0], in[1]);
    }

    std::vector<Val>
    buildGradient(GradContext &ctx) const override
    {
        const Val dy = ctx.out_grads[0];
        if (!dy.defined())
            return {Val{}, Val{}};
        const Val dx = ctx.graph->apply1(scaleRowsBT(),
                                         {dy, ctx.node->inputs[1]});
        const Val dw = ctx.graph->apply1(rowDotBT(),
                                         {dy, ctx.node->inputs[0]});
        return {dx, dw};
    }
};

class RowDotBTOp : public Op
{
  public:
    std::string name() const override { return "row_dot_bt"; }

    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        ECHO_REQUIRE(in.size() == 2 && in[0].ndim() == 3 &&
                         in[0] == in[1],
                     "row_dot_bt wants matching [BxTxH]");
        return {Shape({in[0][0], in[0][1]})};
    }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        out[0] = ops::rowDotBT(in[0], in[1]);
    }

    std::vector<Val>
    buildGradient(GradContext &ctx) const override
    {
        const Val dy = ctx.out_grads[0];
        if (!dy.defined())
            return {Val{}, Val{}};
        const Val da = ctx.graph->apply1(scaleRowsBT(),
                                         {ctx.node->inputs[1], dy});
        const Val db = ctx.graph->apply1(scaleRowsBT(),
                                         {ctx.node->inputs[0], dy});
        return {da, db};
    }
};

} // namespace

OpPtr add() { return std::make_shared<AddOp>(); }
OpPtr sub() { return std::make_shared<SubOp>(); }
OpPtr mul() { return std::make_shared<MulOp>(); }
OpPtr neg() { return std::make_shared<NegOp>(); }
OpPtr scale(float s) { return std::make_shared<ScaleOp>(s); }
OpPtr tanhOp() { return std::make_shared<TanhOp>(); }
OpPtr sigmoidOp() { return std::make_shared<SigmoidOp>(); }
OpPtr reluOp() { return std::make_shared<ReluOp>(); }
OpPtr tanhGrad() { return std::make_shared<TanhGradOp>(); }
OpPtr sigmoidGrad() { return std::make_shared<SigmoidGradOp>(); }
OpPtr reluGrad() { return std::make_shared<ReluGradOp>(); }

OpPtr
constant(Shape shape, float value)
{
    return std::make_shared<ConstantOp>(std::move(shape), value);
}

OpPtr addBias() { return std::make_shared<AddBiasOp>(); }
OpPtr sumToBias() { return std::make_shared<SumToBiasOp>(); }
OpPtr broadcastAddBT() { return std::make_shared<BroadcastAddBTOp>(); }
OpPtr broadcastToBT(int64_t t)
{
    return std::make_shared<BroadcastToBTOp>(t);
}
OpPtr sumAxis1() { return std::make_shared<SumAxis1Op>(); }
OpPtr dotLastAxis() { return std::make_shared<DotLastAxisOp>(); }
OpPtr outerLastAxis() { return std::make_shared<OuterLastAxisOp>(); }
OpPtr scaleRowsBT() { return std::make_shared<ScaleRowsBTOp>(); }
OpPtr rowDotBT() { return std::make_shared<RowDotBTOp>(); }

} // namespace echo::graph::oplib
