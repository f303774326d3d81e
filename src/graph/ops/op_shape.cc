/**
 * @file
 * Shape-plumbing operators: reshape, transpose/permute, concat/slice, and
 * the paper's SequenceReverse (with its parallel and batch-sequential
 * implementations differing only in the performance model).
 */
#include "graph/graph.h"
#include "graph/ops/oplib.h"
#include "tensor/ops.h"

#include "core/logging.h"

namespace echo::graph::oplib {

namespace {

class ReshapeOp : public Op
{
  public:
    explicit ReshapeOp(Shape new_shape) : new_shape_(std::move(new_shape))
    {
    }

    std::string name() const override { return "reshape"; }

    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        ECHO_REQUIRE(in.size() == 1 &&
                         in[0].numel() == new_shape_.numel(),
                     "reshape ", in[0].toString(), " -> ",
                     new_shape_.toString(), " changes element count");
        return {new_shape_};
    }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        out[0] = in[0].reshape(new_shape_);
    }

    std::vector<Val>
    buildGradient(GradContext &ctx) const override
    {
        const Val dy = ctx.out_grads[0];
        if (!dy.defined())
            return {Val{}};
        const Shape &in_shape = Graph::shapeOf(ctx.node->inputs[0]);
        return {ctx.graph->apply1(reshape(in_shape), {dy})};
    }

    std::vector<KernelDesc>
    kernels(const std::vector<Shape> &,
            const std::vector<Shape> &) const override
    {
        // A view change: no GPU kernel at all.
        return {};
    }

  private:
    Shape new_shape_;
};

class Permute3dOp : public Op
{
  public:
    explicit Permute3dOp(std::vector<int> perm) : perm_(std::move(perm))
    {
        ECHO_REQUIRE(perm_.size() == 3, "permute3d wants 3 axes");
    }

    std::string name() const override { return "permute3d"; }

    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        ECHO_REQUIRE(in.size() == 1 && in[0].ndim() == 3,
                     "permute3d wants a 3-D tensor");
        return {Shape({in[0][perm_[0]], in[0][perm_[1]],
                       in[0][perm_[2]]})};
    }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        out[0] = ops::permute3d(in[0], perm_);
    }

    std::vector<Val>
    buildGradient(GradContext &ctx) const override
    {
        const Val dy = ctx.out_grads[0];
        if (!dy.defined())
            return {Val{}};
        std::vector<int> inv(3);
        for (int i = 0; i < 3; ++i)
            inv[static_cast<size_t>(perm_[static_cast<size_t>(i)])] = i;
        return {ctx.graph->apply1(permute3d(inv), {dy})};
    }

    std::vector<KernelDesc>
    kernels(const std::vector<Shape> &in,
            const std::vector<Shape> &out) const override
    {
        KernelDesc k;
        k.category = "transpose";
        k.bytes_read = in[0].numel() * 4;
        k.bytes_written = out[0].numel() * 4;
        return {k};
    }

  private:
    std::vector<int> perm_;
};

class ConcatOp : public Op
{
  public:
    explicit ConcatOp(int axis) : axis_(axis) {}

    std::string name() const override { return "concat"; }

    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        ECHO_REQUIRE(!in.empty(), "concat of nothing");
        const int nd = in[0].ndim();
        int axis = axis_ < 0 ? axis_ + nd : axis_;
        ECHO_REQUIRE(axis >= 0 && axis < nd, "concat axis out of range");
        std::vector<int64_t> dims = in[0].dims();
        for (size_t p = 1; p < in.size(); ++p) {
            ECHO_REQUIRE(in[p].ndim() == nd, "concat rank mismatch");
            for (int d = 0; d < nd; ++d) {
                if (d == axis) {
                    dims[static_cast<size_t>(d)] += in[p][d];
                } else {
                    ECHO_REQUIRE(in[p][d] == in[0][d],
                                 "concat extent mismatch");
                }
            }
        }
        return {Shape(dims)};
    }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        out[0] = ops::concat(in, axis_);
    }

    std::vector<Val>
    buildGradient(GradContext &ctx) const override
    {
        const Val dy = ctx.out_grads[0];
        std::vector<Val> grads(ctx.node->inputs.size());
        if (!dy.defined())
            return grads;
        const int nd = Graph::shapeOf(ctx.node->inputs[0]).ndim();
        const int axis = axis_ < 0 ? axis_ + nd : axis_;
        int64_t off = 0;
        for (size_t i = 0; i < ctx.node->inputs.size(); ++i) {
            const int64_t extent =
                Graph::shapeOf(ctx.node->inputs[i])[axis];
            grads[i] = ctx.graph->apply1(
                sliceOp(axis, off, off + extent), {dy});
            off += extent;
        }
        return grads;
    }

  private:
    int axis_;
};

class SliceOp : public Op
{
  public:
    SliceOp(int axis, int64_t begin, int64_t end)
        : axis_(axis), begin_(begin), end_(end)
    {
    }

    std::string name() const override { return "slice"; }

    std::optional<SliceRange> sliceRange() const override
    {
        return SliceRange{axis_, begin_, end_};
    }

    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        ECHO_REQUIRE(in.size() == 1, "slice wants one input");
        const int nd = in[0].ndim();
        const int axis = axis_ < 0 ? axis_ + nd : axis_;
        ECHO_REQUIRE(axis >= 0 && axis < nd && begin_ < end_ &&
                         end_ <= in[0][axis],
                     "slice range invalid for ", in[0].toString());
        std::vector<int64_t> dims = in[0].dims();
        dims[static_cast<size_t>(axis)] = end_ - begin_;
        return {Shape(dims)};
    }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        out[0] = ops::slice(in[0], axis_, begin_, end_);
    }

    std::vector<Val>
    buildGradient(GradContext &ctx) const override
    {
        const Val dy = ctx.out_grads[0];
        if (!dy.defined())
            return {Val{}};
        const Shape &in_shape = Graph::shapeOf(ctx.node->inputs[0]);
        const int nd = in_shape.ndim();
        const int axis = axis_ < 0 ? axis_ + nd : axis_;
        return {ctx.graph->apply1(
            sliceGrad(axis, begin_, end_, in_shape[axis]), {dy})};
    }

  private:
    int axis_;
    int64_t begin_;
    int64_t end_;
};

class SliceGradOp : public Op
{
  public:
    SliceGradOp(int axis, int64_t begin, int64_t end, int64_t extent)
        : axis_(axis), begin_(begin), end_(end), extent_(extent)
    {
    }

    std::string name() const override { return "slice_grad"; }

    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        ECHO_REQUIRE(in.size() == 1, "slice_grad wants one input");
        std::vector<int64_t> dims = in[0].dims();
        const int nd = in[0].ndim();
        const int axis = axis_ < 0 ? axis_ + nd : axis_;
        ECHO_REQUIRE(dims[static_cast<size_t>(axis)] == end_ - begin_,
                     "slice_grad extent mismatch");
        dims[static_cast<size_t>(axis)] = extent_;
        return {Shape(dims)};
    }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        const int nd = in[0].shape().ndim();
        const int axis = axis_ < 0 ? axis_ + nd : axis_;
        // withDim, not dims(): this runs once per slice per iteration,
        // so the shape must not cost a heap allocation.
        const Shape full_shape = in[0].shape().withDim(axis, extent_);
        Tensor full = Tensor::zeros(full_shape);

        // Scatter the slice back: iterate outer x span x inner.
        int64_t outer = 1;
        for (int d = 0; d < axis; ++d)
            outer *= full_shape[d];
        int64_t inner = 1;
        for (int d = axis + 1; d < nd; ++d)
            inner *= full_shape[d];
        const int64_t span = end_ - begin_;
        for (int64_t o = 0; o < outer; ++o)
            for (int64_t i = 0; i < span; ++i) {
                const float *src =
                    in[0].data() + (o * span + i) * inner;
                float *dst = full.data() +
                             (o * extent_ + begin_ + i) * inner;
                for (int64_t j = 0; j < inner; ++j)
                    dst[j] = src[j];
            }
        out[0] = std::move(full);
    }

    std::vector<Val>
    buildGradient(GradContext &ctx) const override
    {
        const Val dy = ctx.out_grads[0];
        if (!dy.defined())
            return {Val{}};
        return {ctx.graph->apply1(sliceOp(axis_, begin_, end_), {dy})};
    }

  private:
    int axis_;
    int64_t begin_;
    int64_t end_;
    int64_t extent_;
};

class ReverseAxisOp : public Op
{
  public:
    ReverseAxisOp(int axis, bool parallel)
        : axis_(axis), parallel_(parallel)
    {
    }

    std::string name() const override { return "sequence_reverse"; }

    std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const override
    {
        ECHO_REQUIRE(in.size() == 1, "sequence_reverse wants one input");
        return {in[0]};
    }

    void
    forward(const std::vector<Tensor> &in,
            std::vector<Tensor> &out) const override
    {
        out[0] = ops::reverseAxis(in[0], axis_);
    }

    std::vector<Val>
    buildGradient(GradContext &ctx) const override
    {
        const Val dy = ctx.out_grads[0];
        if (!dy.defined())
            return {Val{}};
        return {
            ctx.graph->apply1(reverseAxis(axis_, parallel_), {dy})};
    }

    std::vector<KernelDesc>
    kernels(const std::vector<Shape> &in,
            const std::vector<Shape> &out) const override
    {
        KernelDesc k;
        k.category = "sequence_reverse";
        k.bytes_read = in[0].numel() * 4;
        k.bytes_written = out[0].numel() * 4;
        // MXNet's original kernel walks the batch sequentially (one
        // thread per sequence position), so it cannot saturate the GPU
        // DRAM bandwidth; the paper's fix parallelizes over the batch.
        k.coalesced = parallel_;
        return {k};
    }

  private:
    int axis_;
    bool parallel_;
};

} // namespace

OpPtr
reshape(Shape new_shape)
{
    return std::make_shared<ReshapeOp>(std::move(new_shape));
}

OpPtr
permute3d(std::vector<int> perm)
{
    return std::make_shared<Permute3dOp>(std::move(perm));
}

OpPtr
concat(int axis)
{
    return std::make_shared<ConcatOp>(axis);
}

OpPtr
sliceOp(int axis, int64_t begin, int64_t end)
{
    return std::make_shared<SliceOp>(axis, begin, end);
}

OpPtr
sliceGrad(int axis, int64_t begin, int64_t end, int64_t extent)
{
    return std::make_shared<SliceGradOp>(axis, begin, end, extent);
}

OpPtr
reverseAxis(int axis, bool parallel)
{
    return std::make_shared<ReverseAxisOp>(axis, parallel);
}

} // namespace echo::graph::oplib
