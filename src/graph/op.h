/**
 * @file
 * The operator interface of the dataflow-graph IR.
 *
 * Every graph node holds an Op.  An Op provides:
 *  - shape inference (inferShapes),
 *  - a CPU forward implementation (forward) used by the numeric executor,
 *  - a gradient *graph builder* (buildGradient) used by autodiff — the
 *    backward pass is itself a graph of primitive ops, so edges from
 *    backward nodes to forward outputs (feature maps) are first-class and
 *    can be rewritten by the Echo recomputation pass,
 *  - GPU kernel descriptors (kernels) consumed by the analytical GPU
 *    performance model.
 */
#ifndef ECHO_GRAPH_OP_H
#define ECHO_GRAPH_OP_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/ew_program.h"
#include "tensor/shape.h"
#include "tensor/tensor.h"

namespace echo::graph {

class Graph;
struct Node;

/** A reference to one output of a node (an SSA value). */
struct Val
{
    Node *node = nullptr;
    int index = 0;

    bool defined() const { return node != nullptr; }
    bool operator==(const Val &o) const
    {
        return node == o.node && index == o.index;
    }
};

/** Hash functor so Val can key unordered containers. */
struct ValHash
{
    size_t operator()(const Val &v) const
    {
        return std::hash<const void *>()(v.node) * 31 +
               static_cast<size_t>(v.index);
    }
};

/**
 * Descriptor of one GPU kernel an op lowers to, consumed by
 * gpusim::KernelCostModel.  An op may lower to several kernels (e.g.\ the
 * fused LSTM layer op lowers to per-step GEMMs plus fused element-wise
 * kernels).
 */
struct KernelDesc
{
    /** Reporting category, e.g.\ "fully_connected", "elementwise". */
    std::string category = "elementwise";
    /** Floating-point operations PER LAUNCH. */
    int64_t flops = 0;
    /** Bytes read / written PER LAUNCH (before cache modelling). */
    int64_t bytes_read = 0;
    int64_t bytes_written = 0;
    /** Number of identical launches this descriptor stands for. */
    int launches = 1;
    /** True for matrix-multiply kernels (cost-modelled separately and
     *  never recomputed by the Echo pass). */
    bool is_gemm = false;
    /** GEMM geometry (valid when is_gemm). M is the output-row extent —
     *  the dimension whose skew drives the layout effect of Fig. 9. */
    int64_t gemm_m = 0;
    int64_t gemm_n = 0;
    int64_t gemm_k = 0;
    /** Operand transposes (valid when is_gemm) — together with the
     *  geometry these form the autotuner's shape key. */
    bool gemm_trans_a = false;
    bool gemm_trans_b = false;
    /** True when the kernel's global-memory access pattern is fully
     *  coalesced (the paper's parallel SequenceReverse vs the
     *  batch-sequential MXNet implementation). */
    bool coalesced = true;
    /** Multiplier on modelled execution time; used for effects outside
     *  the per-kernel model, e.g.\ cuDNN's cross-layer wavefront
     *  overlap on multi-layer LSTMs. */
    double time_scale = 1.0;
};

/** The range a `slice` op reads from its input: [begin, end) along
 *  axis (negative axes count from the back, as in oplib::sliceOp). */
struct SliceRange
{
    int axis = 0;
    int64_t begin = 0;
    int64_t end = 0;
};

/** Operand transposes of a 2-D `gemm` op: C = op(A) * op(B). */
struct GemmTransposes
{
    bool a = false;
    bool b = false;
};

/** Inputs handed to Op::buildGradient. */
struct GradContext
{
    Graph *graph = nullptr;
    /** The forward node whose inputs we differentiate. */
    Node *node = nullptr;
    /** Gradients of each output; an undefined Val means "no gradient
     *  flows into this output" (treat as zero). */
    std::vector<Val> out_grads;
};

/** Abstract graph operator. */
class Op
{
  public:
    virtual ~Op() = default;

    /** Stable operator name, e.g.\ "gemm". */
    virtual std::string name() const = 0;

    /** Infer output shapes from input shapes. */
    virtual std::vector<Shape>
    inferShapes(const std::vector<Shape> &in) const = 0;

    /** Execute on CPU tensors. @p out is pre-sized to the output count. */
    virtual void forward(const std::vector<Tensor> &in,
                         std::vector<Tensor> &out) const = 0;

    /**
     * Append gradient nodes to ctx.graph and return the gradient of each
     * input (undefined Val for non-differentiable inputs such as token
     * ids).
     */
    virtual std::vector<Val> buildGradient(GradContext &ctx) const = 0;

    /** GPU kernels this op lowers to, for the performance model. */
    virtual std::vector<KernelDesc>
    kernels(const std::vector<Shape> &in,
            const std::vector<Shape> &out) const;

    /**
     * True when the Echo pass may include this op in a recomputation
     * subgraph.  The default follows the paper's rule: everything except
     * compute-heavy GEMM-class ops is cheap to recompute.
     */
    virtual bool cheapToRecompute() const { return true; }

    /**
     * Lowering of this op to the element-wise register program
     * (graph/ew_program.h), or empty when the op is not a pure
     * same-shape element-wise map — the fusion pass (graph/fusion.h)
     * only fuses ops that provide one.  Register convention: registers
     * 0..k-1 are the op's k inputs, every instruction writes a fresh
     * register starting at k, and the last instruction's destination is
     * the op's (single) output.  Each instruction must perform exactly
     * the primitive arithmetic steps of forward(), in the same order,
     * so fused execution is byte-identical to the unfused kernels.
     */
    virtual std::vector<EwInstr> elementwiseLowering() const
    {
        return {};
    }

    /** The slice range, when this op is a `slice`.  Autodiff reads it
     *  to assemble a value's gradient from the slices that cover it. */
    virtual std::optional<SliceRange> sliceRange() const
    {
        return std::nullopt;
    }

    /** The operand transposes, when this op is a 2-D `gemm`.  Autodiff
     *  reads it to stack a shared weight's gradient into one GEMM. */
    virtual std::optional<GemmTransposes> gemmTransposes() const
    {
        return std::nullopt;
    }

    /**
     * Graph nodes this op reads THROUGH at execution time (e.g.\ the
     * fused recompute region replays its template nodes' `op` and
     * output arity live).  Any transform that retypes nodes in place —
     * element-wise fusion swaps a sink's op and inputs — must leave
     * pinned nodes untouched, or the aliasing op replays a rewired
     * template with stale input wiring.  Empty for ordinary ops.
     */
    virtual std::vector<const Node *> pinnedNodes() const
    {
        return {};
    }
};

using OpPtr = std::shared_ptr<Op>;

/** Sum of element counts across shapes, a convenience for cost math. */
int64_t totalElems(const std::vector<Shape> &shapes);

} // namespace echo::graph

#endif // ECHO_GRAPH_OP_H
