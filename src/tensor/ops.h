/**
 * @file
 * The CPU tensor-op library.
 *
 * These free functions implement the numeric kernels that the graph ops
 * (src/graph/ops) call from their forward implementations and that the
 * gradient graphs are composed from.  All functions are pure: they return
 * freshly allocated tensors and never mutate inputs (except the explicit
 * *Into accumulation helpers).
 *
 * Implementations live in ops_gemm.cc, ops_elementwise.cc, ops_shape.cc,
 * and ops_nn.cc.
 */
#ifndef ECHO_TENSOR_OPS_H
#define ECHO_TENSOR_OPS_H

#include <cstdint>
#include <vector>

#include "tensor/gemm_schedule.h"
#include "tensor/tensor.h"

namespace echo::ops {

// ----------------------------------------------------------------------
// GEMM family (ops_gemm.cc)
// ----------------------------------------------------------------------

/**
 * General matrix multiply: C = alpha * op(A) * op(B), where op() is an
 * optional transpose.  A is [M x K] after op, B is [K x N] after op.
 * Runs under GemmSchedule::fixedDefault() (see tensor/gemm_schedule.h).
 */
Tensor gemm(const Tensor &a, bool trans_a, const Tensor &b, bool trans_b,
            float alpha = 1.0f);

/**
 * gemm() under an explicit schedule — the schedule measurement harness
 * (tune/measure.h) and the schedule tests use this.
 * Dies if @p schedule is illegal for the operand layout.  Results are
 * byte-identical to gemmReference() for every legal schedule.
 */
Tensor gemmWithSchedule(const Tensor &a, bool trans_a, const Tensor &b,
                        bool trans_b, float alpha,
                        const GemmSchedule &schedule);

/**
 * Naive triple-loop GEMM kept as the golden reference for the blocked
 * kernel: tests compare every transpose combination against it, and
 * bench/cpu_kernels times it as the "seed" baseline.  Do not use on a
 * hot path.
 */
Tensor gemmReference(const Tensor &a, bool trans_a, const Tensor &b,
                     bool trans_b, float alpha = 1.0f);

/**
 * Batched matrix multiply over the leading axis:
 * C[b] = op(A[b]) * op(B[b]) for 3-D A, B, under the fixed default
 * schedule.
 */
Tensor bmm(const Tensor &a, bool trans_a, const Tensor &b, bool trans_b);

/** bmm() under an explicit schedule (batch_parallel picks the axis). */
Tensor bmmWithSchedule(const Tensor &a, bool trans_a, const Tensor &b,
                       bool trans_b, const GemmSchedule &schedule);

// ----------------------------------------------------------------------
// Element-wise family (ops_elementwise.cc)
// ----------------------------------------------------------------------

Tensor add(const Tensor &a, const Tensor &b);
Tensor sub(const Tensor &a, const Tensor &b);
Tensor mul(const Tensor &a, const Tensor &b);

Tensor mulScalar(const Tensor &a, float s);

Tensor tanh(const Tensor &a);
Tensor sigmoid(const Tensor &a);
Tensor relu(const Tensor &a);
Tensor negate(const Tensor &a);

/** dst += src (in place); shapes must match. */
void accumulateInto(Tensor &dst, const Tensor &src);

// ----------------------------------------------------------------------
// Broadcast / reduction family (ops_elementwise.cc)
// ----------------------------------------------------------------------

/** Add a length-[N] bias row to each row of a [..., N] tensor. */
Tensor addBias(const Tensor &a, const Tensor &bias);

/** Sum a [..., N] tensor over all leading axes, producing [N]. */
Tensor sumToBias(const Tensor &a, int64_t n);

/**
 * Broadcast-add a per-batch row: X [B x T x H] + q [B x H] -> [B x T x H]
 * (q is added to every time step).  This is the attention "compare"
 * broadcast of the paper's O-shape region.
 */
Tensor broadcastAddBT(const Tensor &x, const Tensor &q);

/** Sum over the middle axis: [B x T x H] -> [B x H]. */
Tensor sumAxis1(const Tensor &x);

/**
 * Contract the last axis with a vector: [B x T x H] . [H] -> [B x T].
 * Used by the attention scoring head (v-dot).
 */
Tensor dotLastAxis(const Tensor &x, const Tensor &v);

/** Broadcast-multiply along the last axis: [B x T] x [H] -> [B x T x H]. */
Tensor outerLastAxis(const Tensor &s, const Tensor &v);

/** Scale each [H]-row of X [B x T x H] by the scalar w[b, t]. */
Tensor scaleRowsBT(const Tensor &x, const Tensor &w);

/** Per-(b,t) dot product of two [B x T x H] tensors -> [B x T]. */
Tensor rowDotBT(const Tensor &a, const Tensor &b);

// ----------------------------------------------------------------------
// Shape family (ops_shape.cc)
// ----------------------------------------------------------------------

Tensor transpose2d(const Tensor &a);

/** Permute the axes of a 3-D tensor, e.g.\ perm = {1, 0, 2}. */
Tensor permute3d(const Tensor &a, const std::vector<int> &perm);

/** Concatenate along @p axis; all other extents must match. */
Tensor concat(const std::vector<Tensor> &parts, int axis);

/** Slice [begin, end) along @p axis. */
Tensor slice(const Tensor &a, int axis, int64_t begin, int64_t end);

/** Reverse a tensor along @p axis (paper's SequenceReverse semantics). */
Tensor reverseAxis(const Tensor &a, int axis);

// ----------------------------------------------------------------------
// Neural-network family (ops_nn.cc)
// ----------------------------------------------------------------------

/** Numerically stable softmax along the last axis (2-D or 3-D). */
Tensor softmaxLastAxis(const Tensor &a);

/**
 * Mean cross-entropy of logits [N x V] against integer labels [N]
 * (labels carried as floats).  Positions with label < 0 are ignored
 * (padding).  Returns a scalar [1].
 */
Tensor crossEntropy(const Tensor &logits, const Tensor &labels);

/** Gradient of crossEntropy with respect to the logits, scaled by the
 *  upstream loss gradient (folded into the masking pass so callers
 *  need no second output-sized multiply). */
Tensor crossEntropyGrad(const Tensor &logits, const Tensor &labels,
                        float loss_grad = 1.0f);

/**
 * Layer normalization along the last axis with learnable gain/bias
 * omitted (the paper's attention composite uses the plain normalization).
 * @param eps variance floor.
 */
Tensor layerNormLastAxis(const Tensor &a, float eps = 1e-5f);

/** Embedding lookup: table [V x H], ids [...], result [... x H]. */
Tensor embeddingLookup(const Tensor &table, const Tensor &ids);

/** Scatter-add gradient of embeddingLookup into a tensor of the
 *  table's shape [V x H] (exactly one output-sized allocation). */
Tensor embeddingGrad(const Shape &table_shape, const Tensor &ids,
                     const Tensor &out_grad);

} // namespace echo::ops

#endif // ECHO_TENSOR_OPS_H
