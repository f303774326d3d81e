/**
 * @file
 * Factory functions for the primitive-operator library.
 *
 * Each factory returns a shared, stateless (or attribute-carrying) Op.
 * The op set mirrors what an MXNet-class framework lowers LSTM models
 * into: GEMMs, element-wise kernels, broadcast/reduce kernels, shape
 * plumbing, and the NN-specific heads — plus the fused RNN-layer ops that
 * model cuDNN (declared in op_fused_rnn.h).
 *
 * Implementations: op_basic.cc (element-wise, broadcast, reduce),
 * op_matmul.cc (gemm/bmm), op_shape.cc (reshape/slice/concat/...),
 * op_nn.cc (softmax, layernorm, cross-entropy, embedding, conv).
 */
#ifndef ECHO_GRAPH_OPS_OPLIB_H
#define ECHO_GRAPH_OPS_OPLIB_H

#include <vector>

#include "graph/op.h"

namespace echo::graph::oplib {

// --- element-wise (op_basic.cc) ---------------------------------------

OpPtr add();
OpPtr sub();
OpPtr mul();
OpPtr neg();
OpPtr scale(float s);
OpPtr tanhOp();
OpPtr sigmoidOp();
OpPtr reluOp();

/** dX = dY * (1 - Y^2); inputs (dY, Y). */
OpPtr tanhGrad();
/** dX = dY * Y * (1 - Y); inputs (dY, Y). */
OpPtr sigmoidGrad();
/** dX = dY * (Y > 0); inputs (dY, Y). */
OpPtr reluGrad();

/** No-input op producing a constant-filled tensor. */
OpPtr constant(Shape shape, float value);

// --- broadcast / reduce (op_basic.cc) ---------------------------------

/** X [... x N] + bias [N]. */
OpPtr addBias();
/** Sum all leading axes of [... x N] down to [N]. */
OpPtr sumToBias();
/** X [BxTxH] + q [BxH] broadcast over T. */
OpPtr broadcastAddBT();
/** Replicate q [BxH] across T time steps -> [BxTxH]. */
OpPtr broadcastToBT(int64_t t);
/** Sum [BxTxH] over T -> [BxH]. */
OpPtr sumAxis1();
/** [BxTxH] . v[H] -> [BxT]. */
OpPtr dotLastAxis();
/** s [BxT] (x) v [H] -> [BxTxH]. */
OpPtr outerLastAxis();
/** Scale each H-row of [BxTxH] by w [BxT]. */
OpPtr scaleRowsBT();
/** Per-(b,t) dot of two [BxTxH] -> [BxT]. */
OpPtr rowDotBT();

// --- matmul (op_matmul.cc) ---------------------------------------------

/** C = op(A) * op(B); the workhorse fully-connected kernel. */
OpPtr gemm(bool trans_a, bool trans_b);
/** Batched matmul over the leading axis. */
OpPtr bmm(bool trans_a, bool trans_b);

// --- shape plumbing (op_shape.cc) --------------------------------------

OpPtr reshape(Shape new_shape);
OpPtr permute3d(std::vector<int> perm);
OpPtr concat(int axis);
OpPtr sliceOp(int axis, int64_t begin, int64_t end);
/** Scatter dY back into a zero tensor of the pre-slice extent. */
OpPtr sliceGrad(int axis, int64_t begin, int64_t end, int64_t extent);
/**
 * Reverse along @p axis.  @p parallel selects between the paper's fixed
 * batch-parallel kernel and MXNet's original batch-sequential one, which
 * differ only in the performance model (coalesced flag).
 */
OpPtr reverseAxis(int axis, bool parallel);

// --- NN heads (op_nn.cc) ------------------------------------------------

OpPtr softmax();
/** dX = Y * (dY - sum(dY * Y)); inputs (dY, Y). */
OpPtr softmaxGrad();
/** Outputs (normalized, rstd). */
OpPtr layerNorm(float eps = 1e-5f);
/** Inputs (dY, Y, rstd) -> dX. */
OpPtr layerNormGrad();
/** Inputs (logits [NxV], labels [N]) -> mean NLL scalar. */
OpPtr crossEntropyLoss();
/** Inputs (dLoss, logits, labels) -> dLogits. */
OpPtr crossEntropyGrad();
/** Inputs (table [VxH], ids) -> [ids... x H]. */
OpPtr embedding();
/** Inputs (ids, dY) -> dTable (scatter-add). */
OpPtr embeddingGrad(Shape table_shape);

// --- CNN proxy (op_nn.cc) -----------------------------------------------

/** Same-padded 2-D convolution, inputs (X [NxCxHxW], W [KxCxRxS]). */
OpPtr conv2d(int stride);
/** Inputs (dY, W) -> dX. */
OpPtr conv2dGradInput(int stride, Shape x_shape);
/** Inputs (dY, X) -> dW. */
OpPtr conv2dGradWeight(int stride, Shape w_shape);
/** Global average pool [NxCxHxW] -> [NxC]. */
OpPtr globalAvgPool();
/** Inputs (dY, X) -> dX for globalAvgPool. */
OpPtr globalAvgPoolGrad();

} // namespace echo::graph::oplib

#endif // ECHO_GRAPH_OPS_OPLIB_H
