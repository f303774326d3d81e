/**
 * @file
 * The element-wise register program: the tiny IR the fusion pass
 * (graph/fusion.h) compiles single-consumer element-wise chains into,
 * and the FusedElementwiseOp interpreter executes in one parallel pass.
 *
 * A program is a straight-line, single-assignment instruction list over
 * virtual registers.  Registers 0..num_inputs-1 hold the fused node's
 * inputs; every instruction writes a fresh register; the last
 * instruction's destination is the node's output.  One instruction
 * performs exactly ONE primitive step — the same granularity as the
 * unfused per-op tensor kernels, with tanh and sigmoid evaluated by the
 * same tensor/vec_math.h functions — so no compiler can contract a
 * multiply and an add across what used to be two ops, and fused results
 * stay byte-identical to the unfused graph.
 */
#ifndef ECHO_GRAPH_EW_PROGRAM_H
#define ECHO_GRAPH_EW_PROGRAM_H

#include <string>
#include <vector>

namespace echo::graph {

/** One primitive element-wise operation. */
enum class EwOpcode {
    kAdd,        ///< dst = a + b
    kSub,        ///< dst = a - b
    kMul,        ///< dst = a * b
    kNeg,        ///< dst = -a
    kAddScalar,  ///< dst = a + scalar
    kMulScalar,  ///< dst = a * scalar
    kSquare,     ///< dst = a * a
    kTanh,       ///< dst = vec::tanh(a)  (tensor/vec_math.h)
    kSigmoid,    ///< dst = vec::sigmoid(a) = 1 / (1 + vec::exp(-a))
    kRelu,       ///< dst = a > 0 ? a : 0
    kGtZeroMask, ///< dst = a > 0 ? 1 : 0
};

/** Mnemonic of an opcode ("add", "mul_scalar", ...). */
const char *ewOpcodeName(EwOpcode opcode);

/** True when the opcode reads two registers. */
bool ewOpcodeIsBinary(EwOpcode opcode);

/**
 * One instruction: dst = opcode(a[, b][, scalar]).  Register numbers
 * are local to the program; -1 marks an unused operand.
 */
struct EwInstr
{
    EwOpcode opcode = EwOpcode::kAdd;
    int dst = -1;
    int a = -1;
    int b = -1;
    float scalar = 0.0f;
};

/** "r4 = mul(r0, r2)" / "r3 = add_scalar(r2, 1)" rendering. */
std::string ewInstrToString(const EwInstr &instr);

/**
 * Canonical text of a whole program ("in=2 out=r4; r2 = ...; ...").
 * This is the value-equality metadata the fusion pass records on each
 * fused node and analysis::auditFusion re-derives and compares.
 */
std::string ewProgramSignature(int num_inputs, int out_reg,
                               const std::vector<EwInstr> &program);

} // namespace echo::graph

#endif // ECHO_GRAPH_EW_PROGRAM_H
