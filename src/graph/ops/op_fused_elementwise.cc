/**
 * @file
 * Block interpreter for fused element-wise programs, plus the
 * ew_program.h helpers.
 *
 * Hot path: compiled with the same flags as the unfused element-wise
 * kernels (host ISA, -O3, -ffp-contract=off).  Each opcode's inner loop
 * performs exactly one primitive step, matching the per-op tensor
 * kernels (tensor/ops_elementwise.cc), and tanh / sigmoid call the same
 * tensor/vec_math.h functions those kernels call, so fused results are
 * byte-identical to the unfused graph.
 */
#include "graph/ops/op_fused_elementwise.h"

#include <algorithm>
#include <sstream>

#include "core/logging.h"
#include "tensor/kernel_par.h"
#include "tensor/vec_math.h"

namespace echo::graph {

const char *
ewOpcodeName(EwOpcode opcode)
{
    switch (opcode) {
    case EwOpcode::kAdd: return "add";
    case EwOpcode::kSub: return "sub";
    case EwOpcode::kMul: return "mul";
    case EwOpcode::kNeg: return "neg";
    case EwOpcode::kAddScalar: return "add_scalar";
    case EwOpcode::kMulScalar: return "mul_scalar";
    case EwOpcode::kSquare: return "square";
    case EwOpcode::kTanh: return "tanh";
    case EwOpcode::kSigmoid: return "sigmoid";
    case EwOpcode::kRelu: return "relu";
    case EwOpcode::kGtZeroMask: return "gt_zero_mask";
    }
    return "?";
}

bool
ewOpcodeIsBinary(EwOpcode opcode)
{
    switch (opcode) {
    case EwOpcode::kAdd:
    case EwOpcode::kSub:
    case EwOpcode::kMul:
        return true;
    default:
        return false;
    }
}

std::string
ewInstrToString(const EwInstr &instr)
{
    std::ostringstream os;
    os << "r" << instr.dst << " = " << ewOpcodeName(instr.opcode)
       << "(r" << instr.a;
    if (ewOpcodeIsBinary(instr.opcode))
        os << ", r" << instr.b;
    if (instr.opcode == EwOpcode::kAddScalar ||
        instr.opcode == EwOpcode::kMulScalar)
        os << ", " << instr.scalar;
    os << ")";
    return os.str();
}

std::string
ewProgramSignature(int num_inputs, int out_reg,
                   const std::vector<EwInstr> &program)
{
    std::ostringstream os;
    os << "in=" << num_inputs << " out=r" << out_reg;
    for (const EwInstr &instr : program)
        os << "; " << ewInstrToString(instr);
    return os.str();
}

} // namespace echo::graph

namespace echo::graph::oplib {

namespace {

/**
 * Elements interpreted per register buffer.  2 KiB per register keeps a
 * typical program's working set inside L1/L2 while amortizing the
 * per-instruction dispatch over the block.
 */
constexpr int64_t kEwBlockElems = 512;

void
validateSpec(const FusedElementwiseSpec &spec)
{
    ECHO_REQUIRE(spec.num_inputs >= 1 && !spec.program.empty(),
                 "fused_ew: empty spec");
    ECHO_REQUIRE(spec.num_regs ==
                     spec.num_inputs +
                         static_cast<int>(spec.program.size()),
                 "fused_ew: register count must be inputs + instrs");
    int next_dst = spec.num_inputs;
    for (const EwInstr &instr : spec.program) {
        ECHO_REQUIRE(instr.dst == next_dst,
                     "fused_ew: program must assign fresh registers "
                     "in order (single assignment)");
        ECHO_REQUIRE(instr.a >= 0 && instr.a < instr.dst,
                     "fused_ew: operand a out of range");
        if (ewOpcodeIsBinary(instr.opcode))
            ECHO_REQUIRE(instr.b >= 0 && instr.b < instr.dst,
                         "fused_ew: operand b out of range");
        ++next_dst;
    }
    ECHO_REQUIRE(spec.out_reg == spec.program.back().dst,
                 "fused_ew: output must be the last assignment");
}

/** dst[j] = op(a[j][, b[j]]) over one block; one primitive op per loop. */
void
runInstr(const EwInstr &instr, const float *a, const float *b,
         float *dst, int64_t len)
{
    const float s = instr.scalar;
    switch (instr.opcode) {
    case EwOpcode::kAdd:
        for (int64_t j = 0; j < len; ++j)
            dst[j] = a[j] + b[j];
        break;
    case EwOpcode::kSub:
        for (int64_t j = 0; j < len; ++j)
            dst[j] = a[j] - b[j];
        break;
    case EwOpcode::kMul:
        for (int64_t j = 0; j < len; ++j)
            dst[j] = a[j] * b[j];
        break;
    case EwOpcode::kNeg:
        for (int64_t j = 0; j < len; ++j)
            dst[j] = -a[j];
        break;
    case EwOpcode::kAddScalar:
        for (int64_t j = 0; j < len; ++j)
            dst[j] = a[j] + s;
        break;
    case EwOpcode::kMulScalar:
        for (int64_t j = 0; j < len; ++j)
            dst[j] = a[j] * s;
        break;
    case EwOpcode::kSquare:
        for (int64_t j = 0; j < len; ++j)
            dst[j] = a[j] * a[j];
        break;
    case EwOpcode::kTanh:
        for (int64_t j = 0; j < len; ++j)
            dst[j] = vec::tanh(a[j]);
        break;
    case EwOpcode::kSigmoid:
        for (int64_t j = 0; j < len; ++j)
            dst[j] = vec::sigmoid(a[j]);
        break;
    case EwOpcode::kRelu:
        for (int64_t j = 0; j < len; ++j)
            dst[j] = a[j] > 0.0f ? a[j] : 0.0f;
        break;
    case EwOpcode::kGtZeroMask:
        for (int64_t j = 0; j < len; ++j)
            dst[j] = a[j] > 0.0f ? 1.0f : 0.0f;
        break;
    }
}

} // namespace

FusedElementwiseOp::FusedElementwiseOp(FusedElementwiseSpec spec)
    : spec_(std::move(spec))
{
    validateSpec(spec_);
    signature_ = ewProgramSignature(spec_.num_inputs, spec_.out_reg,
                                    spec_.program);
    program_lowering_ = spec_.program;
}

std::vector<Shape>
FusedElementwiseOp::inferShapes(const std::vector<Shape> &in) const
{
    ECHO_REQUIRE(in.size() ==
                     static_cast<size_t>(spec_.num_inputs),
                 "fused_ew[", spec_.fused_ops, "]: wants ",
                 spec_.num_inputs, " inputs");
    for (const Shape &s : in)
        ECHO_REQUIRE(s == in[0],
                     "fused_ew: all inputs must share one shape");
    return {in[0]};
}

void
FusedElementwiseOp::forward(const std::vector<Tensor> &in,
                            std::vector<Tensor> &out) const
{
    const int64_t n = in[0].numel();
    Tensor result(in[0].shape());
    float *res = result.data();

    // Reused per-thread scratch: forward() runs once per fused group
    // per iteration, so a per-dispatch heap allocation here would be
    // paid thousands of times per step.  Grow-only resize — the
    // register file is bounded by the largest fused program seen.
    thread_local std::vector<const float *> src_scratch;
    src_scratch.resize(in.size());
    const float **src = src_scratch.data();
    for (size_t i = 0; i < in.size(); ++i)
        src[i] = in[i].data();
    const int num_inputs = spec_.num_inputs;
    const int num_temps = spec_.num_regs - num_inputs;
    const std::vector<EwInstr> &program = spec_.program;

    ops::detail::parallelUnits(n, 1, [&](int64_t i0, int64_t i1) {
        // Per-thread register file; interior values never touch a
        // planned allocation.  Register contents are never read before
        // the program writes them (validateSpec), so stale bytes from
        // the previous dispatch are harmless.
        thread_local std::vector<float> regs_scratch;
        thread_local std::vector<const float *> rd_scratch;
        regs_scratch.resize(static_cast<size_t>(num_temps) *
                            kEwBlockElems);
        rd_scratch.resize(static_cast<size_t>(spec_.num_regs));
        std::vector<float> &regs = regs_scratch;
        std::vector<const float *> &rd = rd_scratch;
        for (int64_t base = i0; base < i1; base += kEwBlockElems) {
            const int64_t len = std::min(kEwBlockElems, i1 - base);
            for (int i = 0; i < num_inputs; ++i)
                rd[static_cast<size_t>(i)] = src[static_cast<size_t>(i)] + base;
            for (const EwInstr &instr : program) {
                float *dst =
                    instr.dst == spec_.out_reg
                        ? res + base
                        : regs.data() +
                              static_cast<size_t>(instr.dst - num_inputs) *
                                  kEwBlockElems;
                runInstr(instr, rd[static_cast<size_t>(instr.a)],
                         instr.b >= 0 ? rd[static_cast<size_t>(instr.b)]
                                      : nullptr,
                         dst, len);
                rd[static_cast<size_t>(instr.dst)] = dst;
            }
        }
    });
    out[0] = std::move(result);
}

std::vector<Val>
FusedElementwiseOp::buildGradient(GradContext &) const
{
    ECHO_PANIC("fused_ew[", spec_.fused_ops,
               "]: differentiate before fusing (the fusion pass runs "
               "after autodiff)");
}

std::vector<KernelDesc>
FusedElementwiseOp::kernels(const std::vector<Shape> &in,
                            const std::vector<Shape> &out) const
{
    KernelDesc k;
    k.category = "elementwise";
    k.flops = totalElems(out) *
              static_cast<int64_t>(spec_.program.size());
    k.bytes_read = totalElems(in) * 4;
    k.bytes_written = totalElems(out) * 4;
    return {k};
}

OpPtr
fusedElementwise(FusedElementwiseSpec spec)
{
    return std::make_shared<FusedElementwiseOp>(std::move(spec));
}

} // namespace echo::graph::oplib
