#include "analysis/fusion_audit.h"

#include <cstring>
#include <map>
#include <optional>
#include <tuple>
#include <typeindex>
#include <typeinfo>
#include <unordered_map>
#include <unordered_set>

#include "core/rng.h"
#include "graph/ops/op_fused_elementwise.h"

namespace echo::analysis {

using graph::Node;
using graph::Val;
using graph::ValHash;
using graph::oplib::FusedElementwiseOp;

namespace {

/**
 * Independently re-derive the fused program from the original members'
 * lowerings, using the documented register convention (frontier first
 * by first use, then one fresh register per instruction).  Returns an
 * empty program when a member has no lowering — which is itself a
 * legality violation.
 */
std::vector<graph::EwInstr>
rederiveProgram(const fusion::FusedGroup &group, int *num_inputs_out)
{
    // The rewrite replaced the sink's inputs with the frontier; the
    // original chain is the orphan members' intact edges plus the
    // journaled pre-fusion sink inputs.
    const auto inputs_of = [&](const Node *m) -> const std::vector<Val> & {
        return m == group.sink ? group.original_sink_inputs : m->inputs;
    };
    std::unordered_set<const Node *> in_group(group.members.begin(),
                                              group.members.end());
    std::unordered_map<Val, int, ValHash> reg_of;
    int num_inputs = 0;
    for (const Node *m : group.members)
        for (const Val &v : inputs_of(m))
            if (in_group.count(v.node) == 0 && reg_of.count(v) == 0)
                reg_of[v] = num_inputs++;

    std::vector<graph::EwInstr> program;
    int next_reg = num_inputs;
    for (const Node *m : group.members) {
        const graph::OpPtr &op =
            m == group.sink ? group.original_op : m->op;
        const std::vector<graph::EwInstr> lower =
            op->elementwiseLowering();
        if (lower.empty())
            return {};
        std::unordered_map<int, int> local;
        const std::vector<Val> &m_inputs = inputs_of(m);
        for (size_t i = 0; i < m_inputs.size(); ++i)
            local[static_cast<int>(i)] = reg_of.at(m_inputs[i]);
        for (const graph::EwInstr &instr : lower) {
            graph::EwInstr out = instr;
            out.a = local.at(instr.a);
            if (graph::ewOpcodeIsBinary(instr.opcode))
                out.b = local.at(instr.b);
            local[instr.dst] = next_reg;
            out.dst = next_reg++;
            program.push_back(out);
        }
        reg_of[Val{const_cast<Node *>(m), 0}] = program.back().dst;
    }
    *num_inputs_out = num_inputs;
    return program;
}

/** Bit patterns of every instruction's scalar operand, appended to
 *  @p out (the signature prints scalars rounded). */
void
appendScalarBits(const std::vector<graph::EwInstr> &program,
                 std::vector<uint32_t> &out)
{
    for (const graph::EwInstr &instr : program) {
        uint32_t bits = 0;
        std::memcpy(&bits, &instr.scalar, sizeof(bits));
        out.push_back(bits);
    }
}

/**
 * Everything a group's value replay depends on besides its random
 * inputs.  Unrolled steps repeat the same cell, so most groups share
 * a key with a group at another step; equal keys run the same op
 * types over the same program and shapes, and one replay stands for
 * the whole class.  Compared exactly, never by hash.
 */
struct ReplayKey
{
    /** The re-derived program signature (equal to the recorded one). */
    std::string signature;
    /** Scalar operands of the re-derived and the fused programs, bit
     *  for bit. */
    std::vector<uint32_t> scalar_bits;
    std::vector<std::vector<int64_t>> frontier_dims;
    /** Each member's original op type in member order, then the fused
     *  op's. */
    std::vector<std::type_index> op_types;

    bool
    operator<(const ReplayKey &o) const
    {
        return std::tie(signature, scalar_bits, frontier_dims, op_types) <
               std::tie(o.signature, o.scalar_bits, o.frontier_dims,
                        o.op_types);
    }
};

/** Byte-compare two tensors (NaN-safe: raw memory, not float ==). */
bool
bytesEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.numel()) *
                           sizeof(float)) == 0;
}

/**
 * The structural checks every group gets: sink op, frontier against
 * the journal, interior reachability and phase, and the re-derived
 * signature.  Returns the group's replay key, or nothing when a check
 * failed in a way that makes a value replay meaningless.
 */
std::optional<ReplayKey>
checkGroup(const fusion::FusedGroup &group,
           const graph::NodeIndex &reachable, const std::string &where,
           AnalysisReport &report)
{
    Node *sink = group.sink;
    const auto *fused =
        dynamic_cast<const FusedElementwiseOp *>(sink->op.get());
    if (fused == nullptr) {
        report.add(Check::kFusionIllegalGroup, Severity::kError,
                   where + ": sink does not carry a FusedElementwiseOp",
                   {NodeRef::of(sink)});
        return std::nullopt;
    }
    if (sink->inputs != group.frontier) {
        report.add(Check::kFusionIllegalGroup, Severity::kError,
                   where + ": sink inputs diverged from the journaled "
                           "frontier",
                   {NodeRef::of(sink)});
        return std::nullopt;
    }

    // Legality: interior members must be invisible to the fetches and
    // share the sink's phase.
    for (const Node *m : group.members) {
        if (m == sink)
            continue;
        if (reachable.find(m) >= 0)
            report.add(Check::kFusionIllegalGroup, Severity::kError,
                       where + ": interior member is still reachable "
                               "(its value escapes the group)",
                       {NodeRef::of(m), NodeRef::of(sink)});
        if (m->phase != sink->phase)
            report.add(Check::kFusionIllegalGroup, Severity::kError,
                       where + ": member phase differs from the sink's",
                       {NodeRef::of(m), NodeRef::of(sink)});
    }

    // Metadata: the signature recorded on the fused op must re-derive
    // from the original ops' lowerings.
    int num_inputs = 0;
    const std::vector<graph::EwInstr> program =
        rederiveProgram(group, &num_inputs);
    if (program.empty()) {
        report.add(Check::kFusionIllegalGroup, Severity::kError,
                   where + ": a member op has no element-wise lowering",
                   {NodeRef::of(sink)});
        return std::nullopt;
    }
    ReplayKey key;
    key.signature = graph::ewProgramSignature(
        num_inputs, program.back().dst, program);
    if (key.signature != fused->signature()) {
        report.add(Check::kFusionValueMismatch, Severity::kError,
                   where + ": program signature mismatch (recorded \"" +
                       fused->signature() + "\", re-derived \"" +
                       key.signature + "\")",
                   {NodeRef::of(sink)});
        return std::nullopt;
    }

    appendScalarBits(program, key.scalar_bits);
    appendScalarBits(fused->spec().program, key.scalar_bits);
    for (const Val &v : group.frontier)
        key.frontier_dims.push_back(graph::Graph::shapeOf(v).dims());
    for (const Node *m : group.members) {
        const graph::Op &op =
            m == sink ? *group.original_op : *m->op;
        key.op_types.emplace_back(typeid(op));
    }
    key.op_types.emplace_back(typeid(*fused));
    return key;
}

/**
 * Values: replay the original chain over the intact orphan members on
 * deterministic pseudo-random inputs and byte-compare against one
 * fused forward() call.
 */
bool
replayMatches(const fusion::FusedGroup &group)
{
    Node *sink = group.sink;
    Rng rng(0xEC40F5ED ^ static_cast<uint64_t>(sink->id));
    std::unordered_map<Val, Tensor, ValHash> env;
    std::vector<Tensor> fused_in;
    for (const Val &v : group.frontier) {
        const Tensor t =
            Tensor::uniform(graph::Graph::shapeOf(v), rng, -2.0f, 2.0f);
        env.emplace(v, t);
        fused_in.push_back(t);
    }
    for (Node *m : group.members) {
        const std::vector<Val> &m_inputs =
            m == sink ? group.original_sink_inputs : m->inputs;
        std::vector<Tensor> in;
        in.reserve(m_inputs.size());
        for (const Val &v : m_inputs)
            in.push_back(env.at(v));
        std::vector<Tensor> out(1);
        const graph::OpPtr &op =
            m == sink ? group.original_op : m->op;
        op->forward(in, out);
        env.emplace(Val{m, 0}, std::move(out[0]));
    }
    std::vector<Tensor> fused_out(1);
    sink->op->forward(fused_in, fused_out);
    return bytesEqual(env.at(Val{sink, 0}), fused_out[0]);
}

/** A replay class: its first group and that group's replay verdict. */
struct ReplayClass
{
    size_t representative;
    bool matches;
};

} // namespace

AnalysisReport
auditFusion(const std::vector<Val> &fetches,
            const fusion::FusionResult &result)
{
    AnalysisReport report;
    const std::vector<Node *> alive = graph::reachableNodes(fetches);
    const graph::NodeIndex reachable(alive);
    std::map<ReplayKey, ReplayClass> classes;
    for (size_t i = 0; i < result.groups.size(); ++i) {
        const fusion::FusedGroup &group = result.groups[i];
        const std::string where = "fused group #" + std::to_string(i);
        std::optional<ReplayKey> key =
            checkGroup(group, reachable, where, report);
        if (!key)
            continue;
        auto [it, fresh] =
            classes.try_emplace(std::move(*key), ReplayClass{i, true});
        if (fresh)
            it->second.matches = replayMatches(group);
        if (it->second.matches)
            continue;
        const auto &fused =
            static_cast<const FusedElementwiseOp &>(*group.sink->op);
        std::string message = where + " (" + fused.spec().fused_ops +
                              "): fused program output differs from the "
                              "original op chain";
        if (it->second.representative != i)
            message += " (replayed as fused group #" +
                       std::to_string(it->second.representative) + ")";
        report.add(Check::kFusionValueMismatch, Severity::kError,
                   std::move(message), {NodeRef::of(group.sink)});
    }
    return report;
}

} // namespace echo::analysis
