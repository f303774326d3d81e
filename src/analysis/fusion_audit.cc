#include "analysis/fusion_audit.h"

#include <cstring>
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
 * Independently re-derive the fused program's signature from the
 * original members' lowerings, using the documented register
 * convention (frontier first by first use, then one fresh register per
 * instruction).  Returns "" when a member has no lowering — which is
 * itself a legality violation.
 */
std::string
rederiveSignature(const fusion::FusedGroup &group)
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
            return "";
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
    return graph::ewProgramSignature(num_inputs, program.back().dst,
                                     program);
}

/** Byte-compare two tensors (NaN-safe: raw memory, not float ==). */
bool
bytesEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.numel()) *
                           sizeof(float)) == 0;
}

void
auditGroup(const fusion::FusedGroup &group,
           const std::unordered_set<const Node *> &reachable,
           size_t group_index, AnalysisReport &report)
{
    Node *sink = group.sink;
    const std::string where =
        "fused group #" + std::to_string(group_index);

    const auto *fused =
        dynamic_cast<const FusedElementwiseOp *>(sink->op.get());
    if (fused == nullptr) {
        report.add(Check::kFusionIllegalGroup, Severity::kError,
                   where + ": sink does not carry a FusedElementwiseOp",
                   {NodeRef::of(sink)});
        return;
    }
    if (sink->inputs != group.frontier) {
        report.add(Check::kFusionIllegalGroup, Severity::kError,
                   where + ": sink inputs diverged from the journaled "
                           "frontier",
                   {NodeRef::of(sink)});
        return;
    }

    // Legality: interior members must be invisible to the fetches and
    // share the sink's phase.
    for (const Node *m : group.members) {
        if (m == sink)
            continue;
        if (reachable.count(m) != 0)
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
    const std::string expected = rederiveSignature(group);
    if (expected.empty()) {
        report.add(Check::kFusionIllegalGroup, Severity::kError,
                   where + ": a member op has no element-wise lowering",
                   {NodeRef::of(sink)});
        return;
    }
    if (expected != fused->signature()) {
        report.add(Check::kFusionValueMismatch, Severity::kError,
                   where + ": program signature mismatch (recorded \"" +
                       fused->signature() + "\", re-derived \"" +
                       expected + "\")",
                   {NodeRef::of(sink)});
        return;
    }

    // Values: replay the original chain over the intact orphan members
    // and byte-compare against one fused forward() call.
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
    fused->forward(fused_in, fused_out);
    if (!bytesEqual(env.at(Val{sink, 0}), fused_out[0]))
        report.add(Check::kFusionValueMismatch, Severity::kError,
                   where + " (" + fused->spec().fused_ops +
                       "): fused program output differs from the "
                       "original op chain",
                   {NodeRef::of(sink)});
}

} // namespace

AnalysisReport
auditFusion(const std::vector<Val> &fetches,
            const fusion::FusionResult &result)
{
    AnalysisReport report;
    const std::vector<Node *> alive = graph::reachableNodes(fetches);
    const std::unordered_set<const Node *> reachable(alive.begin(),
                                                     alive.end());
    for (size_t i = 0; i < result.groups.size(); ++i)
        auditGroup(result.groups[i], reachable, i, report);
    return report;
}

} // namespace echo::analysis
