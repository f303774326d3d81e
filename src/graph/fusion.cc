#include "graph/fusion.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "graph/ops/op_fused_elementwise.h"
#include "obs/counters.h"

namespace echo::fusion {

using graph::EwInstr;
using graph::Node;
using graph::Val;
using graph::ValHash;

namespace {

/** Deterministic fusion.* counters (golden-trace enforced). */
void
countFusion(const FusionResult &res)
{
    static obs::Counter &groups =
        obs::counter("fusion.groups", obs::CounterKind::kDeterministic);
    static obs::Counter &ops_fused = obs::counter(
        "fusion.ops_fused", obs::CounterKind::kDeterministic);
    static obs::Counter &values = obs::counter(
        "fusion.values_elided", obs::CounterKind::kDeterministic);
    static obs::Counter &bytes = obs::counter(
        "fusion.bytes_elided", obs::CounterKind::kDeterministic);
    groups.add(res.num_groups);
    ops_fused.add(res.num_ops_fused);
    values.add(res.num_values_elided);
    bytes.add(res.bytes_elided);
}

/** Every use of every value: consumer nodes plus fetch references. */
struct UseMap
{
    /** Consumers of each value, over the WHOLE graph (orphans and
     *  unreachable nodes included — a value someone references, even
     *  from outside the reachable set, must stay materialized). */
    std::unordered_map<Val, std::vector<Node *>, ValHash> consumers;
    std::unordered_set<const Node *> fetched;
};

UseMap
buildUseMap(const graph::Graph &g, const std::vector<Val> &fetches)
{
    UseMap uses;
    for (const auto &n : g.nodes())
        for (const Val &v : n->inputs)
            uses.consumers[v].push_back(n.get());
    for (const Val &v : fetches)
        uses.fetched.insert(v.node);
    return uses;
}

/** A node the pass may put into a group (sink or interior). */
bool
fusible(const Node *n,
        std::unordered_map<const Node *, std::vector<EwInstr>> &cache)
{
    if (n->kind != graph::NodeKind::kOp || n->numOutputs() != 1)
        return false;
    auto it = cache.find(n);
    if (it == cache.end())
        it = cache.emplace(n, n->op->elementwiseLowering()).first;
    return !it->second.empty();
}

/** Build the fused op's register program from the group members. */
graph::oplib::FusedElementwiseSpec
compileGroup(const std::vector<Node *> &members,
             const std::unordered_set<const Node *> &in_group,
             std::vector<Val> &frontier,
             const std::unordered_map<const Node *,
                                      std::vector<EwInstr>> &lowerings)
{
    graph::oplib::FusedElementwiseSpec spec;
    std::unordered_map<Val, int, ValHash> reg_of;

    // Frontier registers first, ordered by first use across members
    // (members are in id order, so this is deterministic).
    for (const Node *m : members)
        for (const Val &v : m->inputs)
            if (in_group.count(v.node) == 0 && reg_of.count(v) == 0) {
                reg_of[v] = static_cast<int>(frontier.size());
                frontier.push_back(v);
            }
    spec.num_inputs = static_cast<int>(frontier.size());

    int next_reg = spec.num_inputs;
    std::string fused_ops;
    for (Node *m : members) {
        const std::vector<EwInstr> &lower = lowerings.at(m);
        // Local register i < arity is input i; every dst gets a fresh
        // program-wide register (single assignment).
        std::unordered_map<int, int> local;
        for (size_t i = 0; i < m->inputs.size(); ++i)
            local[static_cast<int>(i)] = reg_of.at(m->inputs[i]);
        for (const EwInstr &instr : lower) {
            EwInstr out = instr;
            out.a = local.at(instr.a);
            if (graph::ewOpcodeIsBinary(instr.opcode))
                out.b = local.at(instr.b);
            local[instr.dst] = next_reg;
            out.dst = next_reg++;
            spec.program.push_back(out);
        }
        reg_of[Val{m, 0}] = spec.program.back().dst;
        if (!fused_ops.empty())
            fused_ops += ",";
        fused_ops += m->op->name();
    }
    spec.num_regs = next_reg;
    spec.out_reg = spec.program.back().dst;
    spec.fused_ops = std::move(fused_ops);
    return spec;
}

} // namespace

FusionResult
runFusionPass(graph::Graph &g, const std::vector<Val> &fetches,
              const FusionConfig &config)
{
    FusionResult res;
    const std::vector<Node *> alive = graph::reachableNodes(fetches);
    const UseMap uses = buildUseMap(g, fetches);
    std::unordered_map<const Node *, std::vector<EwInstr>> lowerings;
    std::unordered_set<const Node *> claimed;

    // Nodes some op replays through at execution time (the recompute
    // pass's fused regions read their template nodes' op live).
    // Retyping one in place would silently rewire that replay, so they
    // are claimed up front — never a sink, never absorbed.
    for (const Node *n : alive)
        if (n->op != nullptr)
            for (const Node *pinned : n->op->pinnedNodes())
                claimed.insert(pinned);

    // Sinks are visited in reverse topological order, so a node is
    // absorbed as an interior of the highest-id group that can legally
    // hold it before it ever gets to seed a group of its own.
    for (auto it = alive.rbegin(); it != alive.rend(); ++it) {
        Node *sink = *it;
        if (claimed.count(sink) != 0 || !fusible(sink, lowerings))
            continue;

        std::vector<Node *> members{sink};
        std::unordered_set<const Node *> in_group{sink};

        // Grow upward to a fixpoint.  A producer joins only when every
        // single use of its value lies inside the group, so no interior
        // value ever escapes.
        bool grew = true;
        while (grew) {
            grew = false;
            for (size_t mi = 0; mi < members.size(); ++mi) {
                for (const Val &v : members[mi]->inputs) {
                    Node *p = v.node;
                    if (in_group.count(p) != 0 || claimed.count(p) != 0)
                        continue;
                    if (!fusible(p, lowerings) ||
                        p->phase != sink->phase ||
                        p->time_step != sink->time_step)
                        continue;
                    if (uses.fetched.count(p) != 0)
                        continue;
                    const auto cit = uses.consumers.find(Val{p, 0});
                    const bool all_inside =
                        cit != uses.consumers.end() &&
                        std::all_of(cit->second.begin(),
                                    cit->second.end(),
                                    [&](const Node *c) {
                                        return in_group.count(c) != 0;
                                    });
                    if (!all_inside)
                        continue;
                    members.push_back(p);
                    in_group.insert(p);
                    grew = true;
                }
            }
        }
        if (static_cast<int>(members.size()) < config.min_group_size)
            continue;

        std::sort(members.begin(), members.end(),
                  [](const Node *a, const Node *b) {
                      return a->id < b->id;
                  });

        FusedGroup group;
        group.sink = sink;
        group.original_op = sink->op;
        group.original_sink_inputs = sink->inputs;
        group.members = members;
        graph::oplib::FusedElementwiseSpec spec = compileGroup(
            members, in_group, group.frontier, lowerings);

        res.num_groups += 1;
        res.num_ops_fused += static_cast<int>(members.size());
        for (const Node *m : members) {
            if (m == sink)
                continue;
            res.num_values_elided += 1;
            res.bytes_elided += m->out_shapes[0].numel() * 4;
        }

        // In-place rewrite: the sink becomes the fused node, interior
        // members become orphans (unreachable but intact for audits).
        sink->op = graph::oplib::fusedElementwise(std::move(spec));
        sink->inputs = group.frontier;
        for (const Node *m : members)
            claimed.insert(m);
        res.groups.push_back(std::move(group));
    }

    // Groups were discovered sink-high-to-low; report in graph order.
    std::reverse(res.groups.begin(), res.groups.end());
    countFusion(res);
    return res;
}

} // namespace echo::fusion
