#include "analysis/graph_verifier.h"

#include <sstream>

namespace echo::analysis {

namespace {

using graph::Node;
using graph::NodeKind;
using graph::Phase;
using graph::Val;

/**
 * Per-node edge validation.  Returns false when any edge is broken, in
 * which case shape/phase checks are skipped for the node (they would
 * dereference the broken edge).
 */
bool
checkEdges(const Node *n, const graph::NodeIndex &universe,
           bool allow_external, AnalysisReport &report)
{
    bool ok = true;
    for (size_t i = 0; i < n->inputs.size(); ++i) {
        const Val &v = n->inputs[i];
        if (v.node == nullptr) {
            report.add(Check::kDanglingEdge, Severity::kError,
                       "input " + std::to_string(i) +
                           " is an undefined value",
                       {NodeRef::of(n)});
            ok = false;
            continue;
        }
        if (universe.find(v.node) < 0 && !allow_external) {
            report.add(Check::kDanglingEdge, Severity::kError,
                       "input " + std::to_string(i) +
                           " refers to a node outside the graph",
                       {NodeRef::of(v.node), NodeRef::of(n)});
            ok = false;
            continue;
        }
        if (v.index < 0 || v.index >= v.node->numOutputs()) {
            report.add(Check::kDanglingEdge, Severity::kError,
                       "input " + std::to_string(i) +
                           " uses output index " +
                           std::to_string(v.index) + " of a node with " +
                           std::to_string(v.node->numOutputs()) +
                           " outputs",
                       {NodeRef::of(v.node), NodeRef::of(n)});
            ok = false;
        }
    }
    return ok;
}

void
checkNodeWellFormed(const Node *n, AnalysisReport &report)
{
    switch (n->kind) {
      case NodeKind::kPlaceholder:
      case NodeKind::kWeight:
        if (!n->inputs.empty())
            report.add(Check::kMalformedNode, Severity::kError,
                       "input node has dataflow inputs",
                       {NodeRef::of(n)});
        if (n->numOutputs() != 1)
            report.add(Check::kMalformedNode, Severity::kError,
                       "input node must have exactly one output",
                       {NodeRef::of(n)});
        if (n->op != nullptr)
            report.add(Check::kMalformedNode, Severity::kError,
                       "input node carries an op", {NodeRef::of(n)});
        break;
      case NodeKind::kOp:
        if (n->op == nullptr)
            report.add(Check::kMalformedNode, Severity::kError,
                       "op node has a null op", {NodeRef::of(n)});
        if (n->numOutputs() < 1)
            report.add(Check::kMalformedNode, Severity::kError,
                       "op node declares no outputs", {NodeRef::of(n)});
        break;
    }
}

void
checkShapes(const Node *n, AnalysisReport &report)
{
    if (n->kind != NodeKind::kOp || n->op == nullptr)
        return;
    std::vector<Shape> in_shapes;
    in_shapes.reserve(n->inputs.size());
    for (const Val &v : n->inputs)
        in_shapes.push_back(
            v.node->out_shapes[static_cast<size_t>(v.index)]);
    const std::vector<Shape> expect = n->op->inferShapes(in_shapes);
    if (expect.size() != n->out_shapes.size()) {
        report.add(Check::kShapeMismatch, Severity::kError,
                   "op declares " +
                       std::to_string(n->out_shapes.size()) +
                       " outputs but its signature infers " +
                       std::to_string(expect.size()),
                   {NodeRef::of(n)});
        return;
    }
    for (size_t i = 0; i < expect.size(); ++i) {
        if (!(expect[i] == n->out_shapes[i])) {
            report.add(Check::kShapeMismatch, Severity::kError,
                       "output " + std::to_string(i) + " recorded as " +
                           n->out_shapes[i].toString() +
                           " but the op signature infers " +
                           expect[i].toString(),
                       {NodeRef::of(n)});
        }
    }
}

void
checkPhases(const Node *n, AnalysisReport &report)
{
    for (const Val &v : n->inputs) {
        const Phase producer = v.node->phase;
        const bool bad =
            (n->phase == Phase::kForward && producer != Phase::kForward) ||
            (n->phase == Phase::kRecompute &&
             producer == Phase::kBackward);
        if (bad) {
            report.add(
                Check::kPhaseViolation, Severity::kError,
                std::string(n->phase == Phase::kForward ? "forward"
                                                        : "recompute") +
                    " node consumes a " +
                    (producer == Phase::kBackward ? "backward"
                                                  : "recompute") +
                    " value",
                {NodeRef::of(v.node), NodeRef::of(n)});
        }
    }
}

/**
 * Cycle detection by iterative DFS over def-use edges (producer ->
 * consumer direction is irrelevant for cycle existence; we walk
 * consumer -> producer).  On a cycle, reports the closed path.
 */
void
checkAcyclic(const std::vector<Node *> &nodes,
             const graph::NodeIndex &universe, AnalysisReport &report)
{
    // Colours are indexed by list position, never by a node's own id,
    // so a malformed id cannot index out of range.
    enum class Color { kWhite, kGrey, kBlack };
    std::vector<Color> color(nodes.size(), Color::kWhite);

    struct Frame
    {
        const Node *node;
        int pos;
        size_t next_input;
    };

    for (size_t root = 0; root < nodes.size(); ++root) {
        if (color[root] != Color::kWhite)
            continue;
        const int root_pos = static_cast<int>(root);
        std::vector<Frame> stack{{nodes[root], root_pos, 0}};
        color[root] = Color::kGrey;
        while (!stack.empty()) {
            Frame &f = stack.back();
            if (f.next_input >= f.node->inputs.size()) {
                color[static_cast<size_t>(f.pos)] = Color::kBlack;
                stack.pop_back();
                continue;
            }
            const Val &v = f.node->inputs[f.next_input++];
            const int pos = universe.find(v.node);
            if (pos < 0)
                continue; // reported as a dangling edge already
            Color &c = color[static_cast<size_t>(pos)];
            if (c == Color::kWhite) {
                c = Color::kGrey;
                stack.push_back({v.node, pos, 0});
            } else if (c == Color::kGrey) {
                // Found a back edge; the grey suffix of the stack from
                // v.node onward is the cycle.
                std::vector<NodeRef> chain;
                bool in_cycle = false;
                for (const Frame &fr : stack) {
                    if (fr.node == v.node)
                        in_cycle = true;
                    if (in_cycle)
                        chain.push_back(NodeRef::of(fr.node));
                }
                chain.push_back(NodeRef::of(v.node));
                report.add(Check::kCycle, Severity::kError,
                           "def-use cycle of " +
                               std::to_string(chain.size() - 1) +
                               " nodes",
                           std::move(chain));
                return; // one cycle is enough to make the point
            }
        }
    }
}

} // namespace

AnalysisReport
verifyNodes(const std::vector<Node *> &nodes, bool allow_external_producers)
{
    AnalysisReport report;
    const graph::NodeIndex universe(nodes);

    for (size_t i = 0; i < nodes.size(); ++i) {
        const Node *n = nodes[i];
        if (universe.firstWithId(n) != static_cast<int>(i))
            report.add(Check::kMalformedNode, Severity::kError,
                       "duplicate node id", {NodeRef::of(n)});
        checkNodeWellFormed(n, report);
        const bool edges_ok =
            checkEdges(n, universe, allow_external_producers, report);
        if (edges_ok) {
            checkShapes(n, report);
            checkPhases(n, report);
        }
    }
    checkAcyclic(nodes, universe, report);
    return report;
}

AnalysisReport
verifyGraph(const graph::Graph &g)
{
    std::vector<Node *> nodes;
    nodes.reserve(g.numNodes());
    for (const auto &n : g.nodes())
        nodes.push_back(n.get());
    return verifyNodes(nodes, /*allow_external_producers=*/false);
}

AnalysisReport
verifyFetches(const std::vector<Val> &fetches)
{
    for (const Val &v : fetches) {
        if (!v.defined()) {
            AnalysisReport report;
            report.add(Check::kDanglingEdge, Severity::kError,
                       "fetch is an undefined value");
            return report;
        }
    }
    // reachableNodes closes over producers, so the universe is
    // self-contained and external edges are genuine corruption.
    return verifyNodes(graph::reachableNodes(fetches),
                       /*allow_external_producers=*/false);
}

} // namespace echo::analysis
