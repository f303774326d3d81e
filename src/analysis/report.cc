#include "analysis/report.h"

#include <sstream>
#include <unordered_set>

namespace echo::analysis {

namespace {

const char *
phaseName(graph::Phase phase)
{
    switch (phase) {
      case graph::Phase::kForward:
        return "forward";
      case graph::Phase::kBackward:
        return "backward";
      case graph::Phase::kRecompute:
        return "recompute";
    }
    return "?";
}

std::string
opName(const graph::Node *n)
{
    switch (n->kind) {
      case graph::NodeKind::kPlaceholder:
        return "placeholder";
      case graph::NodeKind::kWeight:
        return "weight";
      case graph::NodeKind::kOp:
        return n->op ? n->op->name() : "<null-op>";
    }
    return "?";
}

} // namespace

const char *
checkName(Check check)
{
    switch (check) {
      case Check::kMalformedNode:
        return "malformed-node";
      case Check::kDanglingEdge:
        return "dangling-edge";
      case Check::kCycle:
        return "cycle";
      case Check::kShapeMismatch:
        return "shape-mismatch";
      case Check::kPhaseViolation:
        return "phase-violation";
      case Check::kUseBeforeDef:
        return "use-before-def";
      case Check::kUseAfterFree:
        return "use-after-free";
      case Check::kDoubleFree:
        return "double-free";
      case Check::kLeakedSlot:
        return "leaked-slot";
      case Check::kPlanMissing:
        return "plan-missing";
      case Check::kPlanOverlap:
        return "plan-overlap";
      case Check::kSharedOutputSlot:
        return "shared-output-slot";
      case Check::kReadyRace:
        return "ready-race";
      case Check::kPrematureFree:
        return "premature-free";
      case Check::kRecomputedGemm:
        return "recomputed-gemm";
      case Check::kImpureRecompute:
        return "impure-recompute";
      case Check::kMutatedForward:
        return "mutated-forward";
      case Check::kStaleEdge:
        return "stale-edge";
      case Check::kWorkspaceOverlap:
        return "workspace-overlap";
      case Check::kFootprintMismatch:
        return "footprint-mismatch";
      case Check::kSlotAliasing:
        return "slot-aliasing";
      case Check::kSlotOutOfRange:
        return "slot-out-of-range";
      case Check::kSlotStateLeak:
        return "slot-state-leak";
      case Check::kLifecycleViolation:
        return "lifecycle-violation";
      case Check::kFusionIllegalGroup:
        return "fusion-illegal-group";
      case Check::kFusionValueMismatch:
        return "fusion-value-mismatch";
      case Check::kBudgetExceeded:
        return "budget-exceeded";
      case Check::kPlanStale:
        return "plan-stale";
    }
    return "?";
}

std::string
NodeRef::toString() const
{
    if (node == nullptr)
        return "<null node>";
    std::ostringstream oss;
    oss << "#" << node->id << " "
        << (node->name.empty() ? opName(node) : node->name) << " ("
        << opName(node) << ", " << phaseName(node->phase);
    if (slot >= 0)
        oss << ", slot " << slot;
    oss << ")";
    return oss.str();
}

std::string
Diagnostic::toString() const
{
    std::ostringstream oss;
    oss << (severity == Severity::kError ? "error" : "warning") << " ["
        << checkName(check) << "] " << message;
    for (const NodeRef &ref : chain)
        oss << "\n    " << ref.toString();
    return oss.str();
}

size_t
AnalysisReport::errorCount() const
{
    size_t n = 0;
    for (const Diagnostic &d : diagnostics)
        if (d.severity == Severity::kError)
            ++n;
    return n;
}

size_t
AnalysisReport::warningCount() const
{
    return diagnostics.size() - errorCount();
}

void
AnalysisReport::add(Check check, Severity severity, std::string message,
                    std::vector<NodeRef> chain)
{
    Diagnostic d;
    d.check = check;
    d.severity = severity;
    d.message = std::move(message);
    d.chain = std::move(chain);
    diagnostics.push_back(std::move(d));
}

void
AnalysisReport::merge(const AnalysisReport &other)
{
    diagnostics.insert(diagnostics.end(), other.diagnostics.begin(),
                       other.diagnostics.end());
}

std::string
AnalysisReport::toString() const
{
    std::ostringstream oss;
    for (const Diagnostic &d : diagnostics)
        oss << d.toString() << "\n";
    return oss.str();
}

std::string
violatingSubgraphDot(const AnalysisReport &report,
                     const std::vector<graph::Node *> &universe)
{
    std::unordered_set<const graph::Node *> violating;
    for (const Diagnostic &d : report.diagnostics)
        for (const NodeRef &ref : d.chain)
            if (ref.node != nullptr)
                violating.insert(ref.node);

    // The dump shows each violating node plus its one-hop neighborhood.
    std::unordered_set<const graph::Node *> shown = violating;
    for (const graph::Node *n : universe) {
        for (const graph::Val &v : n->inputs) {
            if (violating.count(n) && v.node != nullptr)
                shown.insert(v.node);
            if (v.node != nullptr && violating.count(v.node))
                shown.insert(n);
        }
    }

    std::ostringstream oss;
    oss << "digraph echo_lint {\n  rankdir=TB;\n"
        << "  node [shape=box, fontsize=10];\n";
    for (const graph::Node *n : universe) {
        if (!shown.count(n))
            continue;
        const char *fill = "white";
        switch (n->phase) {
          case graph::Phase::kForward:
            fill = n->kind == graph::NodeKind::kWeight
                       ? "lightgoldenrod"
                       : "lightblue";
            break;
          case graph::Phase::kBackward:
            fill = "lightsalmon";
            break;
          case graph::Phase::kRecompute:
            fill = "palegreen";
            break;
        }
        std::string label =
            n->name.empty() ? std::string(opName(n)) : n->name;
        for (char &ch : label)
            if (ch == '"')
                ch = '\'';
        oss << "  n" << n->id << " [label=\"#" << n->id << " " << label
            << "\", style=filled, fillcolor=" << fill;
        if (violating.count(n))
            oss << ", color=red, penwidth=3";
        oss << "];\n";
    }
    for (const graph::Node *n : universe) {
        if (!shown.count(n))
            continue;
        for (const graph::Val &v : n->inputs)
            if (v.node != nullptr && shown.count(v.node))
                oss << "  n" << v.node->id << " -> n" << n->id << ";\n";
    }
    oss << "}\n";
    return oss.str();
}

} // namespace echo::analysis
