/**
 * @file
 * The training dataflow graph: nodes, construction API, and traversal.
 *
 * A Graph owns Nodes.  Placeholders and weights are input nodes; every
 * other node applies an Op to the outputs of earlier nodes, so graph
 * construction order is already a topological order.  Nodes carry two
 * pieces of provenance used throughout the system:
 *  - layer_tag: which model layer produced the node ("attention", "rnn",
 *    "embedding", "output", ...) — drives the paper's by-layer memory
 *    breakdowns,
 *  - phase: forward, backward, or recompute (recompute nodes are the
 *    forward replays spliced in by the Echo pass).
 */
#ifndef ECHO_GRAPH_GRAPH_H
#define ECHO_GRAPH_GRAPH_H

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/op.h"

namespace echo::graph {

/** What a node is. */
enum class NodeKind { kPlaceholder, kWeight, kOp };

/** Which execution phase a node belongs to. */
enum class Phase { kForward, kBackward, kRecompute };

/** One vertex of the dataflow graph. */
struct Node
{
    int id = 0;
    NodeKind kind = NodeKind::kOp;
    Phase phase = Phase::kForward;
    OpPtr op;
    std::vector<Val> inputs;
    std::vector<Shape> out_shapes;
    std::string name;
    /** Model layer this node belongs to (for breakdown reporting). */
    std::string layer_tag;
    /** RNN time step, or -1 outside any step (workspace-sharing info). */
    int time_step = -1;

    /** Output value @p i of this node. */
    Val out(int i = 0) { return Val{this, i}; }

    int numOutputs() const
    {
        return static_cast<int>(out_shapes.size());
    }
};

/** The dataflow graph plus its construction API. */
class Graph
{
  public:
    Graph() = default;
    Graph(const Graph &) = delete;
    Graph &operator=(const Graph &) = delete;

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /** Add a placeholder (fed at run time). */
    Val placeholder(Shape shape, const std::string &name);

    /** Add a trainable weight. */
    Val weight(Shape shape, const std::string &name);

    /** Apply an op; returns all outputs. */
    std::vector<Val> apply(OpPtr op, std::vector<Val> inputs,
                           const std::string &name = "");

    /**
     * Drop every node appended after the graph had @p num_nodes nodes
     * (trial-rewrite rollback).  Node ids are assigned as the append
     * position, so a later re-append reproduces identical ids.  The
     * caller must first restore any inputs that reference the dropped
     * nodes — no surviving node may point at them afterwards.
     */
    void truncate(size_t num_nodes);

    /** Apply an op that has exactly one output. */
    Val apply1(OpPtr op, std::vector<Val> inputs,
               const std::string &name = "");

    /** Push/pop the layer tag applied to newly created nodes. */
    void pushTag(const std::string &tag);
    void popTag();

    /** Set the time step recorded on newly created nodes (-1 to clear). */
    void setTimeStep(int step) { time_step_ = step; }

    /** Phase recorded on newly created nodes (autodiff/Echo pass use). */
    void setPhase(Phase phase) { phase_ = phase; }
    Phase phase() const { return phase_; }

    // ------------------------------------------------------------------
    // Inspection
    // ------------------------------------------------------------------

    /** All nodes in creation (= topological) order. */
    const std::vector<std::unique_ptr<Node>> &nodes() const
    {
        return nodes_;
    }

    size_t numNodes() const { return nodes_.size(); }

    /** All weight nodes, in creation order. */
    std::vector<Node *> weights() const;

    /** All placeholder nodes, in creation order. */
    std::vector<Node *> placeholders() const;

    /** Shape of a value. */
    static const Shape &shapeOf(const Val &v);

    /** Human-readable dump (one line per node). */
    std::string toString() const;

    /**
     * Graphviz dot rendering: nodes colored by phase (forward /
     * backward / recompute) and clustered by layer tag — the view the
     * inspect_graph example writes for exploring pass decisions.
     */
    std::string toDot() const;

  private:
    std::vector<std::unique_ptr<Node>> nodes_;
    std::vector<std::string> tag_stack_;
    int time_step_ = -1;
    Phase phase_ = Phase::kForward;

    Node *newNode(NodeKind kind, const std::string &name);
};

/** RAII helper for Graph::pushTag/popTag. */
class TagScope
{
  public:
    TagScope(Graph &g, const std::string &tag) : graph_(g)
    {
        graph_.pushTag(tag);
    }
    ~TagScope() { graph_.popTag(); }
    TagScope(const TagScope &) = delete;
    TagScope &operator=(const TagScope &) = delete;

  private:
    Graph &graph_;
};

/**
 * Nodes reachable from @p fetches (inputs included), in topological
 * (creation-id) order.  Distinct nodes that share an id (a malformed
 * graph) are all returned, so the verifier can name the duplicate.
 */
std::vector<Node *> reachableNodes(const std::vector<Val> &fetches);

/**
 * Position of each node of a list, looked up through a flat array
 * indexed by Node::id instead of a pointer hash.  A node whose id is
 * negative, out of the array's range, or already held by an earlier
 * node of the list (malformed graphs) is kept in a pointer map, so
 * every node of the list is found whatever its id.
 */
class NodeIndex
{
  public:
    explicit NodeIndex(const std::vector<Node *> &nodes);

    /** Position of @p n in the list, or -1 when it is not there. */
    int find(const Node *n) const;

    /** Position of the first node in the list with @p n's id (earlier
     *  than find(n) when the id is shared). @pre find(n) >= 0 */
    int firstWithId(const Node *n) const;

  private:
    std::vector<std::pair<const Node *, int>> by_id_;
    std::unordered_map<const Node *, int> strays_;
    /** First position of each id outside by_id_'s range. */
    std::unordered_map<int, int> stray_ids_;
};

} // namespace echo::graph

#endif // ECHO_GRAPH_GRAPH_H
