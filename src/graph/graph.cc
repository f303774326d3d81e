#include "graph/graph.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "core/logging.h"

namespace echo::graph {

int64_t
totalElems(const std::vector<Shape> &shapes)
{
    int64_t n = 0;
    for (const Shape &s : shapes)
        n += s.numel();
    return n;
}

std::vector<KernelDesc>
Op::kernels(const std::vector<Shape> &in,
            const std::vector<Shape> &out) const
{
    // Default model: one bandwidth-bound element-wise kernel that reads
    // all inputs and writes all outputs.
    KernelDesc k;
    k.category = "elementwise";
    k.flops = totalElems(out);
    k.bytes_read = totalElems(in) * 4;
    k.bytes_written = totalElems(out) * 4;
    return {k};
}

Node *
Graph::newNode(NodeKind kind, const std::string &name)
{
    auto node = std::make_unique<Node>();
    node->id = static_cast<int>(nodes_.size());
    node->kind = kind;
    node->phase = phase_;
    node->time_step = time_step_;
    node->name = name;
    if (!tag_stack_.empty())
        node->layer_tag = tag_stack_.back();
    nodes_.push_back(std::move(node));
    return nodes_.back().get();
}

void
Graph::truncate(size_t num_nodes)
{
    ECHO_CHECK(num_nodes <= nodes_.size(), "Graph::truncate(", num_nodes,
               ") beyond current node count ", nodes_.size());
    nodes_.resize(num_nodes);
}

Val
Graph::placeholder(Shape shape, const std::string &name)
{
    Node *n = newNode(NodeKind::kPlaceholder, name);
    n->phase = Phase::kForward;
    n->out_shapes = {std::move(shape)};
    return n->out();
}

Val
Graph::weight(Shape shape, const std::string &name)
{
    Node *n = newNode(NodeKind::kWeight, name);
    n->phase = Phase::kForward;
    n->out_shapes = {std::move(shape)};
    return n->out();
}

std::vector<Val>
Graph::apply(OpPtr op, std::vector<Val> inputs, const std::string &name)
{
    ECHO_REQUIRE(op != nullptr, "apply with null op");
    std::vector<Shape> in_shapes;
    in_shapes.reserve(inputs.size());
    for (const Val &v : inputs) {
        ECHO_REQUIRE(v.defined(), "apply(", op->name(),
                     "): undefined input value");
        in_shapes.push_back(shapeOf(v));
    }
    Node *n = newNode(NodeKind::kOp, name.empty() ? op->name() : name);
    n->op = std::move(op);
    n->inputs = std::move(inputs);
    n->out_shapes = n->op->inferShapes(in_shapes);
    ECHO_CHECK(!n->out_shapes.empty(), "op ", n->op->name(),
               " inferred no outputs");
    std::vector<Val> outs;
    outs.reserve(n->out_shapes.size());
    for (int i = 0; i < n->numOutputs(); ++i)
        outs.push_back(n->out(i));
    return outs;
}

Val
Graph::apply1(OpPtr op, std::vector<Val> inputs, const std::string &name)
{
    std::vector<Val> outs = apply(std::move(op), std::move(inputs), name);
    ECHO_CHECK(outs.size() == 1, "apply1 on multi-output op");
    return outs[0];
}

void
Graph::pushTag(const std::string &tag)
{
    tag_stack_.push_back(tag);
}

void
Graph::popTag()
{
    ECHO_CHECK(!tag_stack_.empty(), "popTag on empty tag stack");
    tag_stack_.pop_back();
}

std::vector<Node *>
Graph::weights() const
{
    std::vector<Node *> out;
    for (const auto &n : nodes_)
        if (n->kind == NodeKind::kWeight)
            out.push_back(n.get());
    return out;
}

std::vector<Node *>
Graph::placeholders() const
{
    std::vector<Node *> out;
    for (const auto &n : nodes_)
        if (n->kind == NodeKind::kPlaceholder)
            out.push_back(n.get());
    return out;
}

const Shape &
Graph::shapeOf(const Val &v)
{
    ECHO_CHECK(v.defined(), "shapeOf undefined value");
    ECHO_CHECK(v.index >= 0 && v.index < v.node->numOutputs(),
               "output index out of range");
    return v.node->out_shapes[static_cast<size_t>(v.index)];
}

std::string
Graph::toString() const
{
    std::ostringstream oss;
    for (const auto &n : nodes_) {
        oss << "#" << n->id << " ";
        switch (n->kind) {
          case NodeKind::kPlaceholder:
            oss << "placeholder";
            break;
          case NodeKind::kWeight:
            oss << "weight";
            break;
          case NodeKind::kOp:
            oss << n->op->name();
            break;
        }
        oss << " " << n->name << " -> ";
        for (const Shape &s : n->out_shapes)
            oss << s.toString();
        if (!n->inputs.empty()) {
            oss << "  from";
            for (const Val &v : n->inputs)
                oss << " #" << v.node->id << ":" << v.index;
        }
        switch (n->phase) {
          case Phase::kForward:
            break;
          case Phase::kBackward:
            oss << "  [bwd]";
            break;
          case Phase::kRecompute:
            oss << "  [recompute]";
            break;
        }
        if (!n->layer_tag.empty())
            oss << "  tag=" << n->layer_tag;
        oss << "\n";
    }
    return oss.str();
}

std::string
Graph::toDot() const
{
    std::ostringstream oss;
    oss << "digraph echo {\n  rankdir=TB;\n"
        << "  node [shape=box, fontsize=10];\n";
    for (const auto &n : nodes_) {
        const char *fill = "white";
        switch (n->phase) {
          case Phase::kForward:
            fill = n->kind == NodeKind::kWeight ? "lightgoldenrod"
                                                : "lightblue";
            break;
          case Phase::kBackward:
            fill = "lightsalmon";
            break;
          case Phase::kRecompute:
            fill = "palegreen";
            break;
        }
        std::string label = n->name.empty()
                                ? (n->op ? n->op->name() : "input")
                                : n->name;
        for (char &ch : label)
            if (ch == '"')
                ch = '\'';
        oss << "  n" << n->id << " [label=\"" << label;
        for (const Shape &s : n->out_shapes)
            oss << "\\n" << s.toString();
        oss << "\", style=filled, fillcolor=" << fill << "];\n";
    }
    for (const auto &n : nodes_)
        for (const Val &v : n->inputs)
            oss << "  n" << v.node->id << " -> n" << n->id << ";\n";
    oss << "}\n";
    return oss.str();
}

namespace {

/** Ids at or above this are never array indices (a malformed id must
 *  not size an allocation); such nodes take the pointer-map path. */
constexpr int kMaxDenseId = 1 << 22;

/** Array size that covers every id in @p nodes' well-formed range. */
size_t
denseIdRange(const std::vector<Node *> &nodes)
{
    int max_id = -1;
    for (const Node *n : nodes)
        if (n->id < kMaxDenseId)
            max_id = std::max(max_id, n->id);
    return static_cast<size_t>(max_id + 1);
}

bool
inDenseRange(int id, size_t range)
{
    return id >= 0 && static_cast<size_t>(id) < range;
}

} // namespace

std::vector<Node *>
reachableNodes(const std::vector<Val> &fetches)
{
    // Ids are creation positions and inputs precede their consumers, so
    // in a well-formed graph the fetches' largest id bounds the closure
    // and a flat array indexed by id marks what was seen.  Nodes the
    // array cannot hold (see NodeIndex) are tracked by pointer.
    std::vector<Node *> roots;
    for (const Val &v : fetches)
        if (v.defined())
            roots.push_back(v.node);
    std::vector<Node *> by_id(denseIdRange(roots), nullptr);
    std::unordered_set<Node *> strays;
    std::vector<Node *> stack;
    const auto visit = [&](Node *n) {
        if (n == nullptr)
            return; // an undefined input: the verifier reports it
        if (inDenseRange(n->id, by_id.size())) {
            Node *&slot = by_id[static_cast<size_t>(n->id)];
            if (slot == n)
                return;
            if (slot == nullptr) {
                slot = n;
                stack.push_back(n);
                return;
            }
        }
        if (strays.insert(n).second)
            stack.push_back(n);
    };
    for (Node *n : roots)
        visit(n);
    while (!stack.empty()) {
        Node *n = stack.back();
        stack.pop_back();
        for (const Val &v : n->inputs)
            visit(v.node);
    }

    // The array is already in id order.
    std::vector<Node *> found;
    for (Node *n : by_id)
        if (n != nullptr)
            found.push_back(n);
    if (!strays.empty()) {
        found.insert(found.end(), strays.begin(), strays.end());
        std::stable_sort(
            found.begin(), found.end(),
            [](const Node *a, const Node *b) { return a->id < b->id; });
    }
    return found;
}

NodeIndex::NodeIndex(const std::vector<Node *> &nodes)
    : by_id_(denseIdRange(nodes), {nullptr, -1})
{
    for (size_t i = 0; i < nodes.size(); ++i) {
        const Node *n = nodes[i];
        const int pos = static_cast<int>(i);
        if (inDenseRange(n->id, by_id_.size())) {
            auto &slot = by_id_[static_cast<size_t>(n->id)];
            if (slot.first == nullptr) {
                slot = {n, pos};
                continue;
            }
            if (slot.first == n)
                continue;
        } else {
            stray_ids_.emplace(n->id, pos);
        }
        strays_.emplace(n, pos);
    }
}

int
NodeIndex::find(const Node *n) const
{
    if (n != nullptr && inDenseRange(n->id, by_id_.size())) {
        const auto &slot = by_id_[static_cast<size_t>(n->id)];
        if (slot.first == n)
            return slot.second;
    }
    if (strays_.empty())
        return -1;
    const auto it = strays_.find(n);
    return it == strays_.end() ? -1 : it->second;
}

int
NodeIndex::firstWithId(const Node *n) const
{
    if (inDenseRange(n->id, by_id_.size()))
        return by_id_[static_cast<size_t>(n->id)].second;
    return stray_ids_.at(n->id);
}

} // namespace echo::graph
