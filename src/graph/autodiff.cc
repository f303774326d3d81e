#include "graph/autodiff.h"

#include <algorithm>

#include "core/logging.h"
#include "graph/ops/oplib.h"

namespace echo::graph {

namespace {

/**
 * A value whose gradient contributions are combined in one step once
 * every member consumer has been visited, instead of by eager adds.
 */
struct FanIn
{
    enum class Kind {
        /** A weight read as B by >= 2 gemm(A_t, W^T) nodes: the
         *  members' dC_t and A_t are stacked along axis 0 and the
         *  weight gradient is one gemm(true, false) over the stacks. */
        kGemm,
        /** A value read only by >= 2 slices on one axis whose disjoint
         *  ranges cover it: the slices' gradients are concatenated. */
        kSlice,
    };
    Kind kind = Kind::kSlice;
    /** Concatenation axis (kSlice; kGemm stacks along axis 0). */
    int axis = 0;
    /** Member consumers: forward (id) order for kGemm, range order for
     *  kSlice. */
    std::vector<Node *> members;
    /** Per member, the gradient of its output recorded at its visit
     *  (dC for a gemm, dY for a slice); undefined when none flowed. */
    std::vector<Val> grads;
    /** Members not yet visited. */
    size_t pending = 0;
};

/** Where a member consumer's contribution goes. */
struct Membership
{
    Val value;
    size_t index = 0;
};

/** Members of @p v's gemm fan-in among @p uses, or empty. */
std::vector<Node *>
gemmMembers(const Val &v, const std::vector<std::pair<Node *, int>> &uses)
{
    if (v.node->kind != NodeKind::kWeight)
        return {};
    std::vector<Node *> members;
    for (const auto &[n, slot] : uses) {
        const std::optional<GemmTransposes> t = n->op->gemmTransposes();
        if (slot == 1 && t && !t->a && t->b)
            members.push_back(n);
    }
    if (members.size() < 2)
        return {};
    return members; // uses are in id (forward) order already
}

/** Members of @p v's slice fan-in (range order), or empty when its
 *  uses are not >= 2 disjoint slices covering it along one axis. */
std::vector<Node *>
sliceMembers(const Val &v, const std::vector<std::pair<Node *, int>> &uses,
             int &axis)
{
    if (uses.size() < 2)
        return {};
    std::vector<std::pair<SliceRange, Node *>> ranged;
    for (const auto &[n, slot] : uses) {
        const std::optional<SliceRange> r = n->op->sliceRange();
        if (!r)
            return {};
        const int a = r->axis < 0 ? r->axis + Graph::shapeOf(v).ndim()
                                  : r->axis;
        if (!ranged.empty() && a != axis)
            return {};
        axis = a;
        ranged.emplace_back(*r, n);
    }
    std::sort(ranged.begin(), ranged.end(),
              [](const auto &x, const auto &y) {
                  return x.first.begin < y.first.begin;
              });
    std::vector<Node *> members;
    int64_t covered = 0;
    for (const auto &[r, n] : ranged) {
        if (r.begin != covered)
            return {}; // gap or overlap
        covered = r.end;
        members.push_back(n);
    }
    if (covered != Graph::shapeOf(v)[axis])
        return {};
    return members;
}

} // namespace

GradientResult
backward(Graph &graph, const Val &loss, const std::vector<Val> &wrt)
{
    ECHO_REQUIRE(loss.defined() &&
                     Graph::shapeOf(loss).numel() == 1,
                 "backward needs a scalar loss");

    const std::vector<Node *> order = reachableNodes({loss});

    // Every (consumer, input slot) of each value, in forward order.
    std::unordered_map<Val, std::vector<std::pair<Node *, int>>, ValHash>
        uses;
    for (Node *n : order) {
        if (n->kind != NodeKind::kOp)
            continue;
        for (size_t i = 0; i < n->inputs.size(); ++i)
            uses[n->inputs[i]].emplace_back(n, static_cast<int>(i));
    }

    // The two fan-in shapes resolved in one step (see FanIn::Kind).
    std::unordered_map<Val, FanIn, ValHash> fan_in;
    std::unordered_map<const Node *, Membership> member_of;
    for (const auto &[v, list] : uses) {
        FanIn f;
        f.kind = FanIn::Kind::kGemm;
        f.members = gemmMembers(v, list);
        if (f.members.empty()) {
            f.kind = FanIn::Kind::kSlice;
            f.members = sliceMembers(v, list, f.axis);
        }
        if (f.members.empty())
            continue;
        f.grads.resize(f.members.size());
        f.pending = f.members.size();
        for (size_t i = 0; i < f.members.size(); ++i)
            member_of[f.members[i]] = Membership{v, i};
        fan_in.emplace(v, std::move(f));
    }

    // Running gradient per value.  Accumulation is EAGER: the moment a
    // second contribution appears, an add node folds it into the running
    // gradient (MXNet's AddTo semantics).  Lazy accumulation would keep
    // every per-consumer contribution alive until the producer is
    // visited — O(T) simultaneously live gradient buffers on recurrent
    // graphs, which would dwarf the feature maps the Echo pass targets.
    //
    // Two fan-in shapes are exceptions, resolved once their last member
    // consumer has been visited:
    //  - a weight shared by T gemm(A_t, W^T) steps gets ONE weight-
    //    gradient GEMM over the stacked dC_t and A_t (K = T * batch)
    //    instead of T skinny GEMMs and T-1 weight-sized adds;
    //  - a value read by slices that cover it gets ONE concat of the
    //    slice gradients instead of k zero-padded slice_grads and k-1
    //    adds (bit-equal to their sum up to the sign of zero).
    // The stack of A_t reads every step's forward value from one
    // cross-step node (time step -1), so the Echo pass keeps those
    // values stashed (echo/candidate.h).
    std::unordered_map<Val, Val, ValHash> running_grad;

    const Phase saved_phase = graph.phase();
    graph.setPhase(Phase::kBackward);

    auto add_contribution = [&](const Val &v, const Val &g) {
        auto it = running_grad.find(v);
        if (it == running_grad.end()) {
            running_grad.emplace(v, g);
        } else {
            it->second = graph.apply1(oplib::add(), {it->second, g},
                                      "grad_acc");
        }
    };

    {
        TagScope tag(graph, loss.node->layer_tag);
        const Val seed = graph.apply1(
            oplib::constant(Graph::shapeOf(loss), 1.0f), {},
            "grad_seed");
        add_contribution(loss, seed);
    }

    GradientResult result;

    auto summed_grad = [&](const Val &v) -> Val {
        auto it = running_grad.find(v);
        if (it == running_grad.end())
            return Val{};
        result.all_grads[v] = it->second;
        return it->second;
    };

    auto resolve = [&](const Val &v, const FanIn &f) {
        // Members of one step keep it; a cross-step fan-in has none.
        int step = f.members.front()->time_step;
        for (const Node *m : f.members)
            if (m->time_step != step)
                step = -1;
        graph.setTimeStep(step);

        Val g;
        if (f.kind == FanIn::Kind::kGemm) {
            std::vector<Val> dcs, as;
            for (size_t i = 0; i < f.members.size(); ++i) {
                if (!f.grads[i].defined())
                    continue;
                dcs.push_back(f.grads[i]);
                as.push_back(f.members[i]->inputs[0]);
            }
            if (dcs.empty())
                return;
            if (dcs.size() > 1) {
                dcs = {graph.apply1(oplib::concat(0), dcs, "grad_stack")};
                as = {graph.apply1(oplib::concat(0), as, "grad_stack")};
            }
            // dW = dC^T * A over every step at once.
            g = graph.apply1(oplib::gemm(true, false), {dcs[0], as[0]});
        } else {
            if (std::none_of(f.grads.begin(), f.grads.end(),
                             [](const Val &dy) { return dy.defined(); }))
                return;
            std::vector<Val> parts;
            for (size_t i = 0; i < f.members.size(); ++i) {
                parts.push_back(
                    f.grads[i].defined()
                        ? f.grads[i]
                        : graph.apply1(
                              oplib::constant(
                                  f.members[i]->out_shapes[0], 0.0f),
                              {}, "zero_grad"));
            }
            g = graph.apply1(oplib::concat(f.axis), parts, "grad_concat");
        }
        add_contribution(v, g);
    };

    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        Node *node = *it;
        if (node->kind != NodeKind::kOp)
            continue;

        TagScope tag(graph, node->layer_tag);
        graph.setTimeStep(node->time_step);

        // A fan-in member hands its output gradient to the fan-in; a
        // gemm member still builds its own dA = dC * W here.
        if (auto m = member_of.find(node); m != member_of.end()) {
            FanIn &f = fan_in.at(m->second.value);
            const Val dy = summed_grad(node->out(0));
            f.grads[m->second.index] = dy;
            if (dy.defined() && f.kind == FanIn::Kind::kGemm)
                add_contribution(
                    node->inputs[0],
                    graph.apply1(oplib::gemm(false, false),
                                 {dy, node->inputs[1]}));
            if (--f.pending == 0)
                resolve(m->second.value, f);
            continue;
        }

        GradContext ctx;
        ctx.graph = &graph;
        ctx.node = node;
        bool any = false;
        for (int i = 0; i < node->numOutputs(); ++i) {
            const Val g = summed_grad(node->out(i));
            ctx.out_grads.push_back(g);
            any = any || g.defined();
        }
        if (!any)
            continue;

        const std::vector<Val> in_grads =
            node->op->buildGradient(ctx);
        ECHO_CHECK(in_grads.size() == node->inputs.size(), "op ",
                   node->op->name(), " returned ", in_grads.size(),
                   " input grads for ", node->inputs.size(),
                   " inputs");
        for (size_t i = 0; i < in_grads.size(); ++i)
            if (in_grads[i].defined())
                add_contribution(node->inputs[i], in_grads[i]);
    }
    graph.setTimeStep(-1);

    // Finalize weight gradients (zero constants for unused weights so
    // the optimizer sees a gradient for every parameter).
    for (const Val &w : wrt) {
        Val g = summed_grad(w);
        if (!g.defined()) {
            TagScope tag(graph, w.node->layer_tag);
            g = graph.apply1(
                oplib::constant(Graph::shapeOf(w), 0.0f), {},
                "zero_grad");
            result.all_grads[w] = g;
        }
        result.weight_grads.push_back(g);
    }

    graph.setPhase(saved_phase);
    return result;
}

} // namespace echo::graph
