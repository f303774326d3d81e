/**
 * @file
 * Compiler explainability: dump what the Echo pass sees and decides on
 * a small attention model — the feature maps, each candidate region
 * with its frontier and cost-model evaluation, and the final rewrite.
 *
 *   $ ./examples/inspect_graph
 */
#include <cstdio>
#include <fstream>

#include "core/logging.h"

#include "echo/candidate.h"
#include "echo/cost_model.h"
#include "pass/builtin_passes.h"
#include "graph/autodiff.h"
#include "graph/ops/oplib.h"
#include "models/attention.h"

using namespace echo;
using namespace echo::graph;
namespace ol = echo::graph::oplib;

int
main()
{
    setQuiet(true);
    Graph g;
    const int64_t b = 4, t = 8, h = 16;

    Val hs = g.placeholder(Shape({b, t, h}), "encoder_states");
    Val query = g.placeholder(Shape({b, h}), "query");
    Val labels = g.placeholder(Shape({b}), "labels");
    models::NamedWeights registry;
    const models::AttentionWeights w =
        models::makeAttentionWeights(g, h, registry, "attn");
    Val keys = models::projectKeys(g, hs, w);
    Val a = models::attentionStep(g, query, keys, hs, w);
    Val loss;
    {
        TagScope tag(g, "output");
        Val logits = g.apply1(
            ol::sliceOp(1, 0, std::min<int64_t>(h, b + 4)), {a});
        loss = g.apply1(ol::crossEntropyLoss(), {logits, labels});
    }
    std::vector<Val> wrt;
    for (const auto &[name, val] : registry)
        wrt.push_back(val);
    GradientResult grads = backward(g, loss, wrt);
    std::vector<Val> fetches = {loss};
    for (const Val &gv : grads.weight_grads)
        fetches.push_back(gv);

    std::printf("=== graph (%zu nodes) ===\n%s\n", g.numNodes(),
                g.toString().c_str());

    const auto fms = pass::findFeatureMaps(fetches);
    std::printf("=== %zu feature maps (forward values the backward "
                "pass stashes) ===\n",
                fms.size());
    for (const auto &fm : fms) {
        std::printf("  #%d:%d %-18s %-10s %6lld bytes, %zu bwd "
                    "consumer(s)\n",
                    fm.val.node->id, fm.val.index,
                    fm.val.node->op ? fm.val.node->op->name().c_str()
                                    : "input",
                    fm.val.node->layer_tag.c_str(),
                    static_cast<long long>(fm.bytes),
                    fm.bwd_consumers.size());
    }

    std::printf("\n=== candidate evaluation ===\n");
    std::vector<pass::Candidate> cands;
    for (const auto &fm : fms)
        cands.push_back(pass::buildCandidate(fm));
    const pass::CostIndex index(fms, cands, gpusim::GpuSpec::titanXp());
    pass::SelectionState state;
    for (const pass::Candidate &cand : cands) {
        const pass::FeatureMap &fm = cand.target;
        if (!cand.admissible) {
            std::printf("  #%d (%s): inadmissible (GEMM-rooted)\n",
                        fm.val.node->id,
                        fm.val.node->op->name().c_str());
            continue;
        }
        const pass::CandidateCost cost =
            pass::evaluateCandidate(cand, index, state);
        std::printf("  #%d (%s): region=%zu ops, frontier=%zu vals, "
                    "saves %lld B, adds %lld B, replay %.2f us\n",
                    fm.val.node->id,
                    fm.val.node->op->name().c_str(),
                    cand.subgraph.size(), cand.frontier.size(),
                    static_cast<long long>(cost.bytes_saved),
                    static_cast<long long>(cost.bytes_added),
                    cost.replay_time_us);
    }

    pass::PipelineContext pctx(g);
    pctx.fetches = fetches;
    pctx.weight_grads = grads.weight_grads;
    pctx.recompute_config.overhead_budget_fraction = -1.0;
    pass::buildPipeline("recompute")
        .runOrDie(pctx, "inspect_graph recompute");
    const pass::PassResult result = pctx.recompute;
    std::printf("\n=== pass result ===\n"
                "accepted %d region(s): dropped %lld B of stash, added "
                "%lld B, %.2f us replay (baseline %.2f us)\n",
                result.num_regions,
                static_cast<long long>(result.bytes_saved),
                static_cast<long long>(result.bytes_added),
                result.replay_time_us, result.baseline_gpu_time_us);

    {
        std::ofstream dot("echo_graph.dot");
        dot << g.toDot();
        std::printf("\n(wrote Graphviz rendering to echo_graph.dot — "
                    "recompute nodes in green)\n");
    }

    std::printf("\n=== rewritten backward region ===\n");
    for (const auto &n : g.nodes()) {
        if (n->phase == Phase::kRecompute) {
            std::printf("  [recompute] #%d %s (%s)\n", n->id,
                        n->name.c_str(), n->layer_tag.c_str());
        }
    }
    return 0;
}
