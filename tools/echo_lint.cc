/**
 * @file
 * echo-lint: command-line front end of the static-analysis layer
 * (src/analysis).  Builds the repo's training graphs at small presets,
 * runs the graph verifier, the schedule lifetime analyzer, the parallel
 * hazard detector, and — after applying the Echo recompute pass — the
 * pass auditor, then prints every diagnostic with its offending node
 * chain (name, op, phase, schedule slot).
 *
 * Exit status is the number of graphs with errors (0 = clean), so CI
 * can gate on it.  --dot=PATH additionally dumps the violating
 * subgraph of the first failing graph as Graphviz.
 *
 * A second mode checks serving slot-lease journals (written by
 * echo-serve --journal=PATH): --serve-journal=PATH parses the
 * continuous scheduler's leases and runs the slot-recycling audit — no
 * two live requests may ever share a (pool, slot) row, every splice
 * re-initializes the row's state, and every request terminates exactly
 * once.  This mode replaces the graph lints; exit status is 0 when the
 * journal is clean, 1 on audit errors, and 2 on a malformed line.
 *
 * A third mode replays an arbitrary pass pipeline under the contract
 * checker: --pipeline=SPEC (comma-separated pass names, or "default"
 * for the resolved training spec) statically validates the pipeline's
 * declared contracts first — an illegal ordering prints each contract
 * violation with the offending pass pair and exits 1 without running
 * anything — then runs the pipeline over freshly built forward graphs
 * with EVERY registered checker between passes, printing per-stage IR
 * snapshot diffs and the first failing invariant with its node chain.
 * --inject=bad-shape appends a deliberately invariant-breaking pass,
 * for checking that the postcondition auditors actually fire.
 *
 * usage: echo-lint [--model=word_lm|nmt|all] [--policy=off|auto|all]
 *                  [--dot=PATH]
 *        echo-lint --serve-journal=PATH [--serve-slots=N]
 *        echo-lint --pipeline=SPEC [--model=...] [--inject=bad-shape]
 */
#include <charconv>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "analysis/hazards.h"
#include "budget/planner.h"
#include "echo/recompute_pass.h"
#include "memory/planner.h"
#include "models/nmt.h"
#include "models/word_lm.h"
#include "pass/builtin_passes.h"

namespace {

using namespace echo;

struct LintOptions
{
    std::string model = "all";  // word_lm | nmt | all
    std::string policy = "all"; // off | auto | all
    std::string dot_path;       // empty = no dump
    std::string serve_journal;  // empty = graph-lint mode
    int serve_slots = 8;
    std::string pipeline;       // empty = no pipeline replay
    std::string inject;         // "" | "bad-shape"
    int64_t budget_bytes = 0;   // >0: lint the transient pool peak too
};

/** One graph to lint: where it came from and what it computes. */
struct LintSubject
{
    std::string title;
    const graph::Graph *graph = nullptr;
    std::vector<graph::Val> fetches;
    std::vector<graph::Val> weight_grads;
    /** Set when the Echo pass ran on this graph. */
    const analysis::GraphSnapshot *snapshot = nullptr;
    const pass::PassResult *pass_result = nullptr;
    /** Set when the element-wise fusion pass ran on this graph (and
     *  the recompute pass has not rewritten its frontiers since). */
    const fusion::FusionResult *fusion = nullptr;
};

int
lintOne(const LintSubject &subject, const LintOptions &opts,
        bool &dot_written)
{
    // One plan per subject: the lifetime analyzer, the budget lint and
    // the recompute audit all read the plan analyzeAll made.
    std::optional<memory::PlannedSchedule> planned;
    analysis::AnalysisReport report = analysis::analyzeAll(
        subject.fetches, subject.weight_grads, &planned);
    if (planned && opts.budget_bytes > 0) {
        // The budget lint: does this graph's transient pool fit?  A
        // violation names the binding buffers live at the peak.
        report.merge(analysis::checkPoolBudget(
            planned->liveness, planned->plan, opts.budget_bytes));
    }
    if (planned && subject.snapshot != nullptr) {
        report.merge(analysis::auditRecomputePass(
            *subject.snapshot, *subject.graph, planned->liveness,
            planned->plan, *subject.pass_result));
    }
    if (subject.fusion != nullptr)
        report.merge(
            analysis::auditFusion(subject.fetches, *subject.fusion));

    std::cout << "== " << subject.title << ": ";
    if (report.diagnostics.empty()) {
        std::cout << "clean\n";
        return 0;
    }
    std::cout << report.errorCount() << " error(s), "
              << report.warningCount() << " warning(s)\n"
              << report.toString();

    if (!report.ok() && !opts.dot_path.empty() && !dot_written) {
        std::vector<graph::Node *> universe;
        for (const auto &n : subject.graph->nodes())
            universe.push_back(n.get());
        std::ofstream out(opts.dot_path);
        out << analysis::violatingSubgraphDot(report, universe);
        std::cout << "   violating subgraph written to "
                  << opts.dot_path << "\n";
        dot_written = true;
    }
    return report.ok() ? 0 : 1;
}

/**
 * Lint one model's training graph: baseline first, then (policy
 * permitting) rewritten by the Echo pass and audited against the
 * pre-pass snapshot.  @p build must populate graph/fetches/weight_grads.
 */
template <typename Model>
int
lintModel(Model &model, const std::string &title,
          const LintOptions &opts, bool &dot_written)
{
    int failures = 0;

    LintSubject base;
    base.title = title + " (pass off, " +
                 std::to_string(model.fusionResult().num_groups) +
                 " fused groups)";
    base.graph = &model.graph();
    base.fetches = model.fetches();
    base.weight_grads = model.weightGrads();
    // The fusion audit replays the journalled groups against the
    // orphaned originals, so it must run before the recompute pass
    // redirects any fused frontier to a recomputed clone.
    base.fusion = &model.fusionResult();
    if (opts.policy == "off" || opts.policy == "all")
        failures += lintOne(base, opts, dot_written);

    if (opts.policy == "auto" || opts.policy == "all") {
        const analysis::GraphSnapshot snapshot = analysis::snapshotGraph(
            model.graph(), model.fetches(), model.weightGrads());
        pass::PassConfig cfg;
        cfg.policy = pass::PassConfig::Policy::kAuto;
        const pass::PassResult result = pass::runRecomputePass(
            model.graph(), model.fetches(), cfg);

        LintSubject rewritten = base;
        rewritten.title = title + " (pass auto, " +
                          std::to_string(result.num_regions) +
                          " regions)";
        rewritten.snapshot = &snapshot;
        rewritten.pass_result = &result;
        // The recompute pass may redirect a fused sink's frontier to
        // recomputed clones, so the frontier-intact audit only holds
        // on the pre-pass graph.
        rewritten.fusion = nullptr;
        failures += lintOne(rewritten, opts, dot_written);
    }
    return failures;
}

/** Parse a lease terminal status: a word or its numeric code. */
bool
parseLeaseStatus(const std::string &token, analysis::LeaseStatus *out)
{
    if (token == "served" || token == "0")
        *out = analysis::LeaseStatus::kServed;
    else if (token == "cancelled" || token == "1")
        *out = analysis::LeaseStatus::kCancelled;
    else if (token == "expired" || token == "2")
        *out = analysis::LeaseStatus::kExpired;
    else
        return false;
    return true;
}

/**
 * Lint a serving slot-lease journal ('#' comments allowed), as written
 * by echo-serve --journal.  Every non-comment line is exactly
 *     "request_id pool slot acquired released reinit status"
 * where status is served|cancelled|expired (or 0|1|2); a line with
 * fewer or more fields is malformed (exit 2).  The journal gets the
 * slot-recycling audit: exclusivity, state re-initialization and
 * exactly-once termination.
 */
int
lintServeJournal(const LintOptions &opts)
{
    std::ifstream in(opts.serve_journal);
    if (!in) {
        std::cerr << "echo-lint: cannot open " << opts.serve_journal
                  << "\n";
        return 2;
    }
    std::vector<analysis::SlotLease> journal;
    std::string line;
    size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        analysis::SlotLease lease;
        std::string status, extra;
        if (!(fields >> lease.request_id >> lease.pool >> lease.slot >>
              lease.acquired >> lease.released >> lease.reinit >>
              status) ||
            fields >> extra) {
            std::cerr << "echo-lint: " << opts.serve_journal << ":"
                      << line_no << ": malformed journal line\n";
            return 2;
        }
        if (!parseLeaseStatus(status, &lease.status)) {
            std::cerr << "echo-lint: " << opts.serve_journal << ":"
                      << line_no << ": bad lease status '" << status
                      << "'\n";
            return 2;
        }
        journal.push_back(lease);
    }

    const analysis::AnalysisReport report =
        analysis::auditSlotRecycling(journal, opts.serve_slots);
    std::cout << "== serve journal (" << journal.size() << " leases, "
              << opts.serve_slots << " slots): ";
    if (report.diagnostics.empty()) {
        std::cout << "clean\n";
        return 0;
    }
    std::cout << report.errorCount() << " error(s), "
              << report.warningCount() << " warning(s)\n"
              << report.toString();
    return report.ok() ? 0 : 1;
}

/** The injected mutation pass: declares a clean contract but corrupts
 *  a reachable node's output shape, so the graph verifier's
 *  postcondition audit must catch it (the mutation-test leg). */
class BadShapePass : public pass::Pass
{
  public:
    const char *name() const override { return "bad-shape"; }
    void
    run(pass::PipelineContext &ctx) override
    {
        // Corrupt a fetched value's recorded shape: nothing consumes a
        // fetch, so no op's own shape inference trips first and the
        // graph verifier gets to report the mismatch with its chain.
        const std::vector<graph::Val> eff = ctx.effectiveFetches();
        if (eff.empty())
            return;
        graph::Node *node = eff[0].node;
        const auto idx = static_cast<size_t>(eff[0].index);
        node->out_shapes[idx] =
            Shape({node->out_shapes[idx].numel() + 1});
    }
};

/**
 * Replay @p spec over one freshly built forward graph: static
 * contract validation first (illegal = print the violations, fail),
 * then the run with every registered checker between passes.
 */
int
replayPipeline(graph::Graph &g, const std::string &title,
               const graph::Val &loss, const models::NamedWeights &weights,
               const std::string &spec, const LintOptions &opts)
{
    pass::PassManager pm = pass::buildPipeline(spec);
    if (opts.inject == "bad-shape")
        pm.add(std::make_unique<BadShapePass>());

    pass::PipelineContext ctx(g);
    ctx.loss = loss;
    ctx.wrt.reserve(weights.size());
    for (const auto &[name, val] : weights)
        ctx.wrt.push_back(val);

    std::cout << "== " << title << " pipeline '" << pm.spec() << "': ";
    const std::vector<pass::ContractViolation> violations =
        pm.validate(ctx.initialInvariants());
    if (!violations.empty()) {
        std::cout << "statically ILLEGAL (" << violations.size()
                  << " contract violation(s))\n";
        for (const pass::ContractViolation &v : violations)
            std::cout << "   " << v.message << "\n";
        return 1;
    }

    pass::PassManager::RunOptions run_opts;
    run_opts.all_checkers = true;
    run_opts.what = "echo-lint --pipeline";
    const pass::PipelineReport report = pm.run(ctx, run_opts);
    std::cout << (report.ok() ? "clean\n" : "postcondition FAILURE\n")
              << report.toString();
    return report.ok() ? 0 : 1;
}

/** The word-LM size every echo-lint mode checks. */
models::WordLmConfig
lintWordLmConfig()
{
    models::WordLmConfig cfg;
    cfg.vocab = 120;
    cfg.hidden = 16;
    cfg.layers = 2;
    cfg.batch = 4;
    cfg.seq_len = 10;
    return cfg;
}

/** The NMT size every echo-lint mode checks. */
models::NmtConfig
lintNmtConfig()
{
    models::NmtConfig cfg;
    cfg.src_vocab = 60;
    cfg.tgt_vocab = 70;
    cfg.hidden = 16;
    cfg.enc_layers = 1;
    cfg.batch = 3;
    cfg.src_len = 8;
    cfg.tgt_len = 8;
    return cfg;
}

int
lintPipelines(const LintOptions &opts)
{
    std::string spec = opts.pipeline;
    if (spec == "default")
        spec = pass::resolveSpec(pass::PipelineKind::kTraining);
    for (const std::string &name : pass::parseSpec(spec)) {
        if (!pass::isRegisteredPass(name)) {
            std::cerr << "echo-lint: unknown pass '" << name
                      << "' in --pipeline spec; registered:";
            for (const std::string &reg : pass::registeredPassNames())
                std::cerr << " " << reg;
            std::cerr << "\n";
            return 2;
        }
    }

    int failures = 0;
    if (opts.model == "word_lm" || opts.model == "all") {
        // Spec "none": the constructor leaves the forward graph
        // untouched so the replay below owns every transform.
        models::WordLmModel model(lintWordLmConfig(), "none");
        failures += replayPipeline(model.graph(), "word_lm",
                                   model.loss(), model.weights(), spec,
                                   opts);
    }
    if (opts.model == "nmt" || opts.model == "all") {
        models::NmtModel model(lintNmtConfig(), "none");
        failures += replayPipeline(model.graph(), "nmt", model.loss(),
                                   model.weights(), spec, opts);
    }

    if (failures == 0)
        std::cout << "echo-lint: all pipelines clean\n";
    else
        std::cout << "echo-lint: " << failures
                  << " pipeline replay(s) failed\n";
    return failures;
}

bool
parseArgs(int argc, char **argv, LintOptions &opts)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--model=", 0) == 0) {
            opts.model = arg.substr(8);
        } else if (arg.rfind("--policy=", 0) == 0) {
            opts.policy = arg.substr(9);
        } else if (arg.rfind("--dot=", 0) == 0) {
            opts.dot_path = arg.substr(6);
        } else if (arg.rfind("--serve-journal=", 0) == 0) {
            opts.serve_journal = arg.substr(16);
        } else if (arg.rfind("--serve-slots=", 0) == 0) {
            const std::string text = arg.substr(14);
            const char *end = text.data() + text.size();
            const auto [ptr, ec] =
                std::from_chars(text.data(), end, opts.serve_slots);
            if (ec != std::errc() || ptr != end || opts.serve_slots < 1) {
                std::cerr << "echo-lint: bad --serve-slots value '" << text
                          << "' (need an integer >= 1)\n";
                return false;
            }
        } else if (arg.rfind("--pipeline=", 0) == 0) {
            opts.pipeline = arg.substr(11);
        } else if (arg.rfind("--inject=", 0) == 0) {
            opts.inject = arg.substr(9);
        } else if (arg.rfind("--budget=", 0) == 0) {
            if (!budget::parseByteSize(arg.substr(9), &opts.budget_bytes) ||
                opts.budget_bytes <= 0) {
                std::cerr << "echo-lint: bad --budget value '"
                          << arg.substr(9) << "'\n";
                return false;
            }
        } else {
            std::cerr << "echo-lint: unknown argument " << arg << "\n"
                      << "usage: echo-lint [--model=word_lm|nmt|all] "
                         "[--policy=off|auto|all] [--dot=PATH] "
                         "[--budget=BYTES]\n"
                         "       echo-lint --serve-journal=PATH "
                         "[--serve-slots=N]\n"
                         "       echo-lint --pipeline=SPEC "
                         "[--model=...] [--inject=bad-shape]\n";
            return false;
        }
    }
    const bool model_ok = opts.model == "word_lm" ||
                          opts.model == "nmt" || opts.model == "all";
    const bool policy_ok = opts.policy == "off" ||
                           opts.policy == "auto" || opts.policy == "all";
    if (!model_ok || !policy_ok) {
        std::cerr << "echo-lint: bad --model or --policy value\n";
        return false;
    }
    if (!opts.inject.empty() && opts.inject != "bad-shape") {
        std::cerr << "echo-lint: bad --inject value (only bad-shape)\n";
        return false;
    }
    if (!opts.inject.empty() && opts.pipeline.empty()) {
        std::cerr << "echo-lint: --inject needs --pipeline\n";
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    LintOptions opts;
    if (!parseArgs(argc, argv, opts))
        return 2;

    if (!opts.serve_journal.empty())
        return lintServeJournal(opts);
    if (!opts.pipeline.empty())
        return lintPipelines(opts);

    int failures = 0;
    bool dot_written = false;

    if (opts.model == "word_lm" || opts.model == "all") {
        models::WordLmModel model(lintWordLmConfig());
        failures +=
            lintModel(model, "word_lm", opts, dot_written);
    }
    if (opts.model == "nmt" || opts.model == "all") {
        models::NmtModel model(lintNmtConfig());
        failures += lintModel(model, "nmt", opts, dot_written);
    }

    if (failures == 0)
        std::cout << "echo-lint: all graphs clean\n";
    else
        std::cout << "echo-lint: " << failures
                  << " graph(s) with errors\n";
    return failures;
}
