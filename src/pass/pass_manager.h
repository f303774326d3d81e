/**
 * @file
 * Contract-checked pass manager over the training dataflow graph.
 *
 * Every graph transform — autodiff, element-wise fusion, the Echo
 * recompute rewrite, the memory plan and the budget-targeted rewrite —
 * is a Pass that declares its invariant contract (preconditions /
 * establishes / invalidates, see pass/contracts.h).  The PassManager
 *
 *  (a) validates pipeline legality STATICALLY before running anything:
 *      every precondition must be established by an upstream pass (or
 *      hold initially) and not clobbered by an intervening invalidating
 *      pass.  Violations come back as ContractViolation records naming
 *      the offending pass pair, so `echo-lint --pipeline` and tests can
 *      print exactly which ordering rule broke;
 *
 *  (b) runs the matching analysis:: checkers as machine-checked
 *      postconditions after each pass (graph verifier, lifetime
 *      analyzer, hazard detector, auditFusion, auditRecomputePass,
 *      memory-plan replay — see the checker table), never trusting a
 *      transform's own bookkeeping.  The checkers of one stage share
 *      one graph verification and one liveness + memory plan
 *      (PipelineContext::stage);
 *
 *  (c) records a per-pass IR snapshot diff (node / reachable / value /
 *      byte deltas) through obs spans and counters, so a trace of a
 *      training run shows what every pass did to the graph.
 *
 * Pipelines are built from a comma-separated spec string
 * (`ECHO_PASSES="autodiff,fusion,recompute"`) via pass/builtin_passes.h.
 * The passes and the checkers are two fixed tables.
 */
#ifndef ECHO_PASS_PASS_MANAGER_H
#define ECHO_PASS_PASS_MANAGER_H

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "budget/planner.h"
#include "echo/recompute_pass.h"
#include "graph/fusion.h"
#include "memory/planner.h"
#include "pass/contracts.h"

namespace echo::pass {

/**
 * Everything a pipeline run threads from pass to pass: the graph under
 * rewrite, the autodiff inputs, the outputs so far, and each pass's
 * journal artifacts (consumed by the postcondition checkers).
 */
struct PipelineContext
{
    explicit PipelineContext(graph::Graph &g) : graph(&g) {}

    graph::Graph *graph;

    /** Autodiff inputs: scalar loss and the weights to differentiate. */
    graph::Val loss{};
    std::vector<graph::Val> wrt;

    /** Training-iteration outputs.  Set by the autodiff pass (loss
     *  followed by weight grads); preset by the caller for inference
     *  pipelines that never differentiate. */
    std::vector<graph::Val> fetches;
    std::vector<graph::Val> weight_grads;

    /** Element-wise fusion journal (fusion pass). */
    fusion::FusionResult fusion;
    fusion::FusionConfig fusion_config;

    /** Echo recompute configuration, result, and pre-pass snapshot
     *  (recompute pass; the snapshot feeds auditRecomputePass). */
    PassConfig recompute_config;
    PassResult recompute;
    std::optional<analysis::GraphSnapshot> recompute_snapshot;

    /** Memory plan of the current graph (plan pass; recompute_budget
     *  keeps planWithBudget's final plan).  The memory-plan checker
     *  re-plans and compares while kMemoryPlanned holds. */
    bool has_plan = false;
    memory::MemoryPlan plan;

    /** Budget-targeted recomputation (recompute_budget pass): what was
     *  asked and what the planner decided/measured.  The plan-feasible
     *  checker re-plans and replays the plan against it. */
    budget::BudgetConfig budget_config;
    budget::BudgetPlan budget_plan;
    bool has_budget_plan = false;

    /** Invariants currently established.  Seeded by PassManager::run
     *  from initialInvariants() and maintained across passes; checkers
     *  consult it to decide applicability. */
    std::set<Invariant> holds;

    /** What the checkers of one PassManager::run stage share.  run()
     *  clears it before every pass runs and when it returns; checkers
     *  take the context const, so within a stage the graph is the one
     *  it describes.  A checker called outside run() finds it empty
     *  and verifies and plans for itself. */
    struct StageMemo
    {
        /** graph-verify passed on the effective fetches, so the later
         *  checkers skip their own verifyFetches. */
        bool verified = false;
        /** The current graph's liveness and memory plan, filled by the
         *  first checker that needs them once the stage verified. */
        std::optional<memory::PlannedSchedule> planned;
    };
    mutable StageMemo stage;

    /** The fetch set analyses should use: fetches when set, else the
     *  loss closure (pre-autodiff), else empty. */
    std::vector<graph::Val> effectiveFetches() const;

    /** Invariants that hold before the first pass: kDifferentiable for
     *  a fresh forward graph, kGradients when weight_grads is already
     *  populated. */
    std::set<Invariant> initialInvariants() const;
};

/**
 * One transform.  The docs talk about requires() /
 * establishes() / invalidates(); `requires` is a C++20 keyword, so the
 * first hook is spelled preconditions().
 */
class Pass
{
  public:
    virtual ~Pass() = default;

    virtual const char *name() const = 0;

    /** Invariants that must hold before this pass may run. */
    virtual std::vector<Invariant> preconditions() const { return {}; }
    /** Invariants this pass establishes. */
    virtual std::vector<Invariant> establishes() const { return {}; }
    /** Previously established invariants this pass destroys. */
    virtual std::vector<Invariant> invalidates() const { return {}; }

    /** Accept the argument string from a `name(arg:arg:...)` spec
     *  element (the text between the parentheses; ':' separates
     *  arguments because ',' separates passes).  Returns false and
     *  fills @p error on malformed input.  The default accepts only an
     *  empty argument list. */
    virtual bool
    configure(const std::string &args, std::string *error)
    {
        if (args.empty())
            return true;
        if (error != nullptr)
            *error = std::string(name()) + " takes no arguments";
        return false;
    }

    /** Why this pass cannot run on @p ctx, or empty when it can.
     *  Asked before run(): a reason fails the stage without running it
     *  (the caller built a pipeline its inputs cannot feed, e.g.\
     *  autodiff with no loss), and runOrDie exits 1 naming it. */
    virtual std::string missingInput(const PipelineContext &) const
    {
        return {};
    }

    /** Apply the transform. */
    virtual void run(PipelineContext &ctx) = 0;

    /** Names of checkers to run as postconditions of this pass (the
     *  manager runs them in order after run() returns). */
    virtual std::vector<std::string> postconditionCheckers() const
    {
        return {"graph-verify"};
    }
};

// ---------------------------------------------------------------------
// Checker table
// ---------------------------------------------------------------------

/** A postcondition checker: pure analysis, never mutates the context.
 *  Checkers self-gate on ctx.holds (e.g. fusion-audit is a no-op until
 *  kFusionJournal holds), so running every checker between passes —
 *  echo-lint --pipeline's replay mode — is always safe. */
using Checker = analysis::AnalysisReport (*)(const PipelineContext &);

/** The named checker, or nullptr. */
const Checker *findChecker(const std::string &name);

// ---------------------------------------------------------------------
// Pipeline-legality diagnostics
// ---------------------------------------------------------------------

/** One statically detected contract violation. */
struct ContractViolation
{
    /** Position (0-based) and name of the pass whose precondition is
     *  unsatisfied. */
    size_t pass_index = 0;
    std::string pass;
    /** The missing invariant. */
    Invariant invariant = Invariant::kDifferentiable;
    /** Pass that would establish it (earlier pass whose establishment
     *  was clobbered, or a later pass that comes too late); empty when
     *  nothing in the pipeline establishes it. */
    std::string establisher;
    /** Pass that invalidated it in between; empty when it was simply
     *  never established. */
    std::string invalidator;
    /** Full human-readable diagnostic. */
    std::string message;
};

/** What one pipeline stage did, for reports and tests. */
struct StageReport
{
    std::string pass;
    /** IR snapshot diff: graph nodes / reachable nodes / reachable
     *  values / reachable value bytes, before and after the pass. */
    int64_t nodes_before = 0, nodes_after = 0;
    int64_t reachable_before = 0, reachable_after = 0;
    int64_t values_before = 0, values_after = 0;
    int64_t bytes_before = 0, bytes_after = 0;
    /** Checkers that ran as postconditions of this stage. */
    std::vector<std::string> checkers_run;
    /** Their merged findings. */
    analysis::AnalysisReport post;
    /** Pass::missingInput's reason when the stage could not run. */
    std::string missing_input;
};

/** Everything one PassManager::run produced. */
struct PipelineReport
{
    std::vector<StageReport> stages;
    /** True when a stage could not run or its postconditions failed,
     *  and the run stopped there. */
    bool aborted = false;

    bool ok() const;
    /** Per-stage one-line summary plus every diagnostic. */
    std::string toString() const;
};

// ---------------------------------------------------------------------
// PassManager
// ---------------------------------------------------------------------

class PassManager
{
  public:
    PassManager() = default;
    PassManager(PassManager &&) = default;
    PassManager &operator=(PassManager &&) = default;

    /** Append a pass to the pipeline. */
    void add(std::unique_ptr<Pass> pass);

    size_t size() const { return passes_.size(); }
    const Pass &at(size_t i) const { return *passes_[i]; }

    /** The pipeline as a spec string ("autodiff,fusion,..."). */
    std::string spec() const;

    /**
     * Static pipeline-legality check: walk the declared contracts from
     * @p initial without running anything.  Empty result = legal.
     */
    std::vector<ContractViolation>
    validate(const std::set<Invariant> &initial) const;

    struct RunOptions
    {
        /** Run EVERY checker between passes (the replay-lint mode)
         *  instead of each pass's declared postconditions. */
        bool all_checkers = false;
        /** Panic on the first postcondition error instead of returning
         *  the report (production call sites). */
        bool die_on_error = false;
        /** Who is running the pipeline, for diagnostics. */
        const char *what = "pipeline";
    };

    /**
     * Run the pipeline over @p ctx.  Panics if validate() finds the
     * pipeline illegal — call sites must only run legal pipelines; use
     * validate() first to report violations gracefully.  A stage whose
     * postconditions find errors stops the run (aborted = true) or
     * panics under die_on_error.
     */
    PipelineReport run(PipelineContext &ctx, const RunOptions &opts) const;

    /** run() with die_on_error, naming @p what in any panic; a stage
     *  that cannot run exits 1 with the report. */
    void runOrDie(PipelineContext &ctx, const char *what) const;

  private:
    std::vector<std::unique_ptr<Pass>> passes_;
};

} // namespace echo::pass

#endif // ECHO_PASS_PASS_MANAGER_H
