#include "pass/builtin_passes.h"

#include <cmath>
#include <cstdlib>
#include <sstream>

#include "budget/planner.h"
#include "core/logging.h"
#include "graph/autodiff.h"
#include "memory/planner.h"

namespace echo::pass {
namespace {

// ---------------------------------------------------------------------
// Built-in passes
// ---------------------------------------------------------------------

/** graph::backward as a pass: turns a forward graph with a loss into
 *  the training graph, setting ctx.fetches = {loss, grads...}. */
class AutodiffPass : public Pass
{
  public:
    const char *name() const override { return "autodiff"; }
    std::vector<Invariant> preconditions() const override
    {
        return {Invariant::kDifferentiable};
    }
    std::vector<Invariant> establishes() const override
    {
        return {Invariant::kGradients};
    }
    std::vector<Invariant> invalidates() const override
    {
        // One-shot: the graph is no longer "fresh forward", and any
        // earlier memory plan predates the backward nodes.
        return {Invariant::kDifferentiable, Invariant::kMemoryPlanned,
                Invariant::kPlanFeasible};
    }
    std::string missingInput(const PipelineContext &ctx) const override
    {
        if (ctx.loss.defined())
            return {};
        return "autodiff needs a loss to differentiate and this "
               "pipeline has none (an inference graph?)";
    }
    void
    run(PipelineContext &ctx) override
    {
        const graph::GradientResult grads =
            graph::backward(*ctx.graph, ctx.loss, ctx.wrt);
        ctx.weight_grads = grads.weight_grads;
        ctx.fetches.clear();
        ctx.fetches.push_back(ctx.loss);
        ctx.fetches.insert(ctx.fetches.end(), ctx.weight_grads.begin(),
                           ctx.weight_grads.end());
    }
};

/** Element-wise fusion; journals into ctx.fusion for the audit. */
class FusionPass : public Pass
{
  public:
    const char *name() const override { return "fusion"; }
    std::vector<Invariant> establishes() const override
    {
        return {Invariant::kFusionJournal};
    }
    std::vector<Invariant> invalidates() const override
    {
        // FusedElementwiseOp has no gradient; and retyping group sinks
        // in place means an earlier recompute snapshot no longer
        // matches the graph's history, so its audit can't replay.  The
        // rewrite also changes the schedule, so memory plans go stale.
        return {Invariant::kDifferentiable, Invariant::kRecomputeApplied,
                Invariant::kMemoryPlanned, Invariant::kPlanFeasible};
    }
    void
    run(PipelineContext &ctx) override
    {
        ctx.fusion = fusion::runFusionPass(*ctx.graph,
                                           ctx.effectiveFetches(),
                                           ctx.fusion_config);
    }
    std::vector<std::string> postconditionCheckers() const override
    {
        return {"graph-verify", "fusion-audit"};
    }
};

/** The Echo recompute rewrite; snapshots first so the audit can diff. */
class RecomputePass : public Pass
{
  public:
    const char *name() const override { return "recompute"; }
    std::vector<Invariant> preconditions() const override
    {
        // Feature maps only exist once backward consumers do.
        return {Invariant::kGradients};
    }
    std::vector<Invariant> establishes() const override
    {
        return {Invariant::kRecomputeApplied};
    }
    std::vector<Invariant> invalidates() const override
    {
        // The rewrite may redirect a fused sink's frontier into
        // recompute clones, so the fusion journal no longer replays;
        // it also appends nodes, so memory plans go stale.
        return {Invariant::kFusionJournal, Invariant::kDifferentiable,
                Invariant::kMemoryPlanned, Invariant::kPlanFeasible};
    }
    void
    run(PipelineContext &ctx) override
    {
        const std::vector<graph::Val> eff = ctx.effectiveFetches();
        ctx.recompute_snapshot =
            analysis::snapshotGraph(*ctx.graph, eff, ctx.weight_grads);
        ctx.recompute =
            runRecomputePass(*ctx.graph, eff, ctx.recompute_config);
    }
    std::vector<std::string> postconditionCheckers() const override
    {
        return {"graph-verify", "recompute-audit"};
    }
};

/** No transform: runs every checker (verification as a pipeline
 *  stage: append 'verify' to a spec). */
class VerifyPass : public Pass
{
  public:
    const char *name() const override { return "verify"; }
    void run(PipelineContext &) override {}
    std::vector<std::string> postconditionCheckers() const override
    {
        return {"graph-verify",    "lifetime",    "hazards",
                "fusion-audit",    "recompute-audit", "memory-plan",
                "plan-feasible"};
    }
};

/** Derives the memory plan of the current graph into ctx.plan and
 *  establishes kMemoryPlanned so downstream passes — recompute_budget's
 *  fraction budgets, the memory-plan checker — may rely on it. */
class PlanPass : public Pass
{
  public:
    const char *name() const override { return "plan"; }
    std::vector<Invariant> establishes() const override
    {
        return {Invariant::kMemoryPlanned};
    }
    void
    run(PipelineContext &ctx) override
    {
        const std::vector<graph::Val> eff = ctx.effectiveFetches();
        ECHO_CHECK(!eff.empty(),
                   "plan pass needs fetches (set ctx.loss / ctx.fetches "
                   "or run autodiff first)");
        ctx.plan = memory::planSchedule(eff, ctx.weight_grads).plan;
        ctx.has_plan = true;
    }
    std::vector<std::string> postconditionCheckers() const override
    {
        return {"graph-verify", "memory-plan"};
    }
};

/** Budget-targeted recomputation (budget/planner.h) as a pass:
 *  `recompute_budget(bytes=256MiB)` or
 *  `recompute_budget(fraction=0.5:solver=dp)`.  Arguments are
 *  ':'-separated key=value pairs (commas separate passes in a spec):
 *
 *    bytes=N      absolute transient-pool budget ("256MiB", "1.5GiB")
 *    fraction=F   budget as a fraction of ctx.plan's pool peak (0..1];
 *                 needs the plan pass — hence the kMemoryPlanned
 *                 precondition
 *    solver=S     greedy | dp | lagrange        (default dp)
 *
 *  Exactly one of bytes/fraction is required.  The pass snapshots the
 *  graph for the recompute audit, runs planWithBudget, and keeps its
 *  final memory plan as ctx.plan so kMemoryPlanned stays truthful;
 *  plan-feasible then re-derives the peak and replays the plan. */
class RecomputeBudgetPass : public Pass
{
  public:
    RecomputeBudgetPass() : display_("recompute_budget") {}

    const char *name() const override { return display_.c_str(); }
    std::vector<Invariant> preconditions() const override
    {
        // Feature maps need backward consumers; fraction budgets (and
        // the post-run re-plan contract) need a current memory plan.
        return {Invariant::kGradients, Invariant::kMemoryPlanned};
    }
    std::vector<Invariant> establishes() const override
    {
        return {Invariant::kRecomputeApplied, Invariant::kMemoryPlanned,
                Invariant::kPlanFeasible};
    }
    std::vector<Invariant> invalidates() const override
    {
        // Same rewrite machinery as the recompute pass.
        return {Invariant::kFusionJournal, Invariant::kDifferentiable};
    }

    bool
    configure(const std::string &args, std::string *error) override
    {
        const auto fail = [error](const std::string &msg) {
            if (error != nullptr)
                *error = "recompute_budget: " + msg;
            return false;
        };
        if (args.empty())
            return fail("needs bytes=<size> or fraction=<0..1>");
        std::istringstream stream(args);
        std::string kv;
        while (std::getline(stream, kv, ':')) {
            const size_t eq = kv.find('=');
            if (eq == std::string::npos)
                return fail("malformed argument '" + kv +
                            "' (expected key=value)");
            const std::string key = kv.substr(0, eq);
            const std::string value = kv.substr(eq + 1);
            if (key == "bytes") {
                if (!budget::parseByteSize(value, &bytes_) || bytes_ <= 0)
                    return fail("bad byte size '" + value + "'");
            } else if (key == "fraction") {
                if (!budget::parseFraction(value, &fraction_))
                    return fail("fraction must be in (0, 1], got '" +
                                value + "'");
            } else if (key == "solver") {
                if (!budget::parseSolver(value, &solver_))
                    return fail("unknown solver '" + value +
                                "' (greedy | dp | lagrange)");
            } else {
                return fail("unknown argument '" + key +
                            "' (bytes | fraction | solver)");
            }
        }
        if ((bytes_ > 0) == (fraction_ > 0.0))
            return fail("exactly one of bytes= and fraction= is required");
        display_ = "recompute_budget(" + args + ")";
        return true;
    }

    void
    run(PipelineContext &ctx) override
    {
        const std::vector<graph::Val> eff = ctx.effectiveFetches();
        ctx.recompute_snapshot =
            analysis::snapshotGraph(*ctx.graph, eff, ctx.weight_grads);

        budget::BudgetConfig config;
        config.solver = solver_;
        config.recompute = ctx.recompute_config;
        if (fraction_ > 0.0) {
            ECHO_CHECK(ctx.has_plan,
                       "recompute_budget(fraction=...) needs the plan "
                       "pass's memory plan");
            config.budget_bytes = static_cast<int64_t>(std::llround(
                fraction_ *
                static_cast<double>(ctx.plan.pool_peak_bytes)));
        } else {
            config.budget_bytes = bytes_;
        }

        ctx.budget_config = config;
        ctx.budget_plan =
            budget::planWithBudget(*ctx.graph, eff, ctx.weight_grads,
                                   config);
        ctx.has_budget_plan = true;
        ctx.recompute = ctx.budget_plan.pass;
        // Keep kMemoryPlanned truthful across the rewrite.
        ctx.plan = ctx.budget_plan.memory_plan;
        ctx.has_plan = true;
    }

    std::vector<std::string> postconditionCheckers() const override
    {
        return {"graph-verify", "recompute-audit", "plan-feasible"};
    }

  private:
    std::string display_;
    int64_t bytes_ = 0;
    double fraction_ = 0.0;
    budget::Solver solver_ = budget::Solver::kChainDp;
};

// ---------------------------------------------------------------------
// Pass table
// ---------------------------------------------------------------------

struct PassEntry
{
    const char *name;
    std::unique_ptr<Pass> (*make)();
};

template <typename T>
std::unique_ptr<Pass>
makeOf()
{
    return std::make_unique<T>();
}

/** Every pass a spec may name, sorted by name. */
constexpr PassEntry kPasses[] = {
    {"autodiff", makeOf<AutodiffPass>},
    {"fusion", makeOf<FusionPass>},
    {"plan", makeOf<PlanPass>},
    {"recompute", makeOf<RecomputePass>},
    {"recompute_budget", makeOf<RecomputeBudgetPass>},
    {"verify", makeOf<VerifyPass>},
};

const PassEntry *
findPass(const std::string &base)
{
    for (const PassEntry &entry : kPasses) {
        if (base == entry.name)
            return &entry;
    }
    return nullptr;
}

std::string
joinSpec(const std::vector<std::string> &names)
{
    std::ostringstream oss;
    for (size_t i = 0; i < names.size(); ++i) {
        if (i > 0)
            oss << ",";
        oss << names[i];
    }
    return oss.str();
}

/** Split a spec element "name(args)" into its pass name and the
 *  argument text between the parentheses ("" when absent).  False on
 *  unbalanced parentheses. */
bool
splitPassElement(const std::string &element, std::string *base,
                 std::string *args)
{
    const size_t open = element.find('(');
    if (open == std::string::npos) {
        *base = element;
        args->clear();
        return true;
    }
    if (element.back() != ')' || open + 1 > element.size() - 1)
        return false;
    *base = element.substr(0, open);
    *args = element.substr(open + 1, element.size() - open - 2);
    return true;
}

} // namespace

bool
isRegisteredPass(const std::string &name)
{
    std::string base, args;
    return splitPassElement(name, &base, &args) && findPass(base) != nullptr;
}

std::vector<std::string>
registeredPassNames()
{
    std::vector<std::string> names;
    for (const PassEntry &entry : kPasses)
        names.emplace_back(entry.name);
    return names;
}

std::unique_ptr<Pass>
makePass(const std::string &name, std::string *error)
{
    std::string base, args;
    if (!splitPassElement(name, &base, &args)) {
        *error = "malformed pass element '" + name +
                 "' (expected name or name(args))";
        return nullptr;
    }
    const PassEntry *entry = findPass(base);
    if (entry == nullptr) {
        *error = "unknown pass '" + base + "'";
        return nullptr;
    }
    std::unique_ptr<Pass> pass = entry->make();
    std::string configure_error;
    if (!pass->configure(args, &configure_error)) {
        *error = configure_error.empty()
                     ? "bad arguments '" + args + "' for pass '" + base +
                           "'"
                     : configure_error;
        return nullptr;
    }
    return pass;
}

std::vector<std::string>
parseSpec(const std::string &spec)
{
    std::vector<std::string> names;
    std::string current;
    std::istringstream stream(spec);
    while (std::getline(stream, current, ',')) {
        const size_t first = current.find_first_not_of(" \t");
        if (first == std::string::npos)
            continue;
        names.push_back(current.substr(
            first, current.find_last_not_of(" \t") - first + 1));
    }
    if (names.size() == 1 && names[0] == "none")
        names.clear();
    return names;
}

std::string
defaultSpec(PipelineKind kind)
{
    switch (kind) {
      case PipelineKind::kTraining:
        return "autodiff,fusion";
      case PipelineKind::kInference:
        return "fusion";
    }
    return "";
}

std::string
resolveSpec(PipelineKind kind, const std::string &requested)
{
    if (!requested.empty())
        return requested;
    if (const char *env = std::getenv("ECHO_PASSES");
        env != nullptr && env[0] != '\0') {
        return env;
    }
    return defaultSpec(kind);
}

PassManager
buildPipeline(const std::string &spec)
{
    PassManager pm;
    for (const std::string &name : parseSpec(spec)) {
        std::string error;
        std::unique_ptr<Pass> pass = makePass(name, &error);
        if (pass == nullptr) {
            ECHO_FATAL(error, " in pipeline spec '", spec,
                       "'; registered passes: ",
                       joinSpec(registeredPassNames()));
        }
        pm.add(std::move(pass));
    }
    return pm;
}

} // namespace echo::pass
