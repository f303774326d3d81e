#include "pass/builtin_passes.h"

#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>

#include <cmath>

#include "budget/planner.h"
#include "core/logging.h"
#include "core/thread_pool.h"
#include "graph/autodiff.h"
#include "graph/gemm_keys.h"
#include "graph/schedule.h"
#include "memory/liveness.h"
#include "memory/planner.h"
#include "tune/tuner.h"

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
        // One-shot: the graph is no longer "fresh forward", the
        // backward projections launch GEMM shapes no warm-up has seen,
        // and any earlier memory plan predates the backward nodes.
        return {Invariant::kDifferentiable, Invariant::kGemmKeysWarm,
                Invariant::kMemoryPlanned, Invariant::kPlanFeasible};
    }
    void
    run(PipelineContext &ctx) override
    {
        ECHO_CHECK(ctx.loss.defined(),
                   "autodiff pass needs ctx.loss (the scalar to "
                   "differentiate)");
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

/** TBH-vs-THB layout decision for the representative projection. */
class LayoutPass : public Pass
{
  public:
    const char *name() const override { return "layout"; }
    std::vector<Invariant> establishes() const override
    {
        return {Invariant::kLayoutDecided};
    }
    void
    run(PipelineContext &ctx) override
    {
        // Without a representative spec the default decision stands.
        if (ctx.has_layout_spec)
            ctx.layout = layout::chooseLayout(ctx.layout_spec, ctx.gpu);
    }
    std::vector<std::string> postconditionCheckers() const override
    {
        // Never touches the graph; nothing to re-verify.
        return {};
    }
};

/** Eager GEMM-key autotuner warm-up over the current schedule. */
class GemmWarmPass : public Pass
{
  public:
    const char *name() const override { return "gemm_warm"; }
    std::vector<Invariant> establishes() const override
    {
        return {Invariant::kGemmKeysWarm};
    }
    void
    run(PipelineContext &ctx) override
    {
        ctx.gemm_keys_warmed = 0;
        const std::vector<graph::Val> eff = ctx.effectiveFetches();
        if (eff.empty() || ops::tuneMode() == ops::TuneMode::kOff)
            return;
        tune::ensureGlobalTuner();
        // Measuring schedules is a search-mode decision (mirrors the
        // executor): under kCache the registry is read-only.
        if (ops::tuneMode() != ops::TuneMode::kSearch)
            return;
        const std::vector<graph::Node *> schedule =
            graph::buildSchedule(eff);
        ctx.gemm_keys_warmed = tune::globalTuner().warmKeys(
            graph::collectGemmKeys(schedule,
                                   ThreadPool::global().numThreads()));
    }
    std::vector<std::string> postconditionCheckers() const override
    {
        return {};
    }
};

/** No transform: re-audits the fusion journal.  Requires the journal
 *  to still be intact — "audit_fusion" after "recompute" is the
 *  canonical statically-illegal established-then-clobbered example. */
class AuditFusionPass : public Pass
{
  public:
    const char *name() const override { return "audit_fusion"; }
    std::vector<Invariant> preconditions() const override
    {
        return {Invariant::kFusionJournal};
    }
    void run(PipelineContext &) override {}
    std::vector<std::string> postconditionCheckers() const override
    {
        return {"fusion-audit"};
    }
};

/** No transform: runs every registered checker (verification as a
 *  pipeline stage: append 'verify' to a spec). */
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

/** Derives the memory plan of the current graph into ctx.plan (the
 *  liveness analysis rides along in ctx.plan_liveness) and establishes
 *  kMemoryPlanned so downstream passes — recompute_budget's fraction
 *  budgets, the memory-plan checker — may rely on it. */
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
        ctx.plan_liveness = memory::analyzeLiveness(eff, ctx.weight_grads);
        ctx.plan = memory::planMemory(ctx.plan_liveness);
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
 *  graph for the recompute audit, runs planWithBudget, and re-plans
 *  memory afterwards so kMemoryPlanned stays truthful; plan-feasible
 *  then re-derives the peak and replays the allocation timeline. */
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
                try {
                    fraction_ = std::stod(value);
                } catch (...) {
                    return fail("bad fraction '" + value + "'");
                }
                if (!(fraction_ > 0.0 && fraction_ <= 1.0))
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
        ctx.plan_liveness = memory::analyzeLiveness(eff, ctx.weight_grads);
        ctx.plan = memory::planMemory(ctx.plan_liveness);
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
// Registry
// ---------------------------------------------------------------------

struct PassRegistry
{
    std::mutex mu;
    std::map<std::string, PassFactory> factories;
};

PassRegistry &
passRegistry()
{
    static PassRegistry reg;
    return reg;
}

std::once_flag builtin_passes_once;

template <typename T>
PassFactory
factoryOf()
{
    return [] { return std::make_unique<T>(); };
}

void
ensureBuiltinPasses()
{
    std::call_once(builtin_passes_once, [] {
        registerPass("autodiff", factoryOf<AutodiffPass>());
        registerPass("fusion", factoryOf<FusionPass>());
        registerPass("recompute", factoryOf<RecomputePass>());
        registerPass("layout", factoryOf<LayoutPass>());
        registerPass("gemm_warm", factoryOf<GemmWarmPass>());
        registerPass("audit_fusion", factoryOf<AuditFusionPass>());
        registerPass("verify", factoryOf<VerifyPass>());
        registerPass("plan", factoryOf<PlanPass>());
        registerPass("recompute_budget", factoryOf<RecomputeBudgetPass>());
    });
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

/** Split a spec element "name(args)" into its registered name and the
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

void
registerPass(const std::string &name, PassFactory factory)
{
    ECHO_CHECK(factory != nullptr, "pass factory '", name, "' is null");
    ECHO_CHECK(name.find(',') == std::string::npos,
               "pass name '", name, "' may not contain a comma");
    PassRegistry &reg = passRegistry();
    std::lock_guard<std::mutex> lock(reg.mu);
    auto [it, inserted] = reg.factories.emplace(name, std::move(factory));
    (void)it;
    ECHO_CHECK(inserted, "pass '", name, "' registered twice");
}

bool
isRegisteredPass(const std::string &name)
{
    ensureBuiltinPasses();
    std::string base, args;
    if (!splitPassElement(name, &base, &args))
        return false;
    PassRegistry &reg = passRegistry();
    std::lock_guard<std::mutex> lock(reg.mu);
    return reg.factories.count(base) != 0;
}

std::vector<std::string>
registeredPassNames()
{
    ensureBuiltinPasses();
    PassRegistry &reg = passRegistry();
    std::lock_guard<std::mutex> lock(reg.mu);
    std::vector<std::string> names;
    names.reserve(reg.factories.size());
    for (const auto &[name, factory] : reg.factories)
        names.push_back(name);
    return names;
}

std::unique_ptr<Pass>
makePass(const std::string &name)
{
    return makePass(name, nullptr);
}

std::unique_ptr<Pass>
makePass(const std::string &name, std::string *error)
{
    ensureBuiltinPasses();
    std::string base, args;
    if (!splitPassElement(name, &base, &args)) {
        if (error != nullptr)
            *error = "malformed pass element '" + name +
                     "' (expected name or name(args))";
        return nullptr;
    }
    PassFactory factory;
    {
        PassRegistry &reg = passRegistry();
        std::lock_guard<std::mutex> lock(reg.mu);
        auto it = reg.factories.find(base);
        if (it == reg.factories.end()) {
            if (error != nullptr)
                *error = "unknown pass '" + base + "'";
            return nullptr;
        }
        factory = it->second;
    }
    std::unique_ptr<Pass> pass = factory();
    std::string configure_error;
    if (!pass->configure(args, &configure_error)) {
        if (error != nullptr)
            *error = configure_error.empty()
                         ? "bad arguments '" + args + "' for pass '" +
                               base + "'"
                         : configure_error;
        return nullptr;
    }
    return pass;
}

std::string
presetSpec(const std::string &name)
{
    // Per-workload pipelines (one level deep: presets expand to real
    // pass names only).  Serving graphs are forward-only, so no
    // autodiff; gemm_warm pre-tunes the skewed decode shapes; the NMT
    // preset re-audits the fusion journal because its attention chains
    // are the most fusion-stressed graphs we build.
    if (name == "serve-wordlm")
        return "fusion,gemm_warm";
    if (name == "serve-nmt")
        return "fusion,audit_fusion,gemm_warm";
    return "";
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
        const std::string name =
            current.substr(first, current.find_last_not_of(" \t") -
                                      first + 1);
        const std::string preset = presetSpec(name);
        if (preset.empty()) {
            names.push_back(name);
            continue;
        }
        for (const std::string &expanded : parseSpec(preset))
            names.push_back(expanded);
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
      case PipelineKind::kServeWordLm:
        return "serve-wordlm";
      case PipelineKind::kServeNmt:
        return "serve-nmt";
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
    // Presets expand, so the resolved spec always lists passes.
    return joinSpec(parseSpec(defaultSpec(kind)));
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
