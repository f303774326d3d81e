#include "pass/pass_manager.h"

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>

#include "core/logging.h"
#include "obs/counters.h"
#include "obs/trace.h"

namespace echo::pass {

// ---------------------------------------------------------------------
// PipelineContext
// ---------------------------------------------------------------------

std::vector<graph::Val>
PipelineContext::effectiveFetches() const
{
    if (!fetches.empty())
        return fetches;
    if (loss.defined())
        return {loss};
    return {};
}

std::set<Invariant>
PipelineContext::initialInvariants() const
{
    std::set<Invariant> initial;
    // A context whose gradients are already materialized resumes the
    // pipeline past autodiff; a fresh one is still differentiable.
    if (weight_grads.empty())
        initial.insert(Invariant::kDifferentiable);
    else
        initial.insert(Invariant::kGradients);
    return initial;
}

// ---------------------------------------------------------------------
// Checker table
// ---------------------------------------------------------------------

namespace {

/** Schedule-level checkers defer structural errors to graph-verify:
 *  building a schedule over a broken graph panics, so they no-op
 *  unless the fetch closure verifies clean.  Within one stage of
 *  PassManager::run, graph-verify's clean verdict is reused: checkers
 *  take the context const, so the graph is the one it verified. */
bool
fetchesVerifyClean(const PipelineContext &ctx,
                   const std::vector<graph::Val> &fetches)
{
    return !fetches.empty() &&
           (ctx.stage.verified || analysis::verifyFetches(fetches).ok());
}

/** The current graph's liveness and memory plan: the stage memo's once
 *  the stage verified (the first caller fills it), else planned afresh
 *  into @p own. */
const memory::PlannedSchedule &
plannedSchedule(const PipelineContext &ctx,
                const std::vector<graph::Val> &fetches,
                std::optional<memory::PlannedSchedule> &own)
{
    std::optional<memory::PlannedSchedule> &slot =
        ctx.stage.verified ? ctx.stage.planned : own;
    if (!slot)
        slot = memory::planSchedule(fetches, ctx.weight_grads);
    return *slot;
}

analysis::AnalysisReport
checkGraphVerify(const PipelineContext &ctx)
{
    const std::vector<graph::Val> eff = ctx.effectiveFetches();
    if (eff.empty())
        return {};
    return analysis::verifyFetches(eff);
}

analysis::AnalysisReport
checkLifetime(const PipelineContext &ctx)
{
    const std::vector<graph::Val> eff = ctx.effectiveFetches();
    if (!fetchesVerifyClean(ctx, eff))
        return {};
    std::optional<memory::PlannedSchedule> own;
    const memory::PlannedSchedule &s = plannedSchedule(ctx, eff, own);
    return analysis::analyzeLifetimes(s.liveness, eff, ctx.weight_grads,
                                      &s.plan);
}

analysis::AnalysisReport
checkHazards(const PipelineContext &ctx)
{
    const std::vector<graph::Val> eff = ctx.effectiveFetches();
    if (!fetchesVerifyClean(ctx, eff))
        return {};
    return analysis::detectParallelHazards(analysis::buildTopology(eff));
}

analysis::AnalysisReport
checkFusionAudit(const PipelineContext &ctx)
{
    // Only meaningful while the fusion journal is intact; recompute
    // redirects fused frontiers and invalidates it.
    if (ctx.holds.count(Invariant::kFusionJournal) == 0 ||
        ctx.fusion.num_groups == 0) {
        return {};
    }
    const std::vector<graph::Val> eff = ctx.effectiveFetches();
    if (!fetchesVerifyClean(ctx, eff))
        return {};
    return analysis::auditFusion(eff, ctx.fusion);
}

analysis::AnalysisReport
checkRecomputeAudit(const PipelineContext &ctx)
{
    if (ctx.holds.count(Invariant::kRecomputeApplied) == 0 ||
        !ctx.recompute_snapshot.has_value()) {
        return {};
    }
    const std::vector<graph::Val> eff = ctx.effectiveFetches();
    if (!fetchesVerifyClean(ctx, eff))
        return {};
    std::optional<memory::PlannedSchedule> own;
    const memory::PlannedSchedule &s = plannedSchedule(ctx, eff, own);
    analysis::AuditOptions opts;
    opts.expect_gemm_free = ctx.recompute_config.respect_gemm_boundary;
    return analysis::auditRecomputePass(*ctx.recompute_snapshot, *ctx.graph,
                                        s.liveness, s.plan, ctx.recompute,
                                        opts);
}

analysis::AnalysisReport
checkMemoryPlan(const PipelineContext &ctx)
{
    // Only meaningful while a memory plan claims to describe the
    // current graph; passes that rewrite the graph invalidate
    // kMemoryPlanned and silence this checker until the next re-plan.
    if (ctx.holds.count(Invariant::kMemoryPlanned) == 0 || !ctx.has_plan)
        return {};
    const std::vector<graph::Val> eff = ctx.effectiveFetches();
    if (!fetchesVerifyClean(ctx, eff))
        return {};
    analysis::AnalysisReport report;
    std::optional<memory::PlannedSchedule> own;
    const memory::MemoryPlan &fresh = plannedSchedule(ctx, eff, own).plan;
    if (fresh.pool_peak_bytes != ctx.plan.pool_peak_bytes ||
        fresh.persistent_bytes != ctx.plan.persistent_bytes) {
        report.add(analysis::Check::kPlanStale, analysis::Severity::kError,
                   "recorded memory plan is stale: pool peak " +
                       std::to_string(ctx.plan.pool_peak_bytes) +
                       " / persistent " +
                       std::to_string(ctx.plan.persistent_bytes) +
                       " bytes recorded, but re-planning the current graph "
                       "gives " +
                       std::to_string(fresh.pool_peak_bytes) + " / " +
                       std::to_string(fresh.persistent_bytes) + " bytes");
    }
    return report;
}

analysis::AnalysisReport
checkPlanFeasible(const PipelineContext &ctx)
{
    if (ctx.holds.count(Invariant::kPlanFeasible) == 0 ||
        !ctx.has_budget_plan) {
        return {};
    }
    const std::vector<graph::Val> eff = ctx.effectiveFetches();
    if (!fetchesVerifyClean(ctx, eff))
        return {};
    analysis::AnalysisReport report;
    const budget::BudgetPlan &bp = ctx.budget_plan;
    if (!bp.feasible) {
        std::ostringstream msg;
        msg << "budget plan is infeasible: tightest achievable pool peak "
            << budget::formatBytes(bp.tightest_pool_peak)
            << " exceeds budget " << budget::formatBytes(bp.budget_bytes);
        std::vector<analysis::NodeRef> chain;
        for (const budget::BindingBuffer &b : bp.binding)
            chain.push_back(analysis::NodeRef::of(b.val.node, b.def_pos));
        report.add(analysis::Check::kBudgetExceeded,
                   analysis::Severity::kError, msg.str(), std::move(chain));
        return report;
    }
    // Re-derive the pool peak from the current graph — never trust the
    // planner's own record — and independently replay the plan against
    // the live intervals.
    std::optional<memory::PlannedSchedule> own;
    const memory::PlannedSchedule &s = plannedSchedule(ctx, eff, own);
    const memory::MemoryPlan &plan = s.plan;
    report.merge(
        analysis::checkPoolBudget(s.liveness, plan, bp.budget_bytes));
    if (plan.pool_peak_bytes != bp.planned_pool_peak) {
        report.add(analysis::Check::kPlanStale, analysis::Severity::kError,
                   "budget plan is stale: it recorded pool peak " +
                       std::to_string(bp.planned_pool_peak) +
                       " bytes but re-planning the current graph gives " +
                       std::to_string(plan.pool_peak_bytes) + " bytes");
    }
    const memory::PlanReplay replay = memory::replayPlan(s.liveness, plan);
    if (!replay.ok() ||
        replay.address_peak_bytes != plan.pool_peak_bytes) {
        report.add(analysis::Check::kPlanStale, analysis::Severity::kError,
                   "plan replay disagrees with the memory plan: "
                   "address peak " +
                       std::to_string(replay.address_peak_bytes) +
                       " bytes vs planned pool peak " +
                       std::to_string(plan.pool_peak_bytes) + " bytes (" +
                       std::to_string(replay.findings.size()) +
                       " finding(s))");
    }
    return report;
}

struct CheckerEntry
{
    const char *name;
    Checker fn;
};

/** Every checker in canonical replay order: the structural verifier
 *  first (the others defer to it), then schedule analyses, then the
 *  pass audits. */
constexpr CheckerEntry kCheckers[] = {
    {"graph-verify", checkGraphVerify},
    {"lifetime", checkLifetime},
    {"hazards", checkHazards},
    {"fusion-audit", checkFusionAudit},
    {"recompute-audit", checkRecomputeAudit},
    {"memory-plan", checkMemoryPlan},
    {"plan-feasible", checkPlanFeasible},
};

} // namespace

const Checker *
findChecker(const std::string &name)
{
    for (const CheckerEntry &entry : kCheckers) {
        if (name == entry.name)
            return &entry.fn;
    }
    return nullptr;
}

// ---------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------

bool
PipelineReport::ok() const
{
    if (aborted)
        return false;
    for (const StageReport &stage : stages) {
        if (stage.post.errorCount() > 0)
            return false;
    }
    return true;
}

std::string
PipelineReport::toString() const
{
    std::ostringstream oss;
    for (size_t i = 0; i < stages.size(); ++i) {
        const StageReport &s = stages[i];
        if (!s.missing_input.empty()) {
            oss << "  [" << i << "] " << s.pass
                << ": not run: " << s.missing_input << "\n";
            continue;
        }
        oss << "  [" << i << "] " << s.pass << ": nodes " << s.nodes_before
            << "->" << s.nodes_after << ", reachable " << s.reachable_before
            << "->" << s.reachable_after << ", values " << s.values_before
            << "->" << s.values_after << ", bytes " << s.bytes_before << "->"
            << s.bytes_after << "; checkers:";
        if (s.checkers_run.empty()) {
            oss << " (none)";
        } else {
            for (const std::string &name : s.checkers_run)
                oss << " " << name;
        }
        oss << " (" << s.post.errorCount() << " error(s), "
            << s.post.warningCount() << " warning(s))\n";
        const std::string diags = s.post.toString();
        if (!diags.empty()) {
            std::istringstream lines(diags);
            std::string line;
            while (std::getline(lines, line))
                oss << "      " << line << "\n";
        }
    }
    if (aborted && !stages.empty() && !stages.back().missing_input.empty())
        oss << "  pipeline aborted: a pass could not run\n";
    else if (aborted)
        oss << "  pipeline aborted on postcondition failure\n";
    return oss.str();
}

// ---------------------------------------------------------------------
// PassManager
// ---------------------------------------------------------------------

namespace {

struct IrStats
{
    int64_t nodes = 0;
    int64_t reachable = 0;
    int64_t values = 0;
    int64_t bytes = 0;
};

IrStats
irStats(const PipelineContext &ctx)
{
    IrStats stats;
    stats.nodes = static_cast<int64_t>(ctx.graph->numNodes());
    const std::vector<graph::Val> eff = ctx.effectiveFetches();
    if (eff.empty())
        return stats;
    for (const graph::Node *node : graph::reachableNodes(eff)) {
        ++stats.reachable;
        stats.values += node->numOutputs();
        for (const Shape &shape : node->out_shapes)
            stats.bytes += shape.bytes();
    }
    return stats;
}

/** How an invariant came to (not) hold at some pipeline position. */
struct InvariantState
{
    bool held = false;
    /** Who established it ("<initial>" for pipeline entry). */
    std::string establisher;
    int establisher_index = -1;
    /** Who invalidated it since (when held == false after being held). */
    std::string invalidator;
    int invalidator_index = -1;
};

std::string
positionOf(const std::string &pass, int index)
{
    std::ostringstream oss;
    if (index < 0)
        oss << "pipeline entry";
    else
        oss << "'" << pass << "' (position " << index << ")";
    return oss.str();
}

} // namespace

void
PassManager::add(std::unique_ptr<Pass> pass)
{
    ECHO_CHECK(pass != nullptr, "null pass added to pipeline");
    passes_.push_back(std::move(pass));
}

std::string
PassManager::spec() const
{
    std::ostringstream oss;
    for (size_t i = 0; i < passes_.size(); ++i) {
        if (i > 0)
            oss << ",";
        oss << passes_[i]->name();
    }
    return oss.str();
}

std::vector<ContractViolation>
PassManager::validate(const std::set<Invariant> &initial) const
{
    std::vector<ContractViolation> violations;
    std::map<Invariant, InvariantState> state;
    for (Invariant inv : initial) {
        InvariantState &st = state[inv];
        st.held = true;
        st.establisher = "<initial>";
        st.establisher_index = -1;
    }

    for (size_t i = 0; i < passes_.size(); ++i) {
        const Pass &pass = *passes_[i];
        for (Invariant pre : pass.preconditions()) {
            auto it = state.find(pre);
            if (it != state.end() && it->second.held)
                continue;

            ContractViolation v;
            v.pass_index = i;
            v.pass = pass.name();
            v.invariant = pre;
            std::ostringstream msg;
            msg << "pass '" << v.pass << "' (position " << i
                << ") requires invariant '" << invariantName(pre) << "', ";
            if (it != state.end() && !it->second.establisher.empty()) {
                // Established (or held initially), then clobbered: name
                // the offending pass pair.
                const InvariantState &st = it->second;
                v.establisher = st.establisher;
                v.invalidator = st.invalidator;
                if (st.establisher == "<initial>") {
                    msg << "which held at " << positionOf("", -1) << " but "
                        << positionOf(st.invalidator, st.invalidator_index)
                        << " invalidated it";
                } else {
                    msg << "established by "
                        << positionOf(st.establisher, st.establisher_index)
                        << " but invalidated by "
                        << positionOf(st.invalidator, st.invalidator_index)
                        << " in between";
                }
            } else {
                // Never established: hint at a too-late establisher.
                msg << "which no earlier pass establishes";
                for (size_t j = i + 1; j < passes_.size(); ++j) {
                    const auto later = passes_[j]->establishes();
                    if (std::find(later.begin(), later.end(), pre) !=
                        later.end()) {
                        v.establisher = passes_[j]->name();
                        msg << "; '" << v.establisher << "' (position " << j
                            << ") establishes it — order it before '"
                            << v.pass << "'";
                        break;
                    }
                }
            }
            v.message = msg.str();
            violations.push_back(std::move(v));
        }

        for (Invariant inv : pass.invalidates()) {
            auto it = state.find(inv);
            if (it == state.end() || !it->second.held)
                continue;
            it->second.held = false;
            it->second.invalidator = pass.name();
            it->second.invalidator_index = static_cast<int>(i);
        }
        for (Invariant inv : pass.establishes()) {
            InvariantState &st = state[inv];
            st.held = true;
            st.establisher = pass.name();
            st.establisher_index = static_cast<int>(i);
            st.invalidator.clear();
            st.invalidator_index = -1;
        }
    }
    return violations;
}

PipelineReport
PassManager::run(PipelineContext &ctx, const RunOptions &opts) const
{
    const std::set<Invariant> initial = ctx.initialInvariants();
    const std::vector<ContractViolation> violations = validate(initial);
    if (!violations.empty()) {
        std::ostringstream oss;
        for (const ContractViolation &v : violations)
            oss << "  " << v.message << "\n";
        ECHO_PANIC(opts.what, ": pipeline '", spec(),
                   "' is statically illegal (", violations.size(),
                   " contract violation(s)):\n", oss.str());
    }

    ctx.holds = initial;
    obs::counter("pass.pipeline.runs").add(1);

    PipelineReport report;
    std::vector<std::string> replay_order;
    if (opts.all_checkers) {
        for (const CheckerEntry &entry : kCheckers)
            replay_order.emplace_back(entry.name);
    }

    // Only passes change the graph, so each stage's "before" is the
    // previous stage's "after"; irStats walks each graph once.
    std::optional<IrStats> carried;
    for (size_t i = 0; i < passes_.size(); ++i) {
        const Pass &pass = *passes_[i];
        StageReport stage;
        stage.pass = pass.name();

        stage.missing_input = pass.missingInput(ctx);
        if (!stage.missing_input.empty()) {
            report.stages.push_back(std::move(stage));
            report.aborted = true;
            break;
        }

        const IrStats before = carried ? *carried : irStats(ctx);
        ctx.stage = {};
        {
            obs::Span span;
            if (obs::traceEnabled()) {
                span.begin("pass", std::string("pass.") + pass.name(),
                           {{"position", static_cast<int64_t>(i)},
                            {"pipeline", spec()}});
            }
            passes_[i]->run(ctx);
        }
        const IrStats after = irStats(ctx);
        carried = after;

        for (Invariant inv : pass.invalidates())
            ctx.holds.erase(inv);
        for (Invariant inv : pass.establishes())
            ctx.holds.insert(inv);

        stage.nodes_before = before.nodes;
        stage.nodes_after = after.nodes;
        stage.reachable_before = before.reachable;
        stage.reachable_after = after.reachable;
        stage.values_before = before.values;
        stage.values_after = after.values;
        stage.bytes_before = before.bytes;
        stage.bytes_after = after.bytes;

        obs::counter("pass.stage.runs").add(1);
        obs::counter(
            (std::string("pass.") + pass.name() + ".runs").c_str())
            .add(1);
        if (after.nodes > before.nodes) {
            obs::counter("pass.nodes_added").add(after.nodes - before.nodes);
        }
        if (obs::traceEnabled()) {
            obs::emitEvent(
                'i', "pass", std::string("pass.") + pass.name() + ".diff",
                {{"nodes_before", before.nodes},
                 {"nodes_after", after.nodes},
                 {"reachable_before", before.reachable},
                 {"reachable_after", after.reachable},
                 {"values_before", before.values},
                 {"values_after", after.values},
                 {"bytes_before", before.bytes},
                 {"bytes_after", after.bytes}});
        }

        const std::vector<std::string> checker_names =
            opts.all_checkers ? replay_order : pass.postconditionCheckers();
        for (const std::string &name : checker_names) {
            const Checker *checker = findChecker(name);
            ECHO_CHECK(checker != nullptr, "pass '", pass.name(),
                       "' names unknown postcondition checker '", name,
                       "'");
            const analysis::AnalysisReport result = (*checker)(ctx);
            stage.checkers_run.push_back(name);
            const bool failed = result.errorCount() > 0;
            if (*checker == checkGraphVerify && !failed)
                ctx.stage.verified = true;
            stage.post.merge(result);
            // A failed checker means later checkers (which assume a
            // sane graph) may panic instead of reporting — stop here.
            if (failed)
                break;
        }

        const size_t errors = stage.post.errorCount();
        report.stages.push_back(std::move(stage));
        if (errors > 0) {
            obs::counter("pass.postcondition_errors")
                .add(static_cast<int64_t>(errors));
            if (opts.die_on_error) {
                ECHO_PANIC(opts.what, ": postcondition failure after pass '",
                           pass.name(), "' in pipeline '", spec(), "':\n",
                           report.toString());
            }
            report.aborted = true;
            break;
        }
    }
    // The stage memo never outlives this run.
    ctx.stage = {};
    return report;
}

void
PassManager::runOrDie(PipelineContext &ctx, const char *what) const
{
    RunOptions opts;
    opts.die_on_error = true;
    opts.what = what;
    // Postcondition failures already panicked inside run(); what is
    // left is a stage that could not run — a configuration error.
    const PipelineReport report = run(ctx, opts);
    if (!report.ok())
        ECHO_FATAL(what, ": pipeline '", spec(), "' failed:\n",
                   report.toString());
}

} // namespace echo::pass
