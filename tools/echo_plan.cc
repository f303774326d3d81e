/**
 * @file
 * echo-plan: command-line front end of the budget-targeted
 * recomputation planner (src/budget).  Builds a training graph at a
 * small preset, asks planWithBudget to fit its transient pool in the
 * requested byte budget, and prints what the planner decided and
 * measured: baseline / tightest / planned pool peaks, the added replay
 * time, solver statistics, and — for infeasible budgets — the binding
 * buffers that keep the budget out of reach.
 *
 * --solver=all runs each solver against a fresh copy of the model so
 * their plans are directly comparable (the greedy baseline vs the
 * exact chain DP vs the Lagrangian relaxation).
 *
 * Exit status: 0 when every requested solve was feasible, 1 when any
 * was infeasible, 2 on usage errors — so CI can gate on a budget.
 *
 * usage: echo-plan --budget=BYTES|--budget-fraction=F
 *                  [--model=word_lm|nmt] [--solver=greedy|dp|lagrange|all]
 */
#include <cmath>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "budget/planner.h"
#include "core/table.h"
#include "memory/planner.h"
#include "models/nmt.h"
#include "models/word_lm.h"

namespace {

using namespace echo;

struct PlanOptions
{
    std::string model = "word_lm"; // word_lm | nmt
    std::string solver = "dp";     // greedy | dp | lagrange | all
    int64_t budget_bytes = 0;      // absolute budget, or
    double budget_fraction = 0.0;  // fraction of the baseline pool peak
    bool verbose = false;
};

/** One solve against a fresh model; returns the plan. */
template <typename ModelT, typename ConfigT>
budget::BudgetPlan
planFresh(const ConfigT &cfg, const PlanOptions &opts,
          budget::Solver solver)
{
    ModelT model(cfg);
    budget::BudgetConfig config;
    config.solver = solver;
    config.budget_bytes = opts.budget_bytes;
    if (opts.budget_fraction > 0.0) {
        // Resolve the fraction against this model's measured baseline.
        const int64_t baseline =
            memory::planSchedule(model.fetches(), model.weightGrads())
                .plan.pool_peak_bytes;
        config.budget_bytes = static_cast<int64_t>(std::llround(
            opts.budget_fraction * static_cast<double>(baseline)));
    }
    return budget::planWithBudget(model.graph(), model.fetches(),
                                  model.weightGrads(), config);
}

budget::BudgetPlan
planModel(const PlanOptions &opts, budget::Solver solver)
{
    // Presets sized so the per-step feature maps (what recomputation
    // can reclaim) dominate the vocab-sized logits (what it cannot):
    // the feasible budget range is then wide enough to be interesting.
    if (opts.model == "word_lm") {
        models::WordLmConfig cfg;
        cfg.vocab = 2000;
        cfg.hidden = 192;
        cfg.layers = 2;
        cfg.batch = 16;
        cfg.seq_len = 35;
        return planFresh<models::WordLmModel>(cfg, opts, solver);
    }
    models::NmtConfig cfg;
    cfg.src_vocab = 1500;
    cfg.tgt_vocab = 1200;
    cfg.hidden = 128;
    cfg.enc_layers = 1;
    cfg.batch = 16;
    cfg.src_len = 25;
    cfg.tgt_len = 25;
    return planFresh<models::NmtModel>(cfg, opts, solver);
}

bool
parseArgs(int argc, char **argv, PlanOptions &opts)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--model=", 0) == 0) {
            opts.model = arg.substr(8);
        } else if (arg.rfind("--solver=", 0) == 0) {
            opts.solver = arg.substr(9);
        } else if (arg.rfind("--budget=", 0) == 0) {
            if (!budget::parseByteSize(arg.substr(9),
                                       &opts.budget_bytes) ||
                opts.budget_bytes <= 0) {
                std::cerr << "echo-plan: bad --budget value '"
                          << arg.substr(9) << "'\n";
                return false;
            }
        } else if (arg == "--verbose") {
            opts.verbose = true;
        } else if (arg.rfind("--budget-fraction=", 0) == 0) {
            if (!budget::parseFraction(arg.substr(18),
                                       &opts.budget_fraction)) {
                std::cerr << "echo-plan: --budget-fraction must be in "
                             "(0, 1]\n";
                return false;
            }
        } else {
            std::cerr
                << "echo-plan: unknown argument " << arg << "\n"
                << "usage: echo-plan --budget=BYTES|--budget-fraction=F\n"
                   "                 [--model=word_lm|nmt]\n"
                   "                 [--solver=greedy|dp|lagrange|all]\n";
            return false;
        }
    }
    if (opts.model != "word_lm" && opts.model != "nmt") {
        std::cerr << "echo-plan: bad --model value '" << opts.model
                  << "'\n";
        return false;
    }
    budget::Solver ignored;
    if (opts.solver != "all" &&
        !budget::parseSolver(opts.solver, &ignored)) {
        std::cerr << "echo-plan: bad --solver value '" << opts.solver
                  << "'\n";
        return false;
    }
    if ((opts.budget_bytes > 0) == (opts.budget_fraction > 0.0)) {
        std::cerr << "echo-plan: exactly one of --budget and "
                     "--budget-fraction is required\n";
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    PlanOptions opts;
    if (!parseArgs(argc, argv, opts))
        return 2;

    std::vector<budget::Solver> solvers;
    if (opts.solver == "all") {
        solvers = {budget::Solver::kGreedy, budget::Solver::kChainDp,
                   budget::Solver::kLagrange};
    } else {
        budget::Solver s;
        budget::parseSolver(opts.solver, &s);
        solvers = {s};
    }

    Table table({"solver", "budget", "feasible", "baseline peak",
                 "tightest peak", "planned peak", "replay us", "regions",
                 "rounds", "exact", "replay ok"});
    int infeasible = 0;
    std::vector<std::string> notes;
    for (budget::Solver solver : solvers) {
        const budget::BudgetPlan plan = planModel(opts, solver);
        if (!plan.feasible)
            ++infeasible;
        table.addRow({budget::solverName(solver),
                      budget::formatBytes(plan.budget_bytes),
                      plan.feasible ? "yes" : "NO",
                      budget::formatBytes(plan.baseline_pool_peak),
                      budget::formatBytes(plan.tightest_pool_peak),
                      budget::formatBytes(plan.planned_pool_peak),
                      Table::fmt(plan.pass.replay_time_us, 1),
                      std::to_string(plan.pass.num_regions),
                      std::to_string(plan.rounds),
                      plan.solved.exact ? "yes" : "no",
                      plan.replay_ok ? "yes" : "NO"});
        notes.push_back(std::string(budget::solverName(solver)) + ": " +
                        plan.note);
        if (opts.verbose) {
            std::ostringstream oss;
            oss << "  solver chose " << plan.solved.chosen.size()
                << " of " << plan.num_items
                << " item(s); modelled saved "
                << budget::formatBytes(plan.solved.cost.bytes_saved)
                << ", added "
                << budget::formatBytes(plan.solved.cost.bytes_added)
                << ", net "
                << budget::formatBytes(plan.solved.cost.netSavings())
                << ", replay "
                << Table::fmt(plan.solved.cost.replay_time_us, 1)
                << " us over " << plan.solved.states << " state(s)";
            notes.push_back(oss.str());
        }
        if (!plan.feasible && !plan.binding.empty()) {
            std::ostringstream oss;
            oss << "  binding buffers at the tightest plan's peak:";
            notes.push_back(oss.str());
            for (const budget::BindingBuffer &b : plan.binding) {
                notes.push_back("    " + b.name + " (" + b.category +
                                ", " + budget::formatBytes(b.bytes) +
                                ", slots " + std::to_string(b.def_pos) +
                                ".." + std::to_string(b.last_use_pos) +
                                ")");
            }
        }
    }

    std::cout << "echo-plan: model " << opts.model << "\n";
    table.print();
    for (const std::string &note : notes)
        std::cout << note << "\n";
    return infeasible > 0 ? 1 : 0;
}
