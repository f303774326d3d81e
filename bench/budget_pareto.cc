/**
 * @file
 * Memory-vs-overhead Pareto sweep of the budget-targeted planner
 * (src/budget): for the word-LM and NMT presets, walk byte budgets
 * across each model's feasible band [tightest achievable, baseline]
 * and solve every point with all three solvers — the Echo greedy
 * baseline, the exact chain DP, and the Lagrangian relaxation.
 *
 * Emits results/budget_pareto.csv: one row per (preset, budget point,
 * solver) with the planned pool peak and the applied replay time, so
 * the curves are directly comparable at matched memory peaks.  The
 * closing note reports where the DP strictly beats greedy — the
 * subsystem's acceptance evidence.
 *
 * --quick trims the sweep (fewer points, greedy + DP only) for CI.
 */
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "budget/planner.h"
#include "memory/liveness.h"
#include "memory/planner.h"
#include "models/nmt.h"
#include "models/word_lm.h"

using namespace echo;

namespace {

/** The echo-plan CLI presets: sized so the per-step feature maps (what
 *  recomputation reclaims) dominate the vocab-sized logits. */
models::WordLmConfig
wordLmPreset()
{
    models::WordLmConfig cfg;
    cfg.vocab = 2000;
    cfg.hidden = 192;
    cfg.layers = 2;
    cfg.batch = 16;
    cfg.seq_len = 35;
    return cfg;
}

models::NmtConfig
nmtPreset()
{
    models::NmtConfig cfg;
    cfg.src_vocab = 1500;
    cfg.tgt_vocab = 1200;
    cfg.hidden = 128;
    cfg.enc_layers = 1;
    cfg.batch = 16;
    cfg.src_len = 25;
    cfg.tgt_len = 25;
    return cfg;
}

struct Point
{
    std::string preset;
    budget::Solver solver;
    int64_t budget_bytes = 0;
    double band_fraction = 0.0; // position inside [tightest, baseline]
    budget::BudgetPlan plan;
};

template <typename ModelT, typename ConfigT>
budget::BudgetPlan
planFresh(const ConfigT &cfg, int64_t budget_bytes,
          budget::Solver solver)
{
    ModelT model(cfg);
    budget::BudgetConfig config;
    config.budget_bytes = budget_bytes;
    config.solver = solver;
    return budget::planWithBudget(model.graph(), model.fetches(),
                                  model.weightGrads(), config);
}

/** [tightest, baseline] learned from a sacrificial 1-byte-budget run
 *  (always infeasible; leaves its model untouched and unused). */
template <typename ModelT, typename ConfigT>
void
feasibleBand(const ConfigT &cfg, int64_t *tightest, int64_t *baseline)
{
    const budget::BudgetPlan probe =
        planFresh<ModelT>(cfg, int64_t{1}, budget::Solver::kGreedy);
    *tightest = probe.tightest_pool_peak;
    *baseline = probe.baseline_pool_peak;
}

template <typename ModelT, typename ConfigT>
void
sweep(const std::string &preset, const ConfigT &cfg,
      const std::vector<double> &band_fractions,
      const std::vector<budget::Solver> &solvers,
      std::vector<Point> *points)
{
    int64_t tightest = 0, baseline = 0;
    feasibleBand<ModelT>(cfg, &tightest, &baseline);
    bench::note(preset + ": baseline pool peak " +
                budget::formatBytes(baseline) +
                ", tightest achievable " +
                budget::formatBytes(tightest));
    for (const double f : band_fractions) {
        const int64_t budget_bytes =
            tightest + static_cast<int64_t>(std::llround(
                           f * static_cast<double>(baseline - tightest)));
        for (const budget::Solver solver : solvers) {
            Point p;
            p.preset = preset;
            p.solver = solver;
            p.budget_bytes = budget_bytes;
            p.band_fraction = f;
            p.plan = planFresh<ModelT>(cfg, budget_bytes, solver);
            points->push_back(std::move(p));
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    for (int i = 1; i < argc; ++i)
        quick = quick || std::strcmp(argv[i], "--quick") == 0;

    bench::begin(
        "Budget-planner Pareto sweep (greedy vs chain DP vs Lagrange)",
        std::string("Byte budgets across each preset's feasible band; "
                    "replay time at matched memory peaks") +
            (quick ? " [--quick]" : ""));

    const std::vector<double> fractions =
        quick ? std::vector<double>{0.25, 0.75}
              : std::vector<double>{0.05, 0.25, 0.50, 0.75};
    const std::vector<budget::Solver> solvers =
        quick ? std::vector<budget::Solver>{budget::Solver::kGreedy,
                                            budget::Solver::kChainDp}
              : std::vector<budget::Solver>{budget::Solver::kGreedy,
                                            budget::Solver::kChainDp,
                                            budget::Solver::kLagrange};

    std::vector<Point> points;
    sweep<models::WordLmModel>("word_lm", wordLmPreset(), fractions,
                               solvers, &points);
    sweep<models::NmtModel>("nmt", nmtPreset(), fractions, solvers,
                            &points);

    Table table({"preset", "band pos", "budget", "solver", "feasible",
                 "planned peak", "replay us", "regions", "exact",
                 "replay ok"});
    for (const Point &p : points) {
        table.addRow({p.preset, Table::fmt(p.band_fraction, 2),
                      budget::formatBytes(p.budget_bytes),
                      budget::solverName(p.solver),
                      p.plan.feasible ? "yes" : "NO",
                      budget::formatBytes(p.plan.planned_pool_peak),
                      Table::fmt(p.plan.pass.replay_time_us, 1),
                      std::to_string(p.plan.pass.num_regions),
                      p.plan.solved.exact ? "yes" : "no",
                      p.plan.replay_ok ? "yes" : "NO"});
    }
    bench::emit(table, "budget_pareto");

    // Acceptance evidence: at every matched budget point the DP's
    // applied replay must be <= greedy's, strictly lower somewhere.
    int compared = 0, strict_wins = 0, regressions = 0, violations = 0;
    for (const Point &dp : points) {
        if (dp.solver != budget::Solver::kChainDp)
            continue;
        if (dp.plan.feasible &&
            (!dp.plan.replay_ok ||
             dp.plan.planned_pool_peak > dp.budget_bytes))
            ++violations;
        for (const Point &gr : points) {
            if (gr.solver != budget::Solver::kGreedy ||
                gr.preset != dp.preset ||
                gr.budget_bytes != dp.budget_bytes)
                continue;
            if (!gr.plan.feasible || !dp.plan.feasible)
                continue;
            ++compared;
            if (dp.plan.pass.replay_time_us <
                gr.plan.pass.replay_time_us - 1e-9)
                ++strict_wins;
            if (dp.plan.pass.replay_time_us >
                gr.plan.pass.replay_time_us + 1e-6)
                ++regressions;
        }
    }
    bench::note("DP vs greedy at matched budgets: " +
                std::to_string(compared) + " comparable point(s), " +
                std::to_string(strict_wins) + " strict DP win(s), " +
                std::to_string(regressions) + " regression(s)");
    if (violations > 0)
        bench::note("ERROR: " + std::to_string(violations) +
                    " feasible plan(s) failed the pool-peak / plan-replay "
                    "cross-check");
    // The full sweep must also show at least one strict DP win; the
    // trimmed --quick sweep only gates on correctness.
    const bool fail = regressions > 0 || violations > 0 ||
                      (!quick && strict_wins == 0);
    return fail ? 1 : 0;
}
