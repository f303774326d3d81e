#include "budget/planner.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <optional>
#include <sstream>

#include "core/logging.h"
#include "obs/counters.h"
#include "obs/trace.h"

namespace echo::budget {

namespace {

/** Snapshot of everything applyRecomputation may mutate: the node
 *  count (the rewrite only appends) and every backward node's inputs
 *  (the only pre-existing state it rewrites).  rollback() restores
 *  both; node ids are append positions, so a later re-apply of the
 *  same set reproduces the identical graph. */
class TrialRewrite
{
  public:
    explicit TrialRewrite(graph::Graph &g) : g_(&g)
    {
        node_count_ = g.numNodes();
        for (const auto &node_ptr : g.nodes()) {
            Node *n = node_ptr.get();
            if (n->phase == graph::Phase::kBackward)
                saved_inputs_.emplace_back(n, n->inputs);
        }
    }

    void
    rollback()
    {
        for (auto &[node, inputs] : saved_inputs_)
            node->inputs = inputs;
        g_->truncate(node_count_);
    }

  private:
    graph::Graph *g_;
    size_t node_count_ = 0;
    std::vector<std::pair<Node *, std::vector<Val>>> saved_inputs_;
};

/** The largest transients live at @p plan's peak position. */
std::vector<BindingBuffer>
bindingBuffersAtPeak(const memory::LivenessResult &live,
                     const memory::MemoryPlan &plan, size_t max_buffers)
{
    std::vector<BindingBuffer> binding;
    for (const memory::ValueInfo &vi : live.values) {
        if (vi.persistent)
            continue;
        if (vi.def_pos > plan.peak_pos || vi.last_use_pos < plan.peak_pos)
            continue;
        BindingBuffer b;
        b.val = vi.val;
        b.bytes = vi.bytes;
        b.def_pos = vi.def_pos;
        b.last_use_pos = vi.last_use_pos;
        b.name = vi.val.node->name;
        b.category = memory::dataStructureName(vi.category);
        binding.push_back(std::move(b));
    }
    std::sort(binding.begin(), binding.end(),
              [](const BindingBuffer &a, const BindingBuffer &b) {
                  if (a.bytes != b.bytes)
                      return a.bytes > b.bytes;
                  return a.val.node->id < b.val.node->id;
              });
    if (binding.size() > max_buffers)
        binding.resize(max_buffers);
    return binding;
}

/** A candidate set applied on trial: the rewrite's report, the
 *  rewritten graph's plan, and the snapshot that undoes it. */
struct Trial
{
    TrialRewrite rewrite;
    pass::PassResult result;
    memory::PlannedSchedule planned;

    int64_t peak() const { return planned.plan.pool_peak_bytes; }
};

/** Apply @p chosen to @p g and plan the rewritten graph. */
Trial
applyTrial(graph::Graph &g, const std::vector<Val> &fetches,
           const std::vector<Val> &weight_grads, const ItemSet &items,
           const std::vector<int> &chosen, const BudgetConfig &config)
{
    std::vector<const pass::Candidate *> accepted;
    accepted.reserve(chosen.size());
    for (int i : chosen)
        accepted.push_back(&items.items[static_cast<size_t>(i)].cand);

    Trial trial{TrialRewrite(g), {}, {}};
    pass::applyRecomputation(g, accepted, items.index, config.recompute,
                             trial.result);
    trial.planned = memory::planSchedule(fetches, weight_grads);
    return trial;
}

} // namespace

BudgetPlan
planWithBudget(graph::Graph &g, const std::vector<Val> &fetches,
               const std::vector<Val> &weight_grads,
               const BudgetConfig &config)
{
    obs::Span span;
    if (obs::traceEnabled())
        span.begin("budget", "plan_with_budget",
                   {{"budget_bytes", config.budget_bytes},
                    {"solver", solverName(config.solver)}});
    obs::counter("budget.plans").add(1);

    BudgetPlan plan;
    plan.budget_bytes = config.budget_bytes;
    ECHO_CHECK(config.budget_bytes > 0,
               "planWithBudget needs a positive byte budget, got ",
               config.budget_bytes);

    // Record the final (possibly rewritten) graph's plan and replay it.
    const auto finalize = [&plan](const memory::PlannedSchedule &last) {
        plan.planned_pool_peak = last.plan.pool_peak_bytes;
        plan.memory_plan = last.plan;
        const memory::PlanReplay replay =
            memory::replayPlan(last.liveness, last.plan);
        plan.replay_ok = replay.ok() && replay.address_peak_bytes ==
                                            last.plan.pool_peak_bytes;
    };

    const memory::PlannedSchedule baseline =
        memory::planSchedule(fetches, weight_grads);
    plan.baseline_pool_peak = baseline.plan.pool_peak_bytes;
    if (plan.baseline_pool_peak <= config.budget_bytes) {
        plan.feasible = true;
        plan.tightest_pool_peak = plan.baseline_pool_peak;
        plan.note = "baseline fits without rewriting";
        finalize(baseline);
        return plan;
    }

    const ItemSet items = enumerateItems(fetches, config.recompute);
    plan.num_items = static_cast<int>(items.items.size());

    // Probe: how tight can recomputation squeeze this graph at all?  An
    // unreachable budget reports the tightest plan's binding buffers.
    const SolveResult probe = maxReductionSet(items);
    {
        std::optional<Trial> probed;
        if (!probe.chosen.empty())
            probed = applyTrial(g, fetches, weight_grads, items,
                                probe.chosen, config);
        const memory::PlannedSchedule &tight =
            probed ? probed->planned : baseline;
        plan.tightest_pool_peak =
            std::min(tight.plan.pool_peak_bytes, plan.baseline_pool_peak);
        if (plan.tightest_pool_peak > config.budget_bytes)
            plan.binding =
                bindingBuffersAtPeak(tight.liveness, tight.plan, 8);
        if (probed)
            probed->rewrite.rollback();
    }

    if (plan.tightest_pool_peak > config.budget_bytes) {
        std::ostringstream note;
        note << "infeasible: tightest achievable pool peak "
             << formatBytes(plan.tightest_pool_peak) << " exceeds budget "
             << formatBytes(config.budget_bytes) << " by "
             << formatBytes(plan.tightest_pool_peak -
                            config.budget_bytes);
        plan.note = note.str();
        plan.solved = probe;
        // Every trial was rolled back: the baseline plan is the final one.
        finalize(baseline);
        obs::counter("budget.infeasible").add(1);
        return plan;
    }

    // Solve for the cheapest set covering the required reduction; the
    // model and the pool planner disagree by fragmentation/liveness
    // slack, so measure every proposal and raise the bar by the
    // overshoot until it fits.
    int64_t required = plan.baseline_pool_peak - config.budget_bytes;
    for (int round = 0; round < config.max_rounds; ++round) {
        plan.rounds = round + 1;
        plan.solved = solve(items, required, config.solver);
        Trial trial = applyTrial(g, fetches, weight_grads, items,
                                 plan.solved.chosen, config);
        const int64_t measured = trial.peak();
        if (measured <= config.budget_bytes) {
            plan.pass = trial.result;
            plan.feasible = true;
            plan.applied = true;
            std::ostringstream note;
            note << "solved in " << plan.rounds << " round(s) with "
                 << solverName(config.solver);
            plan.note = note.str();
            finalize(trial.planned);
            if (obs::traceEnabled())
                obs::emitEvent('i', "budget", "plan.feasible",
                               {{"pool_peak", plan.planned_pool_peak},
                                {"budget", config.budget_bytes},
                                {"rounds", plan.rounds}});
            return plan;
        }
        trial.rewrite.rollback();
        const int64_t overshoot = measured - config.budget_bytes;
        // Raise by at least one alignment quantum so the loop always
        // makes progress even when the model refuses to budge.
        required += std::max<int64_t>(overshoot, 256);
        if (obs::traceEnabled())
            obs::emitEvent('i', "budget", "plan.retry",
                           {{"measured", measured},
                            {"budget", config.budget_bytes},
                            {"required", required}});
    }

    // The probed maximum-reduction set measured within budget; use it.
    const Trial kept =
        applyTrial(g, fetches, weight_grads, items, probe.chosen, config);
    ECHO_CHECK(kept.peak() <= config.budget_bytes,
               "budget planner fallback set no longer fits: ",
               kept.peak(), " > ", config.budget_bytes,
               " (non-deterministic rewrite?)");
    plan.pass = kept.result;
    plan.solved = probe;
    plan.feasible = true;
    plan.applied = true;
    ++plan.rounds;
    plan.note = "fell back to the maximum-reduction probe set";
    finalize(kept.planned);
    return plan;
}

bool
parseByteSize(const std::string &text, int64_t *bytes)
{
    if (text.empty() || bytes == nullptr)
        return false;
    size_t pos = 0;
    double value = 0.0;
    try {
        value = std::stod(text, &pos);
    } catch (...) {
        return false;
    }
    if (value < 0.0)
        return false;
    std::string unit = text.substr(pos);
    while (!unit.empty() && std::isspace(static_cast<unsigned char>(
                                unit.front())))
        unit.erase(unit.begin());
    for (char &c : unit)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    double scale = 1.0;
    if (unit.empty() || unit == "b")
        scale = 1.0;
    else if (unit == "k" || unit == "kb" || unit == "kib")
        scale = 1024.0;
    else if (unit == "m" || unit == "mb" || unit == "mib")
        scale = 1024.0 * 1024.0;
    else if (unit == "g" || unit == "gb" || unit == "gib")
        scale = 1024.0 * 1024.0 * 1024.0;
    else
        return false;
    const double scaled = value * scale;
    // 2^63 is the first double past INT64_MAX; NaN fails the compare.
    if (!(scaled < 9223372036854775808.0))
        return false;
    *bytes = static_cast<int64_t>(std::llround(scaled));
    return true;
}

bool
parseFraction(const std::string &text, double *fraction)
{
    const char *end = text.data() + text.size();
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || !(value > 0.0 && value <= 1.0))
        return false;
    *fraction = value;
    return true;
}

std::string
formatBytes(int64_t bytes)
{
    const char *units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
    double v = static_cast<double>(bytes);
    int u = 0;
    while (std::fabs(v) >= 1024.0 && u < 4) {
        v /= 1024.0;
        ++u;
    }
    char buf[32];
    if (u == 0)
        std::snprintf(buf, sizeof(buf), "%lld B",
                      static_cast<long long>(bytes));
    else
        std::snprintf(buf, sizeof(buf), "%.2f %s", v, units[u]);
    return buf;
}

} // namespace echo::budget
