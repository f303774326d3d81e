/**
 * @file
 * The repo benchmark runner.
 *
 *   echo_perfbench --workload lm-train|nmt-train|serve-mixed
 *                  --seed N --seconds S --trace 0|1
 *
 * --trace 0 measures the end-to-end metrics with tracing off;
 * --trace 1 runs the same workload under obs::startTrace and reports
 * the per-layer metrics.  Human-readable lines go to stdout first; the
 * last line is one JSON object {correct, attempted, failed, metrics}.
 * The exit code is nonzero when a correctness gate or a self-check
 * fails.  perfbench/run.py builds this binary and pins its
 * environment; run it through that script.
 */
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "common.h"
#include "core/logging.h"

namespace {

using perfbench::Metric;

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, reported by every workload with --trace 0. */
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"rss_peak_bytes", "bytes"},
    {"tokens_per_s", "tokens/s"},
    {"latency_ms_p50", "ms"},
    {"latency_ms_p90", "ms"},
};

/** Per-layer metrics, reported by every workload with --trace 1; a
 *  layer a workload never enters reads 0. */
const MetricDef kPerLayer[] = {
    {"graph.run_ms", "ms"},
    {"graph.dispatch_ms", "ms"},
    {"graph.forward_ms", "ms"},
    {"graph.backward_ms", "ms"},
    {"graph.elementwise_ms", "ms"},
    {"graph.fused_ew_ms", "ms"},
    {"graph.shape_copy_ms", "ms"},
    {"graph.nn_ms", "ms"},
    {"graph.ops_per_iter", "count"},
    {"graph.first_run_ms", "ms"},
    {"tensor.gemm_ms", "ms"},
    {"tensor.gemm_gflops", "GFLOP/s"},
    {"tensor.allocs_per_iter", "count"},
    {"tensor.pack_hit_ratio", "ratio"},
    {"tensor.pack_miss_per_iter", "count"},
    {"train.iter_ms", "ms"},
    {"train.opt_step_ms", "ms"},
    {"train.loss_final", "nats"},
    {"data.feed_ms", "ms"},
    {"echo.replay_ms", "ms"},
    {"echo.replay_share", "ratio"},
    {"echo.regions", "count"},
    {"echo.bytes_saved_modelled", "bytes"},
    {"echo.pool_peak_delta_bytes", "bytes"},
    {"memory.pool_peak_bytes", "bytes"},
    {"memory.pool_peak_bytes_no_echo", "bytes"},
    {"fusion.groups", "count"},
    {"fusion.values_elided", "count"},
    {"pass.autodiff_ms", "ms"},
    {"pass.fusion_ms", "ms"},
    {"pass.recompute_ms", "ms"},
    {"core.pool_busy_share", "ratio"},
    {"serve.latency_ms_p99", "ms"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.queue_wait_ms_p99", "ms"},
    {"serve.step_passes_per_request", "count"},
    {"serve.mean_batch_rows", "count"},
    {"serve.splices_per_request", "count"},
    {"serve.lm_step_ms", "ms"},
    {"serve.nmt_step_ms", "ms"},
    {"serve.session_self_ms", "ms"},
    {"serve.session_load_ms", "ms"},
    {"serve.warmup_ms", "ms"},
    {"serve.generator_lag_ms_p99", "ms"},
    {"serve.rejected", "count"},
    {"serve.expired", "count"},
    {"serve.slo_met_share", "ratio"},
    {"tune.sched_hit", "count"},
    {"tune.sched_miss", "count"},
    {"obs.trace_overhead_ratio", "ratio"},
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "echo_perfbench: %s\nusage: echo_perfbench --workload "
                 "lm-train|nmt-train|serve-mixed --seed N --seconds S "
                 "--trace 0|1\n",
                 why);
    return 2;
}

/** The workload's metrics in table order, checked against the table. */
template <size_t N>
std::vector<Metric>
ordered(perfbench::Result &r, const MetricDef (&table)[N])
{
    std::map<std::string, Metric> got;
    for (const Metric &m : r.metrics)
        got[m.name] = m;
    std::vector<Metric> out;
    for (const MetricDef &d : table) {
        auto it = got.find(d.name);
        Metric m{d.name, 0.0, d.unit};
        if (it != got.end()) {
            if (it->second.unit != d.unit)
                r.fail(std::string("metric ") + d.name + " has unit " +
                       it->second.unit + ", table says " + d.unit);
            m.value = it->second.value;
            got.erase(it);
        }
        if (!std::isfinite(m.value)) {
            r.fail(std::string("metric ") + d.name + " is not finite");
            m.value = 0.0;
        }
        out.push_back(m);
    }
    for (const auto &[name, m] : got)
        r.fail("metric " + name + " is not in the metric table");
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Args args;
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *val = argv[i + 1];
        if (key == "--workload") {
            args.workload = val;
            have_workload = true;
        } else if (key == "--seed") {
            args.seed = std::strtoull(val, nullptr, 10);
        } else if (key == "--seconds") {
            args.seconds = std::strtod(val, nullptr);
        } else if (key == "--trace") {
            args.trace = std::strcmp(val, "1") == 0;
        } else {
            return usage(("unknown argument " + key).c_str());
        }
    }
    if (argc % 2 != 1 || !have_workload)
        return usage("missing arguments");
    if (!(args.seconds > 0.0))
        return usage("--seconds must be positive");
    echo::setQuiet(true);

    perfbench::Result r;
    if (args.workload == "lm-train" || args.workload == "nmt-train")
        perfbench::runTraining(args, r);
    else if (args.workload == "serve-mixed")
        perfbench::runServing(args, r);
    else
        return usage(("unknown workload " + args.workload).c_str());

    const std::vector<Metric> metrics =
        args.trace ? ordered(r, kPerLayer) : ordered(r, kEndToEnd);
    if (r.attempted < 1)
        r.fail("no operation was attempted");
    if (!args.trace)
        for (const Metric &m : metrics)
            if (!(m.value > 0.0))
                r.fail("end-to-end metric " + m.name + " is not positive");
    for (const Metric &m : metrics)
        std::printf("%-32s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const std::string &p : r.problems)
        std::printf("FAILED: %s\n", p.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                r.correct ? "true" : "false",
                static_cast<long long>(r.attempted),
                static_cast<long long>(r.failed));
    for (size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
    return r.correct ? 0 : 1;
}
