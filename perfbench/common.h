/**
 * @file
 * Shared pieces of the repo benchmark runner: the result record it
 * prints, order statistics, process memory, a heap-allocation counter,
 * and the reduction of a collected trace into the executor's per-layer
 * breakdown.
 */
#ifndef ECHO_PERFBENCH_COMMON_H
#define ECHO_PERFBENCH_COMMON_H

#include <chrono>
#include <sched.h>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/** Command-line arguments common to every workload. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload run hands back to main(). */
struct Result
{
    bool correct = true;
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<Metric> metrics;
    /** Self-check and gate failures, one line each (printed). */
    std::vector<std::string> problems;

    void add(const std::string &name, double value,
             const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Record a failed gate: the run is marked incorrect. */
    void fail(const std::string &why)
    {
        correct = false;
        problems.push_back(why);
    }
};

using Clock = std::chrono::steady_clock;

/** Milliseconds between two time points. */
inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Linear-interpolated quantile (q in [0, 1]) of @p v; 0 when empty. */
double quantile(std::vector<double> v, double q);

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** Peak resident set size of this process (VmHWM), in bytes. */
int64_t peakRssBytes();

/** Heap allocations (global operator new) counted while armed. */
void armAllocCounter(bool on);
int64_t allocCount();

/**
 * Moves the calling thread round-robin over the CPUs it may run on.
 * On a host whose virtual CPUs run at different speeds from moment to
 * moment (a shared VM), a single-threaded loop left on one CPU reports
 * that CPU's speed; rotating every ~200 ms averages over all of them.
 * Only a single busy thread gains: pinning the main thread of a
 * multi-threaded run collides with its pool workers, so a disabled
 * rotation does nothing.  restore() (or the destructor) puts back the
 * thread's original CPU set.
 */
class CpuRotation
{
  public:
    explicit CpuRotation(bool enabled);
    ~CpuRotation() { restore(); }
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Move to the next CPU now. */
    void next();
    /** Move to the next CPU if the current one has had ~200 ms. */
    void tick();
    /** Stop rotating and restore the original CPU set. */
    void restore();

  private:
    cpu_set_t original_;
    std::vector<int> cpus_; ///< empty when disabled or stopped
    size_t at_ = 0;
    Clock::time_point since_;
};

/** Current value of a named obs counter. */
int64_t counterValue(const char *name);

/** A matched B/E pair from the trace. */
struct SpanRec
{
    std::string cat;
    std::string name;
    /** "forward" / "backward" / "recompute" on executor op spans. */
    std::string phase;
    uint32_t tid = 0;
    int64_t t0 = 0; ///< ns since trace epoch
    int64_t t1 = 0;

    double ms() const { return static_cast<double>(t1 - t0) * 1e-6; }
};

/** Pair up every thread's B/E events into spans. */
std::vector<SpanRec> collectSpans(const std::vector<echo::obs::TraceEvent> &events);

/** Sum of durations (ms) of spans named @p name in category @p cat. */
double sumMs(const std::vector<SpanRec> &spans, const char *cat,
             const char *name);

/** Number of spans named @p name in category @p cat. */
int64_t countSpans(const std::vector<SpanRec> &spans, const char *cat,
                   const char *name);

/**
 * The executor's wall time split into layers.  Every op span is
 * attributed to the executor run span that contains it; where ops
 * overlap (parallel dispatch), each elementary interval is split
 * evenly among the ops running in it, so the rows of one run sum to
 * that run's wall time.  Time inside a run covered by no op is
 * dispatch.
 */
struct ExecBreakdown
{
    int64_t runs = 0;
    int64_t ops = 0;
    double run_ms = 0.0; ///< totals over all runs
    double gemm_ms = 0.0;
    double fused_ew_ms = 0.0;
    double elementwise_ms = 0.0;
    double shape_copy_ms = 0.0;
    double nn_ms = 0.0;
    double replay_ms = 0.0;
    double dispatch_ms = 0.0;
    double forward_ms = 0.0;
    double backward_ms = 0.0;
    /** Op time that fell outside every run span (must be ~0). */
    double orphan_ms = 0.0;
    /** Run spans that overlap another run span (must be 0). */
    int64_t overlapping_runs = 0;

    double rowsMs() const
    {
        return gemm_ms + fused_ew_ms + elementwise_ms + shape_copy_ms +
               nn_ms + replay_ms + dispatch_ms;
    }
};

ExecBreakdown execBreakdown(const std::vector<SpanRec> &spans);

/**
 * Relative tolerance of the breakdown closure checks: the executor
 * rows against graph.run_ms, and feed + run + optimizer step against
 * the iteration.  The executor rows close exactly by construction, so
 * any gap is a missing or misattributed span; the iteration gap is the
 * loss read-back and gradient hand-off between the timed calls.
 */
inline constexpr double kClosureTolerance = 0.02;

/** Check |parts - whole| <= kClosureTolerance * whole; on failure
 *  record it in @p r. */
void checkClosure(Result &r, const std::string &what, double parts,
                  double whole);

/** Run a training workload (lm-train, nmt-train) into @p r. */
void runTraining(const Args &args, Result &r);
/** Run the serving workload (serve-mixed) into @p r. */
void runServing(const Args &args, Result &r);

} // namespace perfbench

#endif // ECHO_PERFBENCH_COMMON_H
