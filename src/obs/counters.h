/**
 * @file
 * Named monotonic counters: process-wide totals of discrete events (op
 * executions, recompute replays, planner bytes allocated/freed,
 * thread-pool tasks).  Counters are always live — one relaxed atomic
 * add per tick — independent of whether a trace is being collected, so
 * tests can assert exact totals without a trace file.
 *
 * Every counter is tagged with a determinism class:
 *  - kDeterministic: the total is a pure function of the work
 *    performed, so it must be identical across thread counts and
 *    execution modes (op executions, bytes planned, pass decisions).
 *    The golden-trace test enforces this.
 *  - kScheduling: the total depends on how work was dispatched
 *    (thread-pool tasks, parallelFor chunks) and legitimately varies
 *    with ECHO_NUM_THREADS.
 *
 * Registration is by name via counter(); instrumentation sites cache
 * the reference in a function-local static so the registry lock is
 * paid once per site, not per tick.
 */
#ifndef ECHO_OBS_COUNTERS_H
#define ECHO_OBS_COUNTERS_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace echo::obs {

/** How a counter's total relates to scheduling (see file comment). */
enum class CounterKind { kDeterministic, kScheduling };

/** One monotonic counter; obtain via counter(). */
class Counter
{
  public:
    explicit Counter(CounterKind kind) : kind_(kind) {}

    /** Monotone tick. @pre delta >= 0 */
    void
    add(int64_t delta)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    int64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    CounterKind kind() const { return kind_; }

  private:
    friend void resetCountersForTest();
    CounterKind kind_;
    std::atomic<int64_t> value_{0};
};

/**
 * The counter registered under @p name, created on first use.  The
 * reference stays valid for the process lifetime.  The kind is fixed
 * by the first registration.
 */
Counter &counter(const char *name,
                 CounterKind kind = CounterKind::kDeterministic);

/** One row of a counter snapshot. */
struct CounterSample
{
    std::string name;
    int64_t value = 0;
    CounterKind kind = CounterKind::kDeterministic;
};

/** All counters, sorted by name. */
std::vector<CounterSample> snapshotCounters();

/** Zero every counter (references stay valid).  Test-only. */
void resetCountersForTest();

} // namespace echo::obs

#endif // ECHO_OBS_COUNTERS_H
