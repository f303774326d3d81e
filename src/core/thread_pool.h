/**
 * @file
 * Fixed-size worker thread pool with a parallelFor primitive.
 *
 * This is the substrate of the CPU execution performance layer: the
 * tensor kernels split large loops over it (src/tensor) and the graph
 * executor dispatches ready nodes onto it (src/graph/executor).
 *
 * Design rules, chosen so parallel execution stays debuggable and
 * bit-identical to serial execution:
 *  - Thread count comes from ECHO_NUM_THREADS (default: the hardware
 *    concurrency).  At 1 thread every primitive degenerates to a plain
 *    serial loop on the calling thread — no worker hand-off at all.
 *  - parallelFor chunking never changes *what* each output element is
 *    computed from, only *which thread* computes it; all kernels built
 *    on it assign disjoint output ranges per chunk, so results are
 *    byte-identical for every thread count.
 *  - A parallelFor issued from inside a pool worker (nested
 *    parallelism, e.g. a tensor kernel running inside a parallel graph
 *    node) runs serially on that worker: inter-node parallelism
 *    replaces intra-node parallelism instead of oversubscribing.
 *  - Exceptions thrown by tasks or chunks are captured and rethrown on
 *    the waiting thread (first one wins).
 */
#ifndef ECHO_CORE_THREAD_POOL_H
#define ECHO_CORE_THREAD_POOL_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace echo {

/** Fixed-size worker pool; see the file comment for the contract. */
class ThreadPool
{
  public:
    /**
     * Start @p num_threads workers (clamped to >= 1).  With 1 thread
     * the pool still owns one worker (so submit() works), but
     * parallelFor never leaves the calling thread.
     */
    explicit ThreadPool(int num_threads);

    /** Drains every queued task, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Configured concurrency (>= 1). */
    int numThreads() const { return num_threads_; }

    /**
     * Handle to one submitted task; wait() blocks until it finished
     * and rethrows any exception the task threw.  Handles are cheap,
     * copyable, and outlive the pool-side execution (DAG-style callers
     * keep them to order dependent work).
     */
    class Task
    {
      public:
        Task() = default;

        /** True once the task ran (or threw). */
        bool done() const;

        /** Block until done; rethrows the task's exception, if any. */
        void wait() const;

      private:
        friend class ThreadPool;
        struct State;
        std::shared_ptr<State> state_;
    };

    /** Enqueue @p fn for execution on a worker. */
    Task submit(std::function<void()> fn);

    /**
     * Run fn(chunk_begin, chunk_end) over [begin, end) split into
     * chunks of at least @p grain iterations.  The calling thread
     * participates; the call returns when the whole range is done.
     * Serial fallback (fn(begin, end) inline) when the range is small,
     * the pool has 1 thread, or the caller is already inside a pool
     * worker or another parallelFor.
     */
    template <typename Fn>
    void
    parallelFor(int64_t begin, int64_t end, int64_t grain, Fn &&fn)
    {
        if (end <= begin)
            return;
        if (!shouldSplit(end - begin, grain)) {
            fn(begin, end);
            return;
        }
        parallelForImpl(begin, end, grain,
                        std::function<void(int64_t, int64_t)>(
                            std::forward<Fn>(fn)));
    }

    /**
     * The process-wide pool, created on first use with
     * defaultNumThreads() workers.  All tensor kernels and the graph
     * executor share this pool.
     */
    static ThreadPool &global();

    /** Largest worker count ECHO_NUM_THREADS or a tool flag may ask
     *  for. */
    static constexpr int kMaxThreads = 512;

    /**
     * ECHO_NUM_THREADS if set (an integer in [1, kMaxThreads]; invalid
     * values warn and are ignored), else
     * std::thread::hardware_concurrency().
     */
    static int defaultNumThreads();

    /**
     * Replace the global pool with one of @p num_threads workers.
     * Intended for tests and benchmarks comparing thread counts; the
     * caller must ensure no parallel work is in flight.
     */
    static void setGlobalNumThreads(int num_threads);

    /** True on a thread owned by any ThreadPool. */
    static bool onWorkerThread();

  private:
    /** Decide between the serial fallback and a real split. */
    bool shouldSplit(int64_t range, int64_t grain) const;

    void parallelForImpl(int64_t begin, int64_t end, int64_t grain,
                         const std::function<void(int64_t, int64_t)> &fn);

    void workerLoop();

    const int num_threads_;
    std::vector<std::thread> workers_;

    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::function<void()>> queue_;
    bool stopping_ = false;
};

} // namespace echo

#endif // ECHO_CORE_THREAD_POOL_H
