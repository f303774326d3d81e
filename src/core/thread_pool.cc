#include "core/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <string>

#include "core/logging.h"
#include "obs/counters.h"
#include "obs/trace.h"

namespace echo {

namespace {

/** Set for the lifetime of a pool worker thread. */
thread_local bool tl_on_worker = false;

/** Set while a thread executes a parallelFor chunk (nesting guard). */
thread_local bool tl_in_parallel_for = false;

/** The lazily created process-wide pool (atomic for a lock-free read). */
std::atomic<ThreadPool *> g_global_pool{nullptr};
std::mutex g_global_mu;

} // namespace

// ----------------------------------------------------------------------
// Task handle
// ----------------------------------------------------------------------

struct ThreadPool::Task::State
{
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::exception_ptr error;
};

bool
ThreadPool::Task::done() const
{
    ECHO_CHECK(state_ != nullptr, "done() on an empty Task handle");
    std::lock_guard<std::mutex> lk(state_->mu);
    return state_->done;
}

void
ThreadPool::Task::wait() const
{
    ECHO_CHECK(state_ != nullptr, "wait() on an empty Task handle");
    std::unique_lock<std::mutex> lk(state_->mu);
    state_->cv.wait(lk, [this] { return state_->done; });
    if (state_->error)
        std::rethrow_exception(state_->error);
}

// ----------------------------------------------------------------------
// Pool lifecycle
// ----------------------------------------------------------------------

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads < 1 ? 1 : num_threads)
{
    workers_.reserve(static_cast<size_t>(num_threads_));
    for (int i = 0; i < num_threads_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
ThreadPool::workerLoop()
{
    tl_on_worker = true;
    static obs::Counter &c_executed = obs::counter(
        "pool.tasks_executed", obs::CounterKind::kScheduling);
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping and drained
            job = std::move(queue_.front());
            queue_.pop_front();
            obs::counterSample(
                "pool", "pool.queue_depth",
                static_cast<int64_t>(queue_.size()));
        }
        c_executed.add(1);
        job();
    }
}

ThreadPool::Task
ThreadPool::submit(std::function<void()> fn)
{
    Task task;
    task.state_ = std::make_shared<Task::State>();
    std::shared_ptr<Task::State> state = task.state_;
    static obs::Counter &c_submitted = obs::counter(
        "pool.tasks_submitted", obs::CounterKind::kScheduling);
    c_submitted.add(1);
    {
        std::lock_guard<std::mutex> lk(mu_);
        ECHO_CHECK(!stopping_, "submit() on a stopping ThreadPool");
        queue_.emplace_back([state, fn = std::move(fn)] {
            // The span must close before done is signalled, so a trace
            // stopped after wait() returns has balanced B/E pairs.
            {
                obs::Span span;
                if (obs::traceEnabled())
                    span.begin("pool", "worker.task");
                try {
                    fn();
                } catch (...) {
                    std::lock_guard<std::mutex> lk(state->mu);
                    state->error = std::current_exception();
                }
            }
            {
                std::lock_guard<std::mutex> lk(state->mu);
                state->done = true;
            }
            state->cv.notify_all();
        });
        obs::counterSample("pool", "pool.queue_depth",
                           static_cast<int64_t>(queue_.size()));
    }
    cv_.notify_one();
    return task;
}

// ----------------------------------------------------------------------
// parallelFor
// ----------------------------------------------------------------------

bool
ThreadPool::shouldSplit(int64_t range, int64_t grain) const
{
    if (num_threads_ <= 1)
        return false;
    if (range <= (grain < 1 ? 1 : grain))
        return false;
    // Nested parallelism runs serially: a kernel inside a parallel
    // graph node (or inside another parallelFor chunk) must not
    // recursively feed the queue its own waiters.
    return !tl_on_worker && !tl_in_parallel_for;
}

void
ThreadPool::parallelForImpl(int64_t begin, int64_t end, int64_t grain,
                            const std::function<void(int64_t, int64_t)> &fn)
{
    const int64_t range = end - begin;
    const int64_t g = grain < 1 ? 1 : grain;

    // Chunk size: at least the grain; small enough for ~4 chunks per
    // thread of load-balancing slack.  Chunk *boundaries* only affect
    // which thread computes a range, never the values computed.
    const int64_t max_chunks = static_cast<int64_t>(num_threads_) * 4;
    const int64_t chunk =
        std::max(g, (range + max_chunks - 1) / max_chunks);
    const int64_t nchunks = (range + chunk - 1) / chunk;

    struct Shared
    {
        std::atomic<int64_t> next{0};
        int64_t nchunks = 0, begin = 0, end = 0, chunk = 0;
        const std::function<void(int64_t, int64_t)> *fn = nullptr;
        std::mutex mu;
        std::condition_variable cv;
        int64_t completed = 0;
        std::exception_ptr error;
    };
    auto shared = std::make_shared<Shared>();
    shared->nchunks = nchunks;
    shared->begin = begin;
    shared->end = end;
    shared->chunk = chunk;
    shared->fn = &fn;

    // Claim-and-run until the chunk counter is exhausted.  `fn` is only
    // dereferenced for successfully claimed chunks, and the caller
    // blocks until all claimed chunks completed, so a straggler task
    // that starts after this call returned finds no chunk and never
    // touches the (by then dead) closure.
    auto drain = [](const std::shared_ptr<Shared> &s) {
        static obs::Counter &c_chunks = obs::counter(
            "pool.parfor_chunks", obs::CounterKind::kScheduling);
        for (;;) {
            const int64_t idx =
                s->next.fetch_add(1, std::memory_order_relaxed);
            if (idx >= s->nchunks)
                return;
            const int64_t b = s->begin + idx * s->chunk;
            const int64_t e = std::min(s->end, b + s->chunk);
            c_chunks.add(1);
            // Span closes before the chunk is counted completed, so
            // the caller never returns with a chunk span still open.
            {
                obs::Span span;
                if (obs::traceEnabled())
                    span.begin("pool", "parfor.chunk",
                               {{"begin", b}, {"end", e}});
                tl_in_parallel_for = true;
                try {
                    (*s->fn)(b, e);
                } catch (...) {
                    std::lock_guard<std::mutex> lk(s->mu);
                    if (!s->error)
                        s->error = std::current_exception();
                }
                tl_in_parallel_for = false;
            }
            {
                std::lock_guard<std::mutex> lk(s->mu);
                ++s->completed;
            }
            s->cv.notify_all();
        }
    };

    const int64_t helpers =
        std::min<int64_t>(num_threads_, nchunks - 1);
    {
        std::lock_guard<std::mutex> lk(mu_);
        ECHO_CHECK(!stopping_, "parallelFor on a stopping ThreadPool");
        for (int64_t i = 0; i < helpers; ++i)
            queue_.emplace_back([shared, drain] { drain(shared); });
    }
    cv_.notify_all();

    drain(shared);

    std::unique_lock<std::mutex> lk(shared->mu);
    shared->cv.wait(lk, [&] { return shared->completed == nchunks; });
    if (shared->error)
        std::rethrow_exception(shared->error);
}

// ----------------------------------------------------------------------
// Global pool
// ----------------------------------------------------------------------

int
ThreadPool::defaultNumThreads()
{
    if (const char *env = std::getenv("ECHO_NUM_THREADS")) {
        char *tail = nullptr;
        const long v = std::strtol(env, &tail, 10);
        if (tail != env && *tail == '\0' && v >= 1 && v <= kMaxThreads)
            return static_cast<int>(v);
        ECHO_WARN("ignoring invalid ECHO_NUM_THREADS=\"", env,
                  "\" (expected an integer in [1, ", kMaxThreads, "])");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool &
ThreadPool::global()
{
    ThreadPool *pool = g_global_pool.load(std::memory_order_acquire);
    if (pool)
        return *pool;
    std::lock_guard<std::mutex> lk(g_global_mu);
    pool = g_global_pool.load(std::memory_order_relaxed);
    if (!pool) {
        pool = new ThreadPool(defaultNumThreads());
        g_global_pool.store(pool, std::memory_order_release);
    }
    return *pool;
}

void
ThreadPool::setGlobalNumThreads(int num_threads)
{
    std::lock_guard<std::mutex> lk(g_global_mu);
    ThreadPool *old = g_global_pool.load(std::memory_order_relaxed);
    ThreadPool *fresh = new ThreadPool(num_threads);
    g_global_pool.store(fresh, std::memory_order_release);
    delete old;
}

bool
ThreadPool::onWorkerThread()
{
    return tl_on_worker;
}

} // namespace echo
