#include "graph/executor.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>

#include "core/logging.h"
#include "core/thread_pool.h"
#include "obs/counters.h"
#include "obs/trace.h"

namespace echo::graph {

namespace {

/**
 * kAuto refuses to parallelize schedules below this size: a parallel
 * run costs one pool hand-off per thread plus a lock round trip per
 * node, which only pays off once there are enough nodes for
 * independent work to overlap.
 */
constexpr size_t kMinParallelNodes = 16;

/** Per-op-execution counters shared by both execution strategies. */
void
countOp(const Node *node)
{
    static obs::Counter &c_ops = obs::counter("exec.ops");
    static obs::Counter &c_replays = obs::counter("exec.replays");
    c_ops.add(1);
    if (node->phase == Phase::kRecompute)
        c_replays.add(1);
}

/** Panics unless @p outputs match the node's inferred output shapes. */
void
checkOutputs(const Node *node, const std::vector<Tensor> &outputs)
{
    for (int i = 0; i < node->numOutputs(); ++i) {
        const Tensor &out = outputs[static_cast<size_t>(i)];
        ECHO_CHECK(out.defined() &&
                       out.shape() ==
                           node->out_shapes[static_cast<size_t>(i)],
                   "op ", node->op->name(), " produced output ", i,
                   " with wrong shape");
    }
}

const char *
phaseName(Phase p)
{
    switch (p) {
      case Phase::kForward:
        return "forward";
      case Phase::kBackward:
        return "backward";
      case Phase::kRecompute:
        return "recompute";
    }
    return "?";
}

} // namespace

Executor::Executor(std::vector<Val> fetches, ExecMode mode)
    : fetches_(std::move(fetches)), topo_(buildTopology(fetches_)),
      consumers_(topo_.schedule.size()), mode_(mode)
{
    for (size_t s = 0; s < topo_.schedule.size(); ++s)
        for (const int producer : topo_.input_slots[s]) {
            ECHO_CHECK(producer >= 0, "input of node #",
                       topo_.schedule[s]->id,
                       " missing from its own schedule");
            consumers_[static_cast<size_t>(producer)].push_back(
                static_cast<int>(s));
        }
    for (const int slot : topo_.fetch_slots)
        ECHO_CHECK(slot >= 0, "fetch missing from schedule");
}

const Tensor &
Executor::feedValue(const FeedDict &feed, const Node *n) const
{
    auto it = feed.find(n);
    ECHO_REQUIRE(it != feed.end(), "no feed for ",
                 (n->kind == NodeKind::kWeight ? "weight "
                                               : "placeholder "),
                 n->name);
    ECHO_REQUIRE(it->second.shape() == n->out_shapes[0], "feed for ",
                 n->name, " has shape ", it->second.shape().toString(),
                 ", expected ", n->out_shapes[0].toString());
    return it->second;
}

bool
Executor::useParallel() const
{
    // A run on a pool worker (e.g. an executor inside a parallelFor
    // body) must never block that worker waiting on queue hand-offs
    // the remaining workers may not exist to pick up, so worker-thread
    // callers always fall back to serial — even under kParallel.
    switch (mode_) {
      case ExecMode::kSerial:
        return false;
      case ExecMode::kParallel:
        return !ThreadPool::onWorkerThread();
      case ExecMode::kAuto:
        break;
    }
    if (topo_.schedule.size() < kMinParallelNodes)
        return false;
    if (ThreadPool::onWorkerThread())
        return false;
    return ThreadPool::global().numThreads() > 1;
}

std::vector<Tensor>
Executor::run(const FeedDict &feed) const
{
    const bool parallel = useParallel();
    static obs::Counter &c_runs = obs::counter("exec.runs");
    c_runs.add(1);
    obs::Span span;
    if (obs::traceEnabled())
        span.begin("exec", parallel ? "run.parallel" : "run.serial",
                   {{"nodes",
                     static_cast<int64_t>(topo_.schedule.size())}});
    return parallel ? runParallel(feed) : runSerial(feed);
}

std::vector<Tensor>
Executor::runSerial(const FeedDict &feed) const
{
    const size_t n = topo_.schedule.size();
    // Per-slot output tensors, plus the number of uses still pending so
    // buffers can be dropped as soon as they are dead.
    std::vector<std::vector<Tensor>> values(n);
    std::vector<int> remaining = topo_.use_counts;

    auto release_use = [&](int slot) {
        int &uses = remaining[static_cast<size_t>(slot)];
        ECHO_CHECK(uses > 0, "use-count underflow on node #",
                   topo_.schedule[static_cast<size_t>(slot)]->id);
        if (--uses == 0)
            values[static_cast<size_t>(slot)].clear();
    };

    for (size_t s = 0; s < n; ++s) {
        Node *node = topo_.schedule[s];
        switch (node->kind) {
          case NodeKind::kPlaceholder:
          case NodeKind::kWeight:
            values[s] = {feedValue(feed, node)};
            break;
          case NodeKind::kOp: {
            obs::Span span;
            if (obs::traceEnabled())
                span.begin("exec", node->op->name(),
                           {{"node", node->id},
                            {"slot", static_cast<int64_t>(s)},
                            {"phase", phaseName(node->phase)}});
            countOp(node);
            std::vector<Tensor> inputs;
            inputs.reserve(node->inputs.size());
            for (size_t i = 0; i < node->inputs.size(); ++i) {
                const auto &slot_vals = values[static_cast<size_t>(
                    topo_.input_slots[s][i])];
                ECHO_CHECK(!slot_vals.empty(), "input of node #",
                           node->id, " freed too early");
                inputs.push_back(slot_vals[static_cast<size_t>(
                    node->inputs[i].index)]);
            }
            std::vector<Tensor> outputs(
                static_cast<size_t>(node->numOutputs()));
            node->op->forward(inputs, outputs);
            checkOutputs(node, outputs);
            values[s] = std::move(outputs);
            for (int input_slot : topo_.input_slots[s])
                release_use(input_slot);
            break;
          }
        }
        // Nodes nothing consumes (and nobody fetches) can be dropped
        // immediately.
        if (remaining[s] == 0)
            values[s].clear();
    }

    std::vector<Tensor> out;
    out.reserve(fetches_.size());
    for (size_t i = 0; i < fetches_.size(); ++i) {
        const auto &slot_vals =
            values[static_cast<size_t>(topo_.fetch_slots[i])];
        ECHO_CHECK(!slot_vals.empty(), "fetch value missing");
        out.push_back(
            slot_vals[static_cast<size_t>(fetches_[i].index)]);
    }
    return out;
}

/**
 * One parallel run.  The caller and the drain tasks share it through a
 * shared_ptr, so a drain task that the pool starts after the run ended
 * still finds valid state: it sees `over` and returns without touching
 * the executor or the feed.
 */
struct Executor::ParallelRun
{
    const Executor *exec = nullptr;
    size_t n = 0;

    std::mutex mu;
    /** Idle drain tasks wait here for ready nodes. */
    std::condition_variable work_cv;
    /** The caller waits here; never notified for a ready node. */
    std::condition_variable done_cv;

    std::vector<std::vector<Tensor>> values;
    std::vector<int> remaining;
    std::vector<int> pending_inputs;
    std::deque<int> ready;
    size_t completed = 0;
    /** Nodes popped (or continued into) but not yet completed. */
    int running = 0;
    /** Drain tasks inside drain() for this run. */
    int active = 0;
    /** Drain tasks waiting on work_cv. */
    int idle = 0;
    /** Set once: every node completed, an op threw, or dispatch stalled. */
    bool over = false;
    std::exception_ptr error;
};

void
Executor::drain(ParallelRun &run)
{
    std::unique_lock<std::mutex> lk(run.mu);
    if (run.over)
        return;
    ++run.active;
    const Executor &ex = *run.exec;
    // When a node continues into its consumer, `spent` takes the
    // finished node's input handles so the buffers whose last use that
    // was are freed outside the lock.
    std::vector<Tensor> inputs, spent;
    int slot = -1;
    int wake = 0;
    for (;;) {
        if (slot < 0) {
            while (run.ready.empty() && !run.over) {
                if (run.running == 0) {
                    // Nothing ready and nothing running: the remaining
                    // nodes can never become ready.  The caller reports
                    // the stall.
                    run.over = true;
                    run.work_cv.notify_all();
                    break;
                }
                ++run.idle;
                run.work_cv.wait(lk);
                --run.idle;
            }
            if (run.over)
                break;
            slot = run.ready.front();
            run.ready.pop_front();
            ++run.running;
        }

        // Gather under the lock.  Tensor handles are shared_ptr-backed,
        // so the copies keep the data alive even if a producer slot is
        // freed while forward() executes.
        const size_t s = static_cast<size_t>(slot);
        Node *node = ex.topo_.schedule[s];
        spent.swap(inputs);
        inputs.reserve(node->inputs.size());
        for (size_t i = 0; i < node->inputs.size(); ++i) {
            const auto &slot_vals = run.values[static_cast<size_t>(
                ex.topo_.input_slots[s][i])];
            ECHO_CHECK(!slot_vals.empty(), "input of node #", node->id,
                       " freed too early");
            inputs.push_back(
                slot_vals[static_cast<size_t>(node->inputs[i].index)]);
        }
        lk.unlock();
        for (; wake > 0; --wake)
            run.work_cv.notify_one();
        spent.clear();

        std::vector<Tensor> outputs(static_cast<size_t>(node->numOutputs()));
        std::exception_ptr error;
        {
            // The span closes before the node counts as completed, so
            // a trace stopped after run() returns has balanced B/E
            // pairs.
            obs::Span span;
            if (obs::traceEnabled())
                span.begin("exec", node->op->name(),
                           {{"node", node->id},
                            {"slot", slot},
                            {"phase", phaseName(node->phase)}});
            countOp(node);
            try {
                node->op->forward(inputs, outputs);
            } catch (...) {
                error = std::current_exception();
            }
        }
        if (!error)
            checkOutputs(node, outputs);

        lk.lock();
        --run.running;
        slot = -1;
        if (error) {
            // The first exception stops dispatch; later ones are
            // dropped.
            if (!run.error)
                run.error = error;
            run.over = true;
            run.ready.clear();
            run.work_cv.notify_all();
            break;
        }
        if (run.over)
            break; // another node threw meanwhile
        run.values[s] = std::move(outputs);
        for (int input_slot : ex.topo_.input_slots[s]) {
            int &uses = run.remaining[static_cast<size_t>(input_slot)];
            ECHO_CHECK(
                uses > 0, "use-count underflow on node #",
                ex.topo_.schedule[static_cast<size_t>(input_slot)]->id);
            if (--uses == 0)
                run.values[static_cast<size_t>(input_slot)].clear();
        }
        if (run.remaining[s] == 0)
            run.values[s].clear();
        int pushed = 0;
        for (int consumer : ex.consumers_[s]) {
            if (--run.pending_inputs[static_cast<size_t>(consumer)] != 0)
                continue;
            if (slot < 0) {
                slot = consumer; // run it next, on this thread
                ++run.running;
            } else {
                run.ready.push_back(consumer);
                ++pushed;
            }
        }
        wake = std::min(pushed, run.idle);
        if (++run.completed == run.n) {
            run.over = true;
            run.done_cv.notify_one();
            run.work_cv.notify_all();
        }
        if (slot < 0) {
            // About to wait for work: drop the finished node's input
            // handles now, outside the lock, or the buffers whose last
            // use it was would stay alive while this task is idle.
            lk.unlock();
            inputs.clear();
            lk.lock();
        }
    }
    // After an error or a stall the caller waits for every drain task
    // that entered the run to leave it.
    if (--run.active == 0 && run.completed != run.n)
        run.done_cv.notify_one();
}

std::vector<Tensor>
Executor::runParallel(const FeedDict &feed) const
{
    const size_t n = topo_.schedule.size();
    auto run = std::make_shared<ParallelRun>();
    run->exec = this;
    run->n = n;
    run->values.resize(n);
    run->remaining = topo_.use_counts;
    run->pending_inputs = topo_.in_degree;

    // Placeholders and weights resolve here, on the calling thread;
    // only op nodes reach the ready queue.
    for (size_t s = 0; s < n; ++s) {
        if (topo_.in_degree[s] != 0)
            continue;
        Node *node = topo_.schedule[s];
        if (node->kind == NodeKind::kOp) {
            run->ready.push_back(static_cast<int>(s));
            continue;
        }
        run->values[s] = {feedValue(feed, node)};
        if (run->remaining[s] == 0)
            run->values[s].clear();
        for (int consumer : consumers_[s])
            if (--run->pending_inputs[static_cast<size_t>(consumer)] == 0)
                run->ready.push_back(consumer);
        ++run->completed;
    }

    if (run->completed < n) {
        ThreadPool &pool = ThreadPool::global();
        for (int i = 0; i < pool.numThreads(); ++i)
            pool.submit([run] { drain(*run); });
    }

    std::unique_lock<std::mutex> lk(run->mu);
    run->done_cv.wait(lk, [&] {
        return run->completed == n || (run->over && run->active == 0);
    });
    // Take the values out, so they die with this call rather than with
    // the last drain task still queued on the pool.
    const std::vector<std::vector<Tensor>> values = std::move(run->values);
    if (run->error)
        std::rethrow_exception(run->error);
    ECHO_CHECK(run->completed == n, "executor stalled with ",
               n - run->completed, " nodes blocked (dependency cycle?)");
    lk.unlock();

    std::vector<Tensor> out;
    out.reserve(fetches_.size());
    for (size_t i = 0; i < fetches_.size(); ++i) {
        const auto &slot_vals =
            values[static_cast<size_t>(topo_.fetch_slots[i])];
        ECHO_CHECK(!slot_vals.empty(), "fetch value missing");
        out.push_back(slot_vals[static_cast<size_t>(fetches_[i].index)]);
    }
    return out;
}

} // namespace echo::graph
