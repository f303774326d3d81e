/**
 * @file
 * Numeric executor: runs a graph's schedule on CPU tensors.
 *
 * Used by the training loops, the examples, and every numerical test.
 * Timing and memory are NOT measured here — they come from the
 * analytical GPU model (src/gpusim) and the memory planner (src/memory)
 * walking the same schedule.
 *
 * The executor has two execution strategies over the same schedule:
 *
 *  - serial: nodes run one after another in schedule order;
 *  - parallel: the calling thread resolves the feeds, then hands the
 *    run to numThreads() long-lived drain tasks on the global
 *    ThreadPool and blocks until the last node completed.  A drain task
 *    pops a ready node, runs it, and under one lock acquisition stores
 *    its outputs, releases its inputs and decrements its consumers; it
 *    then continues straight into the first consumer it made ready and
 *    queues the rest for the other drain tasks.  Independent nodes
 *    (e.g. the per-gate GEMMs of an LSTM cell, or forward nodes of
 *    different time steps that recomputation made independent) thus
 *    overlap, while a dependent chain runs on one worker with no
 *    thread hand-off between its nodes.
 *
 * Both strategies free intermediate buffers as soon as the last
 * consumer of a node has run, and both produce byte-identical results:
 * ops are pure functions of their input tensors, every node's output is
 * written by exactly one task, and no op mutates shared state, so the
 * dispatch order cannot change any computed value.
 */
#ifndef ECHO_GRAPH_EXECUTOR_H
#define ECHO_GRAPH_EXECUTOR_H

#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "graph/schedule.h"

namespace echo::graph {

/** Values fed into a run: one tensor per placeholder / weight node. */
using FeedDict = std::unordered_map<const Node *, Tensor>;

/** How Executor::run walks the schedule. */
enum class ExecMode
{
    /** Strict schedule order on the calling thread. */
    kSerial,
    /**
     * Drain tasks on the global ThreadPool pull ready nodes and run the
     * consumer they unblock inline (see the file comment).  A run()
     * issued on a pool worker still runs serially.
     */
    kParallel,
    /**
     * kParallel when it can help (pool has >1 thread, the schedule is
     * big enough to amortize dispatch, and the caller is not itself a
     * pool worker), kSerial otherwise.
     */
    kAuto,
};

/** Executes a fixed set of fetches over a prebuilt schedule. */
class Executor
{
  public:
    /** Prepare to repeatedly fetch @p fetches. */
    explicit Executor(std::vector<Val> fetches,
                      ExecMode mode = ExecMode::kAuto);

    /**
     * Run the schedule.  @p feed must contain a tensor for every
     * placeholder and weight in the fetched subgraph.  Intermediate
     * tensors are freed as soon as their last consumer has run.
     *
     * Thread-safe: all per-run state belongs to the run and the
     * executor itself is immutable after construction, so concurrent
     * run() calls on one Executor overlap freely.
     */
    std::vector<Tensor> run(const FeedDict &feed) const;

    /** The schedule this executor runs (for inspection/tests). */
    const std::vector<Node *> &schedule() const { return topo_.schedule; }

    /** The slot topology this executor runs on (hazard-checkable with
     *  analysis::detectParallelHazards). */
    const SlotTopology &topology() const { return topo_; }

    /** The configured execution mode. */
    ExecMode mode() const { return mode_; }

  private:
    /** Shared state of one parallel run (defined in executor.cc). */
    struct ParallelRun;

    std::vector<Tensor> runSerial(const FeedDict &feed) const;
    std::vector<Tensor> runParallel(const FeedDict &feed) const;

    /**
     * Body of one parallel-run drain task.  Reads the executor only
     * through @p run and only while the run is live, so a drain task
     * that starts after its run ended touches nothing but @p run.
     */
    static void drain(ParallelRun &run);

    /** Resolve kAuto against the pool and calling context. */
    bool useParallel() const;

    /** Feed lookup + shape check for a placeholder/weight node. */
    const Tensor &feedValue(const FeedDict &feed, const Node *n) const;

    std::vector<Val> fetches_;
    // Dense per-run topology, indexed by schedule position ("slot").
    // Built once here so run() touches only flat vectors — no hash
    // lookups or per-run map copies on the hot path.
    SlotTopology topo_;
    /** Consumer slots per slot, one entry per input edge. */
    std::vector<std::vector<int>> consumers_;
    ExecMode mode_;
};

} // namespace echo::graph

#endif // ECHO_GRAPH_EXECUTOR_H
