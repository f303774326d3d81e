/**
 * @file
 * The continuous (iteration-level) scheduler: the server's serving
 * loop.
 *
 * One pass of the loop: drain the queue, apply cancellations and
 * deadline expiries (waiting AND running), splice waiting requests
 * into free step-graph rows (interactive tier first, then admission
 * order), run any atomic direct items (NMT beam, zero-budget decodes),
 * then advance every lane that has occupants by exactly one step.  A
 * row whose payload completes during the step frees its slot the same
 * instant — the next pass can splice a waiting request into it, which
 * is what lets short requests overtake long neighbours instead of
 * waiting out a whole micro-batch.
 *
 * Determinism: sessions re-initialize a row's carried state at splice
 * time and every step-graph op is row-wise, so a request's payload is
 * a pure function of (parameters, request) — independent of arrival
 * order, splice timing, slot churn, and thread count.  The scheduler
 * never has to think about payloads, only about occupancy.
 *
 * Every occupancy is journalled as an analysis::SlotLease over
 * scheduler-pass numbers (half-open [acquired, released)); pools are
 * numbered per session with disjoint base offsets so one journal
 * covers mixed word-LM + NMT traffic.  analysis::auditSlotRecycling
 * (echo-lint --serve-journal) proves slot exclusivity, per-splice
 * state re-initialization, and exactly-once termination offline.
 */
#ifndef ECHO_SERVE_SCHEDULER_H
#define ECHO_SERVE_SCHEDULER_H

#include <atomic>
#include <functional>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "analysis/hazards.h"
#include "serve/queue.h"
#include "serve/session.h"

namespace echo::serve {

/** Aggregate counters of one scheduler run (all monotone). */
struct SchedulerStats
{
    int64_t steps = 0;        ///< lane step passes executed
    int64_t stepped_rows = 0; ///< sum of live rows over those passes
    int64_t splices = 0;      ///< requests spliced into lane rows
    int64_t recycled = 0;     ///< splices into a previously-used slot
    int64_t direct = 0;       ///< atomic direct decodes
    int64_t served = 0;
    int64_t cancelled = 0;
    int64_t expired = 0;
};

/**
 * Drives one or more sessions from a RequestQueue on the caller's
 * thread (sessions are single-consumer).  Responses — payloads and
 * terminal rejections alike — are delivered through the resolve
 * callback with latency/wait diagnostics filled in.
 */
class ContinuousScheduler
{
  public:
    using Resolve = std::function<void(Response)>;

    /** @p sessions borrowed, non-empty; requests route to the first
     *  session whose kind() matches Request::model ("" = first). */
    ContinuousScheduler(std::vector<InferenceSession *> sessions,
                        RequestQueue &queue, Resolve resolve);

    /** The scheduling loop; returns when the queue is closed, drained,
     *  and every admitted request has terminated. */
    void run();

    /** Request cancellation of @p id (any thread).  The cancel is
     *  retained until the id terminates — it applies even when the
     *  request is still in the admission queue — so callers should
     *  only pass ids that are inflight (the Server checks).  Waiting
     *  requests resolve kCancelled; running ones are evicted. */
    void cancel(int64_t id);

    SchedulerStats stats() const;

    /** The slot-recycling journal (pools offset per session).  Safe to
     *  read concurrently; complete once run() returned. */
    std::vector<analysis::SlotLease> leaseJournal() const;

    /** Pool-id base of @p session_index within the journal. */
    int64_t poolBase(size_t session_index) const;

    /** Rows per lane (the --serve-slots value for echo-lint). */
    int64_t numSlots() const;

  private:
    struct Running
    {
        Request req;
        size_t session = 0;
        int lane = 0;
        int slot = 0;
        size_t lease = 0; ///< index into journal_
        double wait_us = 0.0;
    };

    size_t sessionFor(const Request &r) const;
    size_t openLease(int64_t request_id, int64_t pool, int slot);
    void closeLease(size_t lease, int64_t released,
                    analysis::LeaseStatus status);
    void resolveTerminal(Request req, RejectReason reason,
                         double wait_us);

    std::vector<InferenceSession *> sessions_;
    RequestQueue &queue_;
    Resolve resolve_;

    /** occupant request id per (session, lane, slot); -1 = free. */
    std::vector<std::vector<std::vector<int64_t>>> occupant_;
    /** slots that have hosted a request before (recycle counter). */
    std::vector<std::vector<std::vector<bool>>> used_;
    std::vector<int64_t> pool_base_;

    std::vector<Request> waiting_;
    std::vector<Running> running_;
    int64_t pass_ = 0;

    mutable std::mutex journal_mu_;
    std::vector<analysis::SlotLease> journal_;

    std::mutex cancel_mu_;
    std::unordered_set<int64_t> cancel_requests_;

    std::atomic<int64_t> steps_{0}, stepped_rows_{0}, splices_{0},
        recycled_{0}, direct_{0}, served_{0}, cancelled_{0}, expired_{0};
};

} // namespace echo::serve

#endif // ECHO_SERVE_SCHEDULER_H
