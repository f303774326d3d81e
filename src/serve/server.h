/**
 * @file
 * The serving front end: admission, a worker thread driving the
 * continuous (iteration-level) scheduler, and latency/wait accounting.
 *
 * submit() is thread-safe and non-blocking: invalid (unknown model,
 * empty, too long, or a token outside the model's input vocabulary)
 * or over-capacity requests resolve their future immediately with a
 * RejectReason, so a bad request never reaches a decoder;
 * admitted requests resolve when they complete (payload), are
 * cancelled, or their deadline budget expires.  One worker thread owns
 * the sessions (sessions are single-consumer); the parallelism that
 * matters is INSIDE the step graphs, which run on the shared thread
 * pool via the parallel executor.
 *
 * A server may load several sessions (one word-LM, one NMT) and serve
 * mixed traffic: Request::model routes each request to the session
 * whose kind() matches.
 *
 * Latency and queue-wait are tracked in core Histograms (log-spaced
 * buckets), so stats() reports p50/p95/p99 without per-request state.
 */
#ifndef ECHO_SERVE_SERVER_H
#define ECHO_SERVE_SERVER_H

#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "core/stats.h"
#include "serve/queue.h"
#include "serve/scheduler.h"
#include "serve/session.h"

namespace echo::serve {

/**
 * The scheduling loop the worker runs.  Iteration-level scheduling is
 * the only one: slots recycle on EOS and waiting requests splice into
 * running step graphs mid-flight.  The enum and
 * ServerConfig::scheduler remain only because the benchmark harness
 * (perfbench/serve.cc) names them; drop both with its next change.
 */
enum class SchedulerKind
{
    kContinuous,
};

/** Server-level knobs. */
struct ServerConfig
{
    /** Admission-queue capacity; pushes beyond it reject. */
    size_t queue_capacity = 64;

    SchedulerKind scheduler = SchedulerKind::kContinuous;

    /** SLO shed line as a fraction of queue_capacity: batch-tier
     *  requests reject kOverloaded once the queue is this full.
     *  >= 1.0 disables tiered admission. */
    double batch_admit_fraction = 0.75;
};

/** Aggregate counters and latency percentiles. */
struct ServerStats
{
    int64_t accepted = 0;
    int64_t rejected = 0;
    int64_t completed = 0; ///< payloads delivered (ok responses)
    int64_t cancelled = 0; ///< admitted, then cancelled by the client
    int64_t expired = 0;   ///< admitted, then deadline budget ran out
    /** Scheduler step passes plus atomic direct decodes. */
    int64_t batches = 0;
    /** Mean live rows per step pass. */
    double mean_batch_requests = 0.0;
    /** Splices, and splices into recycled slots. */
    int64_t splices = 0;
    int64_t recycled_slots = 0;
    double latency_mean_us = 0.0;
    double latency_p50_us = 0.0;
    double latency_p95_us = 0.0;
    double latency_p99_us = 0.0;
    /** Admission -> splice (or direct decode), recorded exactly once
     *  per completed request (wait_count == completed). */
    int64_t wait_count = 0;
    double wait_mean_us = 0.0;
    double wait_p50_us = 0.0;
    double wait_p95_us = 0.0;
    double wait_p99_us = 0.0;
};

/** Owns the queue, the worker, and the sessions. */
class Server
{
  public:
    Server(std::unique_ptr<InferenceSession> session,
           ServerConfig config);
    /** Mixed-traffic server: one session per model family. */
    Server(std::vector<std::unique_ptr<InferenceSession>> sessions,
           ServerConfig config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Submit one request (any thread).  The returned future always
     * resolves: immediately on rejection, after decoding otherwise.
     * @p r.id and r.enqueued_at are assigned here.
     */
    std::future<Response> submit(Request r);

    /**
     * Best-effort cancellation: an admitted request resolves
     * kCancelled — whether it is still queued, waiting, or mid-decode
     * (evicted, its slot recycled).  False when the id is no longer
     * inflight (already resolved, or never admitted) — a harmless
     * no-op; the request's outcome is unchanged.
     */
    bool cancel(int64_t id);

    /**
     * Stop admitting, decode everything already accepted, join the
     * worker.  Idempotent; the destructor calls it.
     */
    void stop();

    ServerStats stats() const;

    /** The slot-recycling journal (pools offset per session) for
     *  echo-lint --serve-journal.  Complete after stop(). */
    std::vector<analysis::SlotLease> leaseJournal() const;

    /** The --serve-slots value matching leaseJournal(). */
    int64_t journalSlots() const;

  private:
    void resolveResponse(Response resp);
    Response rejected(const Request &r, RejectReason reason) const;

    std::vector<std::unique_ptr<InferenceSession>> sessions_;
    ServerConfig config_;
    RequestQueue queue_;
    ContinuousScheduler scheduler_;

    std::mutex inflight_mu_;
    std::unordered_map<int64_t, std::promise<Response>> inflight_;
    std::atomic<int64_t> next_id_{0};

    mutable std::mutex stats_mu_;
    Histogram latency_us_{1.0, 1e9, 16};
    Histogram wait_us_{1.0, 1e9, 16};
    int64_t accepted_ = 0;
    int64_t rejected_ = 0;
    int64_t completed_ = 0;
    int64_t cancelled_ = 0;
    int64_t expired_ = 0;

    std::thread worker_;
};

} // namespace echo::serve

#endif // ECHO_SERVE_SERVER_H
