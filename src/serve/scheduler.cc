#include "serve/scheduler.h"

#include <algorithm>
#include <chrono>

#include "core/logging.h"
#include "obs/counters.h"
#include "obs/trace.h"

namespace echo::serve {

namespace {

using Clock = std::chrono::steady_clock;

double
elapsedUs(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
               .count() /
           1000.0;
}

bool
deadlinePassed(const Request &r, Clock::time_point now)
{
    return r.deadline_us > 0 &&
           now >= r.enqueued_at + std::chrono::microseconds(r.deadline_us);
}

} // namespace

ContinuousScheduler::ContinuousScheduler(
    std::vector<InferenceSession *> sessions, RequestQueue &queue,
    Resolve resolve)
    : sessions_(std::move(sessions)), queue_(queue),
      resolve_(std::move(resolve))
{
    ECHO_REQUIRE(!sessions_.empty(), "scheduler needs a session");
    ECHO_REQUIRE(resolve_ != nullptr, "scheduler needs a resolve sink");
    int64_t base = 0;
    for (InferenceSession *session : sessions_) {
        ECHO_REQUIRE(session != nullptr, "null session");
        pool_base_.push_back(base);
        base += session->poolCount();
        const size_t lanes = static_cast<size_t>(session->numLanes());
        const size_t slots =
            static_cast<size_t>(session->config().slots);
        occupant_.emplace_back(lanes, std::vector<int64_t>(slots, -1));
        used_.emplace_back(lanes, std::vector<bool>(slots, false));
    }
}

size_t
ContinuousScheduler::sessionFor(const Request &r) const
{
    if (r.model.empty())
        return 0;
    for (size_t s = 0; s < sessions_.size(); ++s)
        if (r.model == sessions_[s]->kind())
            return s;
    ECHO_FATAL("request ", r.id, " names model '", r.model,
               "' but no loaded session serves it");
}

size_t
ContinuousScheduler::openLease(int64_t request_id, int64_t pool, int slot)
{
    std::lock_guard<std::mutex> lock(journal_mu_);
    analysis::SlotLease lease;
    lease.request_id = request_id;
    lease.pool = pool;
    lease.slot = slot;
    lease.acquired = pass_;
    lease.released = pass_; // patched by closeLease
    lease.reinit = 1;       // sessions re-init state rows at splice
    journal_.push_back(lease);
    return journal_.size() - 1;
}

void
ContinuousScheduler::closeLease(size_t lease, int64_t released,
                                analysis::LeaseStatus status)
{
    std::lock_guard<std::mutex> lock(journal_mu_);
    journal_[lease].released = released;
    journal_[lease].status = status;
}

void
ContinuousScheduler::resolveTerminal(Request req, RejectReason reason,
                                     double wait_us)
{
    Response resp;
    resp.id = req.id;
    resp.ok = false;
    resp.reject = reason;
    resp.wait_us = wait_us;
    resp.latency_us = elapsedUs(req.enqueued_at, Clock::now());
    resolve_(std::move(resp));
}

void
ContinuousScheduler::cancel(int64_t id)
{
    std::lock_guard<std::mutex> lock(cancel_mu_);
    cancel_requests_.insert(id);
}

void
ContinuousScheduler::run()
{
    static obs::Counter &step_ctr = obs::counter(
        "serve.scheduler.steps", obs::CounterKind::kScheduling);
    static obs::Counter &splice_ctr = obs::counter(
        "serve.scheduler.splices", obs::CounterKind::kScheduling);
    static obs::Counter &recycle_ctr = obs::counter(
        "serve.scheduler.recycled_slots", obs::CounterKind::kScheduling);
    static obs::Counter &evict_ctr = obs::counter(
        "serve.scheduler.evictions", obs::CounterKind::kScheduling);

    std::vector<LaneFinish> finishes;
    for (;;) {
        // Admit everything that has arrived; block only when idle.
        Request incoming;
        while (queue_.tryPop(incoming))
            waiting_.push_back(std::move(incoming));
        if (waiting_.empty() && running_.empty()) {
            if (!queue_.pop(incoming))
                return; // closed and fully drained
            waiting_.push_back(std::move(incoming));
        }

        // Snapshot (don't consume) the cancel set: a cancel may name a
        // request still sitting in the queue — it must survive passes
        // until the id shows up in waiting_/running_.  Ids are erased
        // when their request terminates (terminated_ids below).
        std::unordered_set<int64_t> cancels;
        {
            std::lock_guard<std::mutex> lock(cancel_mu_);
            cancels = cancel_requests_;
        }
        std::vector<int64_t> terminated_ids;
        const Clock::time_point now = Clock::now();

        // Terminal decisions for waiting requests: cancellation beats
        // expiry (the client already gave up).
        for (size_t i = 0; i < waiting_.size();) {
            Request &w = waiting_[i];
            RejectReason reason = RejectReason::kNone;
            if (cancels.count(w.id) != 0)
                reason = RejectReason::kCancelled;
            else if (deadlinePassed(w, now))
                reason = RejectReason::kExpired;
            if (reason == RejectReason::kNone) {
                ++i;
                continue;
            }
            (reason == RejectReason::kCancelled ? cancelled_ : expired_)
                .fetch_add(1, std::memory_order_relaxed);
            const double wait_us = elapsedUs(w.enqueued_at, now);
            terminated_ids.push_back(w.id);
            resolveTerminal(std::move(w), reason, wait_us);
            waiting_.erase(waiting_.begin() + static_cast<long>(i));
        }

        // Evict running occupants that were cancelled or expired.
        // Payloads of every other row are untouched: rows are
        // independent, and the freed slot re-initializes on reuse.
        for (size_t i = 0; i < running_.size();) {
            Running &rr = running_[i];
            RejectReason reason = RejectReason::kNone;
            if (cancels.count(rr.req.id) != 0)
                reason = RejectReason::kCancelled;
            else if (deadlinePassed(rr.req, now))
                reason = RejectReason::kExpired;
            if (reason == RejectReason::kNone) {
                ++i;
                continue;
            }
            sessions_[rr.session]->evict(rr.lane, rr.slot);
            occupant_[rr.session][static_cast<size_t>(rr.lane)]
                     [static_cast<size_t>(rr.slot)] = -1;
            closeLease(rr.lease, pass_,
                       reason == RejectReason::kCancelled
                           ? analysis::LeaseStatus::kCancelled
                           : analysis::LeaseStatus::kExpired);
            (reason == RejectReason::kCancelled ? cancelled_ : expired_)
                .fetch_add(1, std::memory_order_relaxed);
            evict_ctr.add(1);
            terminated_ids.push_back(rr.req.id);
            resolveTerminal(std::move(rr.req), reason, rr.wait_us);
            running_.erase(running_.begin() + static_cast<long>(i));
        }

        // Splice waiting work into free rows: interactive tier first,
        // admission order within a tier (deterministic given arrival).
        std::stable_sort(waiting_.begin(), waiting_.end(),
                         [](const Request &a, const Request &b) {
                             if (a.tier != b.tier)
                                 return a.tier < b.tier;
                             return a.id < b.id;
                         });
        std::vector<Request> direct_items;
        std::vector<Request> still_waiting;
        for (Request &w : waiting_) {
            const size_t s = sessionFor(w);
            const int lane = sessions_[s]->laneOf(w);
            if (lane == InferenceSession::kDirectLane) {
                direct_items.push_back(std::move(w));
                continue;
            }
            auto &rows = occupant_[s][static_cast<size_t>(lane)];
            const auto free_it =
                std::find(rows.begin(), rows.end(), int64_t{-1});
            if (free_it == rows.end()) {
                still_waiting.push_back(std::move(w));
                continue;
            }
            const int slot =
                static_cast<int>(free_it - rows.begin());
            *free_it = w.id;
            const bool used =
                used_[s][static_cast<size_t>(lane)]
                     [static_cast<size_t>(slot)];
            if (used) {
                recycled_.fetch_add(1, std::memory_order_relaxed);
                recycle_ctr.add(1);
            }
            used_[s][static_cast<size_t>(lane)]
                 [static_cast<size_t>(slot)] = true;
            splices_.fetch_add(1, std::memory_order_relaxed);
            splice_ctr.add(1);

            Running rr;
            rr.session = s;
            rr.lane = lane;
            rr.slot = slot;
            rr.wait_us = elapsedUs(w.enqueued_at, now);
            rr.lease = openLease(
                w.id, pool_base_[s] + lane, slot);
            rr.req = w;
            sessions_[s]->splice(lane, slot, std::move(w));
            running_.push_back(std::move(rr));
        }
        waiting_ = std::move(still_waiting);

        // Atomic direct decodes (beam, zero-budget).  Each consumes
        // its own pass number so sequential runs journal as disjoint
        // leases on the session's direct pool.
        for (Request &w : direct_items) {
            const size_t s = sessionFor(w);
            const size_t lease = openLease(
                w.id, pool_base_[s] + sessions_[s]->poolCount() - 1, 0);
            const double wait_us = elapsedUs(w.enqueued_at, now);
            Response resp = sessions_[s]->runDirect(w);
            closeLease(lease, pass_ + 1, analysis::LeaseStatus::kServed);
            ++pass_;
            resp.wait_us = wait_us;
            resp.latency_us = elapsedUs(w.enqueued_at, Clock::now());
            direct_.fetch_add(1, std::memory_order_relaxed);
            served_.fetch_add(1, std::memory_order_relaxed);
            terminated_ids.push_back(resp.id);
            resolve_(std::move(resp));
        }

        // Advance every lane with occupants by one step; recycle the
        // rows whose payload completed.
        bool stepped = false;
        for (size_t s = 0; s < sessions_.size(); ++s) {
            for (int lane = 0; lane < sessions_[s]->numLanes(); ++lane) {
                auto &rows = occupant_[s][static_cast<size_t>(lane)];
                const int64_t live = static_cast<int64_t>(
                    rows.size() -
                    static_cast<size_t>(std::count(rows.begin(),
                                                   rows.end(),
                                                   int64_t{-1})));
                if (live == 0)
                    continue;
                stepped = true;
                stepped_rows_.fetch_add(live,
                                        std::memory_order_relaxed);
                finishes.clear();
                sessions_[s]->stepLane(lane, finishes);
                for (LaneFinish &fin : finishes) {
                    rows[static_cast<size_t>(fin.slot)] = -1;
                    const auto it = std::find_if(
                        running_.begin(), running_.end(),
                        [&](const Running &rr) {
                            return rr.req.id == fin.resp.id;
                        });
                    ECHO_CHECK(it != running_.end(),
                               "lane finished unknown request ",
                               fin.resp.id);
                    closeLease(it->lease, pass_ + 1,
                               analysis::LeaseStatus::kServed);
                    fin.resp.wait_us = it->wait_us;
                    fin.resp.latency_us =
                        elapsedUs(it->req.enqueued_at, Clock::now());
                    served_.fetch_add(1, std::memory_order_relaxed);
                    terminated_ids.push_back(fin.resp.id);
                    resolve_(std::move(fin.resp));
                    running_.erase(it);
                }
            }
        }
        if (stepped) {
            steps_.fetch_add(1, std::memory_order_relaxed);
            step_ctr.add(1);
        }
        if (!terminated_ids.empty()) {
            std::lock_guard<std::mutex> lock(cancel_mu_);
            for (const int64_t id : terminated_ids)
                cancel_requests_.erase(id);
        }
        ++pass_;
    }
}

SchedulerStats
ContinuousScheduler::stats() const
{
    SchedulerStats s;
    s.steps = steps_.load(std::memory_order_relaxed);
    s.stepped_rows = stepped_rows_.load(std::memory_order_relaxed);
    s.splices = splices_.load(std::memory_order_relaxed);
    s.recycled = recycled_.load(std::memory_order_relaxed);
    s.direct = direct_.load(std::memory_order_relaxed);
    s.served = served_.load(std::memory_order_relaxed);
    s.cancelled = cancelled_.load(std::memory_order_relaxed);
    s.expired = expired_.load(std::memory_order_relaxed);
    return s;
}

std::vector<analysis::SlotLease>
ContinuousScheduler::leaseJournal() const
{
    std::lock_guard<std::mutex> lock(journal_mu_);
    return journal_;
}

} // namespace echo::serve
