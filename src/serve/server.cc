#include "serve/server.h"

#include <algorithm>

#include "core/logging.h"
#include "obs/counters.h"

namespace echo::serve {

namespace {

size_t
shedLine(const ServerConfig &config)
{
    if (config.batch_admit_fraction >= 1.0)
        return 0; // no tiering
    const double line = config.batch_admit_fraction *
                        static_cast<double>(config.queue_capacity);
    return std::max<size_t>(1, static_cast<size_t>(line));
}

std::vector<std::unique_ptr<InferenceSession>>
singleton(std::unique_ptr<InferenceSession> session)
{
    std::vector<std::unique_ptr<InferenceSession>> sessions;
    sessions.push_back(std::move(session));
    return sessions;
}

std::vector<InferenceSession *>
borrow(const std::vector<std::unique_ptr<InferenceSession>> &sessions)
{
    std::vector<InferenceSession *> borrowed;
    for (const auto &session : sessions)
        borrowed.push_back(session.get());
    return borrowed;
}

} // namespace

Server::Server(std::unique_ptr<InferenceSession> session,
               ServerConfig config)
    : Server(singleton(std::move(session)), config)
{
}

Server::Server(std::vector<std::unique_ptr<InferenceSession>> sessions,
               ServerConfig config)
    : sessions_(std::move(sessions)), config_(config),
      queue_(config_.queue_capacity, shedLine(config_)),
      scheduler_(borrow(sessions_), queue_,
                 [this](Response resp) { resolveResponse(std::move(resp)); })
{
    worker_ = std::thread([this] { scheduler_.run(); });
}

Server::~Server()
{
    stop();
}

Response
Server::rejected(const Request &r, RejectReason reason) const
{
    Response resp;
    resp.id = r.id;
    resp.ok = false;
    resp.reject = reason;
    return resp;
}

std::future<Response>
Server::submit(Request r)
{
    static obs::Counter &accepted = obs::counter(
        "serve.requests.accepted", obs::CounterKind::kScheduling);
    static obs::Counter &rejects = obs::counter(
        "serve.requests.rejected", obs::CounterKind::kScheduling);

    r.id = next_id_.fetch_add(1, std::memory_order_relaxed);
    r.enqueued_at = std::chrono::steady_clock::now();

    std::promise<Response> promise;
    std::future<Response> future = promise.get_future();

    // Route before admission: length limits are per model family.
    const InferenceSession *target = nullptr;
    if (r.model.empty()) {
        target = sessions_.front().get();
    } else {
        for (const auto &session : sessions_)
            if (r.model == session->kind()) {
                target = session.get();
                break;
            }
    }

    RejectReason reason = RejectReason::kNone;
    if (target == nullptr)
        reason = RejectReason::kBadModel;
    else if (r.tokens.empty())
        reason = RejectReason::kEmpty;
    else if (static_cast<int64_t>(r.tokens.size()) > target->maxLength())
        reason = RejectReason::kTooLong;
    else if (std::any_of(r.tokens.begin(), r.tokens.end(),
                         [&](int64_t id) {
                             return id < 0 || id >= target->inputVocab();
                         }))
        reason = RejectReason::kBadToken;

    if (reason == RejectReason::kNone) {
        // Register BEFORE pushing: the worker may complete the request
        // before tryPush returns.
        {
            std::lock_guard<std::mutex> lock(inflight_mu_);
            inflight_.emplace(r.id, std::move(promise));
        }
        const int64_t id = r.id;
        reason = queue_.tryPush(std::move(r));
        if (reason == RejectReason::kNone) {
            accepted.add(1);
            std::lock_guard<std::mutex> lock(stats_mu_);
            ++accepted_;
            return future;
        }
        std::lock_guard<std::mutex> lock(inflight_mu_);
        promise = std::move(inflight_.at(id));
        inflight_.erase(id);
    }

    rejects.add(1);
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++rejected_;
    }
    Request stub;
    stub.id = r.id;
    promise.set_value(rejected(stub, reason));
    return future;
}

bool
Server::cancel(int64_t id)
{
    // Forward only ids still inflight: the scheduler retains a cancel
    // until the id terminates, so a cancel for an already-resolved (or
    // never-admitted) request must not enter its set.
    {
        std::lock_guard<std::mutex> lock(inflight_mu_);
        if (inflight_.find(id) == inflight_.end())
            return false;
    }
    scheduler_.cancel(id);
    return true;
}

void
Server::resolveResponse(Response resp)
{
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        if (resp.ok) {
            ++completed_;
            latency_us_.add(resp.latency_us);
            wait_us_.add(resp.wait_us);
        } else if (resp.reject == RejectReason::kCancelled) {
            ++cancelled_;
        } else if (resp.reject == RejectReason::kExpired) {
            ++expired_;
        }
    }
    std::lock_guard<std::mutex> lock(inflight_mu_);
    auto it = inflight_.find(resp.id);
    ECHO_CHECK(it != inflight_.end(), "response for unknown request ",
               resp.id);
    it->second.set_value(std::move(resp));
    inflight_.erase(it);
}

void
Server::stop()
{
    queue_.close();
    if (worker_.joinable())
        worker_.join();
}

ServerStats
Server::stats() const
{
    std::lock_guard<std::mutex> lock(stats_mu_);
    ServerStats s;
    s.accepted = accepted_;
    s.rejected = rejected_;
    s.completed = completed_;
    s.cancelled = cancelled_;
    s.expired = expired_;
    const SchedulerStats sched = scheduler_.stats();
    s.batches = sched.steps + sched.direct;
    s.mean_batch_requests =
        sched.steps == 0 ? 0.0
                         : static_cast<double>(sched.stepped_rows) /
                               static_cast<double>(sched.steps);
    s.splices = sched.splices;
    s.recycled_slots = sched.recycled;
    s.latency_mean_us = latency_us_.mean();
    s.latency_p50_us = latency_us_.p50();
    s.latency_p95_us = latency_us_.p95();
    s.latency_p99_us = latency_us_.p99();
    s.wait_count = static_cast<int64_t>(wait_us_.count());
    s.wait_mean_us = wait_us_.mean();
    s.wait_p50_us = wait_us_.p50();
    s.wait_p95_us = wait_us_.p95();
    s.wait_p99_us = wait_us_.p99();
    return s;
}

std::vector<analysis::SlotLease>
Server::leaseJournal() const
{
    return scheduler_.leaseJournal();
}

int64_t
Server::journalSlots() const
{
    int64_t slots = 1;
    for (const auto &session : sessions_)
        slots = std::max(slots, session->config().slots);
    return slots;
}

} // namespace echo::serve
