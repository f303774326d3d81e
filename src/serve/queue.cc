#include "serve/queue.h"

#include "obs/counters.h"
#include "obs/trace.h"

namespace echo::serve {

const char *
rejectReasonName(RejectReason reason)
{
    switch (reason) {
      case RejectReason::kNone:
        return "none";
      case RejectReason::kQueueFull:
        return "queue-full";
      case RejectReason::kOverloaded:
        return "overloaded";
      case RejectReason::kTooLong:
        return "too-long";
      case RejectReason::kEmpty:
        return "empty";
      case RejectReason::kBadToken:
        return "bad-token";
      case RejectReason::kBadModel:
        return "bad-model";
      case RejectReason::kShutdown:
        return "shutdown";
      case RejectReason::kCancelled:
        return "cancelled";
      case RejectReason::kExpired:
        return "deadline-expired";
    }
    return "?";
}

RequestQueue::RequestQueue(size_t capacity, size_t batch_capacity)
    : capacity_(capacity),
      batch_capacity_(batch_capacity == 0 ? capacity : batch_capacity)
{
}

size_t
RequestQueue::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
}

RejectReason
RequestQueue::tryPush(Request r)
{
    // Admission outcome depends on queue timing, so the counters are
    // scheduling-class.
    static obs::Counter &pushed =
        obs::counter("serve.queue.pushed", obs::CounterKind::kScheduling);
    static obs::Counter &full = obs::counter(
        "serve.queue.reject_full", obs::CounterKind::kScheduling);
    static obs::Counter &shut = obs::counter(
        "serve.queue.reject_shutdown", obs::CounterKind::kScheduling);
    static obs::Counter &shed = obs::counter(
        "serve.queue.reject_overloaded", obs::CounterKind::kScheduling);

    {
        std::lock_guard<std::mutex> lock(mu_);
        if (closed_) {
            shut.add(1);
            return RejectReason::kShutdown;
        }
        if (items_.size() >= capacity_) {
            full.add(1);
            return RejectReason::kQueueFull;
        }
        // SLO-tiered admission: batch-tier traffic sheds at its own
        // lower line so a burst cannot starve interactive requests of
        // the remaining queue headroom.
        if (r.tier == Tier::kBatch && items_.size() >= batch_capacity_) {
            shed.add(1);
            return RejectReason::kOverloaded;
        }
        items_.push_back(std::move(r));
        if (obs::traceEnabled())
            obs::counterSample("serve", "serve.queue.depth",
                               static_cast<int64_t>(items_.size()));
    }
    pushed.add(1);
    cv_.notify_one();
    return RejectReason::kNone;
}

bool
RequestQueue::pop(Request &out)
{
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty())
        return false; // closed and drained
    out = std::move(items_.front());
    items_.pop_front();
    return true;
}

bool
RequestQueue::tryPop(Request &out)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.empty())
        return false;
    out = std::move(items_.front());
    items_.pop_front();
    return true;
}

void
RequestQueue::close()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        closed_ = true;
    }
    cv_.notify_all();
}

bool
RequestQueue::closed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
}

} // namespace echo::serve
