/**
 * @file
 * Bounded MPMC request queue with admission control.
 *
 * Producers (client threads calling Server::submit) tryPush and are
 * told synchronously when the queue is full — backpressure is a
 * reject-with-reason, never a blocking producer.  The consumer (the
 * scheduler) drains with tryPop between step passes and blocks in pop
 * only when it has nothing else to do.
 *
 * close() makes every subsequent tryPush fail with kShutdown and wakes
 * all waiting consumers; pop() keeps draining what was admitted before
 * the close, so no accepted request is ever dropped.
 */
#ifndef ECHO_SERVE_QUEUE_H
#define ECHO_SERVE_QUEUE_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>

#include "serve/request.h"

namespace echo::serve {

/** Bounded FIFO of admitted requests; see the file comment. */
class RequestQueue
{
  public:
    /**
     * @p batch_capacity is the SLO shed line: batch-tier requests are
     * refused (kOverloaded) once the queue holds that many items, so
     * the headroom up to @p capacity stays reserved for interactive
     * traffic.  0 means no tiering (shed line == capacity).
     */
    explicit RequestQueue(size_t capacity, size_t batch_capacity = 0);

    size_t capacity() const { return capacity_; }
    size_t batchCapacity() const { return batch_capacity_; }

    /** Current depth (racy snapshot; for tests and counters). */
    size_t size() const;

    /**
     * Admit @p r or refuse immediately: kQueueFull at capacity,
     * kOverloaded for batch-tier pushes past the shed line, kShutdown
     * after close().  Never blocks.
     */
    RejectReason tryPush(Request r);

    /**
     * Pop the oldest request, blocking while the queue is open and
     * empty.  Returns false only when the queue is closed AND fully
     * drained.
     */
    bool pop(Request &out);

    /** Pop without blocking; false when empty. */
    bool tryPop(Request &out);

    /** Stop admitting; wake every waiter.  Idempotent. */
    void close();

    bool closed() const;

  private:
    const size_t capacity_;
    const size_t batch_capacity_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<Request> items_;
    bool closed_ = false;
};

} // namespace echo::serve

#endif // ECHO_SERVE_QUEUE_H
