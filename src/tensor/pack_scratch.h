/**
 * @file
 * Reusable pack-buffer scratch for the blocked GEMM.
 *
 * The GEMM packs A/B panels into per-thread buffers.  Naive
 * thread_local vectors have two failure modes this class fixes:
 *
 *  1. they used to be re-allocated per call on some paths (the serial
 *     bpack was a fresh std::vector every gemm), and
 *  2. they only ever grew: one huge call left every thread holding the
 *     high-water buffer forever.
 *
 * acquire() returns a buffer of at least the requested element count,
 * reusing the existing allocation when it fits.  When the buffer has
 * been oversized by more than kShrinkFactor for a streak of
 * consecutive acquires it shrinks to the LARGEST request of that
 * streak (the recent working set's high-water; shrinking to the
 * current request would re-grow for the next medium shape).
 *
 * The streak length is adaptive.  A periodic workload — many small
 * packs then one burst per training iteration — has NO stable
 * capacity under a fixed streak: a buffer big enough for the burst
 * looks oversized for a whole streak of small packs, shrinks, and the
 * next burst grows it right back, every iteration.  So a grow that
 * lands within one streak window of a shrink marks that shrink
 * premature and doubles the required streak (capped at
 * kShrinkStreakMax); after at most log2(cap) wasted cycles the window
 * outlasts the workload period and the buffer settles at its
 * high-water.  Shrinks that survive kShrinkValidateFactor windows
 * keep the current streak requirement.
 *
 * Every (re)allocation ticks `gemm.pack_scratch_bytes` so pack-buffer
 * churn is visible in counter snapshots.
 */
#ifndef ECHO_TENSOR_PACK_SCRATCH_H
#define ECHO_TENSOR_PACK_SCRATCH_H

#include <algorithm>
#include <cstddef>
#include <vector>

#include "obs/counters.h"

namespace echo::ops {

/** One thread's reusable pack buffer (see file comment). */
class PackScratch
{
  public:
    /** Capacity ratio beyond which the buffer counts as oversized. */
    static constexpr size_t kShrinkFactor = 4;
    /** Initial consecutive-oversized-acquire count before shrinking. */
    static constexpr int kShrinkStreak = 16;
    /** Ceiling for the adaptive streak requirement (see file comment). */
    static constexpr int kShrinkStreakMax = 1024;
    /** A shrink is validated after this many streak windows pass
     *  without a regrow (the workload's burst can trail the shrink by
     *  more than one window). */
    static constexpr int kShrinkValidateFactor = 4;

    /** A buffer with room for @p elems floats (contents unspecified). */
    float *
    acquire(size_t elems)
    {
        if (elems == 0)
            return buf_.empty() ? nullptr : buf_.data();
        // A shrink that goes unchallenged for several streak windows
        // is validated; stop watching for a premature regrow.
        if (since_shrink_ >= 0 &&
            ++since_shrink_ > kShrinkValidateFactor * shrink_streak_)
            since_shrink_ = -1;
        if (elems > buf_.capacity()) {
            if (since_shrink_ >= 0) {
                // Regrew within one window of shrinking: the workload
                // still needs the capacity we just dropped (a periodic
                // burst).  Back off so the next shrink must outlast
                // the period.
                shrink_streak_ =
                    std::min(shrink_streak_ * 2, kShrinkStreakMax);
                since_shrink_ = -1;
            }
            reallocTo(elems);
        } else if (buf_.capacity() > elems * kShrinkFactor) {
            if (elems > streak_max_)
                streak_max_ = elems;
            if (++oversized_streak_ >= shrink_streak_) {
                reallocTo(streak_max_);
                since_shrink_ = 0;
            }
        } else {
            oversized_streak_ = 0;
            streak_max_ = 0;
        }
        if (buf_.size() < elems)
            buf_.resize(elems);
        return buf_.data();
    }

    /** Current capacity in floats (for tests / diagnostics). */
    size_t capacityElems() const { return buf_.capacity(); }

  private:
    void
    reallocTo(size_t elems)
    {
        std::vector<float>(elems).swap(buf_);
        oversized_streak_ = 0;
        streak_max_ = 0;
        static obs::Counter &c_bytes = obs::counter(
            "gemm.pack_scratch_bytes", obs::CounterKind::kScheduling);
        c_bytes.add(static_cast<int64_t>(buf_.capacity() *
                                         sizeof(float)));
    }

    std::vector<float> buf_;
    int oversized_streak_ = 0;
    size_t streak_max_ = 0;
    int shrink_streak_ = kShrinkStreak;
    int since_shrink_ = -1; ///< acquires since last shrink; -1 = none pending

};

} // namespace echo::ops

#endif // ECHO_TENSOR_PACK_SCRATCH_H
