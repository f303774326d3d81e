/**
 * @file
 * Persistent packed-weight cache for the blocked GEMM.
 *
 * Training and serving run the same schedule thousands of times, and
 * every GEMM re-packs the SAME weight panels on every call of every
 * time step.  This cache packs a weight operand's A/B panels once per
 * (storage version, blocking, transpose) and serves the packed bytes
 * on every later call.
 *
 * Contract:
 *
 *  - Only REGISTERED tensors are cached.  Call registerPackableTensor
 *    on weights (models::feedParams and serve checkpoint load do);
 *    activations never register, so they never pollute the cache.
 *  - Registration is keyed by the tensor's data pointer and validated
 *    against its storage owner (weak_ptr), so a heap address reused by
 *    an unrelated tensor can never serve stale panels.
 *  - In-place updates MUST bump the version (train's optimizers do
 *    after every step); packs of older versions are dropped.
 *  - Cached panels are built by the same packing routines the kernel
 *    uses (tensor/gemm_pack.h), so results stay byte-identical to the
 *    uncached path for every schedule and thread count.
 *  - Resident bytes are capped (ECHO_PACK_CACHE_CAP_MB, default 512);
 *    entries that would exceed the cap are rejected, not evicted —
 *    steady-state workloads have a fixed working set, so an entry that
 *    fits once fits forever and hit rate reaches 100% after the first
 *    iteration.
 *
 * Counters: pack_cache.hit / .miss / .bytes (bytes ever packed;
 * kScheduling — schedules, and therefore panel layouts, depend on the
 * thread count).
 */
#ifndef ECHO_TENSOR_PACK_CACHE_H
#define ECHO_TENSOR_PACK_CACHE_H

#include <cstdint>
#include <memory>

#include "tensor/gemm_schedule.h"
#include "tensor/tensor.h"

namespace echo::ops {

/**
 * Mark @p t's storage as a cacheable GEMM operand.  Idempotent: a
 * re-registration of the same storage keeps its version; a new tensor
 * at a reused address resets it.
 */
void registerPackableTensor(const Tensor &t);

/**
 * Record an in-place update of @p t: bumps the storage version and
 * drops every cached pack built from the old contents.  A no-op for
 * unregistered tensors.
 */
void bumpTensorVersion(const Tensor &t);

/** A borrowed view of one cached pack (null data when absent). */
struct CachedPack
{
    const float *data = nullptr;
    /** Panel start offsets, indexed [outer_block * k_blocks + k_block]
     *  (outer = jc block for B, ic block for A; independent of the
     *  schedule's macro loop order). */
    const int64_t *offsets = nullptr;
    int64_t k_blocks = 0;

    explicit operator bool() const { return data != nullptr; }
};

/** Keep-alive for a CachedPack across one GEMM call. */
using CachedPackHold = std::shared_ptr<const void>;

/**
 * The packed-B panels for registered operand @p b under @p sch
 * (building them on first use), or a null pack when @p b is not
 * registered / the entry was rejected by the byte cap.  @p hold keeps
 * the pack alive for the duration of the call.
 */
CachedPack lookupPackedB(const Tensor &b, bool trans_b, int64_t k,
                         int64_t n, const GemmSchedule &sch,
                         CachedPackHold &hold);

/** Packed-A counterpart (alpha is folded into the panels, so it keys
 *  the entry). */
CachedPack lookupPackedA(const Tensor &a, bool trans_a, int64_t m,
                         int64_t k, float alpha,
                         const GemmSchedule &sch, CachedPackHold &hold);

/** Cache observability (tests, bench, echo-lint). */
struct PackCacheStats
{
    int64_t entries = 0;
    int64_t resident_bytes = 0;
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t rejects = 0;
    int64_t invalidations = 0;
};
PackCacheStats packCacheStats();

/** Drop every entry and registration (tests). */
void clearPackCacheForTest();

} // namespace echo::ops

#endif // ECHO_TENSOR_PACK_CACHE_H
