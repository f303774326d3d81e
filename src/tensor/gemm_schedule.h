/**
 * @file
 * GEMM schedules: the parameter space of the blocked kernel.
 *
 * A GemmSchedule captures everything the blocked kernel would
 * otherwise hard code: cache blocking (mc/kc/nc), the register
 * micro-tile (mr x nr, from a small legal set with a compiled kernel
 * per pair), the packing strategy for B (packed micro-panels vs
 * reading B in place), the macro loop order, which dimension to
 * parallelize (row blocks, column blocks, or the bmm batch), and the
 * madds threshold below which the kernel stays serial.
 *
 * ops::gemm and ops::bmm always run GemmSchedule::fixedDefault().
 * Every other legal schedule is reachable only through
 * gemmWithSchedule / bmmWithSchedule: the contract tests draw from the
 * whole space, and bench/gemm_autotune sweeps it (tune/search_space.h,
 * tune/measure.h) to measure what a shape-specialized schedule would
 * buy over the default.
 *
 * Bitwise contract: every legal schedule produces output BYTE-IDENTICAL
 * to gemmReference().  The micro-kernel loads the current C tile into
 * its accumulator before the depth loop and stores it back after, so
 * each C element is one serial sum over K in ascending order — the
 * same chain of float operations as the reference ikj loop, regardless
 * of where kc panel boundaries fall, which micro-tile computes the
 * element, or which thread ran it.  A schedule can therefore change
 * only speed, never results, and results stay byte-identical across
 * thread counts AND across schedule choices.
 */
#ifndef ECHO_TENSOR_GEMM_SCHEDULE_H
#define ECHO_TENSOR_GEMM_SCHEDULE_H

#include <cstdint>
#include <string>

namespace echo::ops {

/** Order of the two macro loops around the packed panel body. */
enum class GemmLoopOrder : uint8_t {
    kNOuter = 0, ///< jc over N outermost, pc over K inner (GotoBLAS)
    kKOuter = 1, ///< pc over K outermost, jc over N inner
};

/** How the B operand reaches the micro-kernel. */
enum class GemmPackB : uint8_t {
    kPacked = 0, ///< kNr-wide zero-padded micro-panels (the default)
    /** Read B in place (unit-stride rows).  Skips the O(K*N) packing
     *  pass — a large win for tiny-M shapes (per-step decode) where
     *  packing all of B dwarfs the useful madds.  Legal only when B is
     *  not transposed (a transposed B has stride-K rows). */
    kDirect = 1,
};

/** Which dimension the kernel splits across the thread pool. */
enum class GemmParallel : uint8_t {
    kNone = 0, ///< always serial
    kRows = 1, ///< split M row blocks (the default)
    /** Split N column blocks — the only useful axis for skewed shapes
     *  like the vocab projection (M=32, N=10000) whose single row
     *  block used to run serial. */
    kCols = 2,
};

/**
 * One point in the GEMM schedule space.  The defaults are the schedule
 * ops::gemm runs (64/256/512 blocking, 8x16 micro-tile, packed B,
 * N-outer, row-parallel above 2^17 madds).
 */
struct GemmSchedule
{
    /** Cache blocking: row block, depth panel, column panel. */
    int32_t mc = 64;
    int32_t kc = 256;
    int32_t nc = 512;
    /** Register micro-tile; (mr, nr) must be in the legal set. */
    int32_t mr = 8;
    int32_t nr = 16;
    GemmLoopOrder loop_order = GemmLoopOrder::kNOuter;
    GemmPackB pack_b = GemmPackB::kPacked;
    GemmParallel parallel = GemmParallel::kRows;
    /** bmm: parallelize over the batch (per-item GEMMs serial) when
     *  the whole product clears the threshold. */
    uint8_t batch_parallel = 1;
    /** Products below this many madds stay serial, so tiny per-step
     *  decode GEMMs need not pay dispatch overhead. */
    int64_t parallel_min_madds = int64_t(1) << 17;

    /** The schedule ops::gemm/bmm run (always a search candidate). */
    static GemmSchedule fixedDefault() { return GemmSchedule{}; }

    /** Compact "mc/kc/nc mr x nr ..." form for logs and bench rows. */
    std::string toString() const;

    friend bool operator==(const GemmSchedule &,
                           const GemmSchedule &) = default;
};

/** Micro-tile rows the kernel is compiled for. */
constexpr int32_t kGemmLegalMr[] = {1, 2, 4, 8};
/** Micro-tile columns the kernel is compiled for. */
constexpr int32_t kGemmLegalNr[] = {8, 16, 32};

/** Upper bounds keeping pack buffers and blocks sane. */
constexpr int32_t kGemmMaxMc = 512;
constexpr int32_t kGemmMaxKc = 1024;
constexpr int32_t kGemmMaxNc = 4096;

/**
 * Is @p s executable for an operand with @p trans_b?  Checks the
 * micro-tile against the compiled legal set, divisibility (mc % mr,
 * nc % nr), positive bounded blocking, and that kDirect is not asked
 * to read a transposed B.  On failure @p why (if given) names the
 * violated rule.
 */
bool scheduleLegal(const GemmSchedule &s, bool trans_b,
                   std::string *why = nullptr);

/**
 * One GEMM geometry plus the thread count it runs under (the best
 * schedule at 1 thread and at 8 differ) — the key the schedule search
 * space is enumerated and measured for.
 */
struct GemmKey
{
    int64_t m = 0;
    int64_t n = 0;
    int64_t k = 0;
    bool trans_a = false;
    bool trans_b = false;
    int threads = 1;

    friend bool operator==(const GemmKey &, const GemmKey &) = default;

    std::string toString() const;
};

/**
 * Name of the SIMD ISA the GEMM kernel was compiled for ("avx512",
 * "avx2", "sse2", "neon", or "scalar").  Defined in ops_gemm.cc so the
 * answer reflects the kernel's actual compile flags (-march=native
 * applies to that TU only).
 */
const char *gemmIsaName();

} // namespace echo::ops

#endif // ECHO_TENSOR_GEMM_SCHEDULE_H
