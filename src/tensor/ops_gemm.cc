/**
 * @file
 * Cache-blocked, panel-packed, register-tiled GEMM, parameterized by a
 * GemmSchedule (see tensor/gemm_schedule.h).
 *
 * The kernel follows the classic GotoBLAS/BLIS decomposition; with the
 * default N-outer order and packed B:
 *
 *   for jc over N in nc columns:           (B panel fits L2/L3)
 *     for pc over K in kc depth:           (packed panels fit cache)
 *       pack B[pc:pc+kc, jc:jc+nc] into nr-wide column micro-panels
 *       for ic over M in mc rows:          (optionally parallel)
 *         pack alpha*A[ic:ic+mc, pc:pc+kc] into mr-tall row panels
 *         for each mr x nr tile: micro-kernel over the panels
 *
 * What the schedule varies: the blocking (mc/kc/nc), the micro-tile
 * (mr x nr from the compiled legal set), the macro loop order (N-outer
 * vs K-outer), whether B is packed or read in place (kDirect — a big
 * win for tiny-M shapes where packing all of B dwarfs the madds), the
 * parallel dimension (row blocks, column blocks for skewed N, or
 * none), and the serial/parallel madds threshold.  All four transpose
 * combinations still route through the same micro-kernels — the
 * transposes are absorbed by the packing loops (which is why kDirect
 * requires a non-transposed B).
 *
 * Determinism and bitwise contract: the micro-kernel LOADS the current
 * C tile into its accumulator before the depth loop and stores it back
 * after, so each C element is one serial sum over K in ascending
 * order — the exact chain of float operations gemmReference() performs.
 * Results are therefore byte-identical to the reference for EVERY
 * legal schedule, every thread count, and every parallelFor chunking
 * (each C element is still produced by exactly one task).  There is
 * deliberately no data-dependent skipping (the seed kernel's
 * `if (av == 0) continue;` made GEMM cost input-dependent).
 *
 * ops::gemm and ops::bmm always run GemmSchedule::fixedDefault(); the
 * other schedules are reached only through gemmWithSchedule and
 * bmmWithSchedule (the contract tests and bench/gemm_autotune).
 * gemmReference() keeps the plain ikj loop as the golden model: tests
 * and bench/gemm_autotune byte-compare every schedule against it.
 */
#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "core/logging.h"
#include "core/thread_pool.h"
#include "tensor/gemm_pack.h"
#include "tensor/gemm_schedule.h"
#include "tensor/ops.h"
#include "tensor/pack_cache.h"
#include "tensor/pack_scratch.h"

#if defined(__GNUC__) || defined(__clang__)
#define ECHO_GEMM_RESTRICT __restrict__
#else
#define ECHO_GEMM_RESTRICT
#endif

namespace echo::ops {

namespace {

/** Logical element A'[i, p] of the [M x K] operand (A' = a or aᵀ). */
inline float
elemA(const float *a, bool trans_a, int64_t m, int64_t k, int64_t i,
      int64_t p)
{
    return trans_a ? a[p * m + i] : a[i * k + p];
}

/** Logical element B'[p, j] of the [K x N] operand (B' = b or bᵀ). */
inline float
elemB(const float *b, bool trans_b, int64_t k, int64_t n, int64_t p,
      int64_t j)
{
    return trans_b ? b[j * k + p] : b[p * n + j];
}

} // namespace

namespace detail {

/**
 * Pack alpha * A'[ic:ic+mc, pc:pc+kc] into mr-tall row micro-panels:
 * panel r holds rows [r*mr, r*mr+mr) depth-major, short tail rows
 * zero-padded so the micro-kernel never branches on the row count.
 */
void
packAPanel(const float *a, bool trans_a, int64_t m, int64_t k,
           int64_t ic, int64_t mc, int64_t pc, int64_t kc, float alpha,
           float *dst, int64_t mr)
{
    for (int64_t ir = 0; ir < mc; ir += mr) {
        const int64_t h = std::min(mr, mc - ir);
        for (int64_t p = 0; p < kc; ++p) {
            for (int64_t i = 0; i < mr; ++i) {
                *dst++ = i < h ? alpha * elemA(a, trans_a, m, k,
                                               ic + ir + i, pc + p)
                               : 0.0f;
            }
        }
    }
}

/**
 * Pack B'[pc:pc+kc, jc:jc+nc] into nr-wide column micro-panels with
 * zero-padded tail columns.
 */
void
packBPanel(const float *b, bool trans_b, int64_t k, int64_t n,
           int64_t pc, int64_t kc, int64_t jc, int64_t nc, float *dst,
           int64_t nr)
{
    for (int64_t jr = 0; jr < nc; jr += nr) {
        const int64_t w = std::min(nr, nc - jr);
        for (int64_t p = 0; p < kc; ++p) {
            for (int64_t j = 0; j < nr; ++j) {
                *dst++ = j < w ? elemB(b, trans_b, k, n, pc + p,
                                       jc + jr + j)
                               : 0.0f;
            }
        }
    }
}

} // namespace detail

namespace {

using detail::packAPanel;
using detail::packBPanel;

/**
 * One j-iteration's worth of FMAs, the micro-tile row dimension
 * unrolled via a fold over constant indices.  The constant acc[Is][j]
 * indexing is what lets the compiler keep the whole accumulator tile
 * in vector registers: an i-LOOP over acc[i][j] (even with constant
 * bounds) spills the tile and runs ~17x slower on GCC (measured; the
 * original fixed kernel used eight named arrays for the same reason).
 *
 * The accumulate is an EXPLICIT std::fma, not `acc += a * b`: under
 * the default -ffp-contract=fast the compiler contracts mul+add into
 * an FMA in some codegen shapes and not others (observed: 1x16 and
 * 2x16 SLP-vectorized tiles came out uncontracted while 8x16 and the
 * reference fused), which silently breaks bitwise identity between
 * schedules.  fma() is a single correctly-rounded IEEE operation, so
 * spelling it out pins every step's rounding no matter how the loop
 * is vectorized or unrolled.  gemmReference() uses the same spelling.
 */
template <int MR, int NR, size_t... Is>
inline void
fmaRows(float (&acc)[MR][NR], const float *ECHO_GEMM_RESTRICT arow,
        float bv, int j, std::index_sequence<Is...>)
{
    ((acc[Is][j] = std::fma(arow[Is], bv, acc[Is][j])), ...);
}

/**
 * C[0:h, 0:w] (+)= Apanel * Bpanel over @p kc depth, packed-B variant.
 * The accumulator tile is INITIALIZED FROM C (zero in the padded
 * lanes) and stored back, so the per-element K-chain continues in
 * source order across kc panels — the bitwise contract.  The j-loop is
 * the single innermost loop — unit-stride, no cross-iteration
 * dependence — which the auto-vectorizer turns into MR independent
 * streams of vector FMAs.
 */
template <int MR, int NR>
void
microKernelPacked(const float *ECHO_GEMM_RESTRICT ap,
                  const float *ECHO_GEMM_RESTRICT bp, int64_t kc,
                  float *ECHO_GEMM_RESTRICT c, int64_t ldc, int64_t h,
                  int64_t w)
{
    float acc[MR][NR];
    for (int i = 0; i < MR; ++i)
        for (int j = 0; j < NR; ++j)
            acc[i][j] = (i < h && j < w) ? c[i * ldc + j] : 0.0f;
    for (int64_t p = 0; p < kc; ++p) {
        const float *ECHO_GEMM_RESTRICT arow = ap + p * MR;
        const float *ECHO_GEMM_RESTRICT brow = bp + p * NR;
        for (int j = 0; j < NR; ++j)
            fmaRows<MR, NR>(acc, arow, brow[j], j,
                            std::make_index_sequence<MR>{});
    }
    for (int64_t i = 0; i < h; ++i) {
        float *crow = c + i * ldc;
        for (int64_t j = 0; j < w; ++j)
            crow[j] = acc[i][j];
    }
}

/**
 * Direct-B variant: reads B rows in place (@p bdir points at
 * B[pc, jc+jr], rows @p ldb apart).  Only legal for a non-transposed
 * B, where rows are unit-stride.  Same load/accumulate/store chain as
 * the packed variant, so bitwise-identical results.
 */
template <int MR, int NR>
void
microKernelDirectB(const float *ECHO_GEMM_RESTRICT ap,
                   const float *ECHO_GEMM_RESTRICT bdir, int64_t ldb,
                   int64_t kc, float *ECHO_GEMM_RESTRICT c, int64_t ldc,
                   int64_t h, int64_t w)
{
    float acc[MR][NR];
    for (int i = 0; i < MR; ++i)
        for (int j = 0; j < NR; ++j)
            acc[i][j] = (i < h && j < w) ? c[i * ldc + j] : 0.0f;
    if (w == NR) {
        for (int64_t p = 0; p < kc; ++p) {
            const float *ECHO_GEMM_RESTRICT arow = ap + p * MR;
            const float *ECHO_GEMM_RESTRICT brow = bdir + p * ldb;
            for (int j = 0; j < NR; ++j)
                fmaRows<MR, NR>(acc, arow, brow[j], j,
                                std::make_index_sequence<MR>{});
        }
    } else {
        // Tail columns: bound the j-loop so no out-of-row reads.
        for (int64_t p = 0; p < kc; ++p) {
            const float *ECHO_GEMM_RESTRICT arow = ap + p * MR;
            const float *ECHO_GEMM_RESTRICT brow = bdir + p * ldb;
            for (int j = 0; j < static_cast<int>(w); ++j)
                fmaRows<MR, NR>(acc, arow, brow[j], j,
                                std::make_index_sequence<MR>{});
        }
    }
    for (int64_t i = 0; i < h; ++i) {
        float *crow = c + i * ldc;
        for (int64_t j = 0; j < w; ++j)
            crow[j] = acc[i][j];
    }
}

using PackedMicroFn = void (*)(const float *, const float *, int64_t,
                               float *, int64_t, int64_t, int64_t);
using DirectMicroFn = void (*)(const float *, const float *, int64_t,
                               int64_t, float *, int64_t, int64_t,
                               int64_t);

/** The compiled micro-tile set; keep in sync with kGemmLegalMr/Nr. */
#define ECHO_GEMM_FOR_EACH_TILE(X)                                     \
    X(1, 8) X(1, 16) X(1, 32) X(2, 8) X(2, 16) X(2, 32) X(4, 8)        \
    X(4, 16) X(4, 32) X(8, 8) X(8, 16) X(8, 32)

PackedMicroFn
packedMicro(int32_t mr, int32_t nr)
{
    switch (mr * 100 + nr) {
#define ECHO_GEMM_CASE(MR, NR)                                         \
    case MR * 100 + NR:                                                \
        return microKernelPacked<MR, NR>;
        ECHO_GEMM_FOR_EACH_TILE(ECHO_GEMM_CASE)
#undef ECHO_GEMM_CASE
    default:
        ECHO_PANIC("no compiled micro-kernel for ", mr, "x", nr);
    }
}

DirectMicroFn
directMicro(int32_t mr, int32_t nr)
{
    switch (mr * 100 + nr) {
#define ECHO_GEMM_CASE(MR, NR)                                         \
    case MR * 100 + NR:                                                \
        return microKernelDirectB<MR, NR>;
        ECHO_GEMM_FOR_EACH_TILE(ECHO_GEMM_CASE)
#undef ECHO_GEMM_CASE
    default:
        ECHO_PANIC("no compiled micro-kernel for ", mr, "x", nr);
    }
}

#undef ECHO_GEMM_FOR_EACH_TILE

/**
 * Blocked GEMM body: C[M x N] += alpha * A' * B' over raw pointers,
 * driven by @p sch.  @p allow_parallel lets bmm() force per-item
 * serial execution when it already parallelizes over the batch.
 * @p a_pack / @p b_pack are optional pre-packed panels from the
 * weight cache (byte-identical to what the packing loops here would
 * produce); when present the corresponding packing pass is skipped.
 */
void
gemmBlocked(const float *a, bool trans_a, const float *b, bool trans_b,
            float *c, int64_t m, int64_t n, int64_t k, float alpha,
            const GemmSchedule &sch, bool allow_parallel,
            const CachedPack &a_pack = {}, const CachedPack &b_pack = {})
{
    if (m <= 0 || n <= 0 || k <= 0)
        return;

    const int64_t mc = sch.mc;
    const int64_t kcb = sch.kc;
    const int64_t ncb = sch.nc;
    const int64_t mr = sch.mr;
    const int64_t nr = sch.nr;
    // Defensive: a transposed B has stride-K rows, which the direct
    // kernel cannot read; legality checks should have caught this.
    const bool direct_b =
        sch.pack_b == GemmPackB::kDirect && !trans_b;
    const PackedMicroFn packed_fn =
        direct_b ? nullptr : packedMicro(sch.mr, sch.nr);
    const DirectMicroFn direct_fn =
        direct_b ? directMicro(sch.mr, sch.nr) : nullptr;

    const int64_t row_blocks = (m + mc - 1) / mc;
    const int64_t col_blocks = (n + ncb - 1) / ncb;

    GemmParallel par = allow_parallel ? sch.parallel : GemmParallel::kNone;
    if (m * n * k < sch.parallel_min_madds)
        par = GemmParallel::kNone;
    if (par == GemmParallel::kRows && row_blocks <= 1)
        par = GemmParallel::kNone;
    if (par == GemmParallel::kCols && col_blocks <= 1)
        par = GemmParallel::kNone;

    const size_t apack_elems =
        a_pack ? 0
               : static_cast<size_t>((mc + mr - 1) / mr * mr * kcb);
    const size_t bpack_elems =
        (direct_b || b_pack)
            ? 0
            : static_cast<size_t>(
                  (std::min(ncb, n) + nr - 1) / nr * nr * kcb);

    // Run row blocks [blk0, blk1) against the (jc, pc) panel.  @p bp
    // is the packed B panel (null for direct-B).
    auto row_range = [&](int64_t jc, int64_t nc_cur, int64_t pc,
                         int64_t kc_cur, const float *bp,
                         int64_t blk0, int64_t blk1, float *apack) {
        const int64_t pb = pc / kcb;
        for (int64_t blk = blk0; blk < blk1; ++blk) {
            const int64_t ic = blk * mc;
            const int64_t mc_cur = std::min(mc, m - ic);
            const float *apanel;
            if (a_pack) {
                apanel = a_pack.data +
                         a_pack.offsets[blk * a_pack.k_blocks + pb];
            } else {
                packAPanel(a, trans_a, m, k, ic, mc_cur, pc, kc_cur,
                           alpha, apack, mr);
                apanel = apack;
            }
            for (int64_t jr = 0; jr < nc_cur; jr += nr) {
                const int64_t w = std::min(nr, nc_cur - jr);
                for (int64_t ir = 0; ir < mc_cur; ir += mr) {
                    const int64_t h = std::min(mr, mc_cur - ir);
                    const float *ap = apanel + (ir / mr) * mr * kc_cur;
                    float *cptr = c + (ic + ir) * n + jc + jr;
                    if (direct_b)
                        direct_fn(ap, b + pc * n + jc + jr, n, kc_cur,
                                  cptr, n, h, w);
                    else
                        packed_fn(ap, bp + (jr / nr) * nr * kc_cur,
                                  kc_cur, cptr, n, h, w);
                }
            }
        }
    };

    // The B panel for (jc block cb, pc block pb): cached bytes when
    // the weight cache served them, freshly packed into @p bpack
    // otherwise (and B itself for direct-B, where row_range reads it
    // in place).
    auto b_panel = [&](int64_t cb, int64_t pb, int64_t jc, int64_t pc,
                       int64_t nc_cur, int64_t kc_cur,
                       float *bpack) -> const float * {
        if (direct_b)
            return nullptr;
        if (b_pack)
            return b_pack.data +
                   b_pack.offsets[cb * b_pack.k_blocks + pb];
        packBPanel(b, trans_b, k, n, pc, kc_cur, jc, nc_cur, bpack,
                   nr);
        return bpack;
    };

    if (par == GemmParallel::kCols) {
        // Disjoint column blocks per task: every C element is still
        // written by exactly one task, and its K-chain order does not
        // depend on the chunking — byte-identical for every thread
        // count.  Each task packs its own panels.
        ThreadPool::global().parallelFor(
            0, col_blocks, 1, [&](int64_t cb0, int64_t cb1) {
                thread_local PackScratch apack_scratch;
                thread_local PackScratch bpack_scratch;
                float *apack = apack_scratch.acquire(apack_elems);
                float *bpack = bpack_scratch.acquire(bpack_elems);
                for (int64_t cb = cb0; cb < cb1; ++cb) {
                    const int64_t jc = cb * ncb;
                    const int64_t nc_cur = std::min(ncb, n - jc);
                    for (int64_t pc = 0; pc < k; pc += kcb) {
                        const int64_t kc_cur = std::min(kcb, k - pc);
                        const float *bp =
                            b_panel(cb, pc / kcb, jc, pc, nc_cur,
                                    kc_cur, bpack);
                        row_range(jc, nc_cur, pc, kc_cur, bp, 0,
                                  row_blocks, apack);
                    }
                }
            });
        return;
    }

    // Serial / row-parallel path: the B pack buffer is per-thread and
    // reused across calls, exactly like the kCols path (it used to be
    // a fresh heap vector every call).
    thread_local PackScratch serial_bpack_scratch;
    float *bpack = serial_bpack_scratch.acquire(bpack_elems);
    auto panel = [&](int64_t jc, int64_t pc) {
        const int64_t nc_cur = std::min(ncb, n - jc);
        const int64_t kc_cur = std::min(kcb, k - pc);
        const float *bp = b_panel(jc / ncb, pc / kcb, jc, pc, nc_cur,
                                  kc_cur, bpack);
        if (par == GemmParallel::kRows) {
            ThreadPool::global().parallelFor(
                0, row_blocks, 1, [&](int64_t blk0, int64_t blk1) {
                    // Per-thread so concurrent row blocks never share
                    // a pack buffer; reused across calls on a thread.
                    thread_local PackScratch apack_scratch;
                    float *apack = apack_scratch.acquire(apack_elems);
                    row_range(jc, nc_cur, pc, kc_cur, bp, blk0, blk1,
                              apack);
                });
        } else {
            thread_local PackScratch apack_scratch;
            float *apack = apack_scratch.acquire(apack_elems);
            row_range(jc, nc_cur, pc, kc_cur, bp, 0, row_blocks,
                      apack);
        }
    };

    if (sch.loop_order == GemmLoopOrder::kNOuter) {
        for (int64_t jc = 0; jc < n; jc += ncb)
            for (int64_t pc = 0; pc < k; pc += kcb)
                panel(jc, pc);
    } else {
        for (int64_t pc = 0; pc < k; pc += kcb)
            for (int64_t jc = 0; jc < n; jc += ncb)
                panel(jc, pc);
    }
}

/**
 * Consult the packed-weight cache for both operands (registered
 * weights only; see tensor/pack_cache.h).  kDirect schedules read B
 * in place, so there is nothing to cache for B there.
 */
void
lookupCachedPacks(const Tensor &a, bool trans_a, const Tensor &b,
                  bool trans_b, int64_t m, int64_t n, int64_t k,
                  float alpha, const GemmSchedule &sch,
                  CachedPack &a_pack, CachedPack &b_pack,
                  CachedPackHold &a_hold, CachedPackHold &b_hold)
{
    (void)n;
    const bool direct_b = sch.pack_b == GemmPackB::kDirect && !trans_b;
    if (!direct_b)
        b_pack = lookupPackedB(b, trans_b, k, n, sch, b_hold);
    a_pack = lookupPackedA(a, trans_a, m, k, alpha, sch, a_hold);
}

/** Shape/consistency checks shared by gemm() and gemmReference(). */
void
checkGemmOperands(const Tensor &a, bool trans_a, const Tensor &b,
                  bool trans_b, int64_t &m, int64_t &n, int64_t &k)
{
    ECHO_REQUIRE(a.shape().ndim() == 2 && b.shape().ndim() == 2,
                 "gemm needs 2-D operands, got ", a.shape().toString(),
                 " and ", b.shape().toString());
    m = trans_a ? a.shape()[1] : a.shape()[0];
    k = trans_a ? a.shape()[0] : a.shape()[1];
    const int64_t kb = trans_b ? b.shape()[1] : b.shape()[0];
    n = trans_b ? b.shape()[0] : b.shape()[1];
    ECHO_REQUIRE(k == kb, "gemm inner dimensions mismatch: ",
                 a.shape().toString(), (trans_a ? "^T" : ""), " * ",
                 b.shape().toString(), (trans_b ? "^T" : ""));
}

} // namespace

const char *
gemmIsaName()
{
#if defined(__AVX512F__)
    return "avx512";
#elif defined(__AVX2__)
    return "avx2";
#elif defined(__SSE2__) || defined(_M_X64)
    return "sse2";
#elif defined(__ARM_NEON)
    return "neon";
#else
    return "scalar";
#endif
}

namespace {

/** The blocked kernel under @p sch, which the caller has checked. */
Tensor
gemmScheduled(const Tensor &a, bool trans_a, const Tensor &b,
              bool trans_b, float alpha, const GemmSchedule &sch)
{
    int64_t m, n, k;
    checkGemmOperands(a, trans_a, b, trans_b, m, n, k);
    CachedPack a_pack, b_pack;
    CachedPackHold a_hold, b_hold;
    lookupCachedPacks(a, trans_a, b, trans_b, m, n, k, alpha, sch,
                      a_pack, b_pack, a_hold, b_hold);
    Tensor c = Tensor::zeros(Shape({m, n}));
    gemmBlocked(a.data(), trans_a, b.data(), trans_b, c.data(), m, n, k,
                alpha, sch, /*allow_parallel=*/true, a_pack, b_pack);
    return c;
}

} // namespace

Tensor
gemm(const Tensor &a, bool trans_a, const Tensor &b, bool trans_b,
     float alpha)
{
    return gemmScheduled(a, trans_a, b, trans_b, alpha,
                         GemmSchedule::fixedDefault());
}

Tensor
gemmWithSchedule(const Tensor &a, bool trans_a, const Tensor &b,
                 bool trans_b, float alpha, const GemmSchedule &sch)
{
    std::string why;
    ECHO_REQUIRE(scheduleLegal(sch, trans_b, &why),
                 "illegal GEMM schedule [", sch.toString(), "]: ", why);
    return gemmScheduled(a, trans_a, b, trans_b, alpha, sch);
}

Tensor
gemmReference(const Tensor &a, bool trans_a, const Tensor &b,
              bool trans_b, float alpha)
{
    int64_t m, n, k;
    checkGemmOperands(a, trans_a, b, trans_b, m, n, k);
    Tensor c = Tensor::zeros(Shape({m, n}));
    const float *pa = a.data();
    const float *pb = b.data();
    for (int64_t i = 0; i < m; ++i) {
        for (int64_t p = 0; p < k; ++p) {
            const float av = alpha * elemA(pa, trans_a, m, k, i, p);
            float *crow = c.data() + i * n;
            // Explicit fma to match the blocked kernel's rounding
            // exactly (see fmaRows).
            for (int64_t j = 0; j < n; ++j)
                crow[j] = std::fma(av, elemB(pb, trans_b, k, n, p, j),
                                   crow[j]);
        }
    }
    return c;
}

Tensor
bmm(const Tensor &a, bool trans_a, const Tensor &b, bool trans_b)
{
    return bmmWithSchedule(a, trans_a, b, trans_b,
                           GemmSchedule::fixedDefault());
}

Tensor
bmmWithSchedule(const Tensor &a, bool trans_a, const Tensor &b,
                bool trans_b, const GemmSchedule &sch)
{
    ECHO_REQUIRE(a.shape().ndim() == 3 && b.shape().ndim() == 3,
                 "bmm needs 3-D operands");
    const int64_t batch = a.shape()[0];
    ECHO_REQUIRE(batch == b.shape()[0], "bmm batch mismatch");
    const int64_t m = trans_a ? a.shape()[2] : a.shape()[1];
    const int64_t k = trans_a ? a.shape()[1] : a.shape()[2];
    const int64_t kb = trans_b ? b.shape()[2] : b.shape()[1];
    const int64_t n = trans_b ? b.shape()[1] : b.shape()[2];
    ECHO_REQUIRE(k == kb, "bmm inner dimensions mismatch");
    std::string why;
    ECHO_REQUIRE(scheduleLegal(sch, trans_b, &why),
                 "illegal GEMM schedule [", sch.toString(), "]: ", why);

    Tensor c = Tensor::zeros(Shape({batch, m, n}));
    const int64_t a_stride = a.shape()[1] * a.shape()[2];
    const int64_t b_stride = b.shape()[1] * b.shape()[2];
    const int64_t c_stride = m * n;

    // Parallelize over the batch when the schedule says so and there
    // are enough items to keep the pool busy; each per-item GEMM then
    // stays single-threaded (nested parallelFor would serialize
    // anyway).  For small batches of large matrices the per-item
    // kernel parallelizes instead.
    const bool batch_parallel =
        sch.batch_parallel != 0 && batch > 1 &&
        batch * m * n * k >= sch.parallel_min_madds;
    auto run_items = [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
            gemmBlocked(a.data() + i * a_stride, trans_a,
                        b.data() + i * b_stride, trans_b,
                        c.data() + i * c_stride, m, n, k, 1.0f, sch,
                        /*allow_parallel=*/!batch_parallel);
        }
    };
    if (batch_parallel)
        ThreadPool::global().parallelFor(0, batch, 1, run_items);
    else
        run_items(0, batch);
    return c;
}

} // namespace echo::ops
