/**
 * @file
 * Candidate enumeration and the closed-form cost proxy (see header).
 */
#include "tune/search_space.h"

#include <algorithm>
#include <cmath>

namespace echo::tune {

namespace {

/** Cache capacities the residency terms are scored against.  These are
 *  deliberately conservative round numbers, not probed: the cost model
 *  only ranks candidates, and measurement decides among the survivors. */
constexpr double kL1Bytes = 32.0 * 1024;
constexpr double kL2Bytes = 512.0 * 1024;

int64_t
roundUp(int64_t v, int64_t to)
{
    return (v + to - 1) / to * to;
}

/** Blocking values tried per dimension (filtered for legality). */
constexpr int32_t kMcChoices[] = {8, 16, 32, 64, 128, 256};
constexpr int32_t kKcChoices[] = {64, 128, 256, 512, 1024};
constexpr int32_t kNcChoices[] = {128, 256, 512, 1024, 2048};
constexpr int64_t kMinMaddsChoices[] = {0, int64_t(1) << 14,
                                        int64_t(1) << 17,
                                        int64_t(1) << 20};

/**
 * The block sizes worth trying for one dimension: every preset choice
 * that is a legal multiple of @p tile and does NOT already cover the
 * padded extent, plus exactly one covering block (the padded extent
 * itself, clamped to @p max) — blocks past the covering one change
 * nothing, so enumerating them would only duplicate schedules.
 */
std::vector<int32_t>
blockChoices(const int32_t *choices, size_t n, int32_t tile,
             int64_t extent, int32_t max)
{
    const int64_t needed =
        std::min<int64_t>(roundUp(extent, tile), max / tile * tile);
    std::vector<int32_t> out;
    for (size_t i = 0; i < n; ++i) {
        const int32_t c = choices[i];
        if (c < tile || c % tile != 0 || c > max)
            continue;
        if (c < needed)
            out.push_back(c);
    }
    out.push_back(static_cast<int32_t>(needed));
    return out;
}

} // namespace

double
modelScheduleCost(const ops::GemmKey &key, const ops::GemmSchedule &s)
{
    const double m = static_cast<double>(key.m);
    const double n = static_cast<double>(key.n);
    const double k = static_cast<double>(key.k);

    // Padded madds: the micro-kernel always computes full mr x nr
    // tiles, so tail rows/columns burn FMAs on zero lanes.
    const double m_pad = static_cast<double>(roundUp(key.m, s.mr));
    const double n_pad = static_cast<double>(roundUp(key.n, s.nr));
    const double madds = m_pad * n_pad * k;

    // Per-madd throughput of the micro-tile: wider tiles amortize the
    // per-panel loads better, but a tile whose accumulator exceeds the
    // register file spills.  The shape of this term comes from the
    // micro-kernel shootout (mr*nr in [64, 256] floats is the sweet
    // spot for the compiled kernels; 1-wide rows are load-bound).
    const double tile = static_cast<double>(s.mr) * s.nr;
    double per_madd = 1.0;
    if (tile < 64.0)
        per_madd += (64.0 - tile) / 64.0; // under-unrolled: load-bound
    if (tile > 256.0)
        per_madd += (tile - 256.0) / 256.0; // spills accumulators
    if (s.mr == 1)
        per_madd += 0.5; // single-row FMAs cannot dual-issue

    // Packing traffic, in touched floats.  A is repacked once per jc
    // column panel (N-outer) or once per pc panel pass (K-outer); B is
    // packed once per (pc, jc) panel, or not at all when read direct.
    const double jc_passes = std::ceil(n / s.nc);
    const double a_pack = m_pad * k * jc_passes;
    const double b_pack =
        (s.pack_b == ops::GemmPackB::kPacked) ? n_pad * k : 0.0;
    // Direct B rereads unpacked rows; charge a mild locality penalty
    // that grows when the streamed row set falls out of L2.
    const double b_direct_penalty =
        (s.pack_b == ops::GemmPackB::kDirect)
            ? 0.1 * n * k *
                  std::max(1.0, (n * 4.0) / kL2Bytes)
            : 0.0;

    // Cache residency: the packed A block (mc x kc) should sit in L2,
    // a B micro-panel (kc x nr) in L1.
    double residency = 1.0;
    const double a_block_bytes = double(s.mc) * s.kc * 4.0;
    if (a_block_bytes > kL2Bytes)
        residency += a_block_bytes / kL2Bytes - 1.0;
    const double b_panel_bytes = double(s.kc) * s.nr * 4.0;
    if (b_panel_bytes > kL1Bytes)
        residency += 0.25 * (b_panel_bytes / kL1Bytes - 1.0);
    // K-outer revisits every C tile once per pc panel: charge the
    // extra C traffic (each revisit reloads and restores the tile).
    const double k_passes = std::ceil(k / s.kc);
    const double c_traffic =
        m_pad * n_pad * (s.loop_order == ops::GemmLoopOrder::kKOuter
                             ? k_passes
                             : jc_passes);

    // Parallel efficiency: a split only helps if it yields at least
    // one block per worker on the axis it cuts, and only applies when
    // the product clears the serial threshold.
    double workers = 1.0;
    if (s.parallel != ops::GemmParallel::kNone && key.threads > 1 &&
        m * n * k >= static_cast<double>(s.parallel_min_madds)) {
        const double blocks =
            (s.parallel == ops::GemmParallel::kRows)
                ? std::ceil(m / s.mc)
                : std::ceil(n / s.nc);
        workers = std::min(static_cast<double>(key.threads),
                           std::max(1.0, blocks));
    }

    const double compute = madds * per_madd * residency / workers;
    const double traffic =
        2.0 * (a_pack + b_pack + b_direct_penalty + c_traffic);
    return compute + traffic;
}

std::vector<ScoredSchedule>
enumerateCandidates(const ops::GemmKey &key, int max_candidates)
{
    std::vector<ScoredSchedule> scored;
    for (int32_t mr : ops::kGemmLegalMr)
        for (int32_t nr : ops::kGemmLegalNr)
            for (int32_t mc :
                 blockChoices(kMcChoices, std::size(kMcChoices), mr,
                              key.m, ops::kGemmMaxMc)) {
                for (int32_t kc :
                     blockChoices(kKcChoices, std::size(kKcChoices), 1,
                                  key.k, ops::kGemmMaxKc)) {
                    for (int32_t nc : blockChoices(
                             kNcChoices, std::size(kNcChoices), nr,
                             key.n, ops::kGemmMaxNc)) {
                        ops::GemmSchedule s;
                        s.mc = mc;
                        s.kc = kc;
                        s.nc = nc;
                        s.mr = mr;
                        s.nr = nr;
                        for (int order = 0; order < 2; ++order) {
                            s.loop_order =
                                static_cast<ops::GemmLoopOrder>(order);
                            for (int pack = 0; pack < 2; ++pack) {
                                s.pack_b =
                                    static_cast<ops::GemmPackB>(pack);
                                if (s.pack_b == ops::GemmPackB::kDirect &&
                                    key.trans_b)
                                    continue;
                                const int max_par =
                                    key.threads > 1 ? 2 : 0;
                                for (int par = 0; par <= max_par;
                                     ++par) {
                                    s.parallel = static_cast<
                                        ops::GemmParallel>(par);
                                    s.parallel_min_madds =
                                        s.parallel ==
                                                ops::GemmParallel::kNone
                                            ? 0
                                            : kMinMaddsChoices[2];
                                    if (!ops::scheduleLegal(
                                            s, key.trans_b))
                                        continue;
                                    scored.push_back(
                                        {s, modelScheduleCost(key, s)});
                                }
                            }
                        }
                    }
                }
            }

    std::stable_sort(scored.begin(), scored.end(),
                     [](const ScoredSchedule &a, const ScoredSchedule &b) {
                         return a.cost < b.cost;
                     });
    if (static_cast<int>(scored.size()) > max_candidates)
        scored.resize(static_cast<size_t>(max_candidates));

    // The fixed default is always measured: a search must never pick
    // something worse than the default because the cost model pruned
    // the baseline away.
    const ops::GemmSchedule fixed = ops::GemmSchedule::fixedDefault();
    const bool have_fixed =
        std::any_of(scored.begin(), scored.end(),
                    [&fixed](const ScoredSchedule &c) {
                        return c.schedule == fixed;
                    });
    if (!have_fixed)
        scored.push_back({fixed, modelScheduleCost(key, fixed)});
    return scored;
}

ops::GemmSchedule
randomLegalSchedule(Rng &rng, bool trans_b, int threads)
{
    ops::GemmSchedule s;
    s.mr = ops::kGemmLegalMr[rng.uniformInt(std::size(ops::kGemmLegalMr))];
    s.nr = ops::kGemmLegalNr[rng.uniformInt(std::size(ops::kGemmLegalNr))];
    // mc: random multiple of mr in [mr, kGemmMaxMc].
    s.mc = s.mr * static_cast<int32_t>(
                      1 + rng.uniformInt(
                              static_cast<uint64_t>(ops::kGemmMaxMc / s.mr)));
    s.nc = s.nr * static_cast<int32_t>(
                      1 + rng.uniformInt(
                              static_cast<uint64_t>(ops::kGemmMaxNc / s.nr)));
    s.kc = static_cast<int32_t>(1 + rng.uniformInt(ops::kGemmMaxKc));
    s.loop_order = static_cast<ops::GemmLoopOrder>(rng.uniformInt(2));
    s.pack_b = trans_b ? ops::GemmPackB::kPacked
                       : static_cast<ops::GemmPackB>(rng.uniformInt(2));
    s.parallel = static_cast<ops::GemmParallel>(rng.uniformInt(3));
    s.batch_parallel = static_cast<uint8_t>(rng.uniformInt(2));
    // Half the draws zero the serial threshold so small fuzz shapes
    // actually take the parallel paths.
    s.parallel_min_madds =
        rng.uniformInt(2) == 0 ? 0 : (int64_t(1) << 17);
    (void)threads;
    return s;
}

} // namespace echo::tune
