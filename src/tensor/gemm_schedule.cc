/**
 * @file
 * Schedule legality and printing (see gemm_schedule.h for the
 * contract).
 */
#include "tensor/gemm_schedule.h"

#include <algorithm>
#include <sstream>

namespace echo::ops {

namespace {

bool
inSet(int32_t v, const int32_t *set, size_t n)
{
    return std::find(set, set + n, v) != set + n;
}

} // namespace

std::string
GemmSchedule::toString() const
{
    std::ostringstream os;
    os << mc << "/" << kc << "/" << nc << " " << mr << "x" << nr
       << (loop_order == GemmLoopOrder::kNOuter ? " Nouter" : " Kouter")
       << (pack_b == GemmPackB::kPacked ? " packB" : " directB")
       << (parallel == GemmParallel::kNone
               ? " serial"
               : parallel == GemmParallel::kRows ? " par-rows"
                                                 : " par-cols")
       << (batch_parallel ? " par-batch" : " seq-batch") << " minmadds="
       << parallel_min_madds;
    return os.str();
}

std::string
GemmKey::toString() const
{
    std::ostringstream os;
    os << m << "x" << n << "x" << k << " " << (trans_a ? "T" : "N")
       << (trans_b ? "T" : "N") << " t" << threads;
    return os.str();
}

bool
scheduleLegal(const GemmSchedule &s, bool trans_b, std::string *why)
{
    auto fail = [why](const char *reason) {
        if (why)
            *why = reason;
        return false;
    };
    if (!inSet(s.mr, kGemmLegalMr, std::size(kGemmLegalMr)))
        return fail("mr not in the compiled micro-tile set");
    if (!inSet(s.nr, kGemmLegalNr, std::size(kGemmLegalNr)))
        return fail("nr not in the compiled micro-tile set");
    if (s.mc < s.mr || s.mc > kGemmMaxMc || s.mc % s.mr != 0)
        return fail("mc must be a multiple of mr in [mr, 512]");
    if (s.nc < s.nr || s.nc > kGemmMaxNc || s.nc % s.nr != 0)
        return fail("nc must be a multiple of nr in [nr, 4096]");
    if (s.kc < 1 || s.kc > kGemmMaxKc)
        return fail("kc must be in [1, 1024]");
    if (s.pack_b == GemmPackB::kDirect && trans_b)
        return fail("directB is illegal for a transposed B "
                    "(stride-K rows)");
    if (s.parallel > GemmParallel::kCols)
        return fail("unknown parallel dimension");
    if (s.loop_order > GemmLoopOrder::kKOuter)
        return fail("unknown loop order");
    if (s.parallel_min_madds < 0)
        return fail("parallel_min_madds must be >= 0");
    return true;
}

} // namespace echo::ops
