#include "core/stats.h"

#include <algorithm>
#include <cmath>

#include "core/logging.h"

namespace echo {

void
Summary::add(double v)
{
    if (count_ == 0) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
    sum_sq_ += v * v;
}

double
Summary::mean() const
{
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double
Summary::stddev() const
{
    if (count_ < 2)
        return 0.0;
    const double m = mean();
    const double var = sum_sq_ / static_cast<double>(count_) - m * m;
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

double
pearsonCorrelation(const std::vector<double> &xs,
                   const std::vector<double> &ys)
{
    if (xs.size() != ys.size() || xs.size() < 2)
        return 0.0;
    const double n = static_cast<double>(xs.size());
    double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
    for (size_t i = 0; i < xs.size(); ++i) {
        sx += xs[i];
        sy += ys[i];
        sxx += xs[i] * xs[i];
        syy += ys[i] * ys[i];
        sxy += xs[i] * ys[i];
    }
    const double cov = sxy / n - (sx / n) * (sy / n);
    const double vx = sxx / n - (sx / n) * (sx / n);
    const double vy = syy / n - (sy / n) * (sy / n);
    if (vx <= 0.0 || vy <= 0.0)
        return 0.0;
    return cov / std::sqrt(vx * vy);
}

Histogram::Histogram(double lo, double hi, int buckets_per_decade)
    : lo_(lo), per_decade_(buckets_per_decade)
{
    ECHO_REQUIRE(lo > 0.0 && hi > lo && buckets_per_decade > 0,
                 "histogram needs 0 < lo < hi and buckets_per_decade "
                 ">= 1");
    const double decades = std::log10(hi / lo);
    num_log_buckets_ = static_cast<size_t>(
        std::ceil(decades * static_cast<double>(buckets_per_decade)));
    // underflow + log buckets + overflow
    counts_.assign(num_log_buckets_ + 2, 0);
}

size_t
Histogram::bucketIndex(double v) const
{
    if (!(v >= lo_)) // handles v < lo, v <= 0, NaN
        return 0;
    const double pos =
        std::log10(v / lo_) * static_cast<double>(per_decade_);
    const auto i = static_cast<size_t>(pos);
    if (i >= num_log_buckets_)
        return num_log_buckets_ + 1; // overflow
    return i + 1;
}

double
Histogram::bucketLowerBound(size_t i) const
{
    if (i == 0)
        return 0.0;
    const double exponent = static_cast<double>(i - 1) /
                            static_cast<double>(per_decade_);
    return lo_ * std::pow(10.0, exponent);
}

void
Histogram::add(double v)
{
    summary_.add(v);
    ++counts_[bucketIndex(v)];
    if (exact_.size() < kExactCapacity)
        exact_.push_back(v);
}

double
Histogram::percentile(double p) const
{
    const size_t n = count();
    if (n == 0)
        return 0.0;
    p = std::min(std::max(p, 0.0), 100.0);
    // Nearest rank: the k-th smallest with k = ceil(p/100 * n), >= 1.
    const auto rank = static_cast<size_t>(
        std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(n))));

    if (n <= exact_.size()) {
        std::vector<double> sorted(exact_.begin(), exact_.end());
        std::sort(sorted.begin(), sorted.end());
        return sorted[rank - 1];
    }

    // Walk the buckets to the one holding the rank, then interpolate
    // linearly inside it.
    size_t seen = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
        const auto c = static_cast<size_t>(counts_[i]);
        if (seen + c < rank) {
            seen += c;
            continue;
        }
        const double frac =
            c == 0 ? 0.0
                   : (static_cast<double>(rank - seen) - 0.5) /
                         static_cast<double>(c);
        const double lo = i == 0 ? summary_.min() : bucketLowerBound(i);
        const double hi = i + 1 < counts_.size()
                              ? bucketLowerBound(i + 1)
                              : summary_.max();
        const double lo_clamped = std::max(lo, summary_.min());
        const double hi_clamped = std::min(hi, summary_.max());
        if (hi_clamped <= lo_clamped)
            return lo_clamped;
        return lo_clamped + frac * (hi_clamped - lo_clamped);
    }
    return summary_.max();
}

} // namespace echo
