/**
 * @file
 * Small statistics helpers shared by the evaluation harnesses: running
 * summaries (mean/min/max), Pearson correlation (Table 2 of the paper),
 * and a log-bucketed histogram for latency percentiles.
 */
#ifndef ECHO_CORE_STATS_H
#define ECHO_CORE_STATS_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace echo {

/** Running summary of a scalar stream. */
class Summary
{
  public:
    /** Add one observation. */
    void add(double v);

    /** Number of observations so far. */
    size_t count() const { return count_; }

    /** Arithmetic mean (0 when empty). */
    double mean() const;

    /** Population standard deviation (0 when fewer than 2 samples). */
    double stddev() const;

    double min() const { return min_; }
    double max() const { return max_; }

  private:
    size_t count_ = 0;
    double sum_ = 0.0;
    double sum_sq_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Pearson correlation coefficient between two equally sized samples.
 * Returns 0 when either sample is constant or sizes mismatch.
 */
double pearsonCorrelation(const std::vector<double> &xs,
                          const std::vector<double> &ys);

/**
 * Streaming histogram with fixed log-spaced buckets, built for latency
 * percentiles (p50/p95/p99) in the serving layer and the benches.
 *
 * Buckets: an underflow bucket for values below @p lo, then
 * buckets_per_decade buckets per power of ten covering [lo, hi), then
 * an overflow bucket.  Bucket i >= 1 covers
 * [lo * r^(i-1), lo * r^i) with r = 10^(1/buckets_per_decade).
 *
 * Percentiles use the nearest-rank definition.  Up to kExactCapacity
 * samples are additionally kept verbatim, so small-sample percentiles
 * are exact; past that the value is interpolated inside the bucket
 * (relative error bounded by the bucket width, ~15% at the default 16
 * buckets per decade).
 */
class Histogram
{
  public:
    /** Raw samples kept for exact small-sample percentiles. */
    static constexpr size_t kExactCapacity = 1024;

    explicit Histogram(double lo = 1.0, double hi = 1e9,
                       int buckets_per_decade = 16);

    /** Record one observation (values <= 0 land in the underflow
     *  bucket). */
    void add(double v);

    size_t count() const { return summary_.count(); }
    double min() const { return summary_.min(); }
    double max() const { return summary_.max(); }
    double mean() const { return summary_.mean(); }

    /**
     * Nearest-rank percentile, @p p in [0, 100].  Exact while count()
     * <= kExactCapacity, bucket-interpolated beyond.  0 when empty.
     */
    double percentile(double p) const;

    double p50() const { return percentile(50.0); }
    double p95() const { return percentile(95.0); }
    double p99() const { return percentile(99.0); }

    // Bucket geometry, exposed so tests can pin the boundaries.
    size_t numBuckets() const { return counts_.size(); }
    size_t bucketIndex(double v) const;
    /** Lower bound of bucket @p i (0 for the underflow bucket). */
    double bucketLowerBound(size_t i) const;
    int64_t bucketCount(size_t i) const
    {
        return counts_[i];
    }

  private:
    double lo_;
    int per_decade_;
    size_t num_log_buckets_; ///< excluding underflow/overflow
    std::vector<int64_t> counts_;
    std::vector<double> exact_; ///< first kExactCapacity samples
    Summary summary_;
};

} // namespace echo

#endif // ECHO_CORE_STATS_H
