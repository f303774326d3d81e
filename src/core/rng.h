/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic component of the library (weight init, synthetic
 * datasets, dropout) draws from an explicitly seeded Rng so that runs are
 * bit-reproducible.  The generator is xoshiro256** seeded via splitmix64,
 * which is fast, high quality, and has a trivially copyable state.
 */
#ifndef ECHO_CORE_RNG_H
#define ECHO_CORE_RNG_H

#include <cstdint>
#include <vector>

namespace echo {

/** Deterministic random number generator (xoshiro256**). */
class Rng
{
  public:
    /** Construct from a 64-bit seed; equal seeds give equal streams. */
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Fill @p out[0..n) with float(uniform(lo, hi)) draws: the same
     *  stream and arithmetic as n calls, in one loop over local state. */
    void fillUniform(float *out, int64_t n, double lo, double hi);

    /** Uniform integer in [0, n). @pre n > 0 */
    uint64_t uniformInt(uint64_t n);

    /** Standard normal variate (Box-Muller). */
    double gaussian();

    /** Gaussian with the given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /**
     * Zipf-distributed rank in [0, n): rank r drawn with probability
     * proportional to 1 / (r + 1)^s.  Used by the synthetic corpora to
     * mimic natural-language token frequency.
     */
    uint64_t zipf(uint64_t n, double s = 1.0);

    /** Split off an independent child stream (for parallel components). */
    Rng split();

  private:
    uint64_t s_[4];
    bool have_cached_gaussian_ = false;
    double cached_gaussian_ = 0.0;

    // Cached Zipf normalization (recomputed when n or s changes).
    uint64_t zipf_n_ = 0;
    double zipf_s_ = 0.0;
    std::vector<double> zipf_cdf_;
};

} // namespace echo

#endif // ECHO_CORE_RNG_H
