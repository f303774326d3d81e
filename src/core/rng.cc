#include "core/rng.h"

#include <algorithm>
#include <cmath>

#include "core/logging.h"

namespace echo {

namespace {

/** splitmix64 step, used to expand the user seed into generator state. */
uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

/** One xoshiro256** step over the state @p s. */
uint64_t
xoshiroNext(uint64_t (&s)[4])
{
    const uint64_t result = rotl(s[1] * 5, 7) * 9;
    const uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
}

/** Uniform double in [0, 1) from 53 random mantissa bits. */
double
unitInterval(uint64_t bits)
{
    return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &word : s_)
        word = splitmix64(sm);
}

uint64_t
Rng::next()
{
    return xoshiroNext(s_);
}

double
Rng::uniform()
{
    return unitInterval(next());
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

void
Rng::fillUniform(float *out, int64_t n, double lo, double hi)
{
    // uniform(lo, hi) per element, on a local copy of the state the
    // compiler keeps in registers.
    uint64_t s[4] = {s_[0], s_[1], s_[2], s_[3]};
    for (int64_t i = 0; i < n; ++i)
        out[i] = static_cast<float>(lo + (hi - lo) *
                                             unitInterval(xoshiroNext(s)));
    std::copy(s, s + 4, s_);
}

uint64_t
Rng::uniformInt(uint64_t n)
{
    ECHO_CHECK(n > 0, "uniformInt needs a positive bound");
    // Rejection sampling to avoid modulo bias.
    const uint64_t limit = UINT64_MAX - UINT64_MAX % n;
    uint64_t v = next();
    while (v >= limit)
        v = next();
    return v % n;
}

double
Rng::gaussian()
{
    if (have_cached_gaussian_) {
        have_cached_gaussian_ = false;
        return cached_gaussian_;
    }
    double u1 = 0.0;
    while (u1 <= 1e-300)
        u1 = uniform();
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cached_gaussian_ = r * std::sin(theta);
    have_cached_gaussian_ = true;
    return r * std::cos(theta);
}

double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

uint64_t
Rng::zipf(uint64_t n, double s)
{
    ECHO_CHECK(n > 0, "zipf needs a positive support size");
    if (zipf_n_ != n || zipf_s_ != s) {
        zipf_cdf_.resize(n);
        double acc = 0.0;
        for (uint64_t r = 0; r < n; ++r) {
            acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
            zipf_cdf_[r] = acc;
        }
        for (auto &v : zipf_cdf_)
            v /= acc;
        zipf_n_ = n;
        zipf_s_ = s;
    }
    const double u = uniform();
    const auto it =
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
    return static_cast<uint64_t>(it - zipf_cdf_.begin());
}

Rng
Rng::split()
{
    return Rng(next());
}

} // namespace echo
