/**
 * @file
 * Branch-free float exp, tanh and sigmoid for the pointwise kernels.
 *
 * Every executor kernel that evaluates one of these functions calls
 * this header: the unfused tensor ops, the fused element-wise
 * interpreter, softmax / cross-entropy and the fused LSTM layers.  Fused
 * and unfused graphs, and Echo's replay and the original forward, call
 * the same function and so produce the same bits.
 *
 * The bodies use only IEEE + - * /, integer bit operations and bitwise
 * selects, so a loop over them vectorizes on any x86-64 ISA, and a
 * vector lane and the scalar tail round identically as long as the
 * compiler does not contract a multiply and an add into an FMA.  Files
 * that inline these functions are compiled with -ffp-contract=off
 * (src/CMakeLists.txt), which also makes native and portable builds
 * agree bit for bit.
 *
 * Accuracy against std::, over every float with a normal result: exp
 * ≤ 1 ulp, tanh ≤ 7 ulp (absolute error ≤ 4.2e-7), sigmoid ≤ 2 ulp.
 * Special values are exact: exp(NaN) = NaN, exp(+inf) = +inf and
 * exp(x) = 0 for x < ln(FLT_MIN) (no subnormal results);
 * tanh(±inf) = ±1, tanh(-0) = -0; sigmoid(-inf) = 0,
 * sigmoid(+inf) = 1.  NaN in gives NaN out everywhere, so a non-finite
 * loss still fails its iteration.
 */
#ifndef ECHO_TENSOR_VEC_MATH_H
#define ECHO_TENSOR_VEC_MATH_H

#include <bit>
#include <cstdint>
#include <limits>

namespace echo::vec {

inline int32_t
bitsOf(float x)
{
    return std::bit_cast<int32_t>(x);
}

inline float
fromBits(int32_t b)
{
    return std::bit_cast<float>(b);
}

/**
 * c ? a : b as a bit blend.  A plain ?: lets GCC sink the unselected
 * arm's arithmetic into a branch, and under -ftrapping-math it will not
 * if-convert that branch back, so the loop would stay scalar.
 */
inline float
select(bool c, float a, float b)
{
    const int32_t m = -static_cast<int32_t>(c);
    return fromBits((bitsOf(a) & m) | (bitsOf(b) & ~m));
}

/**
 * e^x: Cephes-style range reduction x = n ln2 + r, |r| ≤ ln2 / 2, a
 * degree-7 polynomial for e^r, and an exact scale by 2^n in two halves
 * (so n = 128 near the overflow bound needs no special case).
 */
inline float
exp(float x)
{
    constexpr float kHi = 88.72283172607421875f;  // largest finite e^x
    constexpr float kLo = -87.33654022216796875f; // ln(FLT_MIN), rounded up
    constexpr float kLog2e = 1.44269504088896341f;
    constexpr float kLn2Hi = 0.693359375f;
    constexpr float kLn2Lo = -2.12194440e-4f;
    constexpr float kRound = 12582912.0f; // 1.5 * 2^23
    float t = select(x > kLo, x, kLo);    // also maps NaN to kLo
    t = select(t < kHi, t, kHi);
    // Round t * log2(e) to the nearest integer n by adding 1.5 * 2^23:
    // the sum's low mantissa bits then hold n as an integer.
    const float big = t * kLog2e + kRound;
    const float n = big - kRound;
    const int32_t ni = bitsOf(big) - bitsOf(kRound);
    float r = t - n * kLn2Hi;
    r = r - n * kLn2Lo;
    float p = 1.9875691500e-4f;
    p = p * r + 1.3981999507e-3f;
    p = p * r + 8.3334519073e-3f;
    p = p * r + 4.1665795894e-2f;
    p = p * r + 1.6666665459e-1f;
    p = p * r + 5.0000001201e-1f;
    float y = p * (r * r) + r + 1.0f;
    // 2^n = 2^(n/2) * 2^(n - n/2); both halves are normal floats.
    const int32_t n1 = ni >> 1;
    y = y * fromBits((n1 + 127) << 23) * fromBits((ni - n1 + 127) << 23);
    y = select(x < kLo, 0.0f, y);
    y = select(x > kHi, std::numeric_limits<float>::infinity(), y);
    return select(x != x, x, y);
}

/**
 * tanh(x): an odd/even rational approximation p(x) / q(x) on |x| < 9,
 * x itself below 4e-4 (which keeps -0 and tiny inputs exact), and ±1
 * from 9 on, where tanh is within one ulp of 1.
 */
inline float
tanh(float x)
{
    constexpr float kSat = 9.0f;
    constexpr float kTiny = 4e-4f;
    float t = select(x > kSat, kSat, x); // NaN passes through
    t = select(t < -kSat, -kSat, t);
    const float t2 = t * t;
    float p = -2.76076847742355e-16f;
    p = p * t2 + 2.00018790482477e-13f;
    p = p * t2 + -8.60467152213735e-11f;
    p = p * t2 + 5.12229709037114e-08f;
    p = p * t2 + 1.48572235717979e-05f;
    p = p * t2 + 6.37261928875436e-04f;
    p = p * t2 + 4.89352455891786e-03f;
    p = p * t;
    float q = 1.19825839466702e-06f;
    q = q * t2 + 1.18534705686654e-04f;
    q = q * t2 + 2.26843463243900e-03f;
    q = q * t2 + 4.89352518554385e-03f;
    float y = p / q;
    y = select(x >= kSat, 1.0f, y);
    y = select(x <= -kSat, -1.0f, y);
    const float ax = fromBits(bitsOf(x) & 0x7fffffff);
    return select(ax < kTiny, x, y);
}

/** 1 / (1 + e^-x). */
inline float
sigmoid(float x)
{
    return 1.0f / (1.0f + exp(-x));
}

} // namespace echo::vec

#endif // ECHO_TENSOR_VEC_MATH_H
