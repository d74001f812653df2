/** @file AVX2 kernels: 16-column pmaddwd int-GEMM with 4-row register
 *  blocking, 8-wide quantization, 8-wide absmax.
 *
 *  This TU is compiled with -mavx2 (attached per-file by CMake); when the
 *  compiler cannot target AVX2 the functions degrade to delegating
 *  wrappers and avx2KernelsCompiled() reports false so the dispatcher
 *  never registers the tier.
 *
 *  GEMM scheme: like the SSE2 golden kernel, K rows are fused in pairs --
 *  weights of rows kk/kk+1 are widened to int16 and interleaved so
 *  pmaddwd against the broadcast activation pair (x[kk], x[kk+1])
 *  produces per-column two-term partial sums in int32 lanes. The AVX2
 *  wrinkle is that vpunpck[lh]wd interleave within each 128-bit lane, so
 *  a 16-column block's madd results arrive in the permuted column order
 *  {0-3, 8-11} / {4-7, 12-15}. Instead of shuffling every iteration, the
 *  two accumulator vectors are kept in that permuted layout for the whole
 *  K loop and swapped back with one vperm2i128 pair on load and store --
 *  integer addition commutes, so this is exact.
 *
 *  Row blocking: quads of rows share each widened weight load (the GEMM
 *  is load-port-bound, and the weight stream is the dominant operand), so
 *  multi-row calls (token batches, conv patches) issue more MACs per
 *  uop. A single-row loop covers the remainder.
 */

#include "hw/simd_kernels.hpp"

#if defined(__AVX2__)
#include <immintrin.h>

#include "hw/simd_gemm_common.hpp"
#endif

namespace create::simd::detail {

#if defined(__AVX2__)

namespace {

using detail::gemmRowTailColsSse2;
using detail::xPairI32;

/** Widened, pairwise-interleaved weights for 16 columns of rows kk/kk+1:
 *  lo covers columns {0-3, 8-11} of the block, hi covers {4-7, 12-15}. */
inline void
widenPair16(const std::int8_t* w0p, const std::int8_t* w1p, __m256i& lo,
            __m256i& hi)
{
    const __m256i w0 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(w0p)));
    const __m256i w1 =
        w1p ? _mm256_cvtepi8_epi16(
                  _mm_loadu_si128(reinterpret_cast<const __m128i*>(w1p)))
            : _mm256_setzero_si256();
    lo = _mm256_unpacklo_epi16(w0, w1);
    hi = _mm256_unpackhi_epi16(w0, w1);
}

/** Load a 16-column accumulator block into the permuted {A, B} layout. */
inline void
loadAcc16(const std::int32_t* crow, __m256i& accA, __m256i& accB)
{
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(crow));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(crow + 8));
    accA = _mm256_permute2x128_si256(a, b, 0x20); // cols {0-3, 8-11}
    accB = _mm256_permute2x128_si256(a, b, 0x31); // cols {4-7, 12-15}
}

/** Store the permuted {A, B} accumulators back in natural column order. */
inline void
storeAcc16(std::int32_t* crow, __m256i accA, __m256i accB)
{
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow),
                        _mm256_permute2x128_si256(accA, accB, 0x20));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow + 8),
                        _mm256_permute2x128_si256(accA, accB, 0x31));
}

} // namespace

bool
avx2KernelsCompiled()
{
    return true;
}

void
intGemmAvx2(const std::int8_t* xq, std::int64_t m, std::int64_t k,
            const std::int8_t* wq, std::int64_t n, std::int32_t* acc)
{
    std::int64_t i = 0;
    for (; i + 4 <= m; i += 4) { // 4-row quads share every weight load
        const std::int8_t* x0 = xq + (i + 0) * k;
        const std::int8_t* x1 = xq + (i + 1) * k;
        const std::int8_t* x2 = xq + (i + 2) * k;
        const std::int8_t* x3 = xq + (i + 3) * k;
        std::int32_t* c0 = acc + (i + 0) * n;
        std::int32_t* c1 = acc + (i + 1) * n;
        std::int32_t* c2 = acc + (i + 2) * n;
        std::int32_t* c3 = acc + (i + 3) * n;
        std::int64_t j0 = 0;
        for (; j0 + 16 <= n; j0 += 16) {
            __m256i a0A, a0B, a1A, a1B, a2A, a2B, a3A, a3B;
            loadAcc16(c0 + j0, a0A, a0B);
            loadAcc16(c1 + j0, a1A, a1B);
            loadAcc16(c2 + j0, a2A, a2B);
            loadAcc16(c3 + j0, a3A, a3B);
            for (std::int64_t kk = 0; kk < k; kk += 2) {
                const std::int32_t p0 = xPairI32(x0, kk, k);
                const std::int32_t p1 = xPairI32(x1, kk, k);
                const std::int32_t p2 = xPairI32(x2, kk, k);
                const std::int32_t p3 = xPairI32(x3, kk, k);
                if ((p0 | p1 | p2 | p3) == 0)
                    continue;
                __m256i lo, hi;
                widenPair16(wq + kk * n + j0,
                            kk + 1 < k ? wq + (kk + 1) * n + j0 : nullptr,
                            lo, hi);
                const __m256i xp0 = _mm256_set1_epi32(p0);
                const __m256i xp1 = _mm256_set1_epi32(p1);
                const __m256i xp2 = _mm256_set1_epi32(p2);
                const __m256i xp3 = _mm256_set1_epi32(p3);
                a0A = _mm256_add_epi32(a0A, _mm256_madd_epi16(lo, xp0));
                a0B = _mm256_add_epi32(a0B, _mm256_madd_epi16(hi, xp0));
                a1A = _mm256_add_epi32(a1A, _mm256_madd_epi16(lo, xp1));
                a1B = _mm256_add_epi32(a1B, _mm256_madd_epi16(hi, xp1));
                a2A = _mm256_add_epi32(a2A, _mm256_madd_epi16(lo, xp2));
                a2B = _mm256_add_epi32(a2B, _mm256_madd_epi16(hi, xp2));
                a3A = _mm256_add_epi32(a3A, _mm256_madd_epi16(lo, xp3));
                a3B = _mm256_add_epi32(a3B, _mm256_madd_epi16(hi, xp3));
            }
            storeAcc16(c0 + j0, a0A, a0B);
            storeAcc16(c1 + j0, a1A, a1B);
            storeAcc16(c2 + j0, a2A, a2B);
            storeAcc16(c3 + j0, a3A, a3B);
        }
        if (j0 < n) {
            gemmRowTailColsSse2(x0, k, wq, n, c0, j0);
            gemmRowTailColsSse2(x1, k, wq, n, c1, j0);
            gemmRowTailColsSse2(x2, k, wq, n, c2, j0);
            gemmRowTailColsSse2(x3, k, wq, n, c3, j0);
        }
    }
    for (; i < m; ++i) { // single-row remainder
        const std::int8_t* xrow = xq + i * k;
        std::int32_t* crow = acc + i * n;
        std::int64_t j0 = 0;
        for (; j0 + 16 <= n; j0 += 16) {
            __m256i accA, accB;
            loadAcc16(crow + j0, accA, accB);
            for (std::int64_t kk = 0; kk < k; kk += 2) {
                const std::int32_t pair = xPairI32(xrow, kk, k);
                if (pair == 0)
                    continue;
                __m256i lo, hi;
                widenPair16(wq + kk * n + j0,
                            kk + 1 < k ? wq + (kk + 1) * n + j0 : nullptr,
                            lo, hi);
                const __m256i xp = _mm256_set1_epi32(pair);
                accA = _mm256_add_epi32(accA, _mm256_madd_epi16(lo, xp));
                accB = _mm256_add_epi32(accB, _mm256_madd_epi16(hi, xp));
            }
            storeAcc16(crow + j0, accA, accB);
        }
        if (j0 < n)
            gemmRowTailColsSse2(xrow, k, wq, n, crow, j0);
    }
}

void
quantizeAvx2(const float* src, std::int64_t n, float invScale, int lim,
             std::int8_t* out)
{
    // Same clamp-then-cvtps2dq scheme as the SSE2 golden kernel (see the
    // bit-identity argument there), eight lanes at a time.
    const __m256 vinv = _mm256_set1_ps(invScale);
    const __m256 vlim = _mm256_set1_ps(static_cast<float>(lim));
    const __m256 vnlim = _mm256_set1_ps(static_cast<float>(-lim));
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m256 v = _mm256_mul_ps(_mm256_loadu_ps(src + i), vinv);
        v = _mm256_min_ps(_mm256_max_ps(v, vnlim), vlim);
        const __m256i q = _mm256_cvtps_epi32(v);
        const __m128i p16 = _mm_packs_epi32(
            _mm256_castsi256_si128(q), _mm256_extracti128_si256(q, 1));
        const __m128i p8 = _mm_packs_epi16(p16, p16);
        _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i), p8);
    }
    if (i < n)
        quantizeSse2(src + i, n - i, invScale, lim, out + i);
}

float
absMaxAvx2(const float* src, std::int64_t n)
{
    const __m256 vsign = _mm256_set1_ps(-0.0f);
    __m256 vmax = _mm256_setzero_ps();
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        vmax = _mm256_max_ps(
            vmax, _mm256_andnot_ps(vsign, _mm256_loadu_ps(src + i)));
    float lanes[8];
    _mm256_storeu_ps(lanes, vmax);
    float m = lanes[0];
    for (int l = 1; l < 8; ++l)
        m = lanes[l] > m ? lanes[l] : m;
    const float tail = absMaxScalar(src + i, n - i);
    return tail > m ? tail : m;
}

#else // compiler cannot target AVX2: delegate (tier stays unregistered)

bool
avx2KernelsCompiled()
{
    return false;
}

void
intGemmAvx2(const std::int8_t* xq, std::int64_t m, std::int64_t k,
            const std::int8_t* wq, std::int64_t n, std::int32_t* acc)
{
    intGemmSse2(xq, m, k, wq, n, acc);
}

void
quantizeAvx2(const float* src, std::int64_t n, float invScale, int lim,
             std::int8_t* out)
{
    quantizeSse2(src, n, invScale, lim, out);
}

float
absMaxAvx2(const float* src, std::int64_t n)
{
    return absMaxSse2(src, n);
}

#endif

} // namespace create::simd::detail
