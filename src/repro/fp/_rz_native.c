/* Native fast path for the FaSTED squared-norm precompute.
 *
 * Implements rz_sum_squares (repro/fp/rounding.py) as one fused pass:
 * FP16-grid quantization, exact per-chunk sums of squares, and the
 * round-toward-zero float32 normalization after every chunk.
 *
 * Bit-exactness contract (validated against the NumPy implementation and
 * the nextafter oracle in tests/test_fp_rounding.py):
 *
 * - quant_f16 returns exactly numpy `x.astype(float16).astype(float64)`:
 *   round-to-nearest-even onto the binary16 grid, computed in the float64
 *   domain so no double rounding can occur.  Normal-range values round via
 *   integer mantissa rounding (carry propagates into the exponent, which
 *   also realizes the 65520 -> inf overflow after the >= 65536 check);
 *   subnormal-range values (|x| < 2^-14) round via the magic-constant
 *   trick: adding 1.5*2^28 forces the FPU to round at the absolute
 *   2^-24 grid spacing of binary16 subnormals.  Requires the default
 *   round-to-nearest FP environment and strict IEEE semantics (never
 *   compile this file with -ffast-math).
 *
 * - The RZ normalization uses the mantissa-mask identity: for values that
 *   are zero, inf, NaN, or inside the float32 normal range, truncating a
 *   float64 toward zero onto the float32 grid is clearing the low 29
 *   mantissa bits.  Sums of squares of binary16 values satisfy this
 *   structurally: a nonzero square is at least 2^-48 (far above the
 *   2^-126 float32 normal boundary) and the total stays far below 2^128.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

static inline uint64_t d2u(double x) {
    uint64_t u;
    memcpy(&u, &x, sizeof u);
    return u;
}

static inline double u2d(uint64_t u) {
    double x;
    memcpy(&x, &u, sizeof u);
    return x;
}

/* Round a float64 to the binary16 grid (RNE), returned as float64. */
static inline double quant_f16(double x) {
    uint64_t b = d2u(x);
    uint64_t mag = b & 0x7FFFFFFFFFFFFFFFULL;
    if (mag >= 0x7FF0000000000000ULL) /* inf or NaN: unchanged */
        return x;
    if (u2d(mag) < 0x1p-14) { /* binary16 subnormal range */
        const double C = 0x1.8p+28; /* 1.5 * 2^28: ulp(C) == 2^-24 */
        return (x + C) - C;
    }
    /* RNE to a 10-bit significand: add the rounding increment (half ulp,
     * minus one when the kept lsb is even so ties go to even) and clear
     * the 42 discarded mantissa bits; a carry bumps the exponent. */
    uint64_t r = (b + 0x1FFFFFFFFFFULL + ((b >> 42) & 1ULL)) &
                 ~((uint64_t)0x3FFFFFFFFFFULL);
    double q = u2d(r);
    if (fabs(q) >= 65536.0) /* rounded past binary16's largest finite */
        return copysign(INFINITY, x);
    return q;
}

/* out[i] = RZ-chunked sum of squares of the FP16-quantized row i. */
void rz_sum_squares_f16grid(const double *pts, long long n, long long d,
                            long long step, float *out) {
    for (long long i = 0; i < n; i++) {
        const double *row = pts + i * d;
        double acc = 0.0;
        for (long long c = 0; c < d; c += step) {
            long long e = c + step < d ? c + step : d;
            double s = 0.0;
            for (long long t = c; t < e; t++) {
                double q = quant_f16(row[t]);
                s += q * q;
            }
            acc = u2d(d2u(acc + s) & 0xFFFFFFFFE0000000ULL);
        }
        out[i] = (float)acc;
    }
}

/* General rz_sum over raw float64 rows: the masked-truncation loop of
 * repro/fp/rounding.py (_rz_reduce's fast path) fused with the chunk-sum
 * pass.  Chunk sums accumulate in ascending term order, which matches the
 * NumPy _chunk_sums reduction only for step < 8 (the caller enforces it);
 * each chunk's RZ normalization is the low-29-bit mantissa clear, exact
 * while every partial sum is 0 / inf-free / inside the float32 normal
 * range.
 *
 * Unlike sums of squares, arbitrary inputs do not satisfy those
 * preconditions structurally, so they are verified per chunk sum exactly
 * as _masked_reduce_safe does: non-negative (rejects NaN too), zero or at
 * least FLT_MIN_NORMAL (2^-126), and a finite running total below 2^128.
 * Returns 1 with `out` filled when every row is safe; returns 0 -- `out`
 * contents unspecified -- the moment any chunk sum leaves the safe range,
 * and the caller falls back to the NumPy general path (which re-derives
 * the same verdict from the same conditions). */
long long rz_sum_f64(const double *vals, long long n, long long d,
                     long long step, float *out) {
    for (long long i = 0; i < n; i++) {
        const double *row = vals + i * d;
        double acc = 0.0;
        double total = 0.0;
        for (long long c = 0; c < d; c += step) {
            long long e = c + step < d ? c + step : d;
            double s = 0.0;
            for (long long t = c; t < e; t++)
                s += row[t];
            if (!(s >= 0.0)) /* negative or NaN chunk sum */
                return 0;
            if (s != 0.0 && s < 0x1p-126) /* float32 subnormal range */
                return 0;
            total += s;
            acc = u2d(d2u(acc + s) & 0xFFFFFFFFE0000000ULL);
        }
        if (!(total < 0x1p128)) /* overflow past float32 range (or inf) */
            return 0;
        out[i] = (float)acc;
    }
    return 1;
}

/* Fused FaSTED Step 3 + eps^2 filter over rows [row0, n_rows) of a
 * contiguous (n_rows, c) gram view made of (m, c) groups: row r of group
 * k = r / m pairs norm s_row[r] with column norms s_col[k * c ...].  The
 * survivors of x = (s_i + s_j) - 2*g <= eps2 -- minus (r, r) when
 * `diagonal` -- land compactly, in row-major order, in rows[], cols[] and
 * (unless NULL) dd[] = (float)max(x, 0); the gram is read once, never
 * written.  Resumable, no allocation: the caller owns the `cap`-slot
 * outputs; the pass stops before a row when fewer than c slots remain,
 * stores the survivor count in *n_out and returns the next row.
 *
 * Bit-exactness contract with the NumPy strips of
 * repro.core.engine.threshold_epilogue (tests/test_engine.py):
 * - dtype-local arithmetic: sum, doubling and subtraction each round once
 *   in T, in NumPy's elementwise order; eps2 arrives already rounded to T.
 * - no contraction: 2*g must overflow to inf as NumPy's separate multiply
 *   does, so this file is built with -ffp-contract=off.
 * - clamp after select: the caller guarantees eps2 >= 0, where x <= eps2
 *   iff max(x, 0) <= eps2 (NaN compares false); -0.0 and negatives store
 *   +0.0 like np.maximum(x, 0.0).
 * - the float32 cast is the default round-to-nearest-even conversion.
 *
 * Per <= 256-column chunk the loop computing x[] and a 0/1 byte mask is
 * branch-free (gcc vectorizes it); a chunk without a hit is skipped, else
 * the bytes are packed 64 to a word and the set bits walked with ctz: one
 * branch per hit, none per miss. */
#define EPILOGUE_CHUNK 256

#define DEFINE_THRESHOLD_EPILOGUE(NAME, T)                                    \
    long long NAME(const T *gram, const T *s_row, const T *s_col,             \
                   long long row0, long long n_rows, long long m,             \
                   long long c, double eps2, long long diagonal,              \
                   long long cap, long long *rows, long long *cols,           \
                   float *dd, long long *n_out) {                             \
        const T eps = (T)eps2;                                                \
        long long n = 0, r = row0, k = row0 / m; /* r in group k */           \
        for (; r < n_rows && cap - n >= c; r++) {                             \
            k += r == (k + 1) * m;                                            \
            const T *g = gram + r * c, *sj = s_col + k * c;                   \
            const T si = s_row[r];                                            \
            for (long long j0 = 0; j0 < c; j0 += EPILOGUE_CHUNK) {            \
                const long long w =                                           \
                    c - j0 < EPILOGUE_CHUNK ? c - j0 : EPILOGUE_CHUNK;        \
                T x[EPILOGUE_CHUNK];                                          \
                uint64_t words[EPILOGUE_CHUNK / 8] = {0};                     \
                uint8_t *hit = (uint8_t *)words;                              \
                uint8_t any = 0;                                              \
                for (long long j = 0; j < w; j++) {                           \
                    x[j] = (si + sj[j0 + j]) - (T)2 * g[j0 + j];              \
                    hit[j] = x[j] <= eps;                                     \
                    any |= hit[j];                                            \
                }                                                             \
                if (!any)                                                     \
                    continue;                                                 \
                if (diagonal && r >= j0 && r < j0 + w)                        \
                    hit[r - j0] = 0;                                          \
                for (long long j64 = 0; j64 < w; j64 += 64) {                 \
                    uint64_t bits = 0; /* byte k of a word -> bit k */        \
                    for (int k = 0; k < 8; k++)                               \
                        bits |= (words[j64 / 8 + k] * 0x0102040810204080ULL   \
                                 >> 56) << (8 * k);                           \
                    for (; bits; bits &= bits - 1) {                          \
                        const long long j = j64 + __builtin_ctzll(bits);      \
                        rows[n] = r;                                          \
                        cols[n] = j0 + j;                                     \
                        if (dd)                                               \
                            dd[n] = (float)(x[j] > 0 ? x[j] : 0);             \
                        n++;                                                  \
                    }                                                         \
                }                                                             \
            }                                                                 \
        }                                                                     \
        *n_out = n;                                                           \
        return r;                                                             \
    }

DEFINE_THRESHOLD_EPILOGUE(threshold_epilogue_f32, float)
DEFINE_THRESHOLD_EPILOGUE(threshold_epilogue_f64, double)
