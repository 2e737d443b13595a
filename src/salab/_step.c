/* Compiled step kernel of the chain engine at d = 1, for three drifts:
 *
 *   NEG_CUBE   F(x) = -x^3      f = -(x*x*x)
 *   NEG_SCALE  F(x) = -(x h)    f = -(x*a)
 *   AFFINE     F(x) = x a + b   f = x*a; f += b
 *
 * Every step is the numpy body's, operation for operation and rounding for
 * rounding:  f = F(x); f *= dc; x += f; x += w.  It must be built with
 * -ffp-contract=off (no fused multiply-add) and never with -ffast-math, so
 * that each chain gives the same bits as the numpy body.
 *
 * A tile of chains is stepped through the whole block with the chain loop
 * innermost: the chains are independent, so the loop runs at the
 * throughput of the arithmetic rather than at the latency of one chain's
 * dependent operations, and a full sign tile's constant width lets the
 * compiler vectorize it.  Gaussian, uniform and noiseless draws are read
 * chain-major, a noise tile at a time, from the buffer each chain drew them
 * into; no step-major copy is made.  The drift kind is a constant in each
 * tile loop (see BY_KIND), so the branch on it stays outside the hot loop.
 * Record r of a chain is its state after step burn_in + (r + 1) * thin,
 * written to out[chain * spc + r].
 *
 * Arguments shared by both entry points:
 *   f        the drift and its coefficient dc
 *   x        states of the n chains, updated in place
 *   m, k0    steps in this block, and steps taken before it
 *   out, spc (n, spc) records
 */

#include <stdint.h>
#include <string.h>

#define TILE 64
#define INLINE static inline __attribute__((always_inline))

enum { NEG_CUBE, NEG_SCALE, AFFINE };

struct drift {
    long kind;
    double a, b, dc;
};

/* fn(kind, ...) with kind a compile-time constant: one inlined loop per kind. */
#define BY_KIND(kind, fn, ...)                                              \
    switch (kind) {                                                         \
    case NEG_CUBE: fn(NEG_CUBE, __VA_ARGS__); break;                        \
    case NEG_SCALE: fn(NEG_SCALE, __VA_ARGS__); break;                      \
    default: fn(AFFINE, __VA_ARGS__); break;                                \
    }

/* One step of one chain, in the numpy body's order. */
INLINE double step(long kind, const struct drift *f, double v, double w)
{
    double g;
    if (kind == NEG_CUBE) {
        g = -(v * v * v);
    } else if (kind == NEG_SCALE) {
        g = -(v * f->a);
    } else {
        g = v * f->a;
        g = g + f->b;
    }
    g = g * f->dc;
    v = v + g;
    return v + w;
}

/* First record step after k0 steps, counting steps from 1. */
static long next_record(long k0, long burn_in, long thin)
{
    if (k0 < burn_in + thin)
        return burn_in + thin;
    return burn_in + thin * ((k0 - burn_in) / thin + 1);
}

static void record(const double *xs, long t, double *out, long spc, long r)
{
    for (long c = 0; c < t; c++)
        out[c * spc + r] = xs[c];
}

/* t chains through m steps of chain-major noise: w[c * m + s] for chain c. */
INLINE void draws_tile(long kind, struct drift f, double *restrict xs,
                       long t, const double *restrict w, long m, long k0,
                       double *out, long spc, long burn_in, long thin)
{
    long next = next_record(k0, burn_in, thin);
    for (long s = 0; s < m; s++) {
        for (long c = 0; c < t; c++)
            xs[c] = step(kind, &f, xs[c], w[c * m + s]);
        if (k0 + s + 1 == next) {
            record(xs, t, out, spc, (next - burn_in) / thin - 1);
            next += thin;
        }
    }
}

/* t chains through m steps of packed sign noise.  The draw's value is
 * picked by masking bit patterns, not by a branch: the bits are random, so
 * a branch would be mispredicted every other draw. */
INLINE void signs_tile(long kind, struct drift f, double *restrict xs,
                       long t, const uint64_t *restrict words, long n, long m,
                       long k0, uint64_t lo_bits, uint64_t flip, double *out,
                       long spc, long burn_in, long thin)
{
    long next = next_record(k0, burn_in, thin);
    for (long s = 0; s < m; s++) {
        const uint64_t *ws = words + (s >> 6) * n;
        unsigned bit = (unsigned)(s & 63);
        for (long c = 0; c < t; c++) {
            uint64_t pick = lo_bits ^ (flip & (0 - ((ws[c] >> bit) & 1)));
            double w;
            memcpy(&w, &pick, sizeof w);
            xs[c] = step(kind, &f, xs[c], w);
        }
        if (k0 + s + 1 == next) {
            record(xs, t, out, spc, (next - burn_in) / thin - 1);
            next += thin;
        }
    }
}

/* Chain-major noise: w[c * m + s] is the already scaled noise of chain c at
 * step s of the block, as each chain drew it. */
void step_tile(const struct drift *f, double *restrict x, long n,
               const double *restrict w, long m, long k0,
               double *restrict out, long spc, long burn_in, long thin)
{
    double xs[TILE];
    for (long c0 = 0; c0 < n; c0 += TILE) {
        long t = n - c0 < TILE ? n - c0 : TILE;
        memcpy(xs, x + c0, t * sizeof *xs);
        BY_KIND(f->kind, draws_tile, *f, xs, t, w + c0 * m, m, k0,
                out + c0 * spc, spc, burn_in, thin);
        memcpy(x + c0, xs, t * sizeof *xs);
    }
}

/* Packed sign noise: draw s of the block is bit s % 64 of
 * words[(s / 64) * n + c]; a set bit adds hi, a clear one lo. */
void step_signs(const struct drift *f, double *restrict x, long n,
                const uint64_t *restrict words, long m, long k0, double lo,
                double hi, double *restrict out, long spc, long burn_in,
                long thin)
{
    double xs[TILE];
    uint64_t lo_bits, flip;
    memcpy(&lo_bits, &lo, sizeof lo);
    memcpy(&flip, &hi, sizeof hi);
    flip ^= lo_bits;
    for (long c0 = 0; c0 < n; c0 += TILE) {
        long t = n - c0 < TILE ? n - c0 : TILE;
        memcpy(xs, x + c0, t * sizeof *xs);
        if (t == TILE) {
            BY_KIND(f->kind, signs_tile, *f, xs, TILE, words + c0, n, m, k0,
                    lo_bits, flip, out + c0 * spc, spc, burn_in, thin);
        } else {
            BY_KIND(f->kind, signs_tile, *f, xs, t, words + c0, n, m, k0,
                    lo_bits, flip, out + c0 * spc, spc, burn_in, thin);
        }
        memcpy(x + c0, xs, t * sizeof *xs);
    }
}
