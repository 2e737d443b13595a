/* Compiled step kernel of the chain engine, for three drifts:
 *
 *   NEG_CUBE   F(x) = -x^3        d = 1   g = -(x*x*x)
 *   NEG_SCALE  F(x) = -(x H^T)    any d   g_i = -(x_0 h_i0 + ... + x_{d-1} h_i,d-1)
 *   AFFINE     F(x) = x A^T + b   any d   g_i = (x_0 a_i0 + ... + x_{d-1} a_i,d-1) + b_i
 *
 * Every step is the numpy body's, operation for operation and rounding for
 * rounding:  g = F(x) for every coordinate before any coordinate moves;
 * g *= dc; x += g; x += w.  The sums run in order of k, each product and
 * each sum rounded on its own, as drift._ordered_product adds them.  It
 * must be built with -ffp-contract=off (no fused multiply-add) and never
 * with -ffast-math, so that each chain gives the same bits as the numpy
 * body.
 *
 * At d = 1 and d = 2 a tile of chains is stepped through the whole block
 * with the chain loop innermost: the chains are independent, so the loop
 * runs at the throughput of the arithmetic rather than at the latency of
 * one chain's dependent operations, and a full sign tile's constant width
 * lets the compiler vectorize it.  The drift kind and d are constants in
 * each such loop (see BY_KIND), so the branches on them stay outside the
 * hot loop.  At d > 2 each chain is stepped alone, with its d^2 products
 * to overlap.  Gaussian, uniform, noiseless and d >= 2 sign draws are read
 * chain-major, a noise tile at a time, from the buffer each chain drew them
 * into; no step-major copy is made.  Record r of a chain is its state after
 * step burn_in + (r + 1) * thin, written to out[chain, r].
 *
 * Arguments shared by both entry points:
 *   f        the drift and its coefficient dc
 *   x        (n, d) states of the n chains, updated in place
 *   m, k0    steps in this block, and steps taken before it
 *   out, spc (n, spc, d) records
 */

#include <stdint.h>
#include <string.h>

#define TILE 64
#define INLINE static inline __attribute__((always_inline))

enum { NEG_CUBE, NEG_SCALE, AFFINE };

struct drift {
    long kind, d;
    const double *a; /* row-major d x d: A (AFFINE) or H (NEG_SCALE) */
    const double *b; /* d entries (AFFINE) */
    double dc;
};

/* fn(kind, D, ...) with kind and D compile-time constants: one inlined loop
 * per kind at d = D, which is 1 or 2 (and 1 for NEG_CUBE). */
#define BY_KIND(kind, D, fn, ...)                                           \
    switch (kind) {                                                         \
    case NEG_CUBE: fn(NEG_CUBE, 1, __VA_ARGS__); break;                     \
    case NEG_SCALE: fn(NEG_SCALE, D, __VA_ARGS__); break;                   \
    default: fn(AFFINE, D, __VA_ARGS__); break;                             \
    }

/* The coefficients of a drift at d = D <= 2, copied into locals so that no
 * store to a state can be taken to change them. */
struct coef {
    double a[4], b[2], dc;
};

INLINE struct coef coefs(long kind, long D, const struct drift *f)
{
    struct coef k = {{0.0}, {0.0}, f->dc};
    if (kind != NEG_CUBE)
        for (long i = 0; i < D * D; i++)
            k.a[i] = f->a[i];
    if (kind == AFFINE)
        for (long i = 0; i < D; i++)
            k.b[i] = f->b[i];
    return k;
}

/* One step of chain c of a tile, whose coordinate i is xs[i * TILE + c]
 * and whose draw for it is w[i], in the numpy body's order. */
INLINE void step(long kind, long D, const struct coef *k, double *xs, long c,
                 const double *w)
{
    double g[2];
    for (long i = 0; i < D; i++) {
        if (kind == NEG_CUBE) {
            double v = xs[c];
            g[i] = -(v * v * v);
        } else {
            double s = xs[c] * k->a[i * D];
            for (long j = 1; j < D; j++)
                s = s + xs[j * TILE + c] * k->a[i * D + j];
            g[i] = kind == AFFINE ? s + k->b[i] : -s;
        }
        g[i] = g[i] * k->dc;
    }
    for (long i = 0; i < D; i++) {
        double v = xs[i * TILE + c] + g[i];
        xs[i * TILE + c] = v + w[i];
    }
}

/* First record step after k0 steps, counting steps from 1. */
static long next_record(long k0, long burn_in, long thin)
{
    if (k0 < burn_in + thin)
        return burn_in + thin;
    return burn_in + thin * ((k0 - burn_in) / thin + 1);
}

/* Record r of the t chains of a tile of d-dimensional states. */
static void record(const double *xs, long t, long d, double *out, long spc, long r)
{
    for (long c = 0; c < t; c++)
        for (long i = 0; i < d; i++)
            out[(c * spc + r) * d + i] = xs[i * TILE + c];
}

/* Tile states from the (t, d) rows of x, and back. */
static void load(double *xs, const double *x, long t, long d)
{
    for (long c = 0; c < t; c++)
        for (long i = 0; i < d; i++)
            xs[i * TILE + c] = x[c * d + i];
}

static void store(const double *xs, double *x, long t, long d)
{
    for (long c = 0; c < t; c++)
        for (long i = 0; i < d; i++)
            x[c * d + i] = xs[i * TILE + c];
}

/* t chains through m steps of chain-major noise: w[(c * m + s) * D + i]
 * for coordinate i of chain c. */
INLINE void draws_tile(long kind, long D, const struct drift *f,
                       double *restrict xs, long t, const double *restrict w,
                       long m, long k0, double *out, long spc, long burn_in,
                       long thin)
{
    struct coef k = coefs(kind, D, f);
    long next = next_record(k0, burn_in, thin);
    for (long s = 0; s < m; s++) {
        for (long c = 0; c < t; c++)
            step(kind, D, &k, xs, c, w + (c * m + s) * D);
        if (k0 + s + 1 == next) {
            record(xs, t, D, out, spc, (next - burn_in) / thin - 1);
            next += thin;
        }
    }
}

/* One chain at d > 2 through m steps of its noise, w[s * d + i]: all of
 * g = F(x) before any x[i] moves, then g *= dc; x += g; x += w. */
static void draws_chain(const struct drift *f, double *restrict x,
                        const double *restrict w, long m, long k0,
                        double *restrict out, long burn_in, long thin)
{
    long d = f->d;
    double g[d];
    long next = next_record(k0, burn_in, thin);
    for (long s = 0; s < m; s++, w += d) {
        for (long i = 0; i < d; i++) {
            const double *ai = f->a + i * d;
            double sum = x[0] * ai[0];
            for (long j = 1; j < d; j++)
                sum = sum + x[j] * ai[j];
            g[i] = f->kind == AFFINE ? sum + f->b[i] : -sum;
            g[i] = g[i] * f->dc;
        }
        for (long i = 0; i < d; i++) {
            double v = x[i] + g[i];
            x[i] = v + w[i];
        }
        if (k0 + s + 1 == next) {
            memcpy(out + ((next - burn_in) / thin - 1) * d, x, d * sizeof *x);
            next += thin;
        }
    }
}

/* t chains through m steps of packed sign noise at d = 1.  The draw's
 * value is picked by masking bit patterns, not by a branch: the bits are
 * random, so a branch would be mispredicted every other draw. */
INLINE void signs_tile(long kind, long D, const struct drift *f,
                       double *restrict xs, long t,
                       const uint64_t *restrict words, long n, long m, long k0,
                       uint64_t lo_bits, uint64_t flip, double *out, long spc,
                       long burn_in, long thin)
{
    struct coef k = coefs(kind, D, f);
    long next = next_record(k0, burn_in, thin);
    for (long s = 0; s < m; s++) {
        const uint64_t *ws = words + (s >> 6) * n;
        unsigned bit = (unsigned)(s & 63);
        for (long c = 0; c < t; c++) {
            uint64_t pick = lo_bits ^ (flip & (0 - ((ws[c] >> bit) & 1)));
            double w;
            memcpy(&w, &pick, sizeof w);
            step(kind, D, &k, xs, c, &w);
        }
        if (k0 + s + 1 == next) {
            record(xs, t, D, out, spc, (next - burn_in) / thin - 1);
            next += thin;
        }
    }
}

/* Chain-major noise: w[(c * m + s) * d + i] is the already scaled noise of
 * coordinate i of chain c at step s of the block, as each chain drew it. */
void step_tile(const struct drift *f, double *restrict x, long n,
               const double *restrict w, long m, long k0,
               double *restrict out, long spc, long burn_in, long thin)
{
    long d = f->d;
    if (d > 2) {
        for (long c = 0; c < n; c++)
            draws_chain(f, x + c * d, w + c * m * d, m, k0, out + c * spc * d,
                        burn_in, thin);
        return;
    }
    double xs[2 * TILE];
    for (long c0 = 0; c0 < n; c0 += TILE) {
        long t = n - c0 < TILE ? n - c0 : TILE;
        load(xs, x + c0 * d, t, d);
        if (d == 1) {
            BY_KIND(f->kind, 1, draws_tile, f, xs, t, w + c0 * m, m, k0,
                    out + c0 * spc, spc, burn_in, thin);
        } else {
            BY_KIND(f->kind, 2, draws_tile, f, xs, t, w + c0 * m * 2, m, k0,
                    out + c0 * spc * 2, spc, burn_in, thin);
        }
        store(xs, x + c0 * d, t, d);
    }
}

/* Packed sign noise at d = 1: draw s of the block is bit s % 64 of
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
            BY_KIND(f->kind, 1, signs_tile, f, xs, TILE, words + c0, n, m, k0, lo_bits,
                    flip, out + c0 * spc, spc, burn_in, thin);
        } else {
            BY_KIND(f->kind, 1, signs_tile, f, xs, t, words + c0, n, m, k0, lo_bits,
                    flip, out + c0 * spc, spc, burn_in, thin);
        }
        memcpy(x + c0, xs, t * sizeof *xs);
    }
}
