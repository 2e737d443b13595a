/* Compiled step kernel of the chain engine, for two drifts:
 *
 *   NEG_CUBE  F(x) = -x^3        d = 1   g = -(x*x*x)
 *   AFFINE    F(x) = x A^T + b   any d   g_i = (x_0 a_i0 + ... + x_{d-1} a_i,d-1) + b_i
 *
 * Gradient descent on x^T H x / 2 is AFFINE with A = -H and b = 0.
 *
 * Every step is the numpy body's, operation for operation and rounding for
 * rounding:  g = F(x) for every coordinate before any coordinate moves;
 * g *= dc; x += g; x += w.  The sums run in order of k, each product and
 * each sum rounded on its own, as drift._ordered_product adds them.  It
 * must be built with -ffp-contract=off (no fused multiply-add) and never
 * with -ffast-math, so that each chain gives the same bits as the numpy
 * body.
 *
 * At every d a tile of chains is stepped through the whole block with the
 * chain loop innermost: the chains are independent, so the loop runs at
 * the throughput of the arithmetic rather than at the latency of one
 * chain's dependent operations, and a full sign tile's constant width lets
 * the compiler vectorize it.  The drift kind is a constant in each loop,
 * and so is d at d = 1 and d = 2, so the branches on them stay outside the
 * hot loop; above that d is a runtime value.  The tile's states live in a
 * local array, so no store to a state can change the coefficients, which
 * are read in place.  Gaussian, uniform, noiseless and d >= 2 sign draws
 * are read chain-major, a noise tile at a time, from the buffer each chain
 * drew them into; no step-major copy is made.  Record r of a chain is its
 * state after step burn_in + (r + 1) * thin, written to out[chain, r].
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

enum { NEG_CUBE, AFFINE };

struct drift {
    long kind, d;
    const double *a; /* row-major d x d A (AFFINE) */
    const double *b; /* d entries (AFFINE) */
    double dc;
};

/* One step of chain c of a tile, whose coordinate i is xs[i * TILE + c]
 * and whose draw for it is w[i], in the numpy body's order.  The D values
 * of g go to a local pair at D <= 2 and to the caller's gd above that. */
INLINE void step(long kind, long D, const struct drift *f, double *xs, long c,
                 const double *w, double *gd)
{
    double g2[2];
    double *g = D <= 2 ? g2 : gd;
    for (long i = 0; i < D; i++) {
        if (kind == NEG_CUBE) {
            double v = xs[c];
            g[i] = -(v * v * v);
        } else {
            const double *ai = f->a + i * D;
            double s = xs[c] * ai[0];
            for (long j = 1; j < D; j++)
                s = s + xs[j * TILE + c] * ai[j];
            g[i] = s + f->b[i];
        }
        g[i] = g[i] * f->dc;
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
                       double *restrict xs, double *restrict g, long t,
                       const double *restrict w, long m, long k0, double *out,
                       long spc, long burn_in, long thin)
{
    long next = next_record(k0, burn_in, thin);
    for (long s = 0; s < m; s++) {
        for (long c = 0; c < t; c++)
            step(kind, D, f, xs, c, w + (c * m + s) * D, g);
        if (k0 + s + 1 == next) {
            record(xs, t, D, out, spc, (next - burn_in) / thin - 1);
            next += thin;
        }
    }
}

/* t chains through m steps of packed sign noise at d = 1.  The draw's
 * value is picked by masking bit patterns, not by a branch: the bits are
 * random, so a branch would be mispredicted every other draw. */
INLINE void signs_tile(long kind, const struct drift *f, double *restrict xs,
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
            step(kind, 1, f, xs, c, &w, NULL);
        }
        if (k0 + s + 1 == next) {
            record(xs, t, 1, out, spc, (next - burn_in) / thin - 1);
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
    /* the tile's states, and its drift values above d = 2: linear in d */
    double xs[(d > 2 ? d : 2) * TILE], g[d];
    for (long c0 = 0; c0 < n; c0 += TILE) {
        long t = n - c0 < TILE ? n - c0 : TILE;
        const double *wt = w + c0 * m * d;
        double *ot = out + c0 * spc * d;
        load(xs, x + c0 * d, t, d);
        if (f->kind == NEG_CUBE)
            draws_tile(NEG_CUBE, 1, f, xs, g, t, wt, m, k0, ot, spc, burn_in, thin);
        else if (d == 1)
            draws_tile(AFFINE, 1, f, xs, g, t, wt, m, k0, ot, spc, burn_in, thin);
        else if (d == 2)
            draws_tile(AFFINE, 2, f, xs, g, t, wt, m, k0, ot, spc, burn_in, thin);
        else
            draws_tile(AFFINE, d, f, xs, g, t, wt, m, k0, ot, spc, burn_in, thin);
        store(xs, x + c0 * d, t, d);
    }
}

/* Packed sign noise at d = 1: draw s of the block is bit s % 64 of
 * words[(s / 64) * n + c]; a set bit adds hi, a clear one lo.  A full
 * tile's width is a constant, so its loop is vectorized. */
#define SIGNS(kind, t)                                                      \
    signs_tile(kind, f, xs, t, words + c0, n, m, k0, lo_bits, flip,         \
               out + c0 * spc, spc, burn_in, thin)

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
        if (t == TILE && f->kind == NEG_CUBE)
            SIGNS(NEG_CUBE, TILE);
        else if (t == TILE)
            SIGNS(AFFINE, TILE);
        else if (f->kind == NEG_CUBE)
            SIGNS(NEG_CUBE, t);
        else
            SIGNS(AFFINE, t);
        memcpy(x + c0, xs, t * sizeof *xs);
    }
}
