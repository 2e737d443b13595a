/* Compiled step kernel of the chain engine for the quartic drift F(x) = -x^3
 * at d = 1.
 *
 * Every step is the numpy body's, operation for operation and rounding for
 * rounding:  f = -(x*x*x); f *= dc; x += f; x += w.  It must be built with
 * -ffp-contract=off (no fused multiply-add) and never with -ffast-math, so
 * that each chain gives the same bits as the numpy body.
 *
 * A tile of TILE chains is stepped through the whole block with the chain
 * loop innermost: the chains are independent, so the loop runs at the
 * throughput of the arithmetic rather than at the latency of one chain's
 * dependent operations, and a full tile's constant width lets the compiler
 * vectorize it.  Record r of a chain is its state after step
 * burn_in + (r + 1) * thin, written to out[chain * spc + r].
 *
 * Arguments shared by both entry points:
 *   x        states of the group's n chains, updated in place
 *   m, k0    steps in this block, and steps taken before it
 *   dc       drift coefficient
 *   out, spc (n, spc) records
 */

#include <stdint.h>
#include <string.h>

#define TILE 64

/* One step of one chain, in the numpy body's order. */
static inline double step(double v, double dc, double w)
{
    double f = -(v * v * v);
    f = f * dc;
    v = v + f;
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

/* t chains through m steps of row noise: w[s * n + c] for chain c. */
static inline void rows_tile(double *restrict xs, long t, const double *restrict w,
                             long n, long m, long k0, double dc, double *out,
                             long spc, long burn_in, long thin)
{
    long next = next_record(k0, burn_in, thin);
    for (long s = 0; s < m; s++) {
        const double *ws = w + s * n;
        for (long c = 0; c < t; c++)
            xs[c] = step(xs[c], dc, ws[c]);
        if (k0 + s + 1 == next) {
            record(xs, t, out, spc, (next - burn_in) / thin - 1);
            next += thin;
        }
    }
}

/* t chains through m steps of packed sign noise.  The draw's value is
 * picked by masking bit patterns, not by a branch: the bits are random, so
 * a branch would be mispredicted every other draw. */
static inline void signs_tile(double *restrict xs, long t,
                              const uint64_t *restrict words, long n, long m,
                              long k0, double dc, uint64_t lo_bits, uint64_t flip,
                              double *out, long spc, long burn_in, long thin)
{
    long next = next_record(k0, burn_in, thin);
    for (long s = 0; s < m; s++) {
        const uint64_t *ws = words + (s >> 6) * n;
        unsigned bit = (unsigned)(s & 63);
        for (long c = 0; c < t; c++) {
            uint64_t pick = lo_bits ^ (flip & (0 - ((ws[c] >> bit) & 1)));
            double w;
            memcpy(&w, &pick, sizeof w);
            xs[c] = step(xs[c], dc, w);
        }
        if (k0 + s + 1 == next) {
            record(xs, t, out, spc, (next - burn_in) / thin - 1);
            next += thin;
        }
    }
}

/* Row noise: w[s * n + c] is the already scaled noise of chain c at step s
 * of the block. */
void step_rows(double *restrict x, long n, const double *restrict w, long m,
               long k0, double dc, double *restrict out, long spc,
               long burn_in, long thin)
{
    double xs[TILE];
    for (long c0 = 0; c0 < n; c0 += TILE) {
        long t = n - c0 < TILE ? n - c0 : TILE;
        memcpy(xs, x + c0, t * sizeof *xs);
        if (t == TILE)
            rows_tile(xs, TILE, w + c0, n, m, k0, dc, out + c0 * spc, spc,
                      burn_in, thin);
        else
            rows_tile(xs, t, w + c0, n, m, k0, dc, out + c0 * spc, spc,
                      burn_in, thin);
        memcpy(x + c0, xs, t * sizeof *xs);
    }
}

/* Packed sign noise: draw s of the block is bit s % 64 of
 * words[(s / 64) * n + c]; a set bit adds hi, a clear one lo. */
void step_signs(double *restrict x, long n, const uint64_t *restrict words,
                long m, long k0, double dc, double lo, double hi,
                double *restrict out, long spc, long burn_in, long thin)
{
    double xs[TILE];
    uint64_t lo_bits, flip;
    memcpy(&lo_bits, &lo, sizeof lo);
    memcpy(&flip, &hi, sizeof hi);
    flip ^= lo_bits;
    for (long c0 = 0; c0 < n; c0 += TILE) {
        long t = n - c0 < TILE ? n - c0 : TILE;
        memcpy(xs, x + c0, t * sizeof *xs);
        if (t == TILE)
            signs_tile(xs, TILE, words + c0, n, m, k0, dc, lo_bits, flip,
                       out + c0 * spc, spc, burn_in, thin);
        else
            signs_tile(xs, t, words + c0, n, m, k0, dc, lo_bits, flip,
                       out + c0 * spc, spc, burn_in, thin);
        memcpy(x + c0, xs, t * sizeof *xs);
    }
}
