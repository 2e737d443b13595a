/* Compiled step kernel of the chain engine, for two drifts:
 *
 *   NEG_CUBE  F(x) = -x^3        d = 1   g = -(x*x*x)
 *   AFFINE    F(x) = x A^T + b   any d   g_i = (x_0 a_i0 + ... + x_{d-1} a_i,d-1) + b_i
 *
 * Gradient descent on x^T H x / 2 is AFFINE with A = -H and b = 0.
 *
 * One call runs a group of chains through their whole schedule.  Each
 * chain draws its own noise from its own bit generator (numpy's bitgen_t,
 * through numpy's C distributions), in the order the numpy body draws it:
 * gaussian and uniform draws are numpy's standard_normal and
 * uniform(-sqrt 3, sqrt 3), sign draws are the bits of the raw words,
 * least significant first.  Each unit draw z is scaled as
 * noise.sample_block scales it: w_i = (z_0 l_i0 + ... + z_{d-1} l_i,d-1)
 * * coeff, with L the lower Cholesky factor of Sigma.
 *
 * Every step is the numpy body's, operation for operation and rounding for
 * rounding:  g = F(x) for every coordinate before any coordinate moves;
 * g *= dc; x += g; x += w.  The sums run in order of k, each product and
 * each sum rounded on its own, as drift._ordered_product adds them.  It
 * must be built with -ffp-contract=off (no fused multiply-add) and never
 * with -ffast-math, so that each chain gives the same bits as the numpy
 * body.
 *
 * A tile of chains is stepped through a sub-block of steps with the chain
 * loop innermost: the chains are independent, so the loop runs at the
 * throughput of the arithmetic rather than at the latency of one chain's
 * dependent operations, and a full sign tile's constant width lets the
 * compiler vectorize it.  The drift kind is a constant in each loop, and
 * so is d at d = 1 and d = 2; above that d is a runtime value, and each
 * row of g is computed for the whole tile at once.  The tile's noise is
 * laid out step-major, so every loop reads it at unit stride.  Record r
 * of a chain is its state after step burn_in + (r + 1) * thin, written to
 * out[chain, r].
 *
 * On x86-64 with glibc, gcc or clang builds the entry point twice, for
 * AVX2 and for the baseline, and picks one when the library is loaded.
 * Both clones are compiled from this source with the same flags, and
 * neither may use FMA, so they write the same bits.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include "numpy/random/distributions.h"

#define TILE 64
/* unit draws per chain in a sub-block of drawn noise */
#define SUB_DRAWS 64
/* raw words per chain in a sub-block of packed d = 1 sign noise */
#define SIGN_WORDS 64
/* the double nearest sqrt(3), numpy's np.sqrt(3.0) */
#define SQRT3 1.7320508075688772
#define INLINE static inline __attribute__((always_inline))

#if defined(__x86_64__) && defined(__GLIBC__) && (defined(__GNUC__) || defined(__clang__))
#define CLONES __attribute__((target_clones("avx2", "default")))
#else
#define CLONES
#endif

enum { NEG_CUBE, AFFINE };
enum { GAUSSIAN, UNIFORM, RADEMACHER, NOISELESS };

struct drift {
    long kind, d;
    const double *a; /* row-major d x d A (AFFINE) */
    const double *b; /* d entries (AFFINE) */
    double dc;
};

struct noise {
    long shape;
    const double *l; /* row-major d x d lower Cholesky factor of Sigma */
    double coeff;
};

/* One step of chain c of a tile at D <= 2, whose coordinate i is
 * xs[i * TILE + c] and whose draw for it is w[i * ws], in the numpy body's
 * order. */
INLINE void step(long kind, long D, const struct drift *f, double *xs, long c,
                 const double *w, long ws)
{
    double g[2];
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
        xs[i * TILE + c] = v + w[i * ws];
    }
}

/* One AFFINE step of a tile at a runtime d: each row i of g is computed
 * for the whole tile, with the chain loop innermost, so A is read once per
 * step and the states at unit stride; each chain's sum still runs in order
 * of k.  w[i * TILE + c] is the draw of chain c. */
INLINE void step_rows(const struct drift *f, long d, double *restrict xs,
                      double *restrict g, const double *restrict w)
{
    const double *restrict a = f->a, *restrict b = f->b;
    double dc = f->dc;
    for (long i = 0; i < d; i++) {
        const double *ai = a + i * d;
        double *restrict gi = g + i * TILE;
        for (long c = 0; c < TILE; c++)
            gi[c] = xs[c] * ai[0];
        for (long j = 1; j < d; j++) {
            const double *restrict xj = xs + j * TILE;
            double aij = ai[j];
            for (long c = 0; c < TILE; c++)
                gi[c] = gi[c] + xj[c] * aij;
        }
        double bi = b[i];
        for (long c = 0; c < TILE; c++)
            gi[c] = (gi[c] + bi) * dc;
    }
    for (long i = 0; i < d * TILE; i += TILE)
        for (long c = 0; c < TILE; c++)
            xs[i + c] = (xs[i + c] + g[i + c]) + w[i + c];
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

/* The next m steps of scaled noise of the t chains of a tile, each drawn
 * from its chain's generator: w[(s * d + i) * TILE + c] is coordinate i of
 * chain c at step s.  u holds one chain's m * d unit draws, and z all the
 * tile's, laid out as w is; L z is then summed for the whole tile at once,
 * with the chain loop innermost.  word and left carry each chain's partly
 * used sign word and its unused bits from one sub-block to the next. */
INLINE void draw(const struct noise *nz, long d, bitgen_t *const *gens, long t, long m,
                 double *restrict u, double *restrict z, double *restrict w,
                 uint64_t *word, int *left)
{
    long n = m * d;
    const double *l = nz->l;
    double coeff = nz->coeff;
    if (nz->shape == NOISELESS) {
        /* z = 0 and L = 0, so every sum is 0 and every draw 0 coeff */
        for (long j = 0; j < n * TILE; j++)
            w[j] = 0.0 * coeff;
        return;
    }
    for (long c = 0; c < t; c++) {
        bitgen_t *bg = gens[c];
        if (nz->shape == GAUSSIAN) {
            random_standard_normal_fill(bg, n, u);
        } else if (nz->shape == UNIFORM) {
            for (long j = 0; j < n; j++)
                u[j] = random_uniform(bg, -SQRT3, 2 * SQRT3);
        } else {
            for (long j = 0; j < n; j++) {
                if (left[c] == 0) {
                    word[c] = bg->next_raw(bg->state);
                    left[c] = 64;
                }
                u[j] = word[c] & 1 ? 1.0 : -1.0;
                word[c] >>= 1;
                left[c]--;
            }
        }
        for (long j = 0; j < n; j++)
            z[j * TILE + c] = u[j];
    }
    for (long s = 0; s < m; s++)
        for (long i = 0; i < d; i++) {
            const double *li = l + i * d, *restrict zs = z + s * d * TILE;
            double *restrict wi = w + (s * d + i) * TILE, li0 = li[0];
            for (long c = 0; c < TILE; c++)
                wi[c] = zs[c] * li0;
            for (long k = 1; k < d; k++) {
                const double *restrict zk = zs + k * TILE;
                double lik = li[k];
                for (long c = 0; c < TILE; c++)
                    wi[c] = wi[c] + zk[c] * lik;
            }
            for (long c = 0; c < TILE; c++)
                wi[c] = wi[c] * coeff;
        }
}

/* A tile through m steps of step-major tile noise w, after k0 steps; the
 * records are those of its first t chains. */
INLINE void draws_tile(long kind, long D, const struct drift *f,
                       double *restrict xs, double *restrict g, long t,
                       const double *restrict w, long m, long k0, double *out,
                       long spc, long burn_in, long thin)
{
    long next = next_record(k0, burn_in, thin);
    for (long s = 0; s < m; s++) {
        const double *ws = w + s * D * TILE;
        if (D <= 2)
            for (long c = 0; c < TILE; c++)
                step(kind, D, f, xs, c, ws + c, TILE);
        else
            step_rows(f, D, xs, g, ws);
        if (k0 + s + 1 == next) {
            record(xs, t, D, out, spc, (next - burn_in) / thin - 1);
            next += thin;
        }
    }
}

/* A tile through m steps of packed sign noise at d = 1: draw s is bit
 * s % 64 of words[(s / 64) * TILE + c]; the records are those of its
 * first t chains.  The draw's value is picked by masking bit patterns, not
 * by a branch: the bits are random, so a branch would be mispredicted
 * every other draw. */
INLINE void signs_tile(long kind, const struct drift *f, double *restrict xs,
                       long t, const uint64_t *restrict words, long m,
                       long k0, uint64_t lo_bits, uint64_t flip, double *out,
                       long spc, long burn_in, long thin)
{
    long next = next_record(k0, burn_in, thin);
    for (long s = 0; s < m; s++) {
        const uint64_t *ws = words + (s >> 6) * TILE;
        unsigned bit = (unsigned)(s & 63);
        for (long c = 0; c < TILE; c++) {
            uint64_t pick = lo_bits ^ (flip & (0 - ((ws[c] >> bit) & 1)));
            double w;
            memcpy(&w, &pick, sizeof w);
            step(kind, 1, f, xs, c, &w, 0);
        }
        if (k0 + s + 1 == next) {
            record(xs, t, 1, out, spc, (next - burn_in) / thin - 1);
            next += thin;
        }
    }
}

/* Sign noise at d = 1: a set bit adds hi = l_00 coeff, a clear one lo =
 * -hi. */
INLINE void run_signs(const struct drift *f, const struct noise *nz,
                      bitgen_t *const *gens, double *restrict x, long n,
                      double *restrict out, long spc, long burn_in, long thin)
{
    long total = burn_in + spc * thin;
    double xs[TILE], hi = nz->l[0] * nz->coeff, lo = -hi;
    uint64_t words[SIGN_WORDS * TILE] = {0}, lo_bits, flip;
    memcpy(&lo_bits, &lo, sizeof lo);
    memcpy(&flip, &hi, sizeof hi);
    flip ^= lo_bits;
    for (long c0 = 0; c0 < n; c0 += TILE) {
        long t = n - c0 < TILE ? n - c0 : TILE;
        memset(xs, 0, sizeof xs);
        memcpy(xs, x + c0, t * sizeof *xs);
        for (long k = 0; k < total; k += 64 * SIGN_WORDS) {
            long m = total - k < 64 * SIGN_WORDS ? total - k : 64 * SIGN_WORDS;
            for (long c = 0; c < t; c++) {
                bitgen_t *bg = gens[c0 + c];
                for (long j = 0; j < (m + 63) / 64; j++)
                    words[j * TILE + c] = bg->next_raw(bg->state);
            }
            if (f->kind == NEG_CUBE)
                signs_tile(NEG_CUBE, f, xs, t, words, m, k, lo_bits, flip,
                           out + c0 * spc, spc, burn_in, thin);
            else
                signs_tile(AFFINE, f, xs, t, words, m, k, lo_bits, flip,
                           out + c0 * spc, spc, burn_in, thin);
        }
        memcpy(x + c0, xs, t * sizeof *xs);
    }
}

/* Runs the n chains whose states are the (n, d) rows of x through
 * burn_in + spc * thin steps, drawing chain c's noise from gens[c], and
 * writes their (n, spc, d) records to out.  Returns 0, or -1 when its
 * buffers cannot be allocated.  Every tile is stepped at its full width,
 * so its loops have a constant trip count; the lanes past the last chain
 * start at 0 and are never stored. */
CLONES int run(const struct drift *drift, const struct noise *nz, bitgen_t *const *gens,
               double *restrict x, long n, double *restrict out, long spc,
               long burn_in, long thin)
{
    /* a local copy, which no store to a state can change */
    const struct drift local = *drift, *f = &local;
    long d = f->d, total = burn_in + spc * thin;
    if (nz->shape == RADEMACHER && d == 1) {
        run_signs(f, nz, gens, x, n, out, spc, burn_in, thin);
        return 0;
    }
    /* steps per sub-block; the buffers are linear in d */
    long sub = d < SUB_DRAWS ? SUB_DRAWS / d : 1;
    long dx = d > 2 ? d : 2;
    double *xs = calloc((dx + d + 2 * sub * d) * TILE + sub * d, sizeof *xs);
    if (xs == NULL)
        return -1;
    double *g = xs + dx * TILE, *w = g + d * TILE, *z = w + sub * d * TILE,
           *u = z + sub * d * TILE;
    uint64_t word[TILE];
    int left[TILE];
    for (long c0 = 0; c0 < n; c0 += TILE) {
        long t = n - c0 < TILE ? n - c0 : TILE;
        double *ot = out + c0 * spc * d;
        memset(left, 0, sizeof left);
        memset(xs, 0, dx * TILE * sizeof *xs);
        load(xs, x + c0 * d, t, d);
        for (long k = 0; k < total; k += sub) {
            long m = total - k < sub ? total - k : sub;
            draw(nz, d, gens + c0, t, m, u, z, w, word, left);
            if (f->kind == NEG_CUBE)
                draws_tile(NEG_CUBE, 1, f, xs, g, t, w, m, k, ot, spc, burn_in, thin);
            else if (d == 1)
                draws_tile(AFFINE, 1, f, xs, g, t, w, m, k, ot, spc, burn_in, thin);
            else if (d == 2)
                draws_tile(AFFINE, 2, f, xs, g, t, w, m, k, ot, spc, burn_in, thin);
            else
                draws_tile(AFFINE, d, f, xs, g, t, w, m, k, ot, spc, burn_in, thin);
        }
        store(xs, x + c0 * d, t, d);
    }
    free(xs);
    return 0;
}
