/* Compiled step kernel of the chain engine, for two drifts:
 *
 *   NEG_CUBE  F(x) = -x^3        d = 1   g = -(x*x*x)
 *   AFFINE    F(x) = x A^T + b   any d   g_i = (x_0 a_i0 + ... + x_{d-1} a_i,d-1) + b_i
 *
 * Gradient descent on x^T H x / 2 is AFFINE with A = -H and b = 0.
 *
 * One call runs a group of chains through their whole schedule.  Each
 * chain draws its own noise from its own Philox4x64-10 stream, which the
 * kernel runs itself from the chain's key, word for word as a fresh
 * np.random.Philox(key=key) gives them, in the order the numpy body draws
 * it: sign draws are the bits of the words, least significant first;
 * uniform draws are numpy's uniform(-sqrt 3, sqrt 3); gaussian draws are
 * numpy's standard_normal, whose ziggurat fast path (about 99% of draws)
 * runs inline.  Each chain keeps a buffer of BUF_WORDS words, which one
 * refill makes, a block of four at a time: the blocks are counter-based,
 * so no block waits for the one before it.  The draw loops keep the
 * buffer's position in a register and store it back only for a draw the
 * fast path rejects: that draw rewinds the stream one word and is made
 * again by numpy's own random_standard_normal, from libnpyrandom.a,
 * reading the same stream.  numpy's ziggurat tables are
 * local symbols of that archive, so init() reads them back through
 * random_standard_normal before the first run, and _step.load() then
 * checks a few thousand draws of every shape against numpy's.
 *
 * Every step is the numpy body's, operation for operation and rounding for
 * rounding:  g = F(x) for every coordinate before any coordinate moves;
 * g *= dc; x += g; x += w, with w_i = (z_0 l_i0 + ... + z_{d-1} l_i,d-1)
 * coeff the unit draws z scaled as noise.sample_block scales them, L the
 * lower Cholesky factor of Sigma.  The step scales each row of w itself,
 * just before that row of x moves.  The sums run in order of k, each
 * product and each sum rounded on its own, as drift._ordered_product adds
 * them.  It
 * must be built with -ffp-contract=off (no fused multiply-add) and never
 * with -ffast-math, so that each chain gives the same bits as the numpy
 * body.
 *
 * run walks the chains a tile of 64 at a time.  For each sub-block of
 * steps it fills the tile's noise, packed sign words for the quartic under
 * sign noise and unit draws otherwise, then steps the tile with the chain
 * loop innermost: the chains are independent, so the loop runs at the
 * throughput of the arithmetic rather than at the latency of one chain's
 * dependent operations, and the tile's constant width lets the compiler
 * vectorize it.  The quartic under sign noise takes a fused update, one
 * pass per step; every other drift and noise takes one row-wise step, each
 * row of g computed for the whole tile at once.  Every sign draw, packed or
 * drawn, comes from one pick, pick_sign, which flips a sign bit instead of
 * branching on the random bit.  The drift kind is a constant in each loop,
 * and so is d at d = 1 and d = 2.  The tile's noise is laid out step-major, so
 * every loop reads it at unit stride.  Record r of a chain is its state
 * after step burn_in + (r + 1) * thin, written to out[chain, r].
 *
 * On x86-64 with glibc, gcc or clang builds the entry point and the Philox
 * refill three times, for x86-64-v4 (AVX-512), for AVX2 and for the
 * baseline, and glibc's resolver picks one of each when the library is
 * loaded; isa() names the one run takes.  The v4 clone steps a tile eight
 * chains to a vector, the AVX2 clone four, and the v4 refill multiplies
 * with BMI2's mulx.  Each clone of run calls its own clone of refill.  All
 * clones are compiled from this source with the same flags, and none may
 * use FMA, though x86-64-v4 and AVX2 hosts have it: -ffp-contract=off
 * keeps every product and sum rounded on its own, so they write the same
 * bits.
 *
 * The library also prints the rows of samples_<alpha>.csv as csv.writer
 * and repr() would (format_samples, at the end of this file).  It stops at
 * a row with a value it does not print, which Python then writes.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include "numpy/random/distributions.h"

#define TILE 64
/* unit draws per chain in a sub-block of drawn noise */
#define SUB_DRAWS 64
/* raw words per chain in a sub-block of packed quartic sign noise */
#define SIGN_WORDS 64
/* words of a chain's Philox stream made by one refill, 16 blocks */
#define BUF_WORDS 64
/* the double nearest sqrt(3), numpy's np.sqrt(3.0) */
#define SQRT3 1.7320508075688772
#define INLINE static inline __attribute__((always_inline))
#define TWO_M53 (1.0 / 9007199254740992.0)
/* the bits of -1.0 */
#define MINUS_ONE_BITS 0xBFF0000000000000u

#if defined(__x86_64__) && defined(__GLIBC__) && (defined(__GNUC__) || defined(__clang__))
#define CLONED 1
#define CLONES __attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
#else
#define CLONED 0
#define CLONES
#endif

enum { NEG_CUBE, AFFINE };
enum { GAUSSIAN, UNIFORM, RADEMACHER };

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

/* A chain's Philox4x64-10 stream (Salmon et al., SC 2011), as a fresh
 * np.random.Philox(key=key) gives it: the counter starts at 0 and is
 * incremented before each block of four words, so word j is word j % 4 of
 * block j / 4 + 1.  Only the counter's low word moves; its carry would
 * take 2^64 blocks. */
struct stream {
    uint64_t key[2], ctr;
    int pos; /* words of buf already read */
    uint64_t buf[BUF_WORDS];
};

static void stream_init(struct stream *s, const uint64_t *key)
{
    s->key[0] = key[0];
    s->key[1] = key[1];
    s->ctr = 0;
    s->pos = BUF_WORDS;
}

/* hi:lo = a b, 64 x 64 -> 128 bits; a compiler without a 128-bit integer
 * fails the build, which leaves the numpy body in charge */
INLINE uint64_t mulhilo(uint64_t a, uint64_t b, uint64_t *hi)
{
    unsigned __int128 p = (unsigned __int128)a * b;
    *hi = (uint64_t)(p >> 64);
    return (uint64_t)p;
}

/* The stream's next BUF_WORDS words, a block of four at a time: ten
 * rounds, the key bumped between rounds.  The rounds are unrolled, so each
 * round's multiplies can start as soon as their inputs are ready. */
CLONES static void refill(struct stream *s)
{
    uint64_t ctr = s->ctr;
    for (int j = 0; j < BUF_WORDS; j += 4) {
        uint64_t c0 = ++ctr, c1 = 0, c2 = 0, c3 = 0;
        uint64_t k0 = s->key[0], k1 = s->key[1], hi0, hi1, lo0, lo1;
#pragma GCC unroll 10
        for (int r = 0; r < 10; r++) {
            lo0 = mulhilo(0xD2E7470EE14C6C93u, c0, &hi0);
            lo1 = mulhilo(0xCA5A826395121157u, c2, &hi1);
            c0 = hi1 ^ c1 ^ k0;
            c1 = lo1;
            c2 = hi0 ^ c3 ^ k1;
            c3 = lo0;
            k0 += 0x9E3779B97F4A7C15u;
            k1 += 0xBB67AE8584CAA73Bu;
        }
        s->buf[j] = c0;
        s->buf[j + 1] = c1;
        s->buf[j + 2] = c2;
        s->buf[j + 3] = c3;
    }
    s->ctr = ctr;
    s->pos = 0;
}

/* The stream's next word, read at *pos, which the draw loops keep in a
 * register: numpy's next_uint64 and next_raw. */
INLINE uint64_t take(struct stream *s, int *pos)
{
    if (*pos == BUF_WORDS) {
        refill(s);
        *pos = 0;
    }
    return s->buf[(*pos)++];
}

INLINE uint64_t next_word(struct stream *s)
{
    return take(s, &s->pos);
}

/* The sign draw of the random bit at bit 63 of word: the double whose bits
 * are v_bits, with its sign bit flipped when that bit is 1.  The other bits
 * of word are masked off, so a shift that brings the draw to bit 63 is the
 * only work a caller does: on AVX-512 the pick is one vpsllq and one
 * vpternlogq.  A branch on the bit would be mispredicted every other draw;
 * this is the kernel's one sign pick. */
INLINE double pick_sign(uint64_t v_bits, uint64_t word)
{
    double v;
    v_bits ^= word & (uint64_t)1 << 63;
    memcpy(&v, &v_bits, sizeof v);
    return v;
}

/* numpy's next_double: the word's top 53 bits times 2^-53 */
INLINE double unit_double(uint64_t word)
{
    return (double)(int64_t)(word >> 11) * TWO_M53;
}

static uint64_t stream_uint64(void *s)
{
    return next_word(s);
}

static double stream_double(void *s)
{
    return unit_double(next_word(s));
}

/* numpy's ziggurat tables wi_double and ki_double, which init() reads */
static double wi[256];
static uint64_t ki[256];

/* init()'s generator: next_uint64 gives word, then 0 (idx 0, rabs 0, which
 * the fast path takes); next_double gives 0.0, then 0.5, which the wedge
 * and the tail take at once.  calls counts the reads of both. */
struct probe {
    uint64_t word;
    int calls;
};

static uint64_t probe_uint64(void *p)
{
    struct probe *pr = p;
    return pr->calls++ ? 0 : pr->word;
}

static double probe_double(void *p)
{
    struct probe *pr = p;
    return pr->calls++ == 1 ? 0.0 : 0.5;
}

/* random_standard_normal of the word with index idx and rabs, no sign;
 * *calls is the number of reads it made. */
static double probe(int idx, uint64_t rabs, int *calls)
{
    struct probe pr = {(rabs << 9) | (uint64_t)idx, 0};
    bitgen_t bg = {&pr, probe_uint64, NULL, probe_double, probe_uint64};
    double x = random_standard_normal(&bg);
    *calls = pr.calls;
    return x;
}

/* 10^k, k <= 21, which init() fills for fmt_value */
static unsigned __int128 pow10_128[22];

/* Reads numpy's ziggurat tables back through random_standard_normal:
 * wi[i] is the value of rabs = 1, and ki[i] the smallest rabs that takes a
 * second read.  Returns 0, or -1 when a value is not a table's. */
int init(void)
{
    int calls;
    pow10_128[0] = 1;
    for (int k = 1; k < 22; k++)
        pow10_128[k] = pow10_128[k - 1] * 10;
    for (int i = 0; i < 256; i++) {
        wi[i] = probe(i, 1, &calls);
        uint64_t lo = 0, hi = (uint64_t)1 << 52;
        while (lo < hi) {
            uint64_t mid = lo + (hi - lo) / 2;
            probe(i, mid, &calls);
            if (calls > 1)
                hi = mid;
            else
                lo = mid + 1;
        }
        ki[i] = lo;
        if (!(wi[i] > 0.0))
            return -1;
    }
    return 0;
}

/* One step of a tile of d-dimensional states with unit draws z, where
 * z[k * TILE + c] is draw k of chain c.  Each row i of g = F(x) dc is
 * computed for the whole tile before any coordinate moves, with the chain
 * loop innermost, so A is read once per step and the states at unit
 * stride; each chain's sum still runs in order of k.  Then row i of the
 * noise, w_i = (z_0 l_i0 + ... + z_{d-1} l_i,d-1) coeff, is summed into w
 * and row i of x moves by g_i, then by w_i. */
INLINE void step(long kind, long d, const struct drift *f, const struct noise *nz,
                 double *restrict xs, double *restrict g, const double *restrict z)
{
    double dc = f->dc, coeff = nz->coeff, w[TILE];
    for (long i = 0; i < d; i++) {
        double *restrict gi = g + i * TILE;
        if (kind == NEG_CUBE) {
            for (long c = 0; c < TILE; c++)
                gi[c] = -(xs[c] * xs[c] * xs[c]) * dc;
            continue;
        }
        const double *ai = f->a + i * d;
        for (long c = 0; c < TILE; c++)
            gi[c] = xs[c] * ai[0];
        for (long j = 1; j < d; j++) {
            const double *restrict xj = xs + j * TILE;
            double aij = ai[j];
            for (long c = 0; c < TILE; c++)
                gi[c] = gi[c] + xj[c] * aij;
        }
        double bi = f->b[i];
        for (long c = 0; c < TILE; c++)
            gi[c] = (gi[c] + bi) * dc;
    }
    for (long i = 0; i < d; i++) {
        const double *li = nz->l + i * d;
        double *restrict xi = xs + i * TILE, *restrict gi = g + i * TILE, li0 = li[0];
        for (long c = 0; c < TILE; c++)
            w[c] = z[c] * li0;
        for (long k = 1; k < d; k++) {
            const double *restrict zk = z + k * TILE;
            double lik = li[k];
            for (long c = 0; c < TILE; c++)
                w[c] = w[c] + zk[c] * lik;
        }
        for (long c = 0; c < TILE; c++)
            xi[c] = (xi[c] + gi[c]) + w[c] * coeff;
    }
}

/* Record r of the t chains of a tile of d-dimensional states: coordinate
 * i of chain c goes to out[(c * spc + r) * d + i]. */
static void record(const double *xs, long t, long d, double *out, long spc, long r)
{
    for (long c = 0; c < t; c++)
        for (long i = 0; i < d; i++)
            out[(c * spc + r) * d + i] = xs[i * TILE + c];
}

/* Tile states from the (t, d) rows of x. */
static void load(double *xs, const double *x, long t, long d)
{
    for (long c = 0; c < t; c++)
        for (long i = 0; i < d; i++)
            xs[i * TILE + c] = x[c * d + i];
}

/* The next m steps of unit draws of the t chains of a tile, each drawn
 * from its chain's stream: z[(s * d + i) * TILE + c] is coordinate i of
 * chain c at step s.  word and left carry each chain's partly used sign
 * word and its unused bits from one sub-block to the next. */
INLINE void draw(const struct noise *nz, long d, struct stream *ss, long t, long m,
                 double *restrict z, uint64_t *word, int *left)
{
    long n = m * d;
    for (long c = 0; c < t; c++) {
        struct stream *s = ss + c;
        double *restrict zc = z + c;
        int pos = s->pos;
        if (nz->shape == GAUSSIAN) {
            /* numpy's standard_normal: the ziggurat's fast path, and
             * numpy's own random_standard_normal from a rejected word on;
             * it never calls next_uint32 */
            for (long j = 0; j < n; j++) {
                uint64_t r = take(s, &pos), rabs = (r >> 9) & 0x000fffffffffffff, bits;
                int idx = (int)(r & 0xff);
                double x = (double)(int64_t)rabs * wi[idx];
                /* numpy negates x when bit 8 is set: flip its sign bit,
                 * which no branch has to guess */
                memcpy(&bits, &x, sizeof x);
                bits ^= (r & 0x100) << 55;
                memcpy(&x, &bits, sizeof x);
                if (rabs >= ki[idx]) {
                    /* the slow path reads the stream from this word on */
                    s->pos = pos - 1;
                    bitgen_t bg = {s, stream_uint64, NULL, stream_double, stream_uint64};
                    x = random_standard_normal(&bg);
                    pos = s->pos;
                }
                zc[j * TILE] = x;
            }
        } else if (nz->shape == UNIFORM) {
            /* numpy's random_uniform(-sqrt 3, 2 sqrt 3) */
            for (long j = 0; j < n; j++)
                zc[j * TILE] = -SQRT3 + 2 * SQRT3 * unit_double(take(s, &pos));
        } else {
            /* bit 1 flips -1.0 to 1.0; the carry stays in registers */
            uint64_t wd = word[c];
            int lf = left[c];
            for (long j = 0; j < n; j++) {
                if (lf == 0) {
                    wd = take(s, &pos);
                    lf = 64;
                }
                zc[j * TILE] = pick_sign(MINUS_ONE_BITS, wd << 63);
                wd >>= 1;
                lf--;
            }
            word[c] = wd;
            left[c] = lf;
        }
        s->pos = pos;
    }
}

/* Advances a tile of D-dimensional states through steps s0 .. s1 - 1 of a
 * sub-block.  Drawn noise is step-major, z + s * D * TILE the unit draws
 * of step s.  Packed sign noise (words not NULL), which only the quartic
 * takes, has draw s of chain c in bit s % 64 of words[(s / 64) * TILE + c]:
 * a set bit adds -lo, a clear one lo, whose bits are lo_bits.  That update
 * is fused, one pass per step, and picks the draw with pick_sign from the
 * word shifted left by 63 - s % 64, which brings draw s to bit 63. */
INLINE void advance(long kind, long D, const struct drift *f, const struct noise *nz,
                    double *restrict xs, double *restrict g, const double *restrict z,
                    const uint64_t *restrict words, uint64_t lo_bits, long s0, long s1)
{
    for (long s = s0; s < s1; s++) {
        if (words == NULL) {
            step(kind, D, f, nz, xs, g, z + s * D * TILE);
            continue;
        }
        const uint64_t *restrict ws = words + (s >> 6) * TILE;
        unsigned bit = (unsigned)(s & 63);
        for (long c = 0; c < TILE; c++) {
            double v = xs[c];
            xs[c] = (v + -(v * v * v) * f->dc) + pick_sign(lo_bits, ws[c] << (63 - bit));
        }
    }
}

/* Runs the n chains whose states are the (n, d) rows of x through
 * burn_in + spc * thin steps, drawing chain c's noise from the Philox
 * stream of key (keys[2 c], keys[2 c + 1]), and writes their (n, spc, d)
 * records to out.  Returns 0, or -1 when its buffers cannot be allocated.
 * It walks the chains a tile at a time: for each sub-block of steps it
 * fills the tile's noise, then steps the tile from record to record.
 * Every tile is stepped at its full width, so its loops have a constant
 * trip count; the lanes past the last chain start at 0 and are never
 * stored. */
CLONES int run(const struct drift *drift, const struct noise *nz, const uint64_t *keys,
               double *restrict x, long n, double *restrict out, long spc,
               long burn_in, long thin)
{
    /* a local copy, which no store to a state can change */
    const struct drift local = *drift, *f = &local;
    long d = f->d, total = burn_in + spc * thin;
    /* the quartic's sign noise stays packed, 64 draws to a word, a
     * sub-block of SIGN_WORDS words at a time, and needs no draw buffers; a
     * drawn sub-block holds SUB_DRAWS draws, so the buffers are linear in d */
    int packed = nz->shape == RADEMACHER && f->kind == NEG_CUBE;
    long sub = packed ? 0 : d < SUB_DRAWS ? SUB_DRAWS / d : 1,
         block = packed ? 64 * SIGN_WORDS : sub;
    double *xs = calloc((2 * d + sub * d) * TILE, sizeof *xs);
    if (xs == NULL)
        return -1;
    double *g = xs + d * TILE, *z = g + d * TILE,
           lo = -(nz->l[0] * nz->coeff);
    uint64_t words[SIGN_WORDS * TILE] = {0}, word[TILE], lo_bits;
    memcpy(&lo_bits, &lo, sizeof lo);
    int left[TILE];
    struct stream ss[TILE];
    for (long c0 = 0; c0 < n; c0 += TILE) {
        long t = n - c0 < TILE ? n - c0 : TILE, next = burn_in + thin, r = 0;
        double *ot = out + c0 * spc * d;
        memset(left, 0, sizeof left);
        for (long c = 0; c < t; c++)
            stream_init(ss + c, keys + 2 * (c0 + c));
        memset(xs, 0, d * TILE * sizeof *xs);
        load(xs, x + c0 * d, t, d);
        for (long k = 0; k < total; k += block) {
            long m = total - k < block ? total - k : block;
            if (packed)
                for (long c = 0; c < t; c++)
                    for (long j = 0; j < (m + 63) / 64; j++)
                        words[j * TILE + c] = next_word(ss + c);
            else
                draw(nz, d, ss, t, m, z, word, left);
            /* record r is the state after step next = burn_in + (r + 1) thin */
            for (long s = 0, e; s < m; s = e) {
                e = next - k < m ? next - k : m;
                if (packed)
                    advance(NEG_CUBE, 1, f, nz, xs, g, NULL, words, lo_bits, s, e);
                else if (f->kind == NEG_CUBE)
                    advance(NEG_CUBE, 1, f, nz, xs, g, z, NULL, 0, s, e);
                else if (d == 1)
                    advance(AFFINE, 1, f, nz, xs, g, z, NULL, 0, s, e);
                else if (d == 2)
                    advance(AFFINE, 2, f, nz, xs, g, z, NULL, 0, s, e);
                else
                    advance(AFFINE, d, f, nz, xs, g, z, NULL, 0, s, e);
                if (k + e == next) {
                    record(xs, t, d, ot, spc, r++);
                    next += thin;
                }
            }
        }
        record(xs, t, d, x + c0 * d, 1, 0);
    }
    free(xs);
    return 0;
}

/* The clone of run that glibc's resolver picks on this CPU, by the
 * resolver's own tests in its order: "x86-64-v4", "avx2" or "default",
 * which is also the name on a build without clones. */
const char *isa(void)
{
#if CLONED
    __builtin_cpu_init();
    if (__builtin_cpu_supports("x86-64-v4"))
        return "x86-64-v4";
    if (__builtin_cpu_supports("avx2"))
        return "avx2";
#endif
    return "default";
}

/* ------------------------------------------------------------------------
 * The rows of samples_<alpha>.csv, "chain,step,y_1,...,y_d\r\n", byte for
 * byte as csv.writer writes them, with each y_i as repr() prints it.
 *
 * fmt_value prints a double of magnitude in [1e-4, 1e16), or +-0, as
 * repr() does there: in fixed notation, the shortest digits that read back
 * as the double (Steele & White, PLDI 1990; Adams, PLDI 2018), and of
 * those the nearest to it, ties to the even digit.  It computes with exact
 * integers.  Let v = m 2^e with m the 53-bit significand.  What reads back
 * as v lies between the half-way points to its neighbours, L = (4m - 2)
 * 2^(e-2), or (4m - 1) 2^(e-2) when m = 2^52, and U = (4m + 2) 2^(e-2),
 * both included when m is even, as reading rounds half to even.  In this
 * range -66 <= e <= 1.  Counted in units of 10^-k with
 * k = floor(-e log10 2) + 2, so k <= 21, an ulp 2^e is 10 to 100 units,
 * v is below 2^60 units, and L, v and U are 4m 10^k +- a few 10^k over
 * 2^(2 - e), numerators of at most 125 bits.
 * ------------------------------------------------------------------------ */

typedef unsigned __int128 u128;

/* the longest value fmt_value prints: a sign, "0.000" and 19 digits */
#define VALUE_MAX 25
/* the longest row of d values: two int64s, the values, commas and "\r\n" */
#define ROW_MAX(d) (2 * 21 + (d) * (VALUE_MAX + 1) + 2)

/* "00", "01", ..., "99" */
static const char PAIRS[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* Whether fmt_value prints v. */
static int formattable(double v)
{
    double a = fabs(v);
    return (a >= 1e-4 && a < 1e16) || a == 0.0;
}

/* Prints v, which must be formattable, to p as repr() does; returns the end. */
static char *fmt_value(double v, char *p)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    if (bits >> 63)
        *p++ = '-';
    bits &= ~((uint64_t)1 << 63);
    if (bits == 0) {
        memcpy(p, "0.0", 3);
        return p + 3;
    }
    uint64_t m = (bits & (((uint64_t)1 << 52) - 1)) | ((uint64_t)1 << 52);
    int e = (int)(bits >> 52) - 1075, s = 2 - e;
    /* floor(-e log10 2) + 2; the product is exact for -e <= 1650 */
    int k = e <= 0 ? (int)(((uint32_t)-e * 78913) >> 18) + 2 : 1;
    u128 t = pow10_128[k], mask = ((u128)1 << s) - 1;
    /* v, U and L in units of 10^-k, times 2^s */
    u128 vn = ((u128)m * t) << 2, un = vn + (t << 1),
         ln = vn - (m == (uint64_t)1 << 52 ? t : t << 1);
    int inside = !(m & 1);                     /* L and U read back as v */
    /* lo..hi: the whole units from L to U */
    uint64_t lo = (uint64_t)(ln >> s) + ((ln & mask) != 0 || !inside);
    uint64_t hi = (uint64_t)(un >> s) - ((un & mask) == 0 && !inside);
    /* the largest 10^j units of which a multiple lies in lo..hi; lo..hi
     * then count those multiples in units of 10^j */
    uint64_t pj = 1;
    int j = 0;
    while ((lo + 9) / 10 <= hi / 10) {
        lo = (lo + 9) / 10;
        hi /= 10;
        pj *= 10;
        j++;
    }
    /* v rounded to a multiple of 10^j units, half to even, then the
     * multiple in lo..hi nearest to it */
    uint64_t vr = (uint64_t)(vn >> s), q = vr / pj;
    u128 twice = ((((u128)(vr % pj)) << s) | (vn & mask)) << 1, whole = (u128)pj << s;
    q += twice > whole || (twice == whole && (q & 1));
    q = q < lo ? lo : q > hi ? hi : q;
    /* the n digits of q end at dig + 20, two at a time */
    char dig[20], *d = dig + 20;
    for (; q >= 100; q /= 100) {
        d -= 2;
        memcpy(d, PAIRS + 2 * (q % 100), 2);
    }
    if (q >= 10) {
        d -= 2;
        memcpy(d, PAIRS + 2 * q, 2);
    } else {
        *--d = (char)('0' + q);
    }
    int n = (int)(dig + 20 - d);
    /* v = 0.d_1 ... d_n times 10^point */
    int point = n + j - k;
    if (point <= 0) {
        *p++ = '0';
        *p++ = '.';
        for (int i = point; i < 0; i++)
            *p++ = '0';
        for (int i = 0; i < n; i++)
            *p++ = d[i];
        return p;
    }
    for (int i = 0; i < n; i++) {
        if (i == point)
            *p++ = '.';
        *p++ = d[i];
    }
    if (point >= n) {
        for (int i = n; i < point; i++)
            *p++ = '0';
        *p++ = '.';
        *p++ = '0';
    }
    return p;
}

/* Prints i to p as str() does; returns the end. */
static char *fmt_int(int64_t i, char *p)
{
    uint64_t u = (uint64_t)i;
    if (i < 0) {
        *p++ = '-';
        u = 0 - u;
    }
    char dig[20];
    int n = 0;
    do {
        dig[n++] = (char)('0' + u % 10);
        u /= 10;
    } while (u);
    while (n)
        *p++ = dig[--n];
    return p;
}

/* Prints rows row, row + 1, ... up to row end of a samples CSV into buf,
 * sets *used to the bytes printed and returns the first row it did not
 * print.  Row r is chain ids[r / spc] at step steps[r % spc], with values
 * y[r d] .. y[r d + d - 1].  It stops before a row with a value that
 * fmt_value does not print, and before a row that might not fit in what
 * is left of the cap bytes of buf.  It touches no Python object, so
 * ctypes runs it without the GIL. */
long format_samples(const int64_t *ids, const int64_t *steps, long spc, const double *y,
                    long d, long row, long end, char *buf, long cap, long *used)
{
    char *p = buf;
    *used = 0;
    if (row >= end)
        return row;
    long c = row / spc, r = row % spc;
    for (; row < end && cap - (p - buf) >= ROW_MAX(d);
         row++, r = r + 1 < spc ? r + 1 : (c++, 0)) {
        const double *yr = y + row * d;
        long i = 0;
        while (i < d && formattable(yr[i]))
            i++;
        if (i < d)
            break;
        p = fmt_int(ids[c], p);
        *p++ = ',';
        p = fmt_int(steps[r], p);
        for (i = 0; i < d; i++) {
            *p++ = ',';
            p = fmt_value(yr[i], p);
        }
        *p++ = '\r';
        *p++ = '\n';
    }
    *used = p - buf;
    return row;
}
