/* Blocks of coupled pairs and of single adaptive paths, run in C, bit
 * for bit as driver._merge and scheme._path_loop.
 *
 * This file mirrors scheme._tamed, scheme._tam_leg, scheme._tm_leg,
 * scheme._due, driver._merge and scheme._path_loop operation for
 * operation, with the coefficients of the built-in models of model.py
 * written in the same operation order.  The results are byte-identical to
 * the Python loops only because:
 *   - it is built with -ffp-contract=off, so no a*b+c is fused into one
 *     rounding, and without -ffast-math, so nothing is reassociated;
 *   - every real power goes through libm pow, which CPython's float **
 *     calls (the special cases CPython handles before calling pow give the
 *     same values as pow for a non-negative base; an overflow, which
 *     model._rpow turns into inf, is inf here too);
 *   - the noise is NoiseSource's stream, numpy's Philox(seed), and each
 *     normal is numpy's random_standard_normal, linked from numpy's
 *     libnpyrandom.a: the function Generator.standard_normal calls.  Every
 *     draw takes its fast path, about 99% of draws, itself, with no branch
 *     on the random sign, on tables probed off numpy's function when the
 *     library is loaded (tamsde_init), and hands the rest to the function
 *     on a replay of the output (normal(), below).
 *
 * The scheme's formulas (the coefficients of the three models, the tamed
 * product, the step rule of propose, scheme._due, the tamed-adaptive update
 * and the Kahan sum of a pending increment) and the tamed-adaptive leg they
 * step are written once, in FORMULAS, over a lane type: instantiated on a
 * double for the legs of a tamed-adaptive pair in a scalar lane, and on a
 * vector of doubles for paths, fixed-step pairs or tamed-adaptive pairs,
 * one in each element.  The leg (struct leg_V) and its event (fire_V:
 * advance with the increment it is given, clear the pending increment and
 * propose the next step) are the one tamed-adaptive step of every runner.
 * A tamed-adaptive pair is two legs on a merged timeline: pair_event is one
 * event of driver._merge's loop, which fires each leg due with its pending
 * increment.  A path is one leg, fired with its own increment, which
 * nothing pends, as in scheme._path_loop.  One vector runner, run_legs_V,
 * runs both, given the number of legs: a pass gives each element one step
 * of its path, or pair_event, firing the leg due first, picked into one
 * vector.
 * The step rule takes the leg's sqrt(delta), 1/sqrt(delta) and delta as
 * values of the lane type, so a vector's elements may each step a leg of
 * their own.  Everything written on vectors, the vector layer, is written
 * once too, in VECTOR_LAYER, and instantiated once per width of vector.
 * Only vectors step fixed-step legs, so the fixed-step update and propose
 * (tm_advance_V, tm_propose_V) are written for the vector alone.  A
 * fixed-step leg's clock does not depend on its state, so fixed-step pairs
 * that start together share one merged timeline: run_fixed_V works out each
 * event of driver._merge's loop once for a generation of seeds (struct
 * tick, one per leg) and steps the seeds' draws, pending increments,
 * updates and finiteness tests as vectors.  There is no other pair or path
 * loop.  kernel.py builds and loads this file.
 *
 * A Monte Carlo cell's pairs or paths, and a single pair, run as a block of
 * consecutive seeds (tamsde_block), the one entry point that runs them.  A
 * block keeps several seeds in flight, each with a Philox of its own: numpy's
 * SeedSequence and Philox4x64-10 (Salmon et al., "Parallel random numbers: as
 * easy as 1, 2, 3", SC'11), ported below word for word, so tamsde_seed gives
 * the key and the counter numpy's Philox(seed) starts with.  Only the two
 * draws numpy's normal makes, the 64-bit output and the double, are ported;
 * the next_uint32 slot of a bitgen_t handed to numpy's normal aborts
 * (philox_abort32).  Each step of a seed is one chain of dependent
 * operations, so one seed alone leaves most of the processor idle; the seeds'
 * chains overlap.  A block's tamed-adaptive pairs run in LANES scalar lanes
 * (struct lane), or MODEL2_LANES for model2, its paths and its fixed-step
 * pairs in VECTORS vectors (struct leg_lanes_V, struct fixed_lanes_V), whose
 * packed operations step a seed in each element at once; each seed's draw,
 * its pow calls, its step count and its record stay its own.  On a host
 * with AVX2 a block of model1 or gbm pairs of vector_pairs[model] seeds or
 * more runs on VECTORS four-wide vectors too (run_legs_V with two legs),
 * one seed's pair to an element, each element on its own merged timeline:
 * a pass gives each element one event of pair_event, in which only the leg
 * that fires first in that element, picked into one vector, advances and
 * proposes, and a masked step, taken only in a pass where some element has
 * both legs due (every seed at t_end), fires the coarse leg after it.
 * model2, the two-wide build and small blocks keep the lanes (vector_pairs
 * says why).  Of the draw's state a lane or an element holds only its
 * seed's Philox, which every draw reads, the rare one off the ziggurat's
 * fast path included.  The three runners share one block protocol (struct
 * block): take is the one cursor, which hands out the block's next seed,
 * seeding its Philox and stepping the seed's 32-bit words by one, and
 * record is the one writer of the caller's columns, one array for each of
 * the legs' states, the stop time, the legs' step counts and the return
 * code, into which it writes seed i's item i, and counts the stops.  A pass
 * gives every live lane or vector one event or step, and a seed that is
 * over is recorded.  A lane or an element of run_legs_V then takes the
 * block's next seed; a fixed-step pair's element idles, drawing
 * nothing, until its generation is over, as a new seed starts at t = 0 on
 * another timeline, and the next generation starts.  A seed runs the same
 * operations in the same order on its own Philox in any lane or element, so
 * its results do not depend on the others.  A path of a block stores no
 * trajectory; a single pair is a block of one: one lane, or one vector of
 * which one element is not idle.
 *
 * Every build has the vector layer on vectors of two doubles.  On x86-64
 * ELF with glibc it has a second, on vectors of four, compiled for AVX2
 * (the target attribute), and tamsde_init, which tests the processor once
 * per process, has tamsde_block run the four-wide runners (run_legs_v4,
 * for paths and, as above, adaptive pairs, and run_fixed_v4) on a host with
 * AVX2, and the two-wide ones (run_legs_v2, for paths only, and
 * run_fixed_v2) elsewhere; tamsde_lanes says which.  Without that target
 * (musl, arm64, no ELF, or __ELF__ undefined on the build line) the one
 * two-wide layer is portable GNU C vector code.  No width moves a bit:
 * each element's operations are the scalar ones.
 *
 * A Monte Carlo cell's columns are reduced here too (tamsde_sums), to
 * the sums montecarlo's Python reduction takes, on a port of CPython's
 * math.fsum, so the row's bits are the same.
 *
 * tamsde_seed and tamsde_normals, the lanes' draw, and tamsde_fsum, the
 * port of math.fsum, are exported for the tests that check the ports
 * against numpy and Python; the structs are known only to this file (and
 * to that test's mirror of struct philox).
 */
#include <errno.h>
#include <float.h>
#include <limits.h>
#include <math.h>
#include <pthread.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <numpy/random/bitgen.h>

/* declared in numpy/random/distributions.h, which includes Python.h */
double random_standard_normal(bitgen_t *bitgen_state);

/* --- numpy's Philox4x64-10 and SeedSequence ------------------------------ */

/* The state of numpy's Philox: the counter, the key, and the four outputs
   of the counter's block of which buffer_pos are read; none of numpy's
   state for a 32-bit output, which its normal never draws. */
struct philox {
    uint64_t counter[4], key[2], buffer[4];
    int buffer_pos;
};

/* a * b: returns the low 64 bits and sets *hi to the high 64.  A compiler
   with a 128-bit integer type multiplies in one instruction, twice as fast
   as the portable C99 product of 32-bit halves it falls back to. */
#ifdef __SIZEOF_INT128__
__extension__ typedef unsigned __int128 uint128;

static uint64_t mulhilo(uint64_t a, uint64_t b, uint64_t *hi)
{
    uint128 p = (uint128)a * b;
    *hi = (uint64_t)(p >> 64);
    return (uint64_t)p;
}
#else
static uint64_t mulhilo(uint64_t a, uint64_t b, uint64_t *hi)
{
    uint64_t a0 = a & 0xffffffffu, a1 = a >> 32;
    uint64_t b0 = b & 0xffffffffu, b1 = b >> 32;
    uint64_t p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0;
    uint64_t mid = (p00 >> 32) + (p01 & 0xffffffffu) + (p10 & 0xffffffffu);
    *hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
    return a * b;
}
#endif

/* numpy's philox_next: the next 64-bit output; a new block is the 10-round
   Philox of the counter, which is incremented first, carrying word by word
   as numpy does.  Each counter word is read back at the width it was
   stored, one 64-bit word: a wider load of words just stored (a memcpy of
   the counter compiles to 16-byte loads) cannot be forwarded from the
   store buffer, so it waits for the stores to reach the cache, and every
   fourth draw stalled on it.  The rounds run on four local words, written
   to the buffer one at a time. */
static uint64_t philox_next(void *st)
{
    struct philox *s = st;
    uint64_t c0, c1, c2, c3, k0 = s->key[0], k1 = s->key[1], hi0, hi1, lo0,
             lo1;
    int i;
    if (s->buffer_pos < 4)
        return s->buffer[s->buffer_pos++];
    c0 = ++s->counter[0];
    c1 = s->counter[1];
    c2 = s->counter[2];
    c3 = s->counter[3];
    if (c0 == 0 && (s->counter[1] = ++c1) == 0
            && (s->counter[2] = ++c2) == 0)
        s->counter[3] = ++c3;  /* carry */
    for (i = 0; i < 10; i++) {
        if (i > 0) {  /* bump the key */
            k0 += 0x9E3779B97F4A7C15u;
            k1 += 0xBB67AE8584CAA73Bu;
        }
        lo0 = mulhilo(0xD2E7470EE14C6C93u, c0, &hi0);
        lo1 = mulhilo(0xCA5A826395121157u, c2, &hi1);
        c0 = hi1 ^ c1 ^ k0;
        c2 = hi0 ^ c3 ^ k1;
        c1 = lo1;
        c3 = lo0;
    }
    s->buffer[0] = c0;
    s->buffer[1] = c1;
    s->buffer[2] = c2;
    s->buffer[3] = c3;
    s->buffer_pos = 1;
    return c0;
}

/* philox_next, with the read of a buffered output inline: the vector
   lanes' draw and tamsde_normals call philox_next only to refill the
   buffer, every fourth draw */
static inline uint64_t philox_read(struct philox *s)
{
    return s->buffer_pos < 4 ? s->buffer[s->buffer_pos++] : philox_next(s);
}

/* the next_uint32 slot, which numpy's normal never calls: a numpy that
   starts to call it stops here rather than drawing other normals than
   NoiseSource's */
static uint32_t philox_abort32(void *st)
{
    (void)st;
    abort();
}

static double philox_double(void *st)
{
    return (double)(philox_next(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* SeedSequence's hash constants */
#define INIT_A 0x43b0d7e5u
#define MULT_A 0x931e8875u
#define INIT_B 0x8b51f9ddu
#define MULT_B 0x58f38dedu
#define MIX_MULT_L 0xca01f9ddu
#define MIX_MULT_R 0x4973f715u

static uint32_t hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const = (uint32_t)(*hash_const * MULT_A);
    value = (uint32_t)(value * *hash_const);
    return value ^ value >> 16;
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t r = (uint32_t)((uint32_t)(MIX_MULT_L * x) - (uint32_t)(MIX_MULT_R * y));
    return r ^ r >> 16;
}

/* entropy word i of a seed given as little-endian 32-bit words */
static uint32_t word(const unsigned char *seed, size_t i)
{
    const unsigned char *b = seed + 4 * i;
    return (uint32_t)b[0] | (uint32_t)b[1] << 8 | (uint32_t)b[2] << 16
           | (uint32_t)b[3] << 24;
}

/* rng = numpy's Philox(seed): the key is SeedSequence(seed)'s
   generate_state(2, uint64) and the counter is 0.  seed holds the integer's
   n_words 32-bit entropy words, least significant first (one word for 0). */
void tamsde_seed(struct philox *rng, const unsigned char *seed, size_t n_words)
{
    uint32_t pool[4], out[4], hash_const = INIT_A;
    size_t i, j;
    /* SeedSequence.mix_entropy on a pool of 4 words */
    for (i = 0; i < 4; i++)
        pool[i] = hashmix(i < n_words ? word(seed, i) : 0, &hash_const);
    for (i = 0; i < 4; i++)
        for (j = 0; j < 4; j++)
            if (i != j)
                pool[j] = mix(pool[j], hashmix(pool[i], &hash_const));
    for (i = 4; i < n_words; i++)
        for (j = 0; j < 4; j++)
            pool[j] = mix(pool[j], hashmix(word(seed, i), &hash_const));
    /* generate_state: four 32-bit words, read as two little-endian 64s */
    hash_const = INIT_B;
    for (i = 0; i < 4; i++) {
        uint32_t v = pool[i] ^ hash_const;
        hash_const = (uint32_t)(hash_const * MULT_B);
        v = (uint32_t)(v * hash_const);
        out[i] = v ^ v >> 16;
    }
    memset(rng, 0, sizeof *rng);
    rng->key[0] = out[0] | (uint64_t)out[1] << 32;
    rng->key[1] = out[2] | (uint64_t)out[3] << 32;
    rng->buffer_pos = 4;
}

/* --- numpy's normal ------------------------------------------------------ */

/* numpy's random_standard_normal is a ziggurat (Marsaglia and Tsang, "The
   ziggurat method for generating random variables", J. Stat. Softw.
   2000).  An output r gives the strip idx = r & 0xff, the sign bit 8 and
   rabs, the 52 bits above it; when rabs < ki[idx] the normal is
   rabs * wi[idx], negated when the sign bit is set, and about 99% of
   draws end there.  numpy's compiled function negates with a branch on
   that random bit, which the processor mispredicts on half of all draws.
   ziggurat() takes the same fast path itself and flips the double's sign
   bit by XOR, with no branch; every other draw, on a wedge or the tail,
   is numpy's own function.  The tables are not copied from numpy (they
   are local symbols of libnpyrandom.a): tamsde_init probes them off its
   function.  They start zeroed, and stay so if the probe's check fails,
   and with ki all 0 every draw is numpy's function: the same bits, only
   slower. */
static uint64_t ki[256];
static double wi[256];

/* A bit generator whose first output is first, already drawn on rng, and
   which draws every later output and double on rng itself */
struct replay {
    uint64_t first;
    int drawn;
    struct philox *rng;
};

static uint64_t replay_next(void *st)
{
    struct replay *p = st;
    if (!p->drawn) {
        p->drawn = 1;
        return p->first;
    }
    return philox_next(p->rng);
}

static double replay_double(void *st)
{
    return philox_double(((struct replay *)st)->rng);
}

/* numpy's function on a replay of r, rng's output drawn last: the draws
   after r are rng's, as numpy's would be, and rng is left as numpy's
   draws leave it */
static double replay(uint64_t r, struct philox *rng)
{
    struct replay p = {r, 0, rng};
    bitgen_t again = {&p, replay_next, philox_abort32, replay_double,
                      replay_next};
    return random_standard_normal(&again);
}

/* 1 when the output r is on numpy's fast path, and then *x = its
   normal */
static inline int ziggurat(uint64_t r, double *x)
{
    uint64_t rabs = r >> 9 & 0xfffffffffffffu, bits;
    unsigned idx = (unsigned)(r & 0xff);
    if (rabs >= ki[idx])
        return 0;
    /* rabs < 2**52 converts exactly either way; the signed conversion is
       one instruction */
    *x = (double)(int64_t)rabs * wi[idx];
    memcpy(&bits, x, sizeof bits);
    bits ^= (r >> 8 & 1) << 63;  /* numpy's -x when the sign bit is set */
    memcpy(x, &bits, sizeof bits);
    return 1;
}

/* numpy's normal on Philox rng when rng's next output is r, which is
   drawn already: r's normal on the fast path, else a replay of r; a
   block's lane draws r on its own Philox inline (philox_next, or
   philox_read in a vector) */
static inline double normal(uint64_t r, struct philox *rng)
{
    double x;
    return ziggurat(r, &x) ? x : replay(r, rng);
}

/* out = the next n normals of rng, as Generator.standard_normal(n) */
void tamsde_normals(struct philox *rng, double *out, long long n)
{
    long long i;
    for (i = 0; i < n; i++)
        out[i] = normal(philox_read(rng), rng);
}

/* numpy's normal of the output with strip idx, sign bit 0 and rabs, on a
   replay whose later draws are a zero-keyed Philox's; *fast is 1 when it
   took the fast path, that is, drew nothing more, as any further draw
   steps the Philox's counter */
static double probe(unsigned idx, uint64_t rabs, int *fast)
{
    struct philox rng = {{0}, {0}, {0}, 4};
    double x = replay(rabs << 9 | idx, &rng);
    *fast = rng.counter[0] == 0;
    return x;
}

/* the normals the probed tables are checked on */
#define CHECK_DRAWS 16384

/* 1 when normal() and numpy's function draw the same CHECK_DRAWS normals,
   bit for bit, from a fixed key, and leave the same Philox state */
static int check(void)
{
    struct philox a = {{0}, {0x243F6A8885A308D3u, 0x13198A2E03707344u}, {0},
                       4}, b = a;
    bitgen_t gb = {&b, philox_next, philox_abort32, philox_double,
                   philox_next};
    double x, y;
    long i;
    for (i = 0; i < CHECK_DRAWS; i++) {
        x = normal(philox_next(&a), &a);
        y = random_standard_normal(&gb);
        if (memcmp(&x, &y, sizeof x) != 0)
            return 0;
    }
    return memcmp(a.counter, b.counter, sizeof a.counter) == 0
           && a.buffer_pos == b.buffer_pos;
}

static int fast_path;

/* ki[idx], the least rabs off numpy's fast path (2**52 when there is
   none), found by bisection, and wi[idx], the normal at rabs 1, which is
   1 * wi[idx] exactly (0 when ki[idx] <= 1, where the fast path's normal
   is 0 * wi[idx] or none); then the check, which zeroes ki if it fails */
static void probe_tables(void)
{
    uint64_t lo, hi, mid;
    unsigned idx;
    int fast;
    for (idx = 0; idx < 256; idx++) {
        lo = 0;
        hi = (uint64_t)1 << 52;
        while (lo < hi) {
            mid = lo + (hi - lo) / 2;
            probe(idx, mid, &fast);
            if (fast)
                lo = mid + 1;
            else
                hi = mid;
        }
        wi[idx] = lo > 1 ? probe(idx, 1, &fast) : 0.0;
        ki[idx] = lo;
    }
    fast_path = check();
    if (!fast_path)
        memset(ki, 0, sizeof ki);
}

/* --- lane types ---------------------------------------------------------- */

/* A vector of doubles (GCC and clang's vector_size type) holds one path,
   one fixed-step pair or one tamed-adaptive pair in each element: +, -,
   *, / and the comparisons act on each element, a scalar operand on every
   one, and a comparison gives a mask of all ones or all zeros in each
   element; a vector of long longs of the same width holds the legs' step
   counts.  Every build has the two-wide vector, native on SSE2 and NEON.  On x86-64 ELF with glibc the
   four-wide vector is built too, in code compiled for AVX2 (the target
   attribute), which tamsde_block runs when the host has AVX2; there the
   square root and the masks' bits are one instruction each, else one call
   or test per element.  Elsewhere (musl, arm64, no ELF, or __ELF__
   undefined on the build line) the one two-wide build is portable GNU C
   vector code.  A four-wide vector outside AVX2 code took about twice as
   long as the two-wide one (ROADMAP, Rejected), so each width has its own
   instruction set, and its own copy of the vector layer (VECTOR_LAYER,
   below).  The helpers, suffixed _d for a double and _v2 or _v4 for a
   vector, are what the types spell differently; FORMULAS is written in
   them. */
#define BASELINE_ELEMENTS 2
#define AVX2_ELEMENTS 4
/* the initializer of a vector of 2 or 4 whose element e is f(a, e); with
   SAME as f, every element is a */
#define EACH2(f, a) {f(a, 0), f(a, 1)}
#define EACH4(f, a) {f(a, 0), f(a, 1), f(a, 2), f(a, 3)}
#define SAME(x, e) (x)
typedef double vec2 __attribute__((vector_size(8 * BASELINE_ELEMENTS)));
typedef long long vmask2 __attribute__((vector_size(8 * BASELINE_ELEMENTS)));

#if defined(__x86_64__) && defined(__ELF__) && defined(__GLIBC__) \
    && defined(__has_attribute)
#if __has_attribute(target)
#define WIDE
#endif
#endif

#ifdef WIDE
#include <immintrin.h>
#define AVX2 __attribute__((target("avx2")))
typedef double vec4 __attribute__((vector_size(8 * AVX2_ELEMENTS)));
typedef long long vmask4 __attribute__((vector_size(8 * AVX2_ELEMENTS)));

static inline vec2 sqrt_v2(vec2 x)
{
    return (vec2)_mm_sqrt_pd((__m128d)x);
}

/* bit e set when element e of m is set */
static inline unsigned bits_v2(vmask2 m)
{
    return (unsigned)_mm_movemask_pd((__m128d)m);
}

AVX2 static inline vec4 sqrt_v4(vec4 x)
{
    return (vec4)_mm256_sqrt_pd((__m256d)x);
}

AVX2 static inline unsigned bits_v4(vmask4 m)
{
    return (unsigned)_mm256_movemask_pd((__m256d)m);
}

/* 1 when some element of m is set, found without the bits of bits_v4
   (or bits_v2, below), so a runner's bound on a runaway element does not
   lean on the same code as its stop bits */
AVX2 static inline int any_v4(vmask4 m)
{
    return !_mm256_testz_si256((__m256i)m, (__m256i)m);
}
#else
static inline vec2 sqrt_v2(vec2 x)
{
    vec2 r = {sqrt(x[0]), sqrt(x[1])};
    return r;
}

static inline unsigned bits_v2(vmask2 m)
{
    return (unsigned)(m[0] != 0) | (unsigned)(m[1] != 0) << 1;
}
#endif

static inline int any_v2(vmask2 m)
{
    return (m[0] | m[1]) != 0;
}

/* e, hidden from the compiler by an empty asm that may change it, so
   every pow of a constant exponent stays a call of libm's pow: gcc 12 at
   -O3 compiles two pow(x, 0.5) of a vector's elements to one square
   root, and pow(x, 2.0) to a multiply, and glibc's pow is not always
   either (ROADMAP, Rejected).  The asm takes e in its floating-point
   register where the constraint is known: with e in memory on x86-64,
   tools/leg_step_ns.py read rate-rough and compare-smooth/tam ~1.5%
   slower (2-core AMD EPYC, gcc 12). */
#if defined(__x86_64__)
#define OPAQUE(e) __asm__("" : "+x"(e))
#elif defined(__aarch64__)
#define OPAQUE(e) __asm__("" : "+w"(e))
#else
#define OPAQUE(e) __asm__("" : "+m"(e))
#endif

/* a double's helpers are C's own; its comparisons give an int, 0 or 1 */
#define splat_d(x) (x)
#define select_d(c, a, b) ((c) ? (a) : (b))
#define not_d(c) (!(c))
#define abs_d fabs
#define isinf_d isinf
#define copysign_d copysign

static inline double powabs_d(double x, double e)
{
    OPAQUE(e);
    return pow(fabs(x), e);
}

/* --- the scheme ---------------------------------------------------------- */

enum { MODEL1, MODEL2, GBM };
/* how a seed's run ended; RUNNING while it goes on */
enum { DONE, FINE_STOP, COARSE_STOP, RUNNING };
/* what run_legs_V returns when an element's step count passed its budget,
   which no seed's run reaches, or an element's stop at t_end was lost: a
   fault of this file */
enum { RUNAWAY = 1 };

/* A block's scheme, which every seed's pair or path shares: each leg's
   base step (index 0 the fine leg, 1 the coarse; a path has the fine leg
   only), its square root and that root's reciprocal, the legs' start x0,
   the step rule's h0 and l0, the end time, the step budget and the
   model. */
struct pair {
    double delta[2], sqd[2], rsqd[2];
    double x0, h0, l0;
    double t_end;
    long long max_steps;
    int model;
};

/* The scheme's formulas on the lane type T, whose helpers are suffixed V,
   with masks and step counts of type M, each function with the attributes
   A: FORMULAS(double, d, long long, ) for the scalar lanes' legs, and
   once in each vector layer.
     sign_V: model.py's sign.
     product_V: scheme._tamed's product: an exact zero factor gives a
       zero product (the fixed-step legs' q too).
     tamed_V: scheme._tamed: an infinite product saturates at
       +-1/sqrt(delta).
     coefficients_V: model's mu, mu', sigma and sigma' at x, each in the
       operation order of its function in model.py.
     rule_V: propose of scheme._tam_leg for the given model, a constant
       in each of propose_V's cases, so each model's coefficients fold
       into its own copy of the step rule (sigma' of model1 is 0.1, say;
       one copy for all models, joined after the coefficients, made a
       model1 leg-step ~6% slower): keeps mu, sigma and q at x in *mo, *so
       and *qo and returns the step the leg wants.
     due_V: scheme._due.
     advance_V: the tamed-adaptive update of scheme._tam_leg.
     pend_V: adds dz to the Kahan pair (*pw, *pc) of a pending increment.
     struct leg_V: a tamed-adaptive leg: its state, the times of its last
       step and of its next event, the mu, sigma and q propose_V kept at
       its state, the Kahan pair of the increment pending since its last
       step, and its step count.  Its base step is the block's.
     step_V: the leg's step to t: advance with the increment dw, clear
       the pending pair and count the step; returns the new state.
     fire_V: the leg's event at t, the one tamed-adaptive step of every
       runner: step_V, then propose the next step with the leg's
       sqrt(delta), 1/sqrt(delta) and delta.  Returns the mask of the
       elements whose leg cannot go on (the checks of driver._merge, before
       t_end: the budget spent, not finite, or a step collapsed to
       nothing); the caller reports it.  It proposes in every element, one
       that stops or is at t_end included, whose proposal nothing reads. */
#define FORMULAS(T, V, M, A)                                                 \
A static inline T sign_##V(T x)                                              \
{                                                                            \
    return select_##V(x > 0.0, splat_##V(1.0),                               \
                      select_##V(x < 0.0, splat_##V(-1.0), splat_##V(0.0))); \
}                                                                            \
A static inline T product_##V(T s, T sp)                                     \
{                                                                            \
    return select_##V((s == 0.0) | (sp == 0.0), splat_##V(0.0), s * sp);     \
}                                                                            \
A static inline T tamed_##V(T s, T sp, T sqd, T rsqd)                        \
{                                                                            \
    T g = product_##V(s, sp);                                                \
    return select_##V(isinf_##V(g), copysign_##V(rsqd, g),                   \
                      g / (1.0 + sqd * abs_##V(g)));                         \
}                                                                            \
A static inline void coefficients_##V(int model, T x, T *m, T *mp, T *s,     \
                                      T *sp)                                 \
{                                                                            \
    T r;                                                                     \
    switch (model) {                                                         \
    case MODEL1:                                                             \
        *m = 0.1 * (x - x * x * x);                                          \
        *mp = 0.1 * (1.0 - 3.0 * x * x);                                     \
        *s = 0.1 * x;                                                        \
        *sp = splat_##V(0.1);                                                \
        break;                                                               \
    case MODEL2:                                                             \
        /* one pow for mu and mu': the same call on the same argument,       \
           which the compiler does not merge itself, as pow may set errno */ \
        r = powabs_##V(x, 0.5);                                              \
        *m = -0.1 * (1.0 + 3.0 * x + x * r);                                 \
        *mp = -0.3 - 0.15 * r;                                               \
        *s = 0.3 * (1.0 + powabs_##V(x, 1.2));                               \
        *sp = 0.36 * sign_##V(x) * powabs_##V(x, 0.2);                       \
        break;                                                               \
    default:                                                                 \
        *m = 0.05 * x;                                                       \
        *mp = splat_##V(0.05);                                               \
        *s = 0.2 * x;                                                        \
        *sp = splat_##V(0.2);                                                \
    }                                                                        \
}                                                                            \
A static inline T rule_##V(const struct pair *p, T sqd, T rsqd, T delta,     \
                           T x, int model, T *mo, T *so, T *qo)              \
{                                                                            \
    T m, s, mp, sp, q, s2, sp2, xl, base, step;                              \
    xl = p->l0 == 2.0 ? x * x : powabs_##V(x, p->l0);                        \
    coefficients_##V(model, x, &m, &mp, &s, &sp);                            \
    *mo = m;                                                                 \
    *so = s;                                                                 \
    q = tamed_##V(s, sp, sqd, rsqd);                                         \
    *qo = q;                                                                 \
    s2 = s * s;                                                              \
    sp2 = sp * sp;                                                           \
    base = 1.0 + m * m + abs_##V(mp) + s2 * s2 + sp2 * sp2 + abs_##V(q)      \
           + xl;                                                             \
    step = (p->h0 / (base * base)) * delta;                                  \
    /* scheme._TINY_STEP */                                                  \
    return select_##V((step <= 0.0) | (step != step), splat_##V(DBL_MIN),    \
                      step);                                                 \
}                                                                            \
A static inline T propose_##V(const struct pair *p, T sqd, T rsqd, T delta,  \
                              T x, T *m, T *s, T *q)                         \
{                                                                            \
    switch (p->model) {                                                      \
    case MODEL1: return rule_##V(p, sqd, rsqd, delta, x, MODEL1, m, s, q);   \
    case MODEL2: return rule_##V(p, sqd, rsqd, delta, x, MODEL2, m, s, q);   \
    default:     return rule_##V(p, sqd, rsqd, delta, x, GBM, m, s, q);      \
    }                                                                        \
}                                                                            \
A static inline T due_##V(T last, T step, double t_end)                      \
{                                                                            \
    T d = last + step;                                                       \
    return select_##V((step >= t_end - last) | (d >= t_end),                 \
                      splat_##V(t_end), d);                                  \
}                                                                            \
A static inline T advance_##V(T x, T m, T s, T q, T dt, T dw)                \
{                                                                            \
    return x + m * dt + s * dw + 0.5 * q * (dw * dw - dt);                   \
}                                                                            \
A static inline void pend_##V(T *pw, T *pc, T dz)                            \
{                                                                            \
    T y = dz - *pc, s = *pw + y;                                             \
    *pc = (s - *pw) - y;                                                     \
    *pw = s;                                                                 \
}                                                                            \
struct leg_##V {                                                             \
    T x, last, due, m, s, q, pw, pc;                                         \
    M steps;                                                                 \
};                                                                           \
A static inline T step_##V(struct leg_##V *g, T t, T dw)                     \
{                                                                            \
    g->x = advance_##V(g->x, g->m, g->s, g->q, t - g->last, dw);             \
    g->pw = g->pc = splat_##V(0.0);                                          \
    g->last = t;                                                             \
    g->steps += 1;                                                           \
    return g->x;                                                             \
}                                                                            \
A static inline M fire_##V(const struct pair *p, struct leg_##V *g, T t,     \
                           T dw, T sqd, T rsqd, T delta)                     \
{                                                                            \
    T x = step_##V(g, t, dw);                                                \
    g->due = due_##V(t, propose_##V(p, sqd, rsqd, delta, x, &g->m, &g->s,    \
                                    &g->q), p->t_end);                       \
    return (t < p->t_end)                                                    \
           & ((g->steps >= p->max_steps) | not_##V(abs_##V(x) <= DBL_MAX)    \
              | (g->due <= t));                                              \
}

FORMULAS(double, d, long long, )

/* --- one adaptive pair in flight: a lane --------------------------------- */

/* A tamed-adaptive pair's run: its legs (index 0 the fine leg, 1 the
   coarse), its own Philox, t, the merged timeline's time, and the seed's
   index in its block. */
struct lane {
    struct leg_d leg[2];
    struct philox rng;
    double t;
    long long i;
};

/* DONE, or FINE_STOP or COARSE_STOP for the first leg that ends a pair
   non-finite, at x_f and x_c at t_end */
static int pair_end(double x_f, double x_c)
{
    return !isfinite(x_f) ? FINE_STOP : isfinite(x_c) ? DONE : COARSE_STOP;
}

/* One event of driver._merge's loop: one normal, pended onto both legs,
   and the event of each leg due at the next time, fired with its pending
   increment; at t_end, where both legs are due, each only steps, as no
   step follows (firing them there, as the vectors do, made rate-rough
   ~2.5% slower in tools/leg_step_ns.py, 2-core Intel Xeon, gcc 12).
   Returns RUNNING while the pair goes on; else DONE, or FINE_STOP or
   COARSE_STOP for the leg that cannot go on or ends non-finite.  A pair
   starts with t = 0 before t_end, so its first event is always run.  It
   is compiled in one piece (flatten): the lane's Philox step and both
   calls of fire_d are inlined, so each copy of fire_d works on its leg at
   a fixed offset in the lane, and only pow and numpy's normal off its
   fast path are called.  With fire and philox_next called out of line,
   as gcc 12 left them, an adaptive model1 leg-step took 1.15 times as
   long (2-core AMD EPYC).  philox_next is also compiled on its own:
   replay's bit generator, which numpy's normal calls through a pointer,
   and the vector runners call it to refill a Philox's buffer
   (philox_read). */
static __attribute__((flatten)) int pair_event(const struct pair *p,
                                               struct lane *l)
{
    struct leg_d *f = &l->leg[0], *c = &l->leg[1];
    double t = f->due < c->due ? f->due : c->due;
    double dz = sqrt(t - l->t) * normal(philox_next(&l->rng), &l->rng);
    pend_d(&f->pw, &f->pc, dz);
    pend_d(&c->pw, &c->pc, dz);
    l->t = t;
    if (!(t < p->t_end))  /* both legs are due, and neither proposes */
        return pair_end(step_d(f, t, f->pw), step_d(c, t, c->pw));
    if (f->due == t
            && fire_d(p, f, t, f->pw, p->sqd[0], p->rsqd[0], p->delta[0]))
        return FINE_STOP;
    if (c->due == t
            && fire_d(p, c, t, c->pw, p->sqd[1], p->rsqd[1], p->delta[1]))
        return COARSE_STOP;
    return RUNNING;
}

/* --- blocks of seeds ----------------------------------------------------- */

/* A block of consecutive seeds, as tamsde_block takes it: the words of the
   next seed to start and its index, next, of n; the caller's columns a
   seed's record goes to; and how many seeds stopped. */
struct block {
    unsigned char *seed;
    size_t n_words;
    long long next, n;
    double *x_f, *x_c, *t;
    long long *n_f, *n_c;
    int *status;
    long long stopped;
};

/* The index of the block's next seed, with rng that seed's Philox, and
   the seed's words stepped to the next integer; -1, and rng untouched,
   when every seed has started.  A carry out of the top word makes the
   words one longer, so seed has room for one more word, zeroed; stepping
   from a block's first seed to the integer after its last carries out of
   the top word at most once, as a block has fewer than 2**63 seeds. */
static long long take(struct block *b, struct philox *rng)
{
    size_t i;
    if (b->next == b->n)
        return -1;
    tamsde_seed(rng, b->seed, b->n_words);
    for (i = 0; i < 4 * b->n_words; i++)
        if (++b->seed[i] != 0)
            return b->next++;
    b->seed[i] = 1;
    b->n_words += 1;
    return b->next++;
}

/* Seed i's record, item i of each column: its legs' states x_f and x_c
   and their step counts n_f and n_c (a path's x_c and n_c are its x_f and
   n_f, into the same columns), its stop time t and its return code, which
   counts a stop unless DONE. */
static void record(struct block *b, long long i, double x_f, double x_c,
                   long long n_f, long long n_c, double t, int code)
{
    b->x_f[i] = x_f;
    b->x_c[i] = x_c;
    b->t[i] = t;
    b->n_f[i] = n_f;
    b->n_c[i] = n_c;
    b->status[i] = code;
    b->stopped += code != DONE;
}

/* the seeds a block keeps in flight: adaptive pairs in LANES lanes of
   model1 or gbm and MODEL2_LANES of model2, or VECTORS vectors of paths,
   fixed-step pairs or (four-wide) adaptive pairs, of BASELINE_ELEMENTS or
   AVX2_ELEMENTS each (with
   2, 4 or 5 two-wide vectors in place of 3, tools/leg_step_ns.py read
   moments-long at 1.04, 1.01 and 1.02 of this count's time).  model2's
   three pow calls a leg-step
   keep the processor busy with fewer lanes than the other models' plain
   arithmetic: with 4 lanes for every model, tools/leg_step_ns.py read
   rate-rough (model2) at 1.04 and compare-smooth/tam (model1) at 1.05
   of these counts' time (15 rounds, 2-core AMD EPYC, gcc 12). */
#define LANES 3
#define MODEL2_LANES 2
#define VECTORS 3

/* Start lane l on the block's next seed, with its legs as first[0] and
   first[1], as every seed starts them; 0 when every seed has started. */
static int begin(struct lane *l, const struct leg_d *first, struct block *b)
{
    memcpy(l->leg, first, sizeof l->leg);
    l->t = 0.0;
    return (l->i = take(b, &l->rng)) >= 0;
}

/* Each of the block's tamed-adaptive pairs of p, from the legs first.
   LANES seeds, or MODEL2_LANES of model2, are in flight, each on its own
   Philox; a pass gives every live lane one event, a lane left alone (the
   one lane of a block of one) included, and a lane whose seed is over
   writes its record and starts the block's next seed.  Each seed runs the
   same operations in the same order as it would alone, so only the order
   of the work across seeds depends on the lanes. */
static void run_pairs(const struct pair *p, const struct leg_d *first,
                      struct block *b)
{
    struct lane lanes[LANES], *live[LANES];
    int n_live = 0, k, width = p->model == MODEL2 ? MODEL2_LANES : LANES;
    for (; n_live < width && begin(&lanes[n_live], first, b); n_live++)
        live[n_live] = &lanes[n_live];
    while (n_live > 0)
        for (k = 0; k < n_live; k++) {
            struct lane *l = live[k];
            int code = pair_event(p, l);
            if (code == RUNNING)
                continue;
            /* t is the merged timeline's stop time */
            record(b, l->i, l->leg[0].x, l->leg[1].x, l->leg[0].steps,
                   l->leg[1].steps, l->t, code);
            if (!begin(l, first, b))  /* the last lane takes its place */
                live[k--] = live[--n_live];
        }
}

/* A fixed-step leg's clock: its base step, the time of its last step,
   the time of its next event and its step count.  No state moves it, so
   every seed of a generation shares it. */
struct tick {
    double delta, last, due;
    long long steps;
};

/* The vector layer on a vector of W doubles, vec, with masks vmask and
   EACH its initializer (EACH2 or EACH4): each of its functions, suffixed
   V, carries the attributes A, and its types are suffixed V too.  Only
   vectors step fixed-step legs, so the fixed-step update and propose are
   written for the vector alone.  A tamed-adaptive leg's step is FORMULAS'
   fire_V, the one the scalar lanes' pair_event fires too: here a path's
   leg and each leg of a pair are a struct leg_V, one leg to an element.
     splat_V, select_V, not_V, abs_V, isinf_V, copysign_V and powabs_V:
       the helpers FORMULAS is written in, as a double's are.  select_V
       gives a where c is set, else b; copysign_V each element of |a| with
       the sign of that element of b; powabs_V libm's pow of |x| in each
       element.
     FORMULAS on the vector.
     tm_propose_V: propose of scheme._tm_leg, whose step is the base step
       itself: keeps mu, sigma and sigma sigma' at x.
     tm_advance_V: the fixed-step update of scheme._tm_leg, over the
       duration dt, which is a generation's, one for every element.
     begin_leg_V: element e of the legs g, as first is.
     struct seeds_V: the seeds of a vector's elements: each element's
       Philox and the index in the block of its seed, or -1 for an
       element with none, which steps with no noise and is not read.
     idle_V: 1 when no element has a seed.
     lane_normal_V and lane_normals_V: element e's normal, and the vector
       of every element's: each its next on its own Philox, the output
       read straight off its buffer (philox_read), or 0 for an element
       with no seed.  The vector is built from an initializer: built by
       a store into each element, the portable two-wide paths took ~1.05
       times as long.
     struct fixed_lanes_V: W fixed-step pairs in flight: each leg's state,
       the coefficients tm_propose_V keeps and the Kahan pair of its
       pending increment (index 0 the fine leg, 1 the coarse), and their
       seeds; an element whose seed is over has none.
     run_fixed_V: each of the block's fixed-step pairs, from p's x0 and
       base steps, in generations of up to W VECTORS seeds, W to a vector,
       all started at t = 0.  A fixed-step leg's clock does not depend on
       its state, so a generation has one timeline: each event's time and
       sqrt of its gap, which legs fire, their clocks and their budget and
       collapse tests are worked out once, in driver._merge's order, and
       only each seed's draw, pending increments, updates, coefficients
       and finiteness tests are its own.  A seed that stops writes its
       record at the event, a fine stop before the coarse leg fires, as
       pair_event's FINE_STOP, and its element idles; the next generation
       starts when every seed of this one is over.  Its timeline's budget
       test ends every generation, so it needs no RUNAWAY bound.
     pick_V: the legs of a where c is set, else of b.
     struct leg_lanes_V: W tamed-adaptive paths or pairs in flight: their
       seeds, their legs (index 0 the fine leg, 1 the coarse; a path has
       the fine leg only) and each element's time, of its pair's merged
       timeline or its path's last step.  With the seeds after the legs,
       the moments-long row of tools/leg_step_ns.py took ~1.006 times as
       long (2-core AMD EPYC, gcc 12), for no change in the code it runs.
     begin_legs_V: starts element e of l on the block's next seed, or
       none, at time 0 with its legs as first[0] up to first[legs - 1].
     run_legs_V: each of the block's tamed-adaptive paths (legs 1) or pairs
       (legs 2), from first, as run_pairs runs pairs: VECTORS vectors of W
       seeds in flight, and an element whose seed is over (it cannot go on,
       or it has reached t_end) writes its record and starts the block's
       next seed, or none.  tamsde_block passes legs as a constant, so the
       compiler makes a copy for each count (the two-wide layer runs paths
       only).  A pass gives each element of a vector with a live element
       one step of scheme._path_loop, its leg fired at its due time with
       its own increment, or one pair_event: its time t, the earlier of its
       legs' due times, one normal, pended onto both legs, and the event of
       the leg due at t, the fine one where both are, picked into one
       vector (pick_V) for one fire_V; then, in the rare pass where some
       element that did not stop has its coarse leg due at t too (every
       seed at t_end), a second fire_V of the coarse legs, kept where so.
       A fine stop is recorded before the coarse leg fires, as in
       pair_event.  The record reads x_c and n_c off leg legs - 1, so a
       path's one leg is written as both, into the one array of each that
       kernel.run_block hands a block of paths; it reads the stop time off
       the lanes' t and tells a stop's leg by coarse_stop alone: reading
       the pass's t and fine_stop, which gcc 12 then kept on the stack in
       every pass, model1 path blocks took ~1.04 times as long (2-core
       Intel Xeon).  It restarts every element that is over, one with no
       seed included, so an element is at t_end only in the pass it gets
       there, and that pass is over for it.  It returns 0, or RUNAWAY, a
       fault of this file, in two tests made apart from the stop bits
       (any_V, not bits_V): in every pass, when an element's step count has
       passed the budget; in a pass in which some element is over, once the
       records and restarts are made, when an element is still at t_end,
       its stop lost.  So a lost stop ends the block rather than stepping
       on at t_end forever, at any budget.  Testing t_end in every pass
       made moments-long and compare-smooth/tam 1.5-2% slower on a sizing
       prototype. */
#define VECTOR_LAYER(vec, vmask, V, W, EACH, A)                              \
A static inline vec splat_##V(double x)                                      \
{                                                                            \
    return (vec)EACH(SAME, x);                                               \
}                                                                            \
A static inline vec select_##V(vmask c, vec a, vec b)                        \
{                                                                            \
    return (vec)((c & (vmask)a) | (~c & (vmask)b));                          \
}                                                                            \
A static inline vmask not_##V(vmask c)                                       \
{                                                                            \
    return ~c;                                                               \
}                                                                            \
A static inline vec abs_##V(vec x)                                           \
{                                                                            \
    return (vec)((vmask)x & ~(vmask)splat_##V(-0.0));                        \
}                                                                            \
A static inline vmask isinf_##V(vec x)                                       \
{                                                                            \
    return abs_##V(x) == INFINITY;                                           \
}                                                                            \
A static inline vec copysign_##V(vec a, vec b)                               \
{                                                                            \
    return (vec)((vmask)abs_##V(a) | ((vmask)b & (vmask)splat_##V(-0.0)));   \
}                                                                            \
A static inline vec powabs_##V(vec x, double e)                              \
{                                                                            \
    vec a = abs_##V(x), r = a;                                               \
    int i;                                                                   \
    OPAQUE(e);                                                               \
    for (i = 0; i < W; i++)                                                  \
        r[i] = pow(a[i], e);                                                 \
    return r;                                                                \
}                                                                            \
FORMULAS(vec, V, vmask, A)                                                   \
A static inline void tm_propose_##V(int model, vec x, vec *m, vec *s,        \
                                    vec *q)                                  \
{                                                                            \
    vec mp, sp;                                                              \
    coefficients_##V(model, x, m, &mp, s, &sp);                              \
    *q = product_##V(*s, sp);                                                \
}                                                                            \
A static inline vec tm_advance_##V(vec x, vec m, vec s, vec q, double dt,    \
                                   vec dw, double delta)                     \
{                                                                            \
    return x + (m * dt + s * dw + 0.5 * q * (dw * dw - dt))                  \
               / (1.0 + delta * (x * x));                                    \
}                                                                            \
A static inline void begin_leg_##V(struct leg_##V *g, int e,                 \
                                   const struct leg_d *first)                \
{                                                                            \
    g->x[e] = first->x;                                                      \
    g->last[e] = first->last;                                                \
    g->due[e] = first->due;                                                  \
    g->m[e] = first->m;                                                      \
    g->s[e] = first->s;                                                      \
    g->q[e] = first->q;                                                      \
    g->pw[e] = first->pw;                                                    \
    g->pc[e] = first->pc;                                                    \
    g->steps[e] = first->steps;                                              \
}                                                                            \
struct seeds_##V {                                                           \
    struct philox rng[W];                                                    \
    long long i[W];                                                          \
};                                                                           \
A static inline int idle_##V(const struct seeds_##V *k)                      \
{                                                                            \
    int e;                                                                   \
    for (e = 0; e < W; e++)                                                  \
        if (k->i[e] >= 0)                                                    \
            return 0;                                                        \
    return 1;                                                                \
}                                                                            \
A static inline double lane_normal_##V(struct seeds_##V *k, int e)           \
{                                                                            \
    return k->i[e] >= 0 ? normal(philox_read(&k->rng[e]), &k->rng[e]) : 0.0; \
}                                                                            \
A static inline vec lane_normals_##V(struct seeds_##V *k)                    \
{                                                                            \
    return (vec)EACH(lane_normal_##V, k);                                    \
}                                                                            \
struct fixed_lanes_##V {                                                     \
    vec x[2], m[2], s[2], q[2], pw[2], pc[2];                                \
    struct seeds_##V k;                                                      \
};                                                                           \
A static void run_fixed_##V(const struct pair *p, struct block *b)           \
{                                                                            \
    struct fixed_lanes_##V lanes[VECTORS], *live[VECTORS], first;            \
    vec m, s, q, x0 = splat_##V(p->x0);                                      \
    int n_live, k, e, j;                                                     \
    tm_propose_##V(p->model, x0, &m, &s, &q);                                \
    first = (struct fixed_lanes_##V){.x = {x0, x0}, .m = {m, m},             \
                                     .s = {s, s}, .q = {q, q}};              \
    while (b->next < b->n) {                                                 \
        struct tick c[2] = {                                                 \
            {p->delta[0], 0.0, due_d(0.0, p->delta[0], p->t_end), 0},        \
            {p->delta[1], 0.0, due_d(0.0, p->delta[1], p->t_end), 0}};       \
        double t = 0.0;                                                      \
        for (n_live = 0; n_live < VECTORS && b->next < b->n; n_live++) {     \
            struct fixed_lanes_##V *l = live[n_live] = &lanes[n_live];       \
            *l = first;                                                      \
            for (e = 0; e < W; e++)                                          \
                l->k.i[e] = take(b, &l->k.rng[e]);                           \
        }                                                                    \
        while (n_live > 0) {                                                 \
            double t_next = c[0].due < c[1].due ? c[0].due : c[1].due;       \
            vec sq = splat_##V(sqrt(t_next - t));                            \
            for (k = 0; k < n_live; k++) {                                   \
                struct fixed_lanes_##V *l = live[k];                         \
                vec dz = sq * lane_normals_##V(&l->k);                       \
                pend_##V(&l->pw[0], &l->pc[0], dz);                          \
                pend_##V(&l->pw[1], &l->pc[1], dz);                          \
            }                                                                \
            for (j = 0; j < 2; j++) {                                        \
                struct tick *leg = &c[j];                                    \
                double dt = t_next - leg->last;                              \
                int going = t_next < p->t_end, all = !going && j == 1;       \
                if (leg->due != t_next)                                      \
                    continue;                                                \
                leg->last = t_next;                                          \
                leg->steps += 1;                                             \
                if (going) {  /* the budget spent or the step collapsed */   \
                    leg->due = due_d(t_next, leg->delta, p->t_end);          \
                    all = leg->steps >= p->max_steps || leg->due <= t_next;  \
                }                                                            \
                /* at t_end both legs fire (every due time is clamped to     \
                   it), and the coarse leg's event ends every seed */        \
                for (k = 0; k < n_live; k++) {                               \
                    struct fixed_lanes_##V *l = live[k];                     \
                    vec x = tm_advance_##V(l->x[j], l->m[j], l->s[j],        \
                                           l->q[j], dt, l->pw[j],            \
                                           leg->delta);                      \
                    unsigned over = all ? (1u << W) - 1 : 0;                 \
                    l->x[j] = x;                                             \
                    l->pw[j] = l->pc[j] = splat_##V(0.0);                    \
                    if (going) {                                             \
                        over |= bits_##V(not_##V(abs_##V(x) <= DBL_MAX));    \
                        tm_propose_##V(p->model, x, &l->m[j], &l->s[j],      \
                                       &l->q[j]);                            \
                    }                                                        \
                    for (e = 0; e < W; e++)                                  \
                        if (over >> e & 1 && l->k.i[e] >= 0) {               \
                            record(b, l->k.i[e], l->x[0][e], l->x[1][e],     \
                                   c[0].steps, c[1].steps, t_next,           \
                                   going ? FINE_STOP + j                     \
                                   : pair_end(l->x[0][e], l->x[1][e]));      \
                            l->k.i[e] = -1;  /* the element idles */         \
                        }                                                    \
                    if (idle_##V(&l->k))  /* as in run_pairs */              \
                        live[k--] = live[--n_live];                          \
                }                                                            \
            }                                                                \
            t = t_next;                                                      \
        }                                                                    \
    }                                                                        \
}                                                                            \
A static inline struct leg_##V pick_##V(vmask c, const struct leg_##V *a,    \
                                        const struct leg_##V *b)             \
{                                                                            \
    struct leg_##V r;                                                        \
    r.x = select_##V(c, a->x, b->x);                                         \
    r.last = select_##V(c, a->last, b->last);                                \
    r.due = select_##V(c, a->due, b->due);                                   \
    r.m = select_##V(c, a->m, b->m);                                         \
    r.s = select_##V(c, a->s, b->s);                                         \
    r.q = select_##V(c, a->q, b->q);                                         \
    r.pw = select_##V(c, a->pw, b->pw);                                      \
    r.pc = select_##V(c, a->pc, b->pc);                                      \
    r.steps = (c & a->steps) | (~c & b->steps);                              \
    return r;                                                                \
}                                                                            \
struct leg_lanes_##V {                                                       \
    struct seeds_##V k;                                                      \
    struct leg_##V leg[2];                                                   \
    vec t;                                                                   \
};                                                                           \
A static inline void begin_legs_##V(struct leg_lanes_##V *l, int e,          \
                                    int legs, const struct leg_d *first,     \
                                    struct block *b)                         \
{                                                                            \
    int j;                                                                   \
    for (j = 0; j < legs; j++)                                               \
        begin_leg_##V(&l->leg[j], e, &first[j]);                             \
    l->t[e] = 0.0;                                                           \
    l->k.i[e] = take(b, &l->k.rng[e]);                                       \
}                                                                            \
A static int run_legs_##V(const struct pair *p, const struct leg_d *first,   \
                          struct block *b, int legs)                         \
{                                                                            \
    struct leg_lanes_##V lanes[VECTORS], *live[VECTORS];                     \
    vec sqd[2], rsqd[2], delta[2];                                           \
    int n_live = 0, k, e, j;                                                 \
    for (j = 0; j < 2; j++) {                                                \
        sqd[j] = splat_##V(p->sqd[j]);                                       \
        rsqd[j] = splat_##V(p->rsqd[j]);                                     \
        delta[j] = splat_##V(p->delta[j]);                                   \
    }                                                                        \
    for (; n_live < VECTORS && b->next < b->n; n_live++) {                   \
        live[n_live] = &lanes[n_live];                                       \
        for (e = 0; e < W; e++)                                              \
            begin_legs_##V(live[n_live], e, legs, first, b);                 \
    }                                                                        \
    while (n_live > 0)                                                       \
        for (k = 0; k < n_live; k++) {                                       \
            struct leg_lanes_##V *l = live[k];                               \
            struct leg_##V *f = &l->leg[0], *c = &l->leg[legs - 1];          \
            vec t = legs == 1 ? f->due                                       \
                              : select_##V(f->due < c->due, f->due, c->due); \
            vec dz = sqrt_##V(t - l->t) * lane_normals_##V(&l->k);           \
            vmask fine_stop, coarse_stop = {0};                              \
            unsigned over;                                                   \
            l->t = t;                                                        \
            if (legs == 1)                                                   \
                /* the increment itself, not pended: one increment pending   \
                   onto nothing is the increment, signed zero included,      \
                   which a Kahan sum would turn into +0.0 */                 \
                fine_stop = fire_##V(p, f, t, dz, sqd[0], rsqd[0],           \
                                     delta[0]);                              \
            else {                                                           \
                struct leg_##V g;                                            \
                vmask fine, stop, both;                                      \
                pend_##V(&f->pw, &f->pc, dz);                                \
                pend_##V(&c->pw, &c->pc, dz);                                \
                /* the leg that fires first: fine where it is due */         \
                fine = f->due == t;                                          \
                g = pick_##V(fine, f, c);                                    \
                stop = fire_##V(p, &g, t, g.pw,                              \
                                select_##V(fine, sqd[0], sqd[1]),            \
                                select_##V(fine, rsqd[0], rsqd[1]),          \
                                select_##V(fine, delta[0], delta[1]));       \
                *f = pick_##V(fine, &g, f);                                  \
                *c = pick_##V(fine, c, &g);                                  \
                fine_stop = fine & stop;                                     \
                coarse_stop = not_##V(fine) & stop;                          \
                /* the coarse leg where both are due, after the fine leg */  \
                both = fine & not_##V(stop) & (c->due == t);                 \
                if (any_##V(both)) {                                         \
                    g = *c;                                                  \
                    coarse_stop |= both & fire_##V(p, &g, t, g.pw, sqd[1],   \
                                                   rsqd[1], delta[1]);       \
                    *c = pick_##V(both, &g, c);                              \
                }                                                            \
            }                                                                \
            if (any_##V((f->steps > p->max_steps)                            \
                        | (c->steps > p->max_steps)))                        \
                return RUNAWAY;                                              \
            over = bits_##V(fine_stop | coarse_stop                          \
                            | not_##V(t < p->t_end));                        \
            if (over == 0)                                                   \
                continue;                                                    \
            for (e = 0; e < W; e++) {                                        \
                if (!(over >> e & 1))                                        \
                    continue;                                                \
                if (l->k.i[e] >= 0)                                          \
                    record(b, l->k.i[e], f->x[e], c->x[e], f->steps[e],      \
                           c->steps[e], l->t[e],                             \
                           l->t[e] < p->t_end                                \
                           ? (coarse_stop[e] ? COARSE_STOP : FINE_STOP)      \
                           : pair_end(f->x[e], c->x[e]));                    \
                begin_legs_##V(l, e, legs, first, b);                        \
            }                                                                \
            if (any_##V(not_##V(l->t < p->t_end)))                           \
                return RUNAWAY;                                              \
            if (idle_##V(&l->k))  /* as in run_pairs */                      \
                live[k--] = live[--n_live];                                  \
        }                                                                    \
    return 0;                                                                \
}

VECTOR_LAYER(vec2, vmask2, v2, BASELINE_ELEMENTS, EACH2, )
#ifdef WIDE
VECTOR_LAYER(vec4, vmask4, v4, AVX2_ELEMENTS, EACH4, AVX2)
#endif

/* 1 when tamsde_init found AVX2 on the host, and tamsde_block runs the
   four-wide layer's runner, else the two-wide layer's.  Each is called
   directly, so the compiler inlines the two-wide runners into
   tamsde_block: called through a pointer, the portable two-wide build's
   paths took ~1.03 times as long (tools/leg_step_ns.py, moments-long). */
static int avx2;

#ifdef WIDE
#define RUN_VECTORS(runner, ...) \
    (avx2 ? runner##_v4(__VA_ARGS__) : runner##_v2(__VA_ARGS__))
#else
#define RUN_VECTORS(runner, ...) runner##_v2(__VA_ARGS__)
#endif

/* tamsde_init's work, done once per process: the tables of ziggurat(),
   and the test of the processor that picks the vector layer */
static void init(void)
{
    probe_tables();
#ifdef WIDE
    __builtin_cpu_init();
    avx2 = __builtin_cpu_supports("avx2") != 0;
#endif
}

/* Fill the tables of ziggurat() and pick the vector runners, once per
   process, before any draw or block: kernel.py calls it when it loads the
   library.  Returns 1 when the draws take the fast path, 0 when every
   draw is numpy's function. */
int tamsde_init(void)
{
    static pthread_once_t once = PTHREAD_ONCE_INIT;
    pthread_once(&once, init);
    return fast_path;
}

/* the fewest seeds of a block whose tamed-adaptive pairs the four-wide
   vectors run, by model, and none of model2.  tools/leg_step_ns.py read
   the adaptive model1 pairs on these vectors at 0.67 of the scalar lanes'
   time, model2's at 1.19 (its pow calls are per element either way) and
   the pair vectors of the two-wide build at 1.18, so model2 and that
   build keep the lanes (2-core Intel Xeon, gcc 12); a prototype that
   stepped both legs on every pass read 0.80 where firing one read 0.66.
   Small blocks keep the lanes too, a lone pair's vector having three
   elements idle.  Through kernel.run_block at k=5, T=5, against the
   scalar lanes, in us a seed: model1 at 1, 2, 3, 12 and 200 seeds 47.5
   -> 60.1, 27.0 -> 30.5, 26.6 -> 22.6, 20.6 -> 13.3 and 19.6 -> 14.7;
   gbm, whose step counts spread far wider, so a vector waits on its
   longest seed, took 1.07 at 8 seeds, 1.01 at 16, 0.94 at 24 and 0.74 at
   200 (and at k=3 1.02, 0.99, 0.92 and, at 32, 0.91). */
#ifdef WIDE
static const long long vector_pairs[] = {[MODEL1] = 3, [MODEL2] = LLONG_MAX,
                                         [GBM] = 24};
#endif

/* the runner codes of tamsde_block */
enum { PATHS, PAIRS, FIXED };

/* For each of the n seeds from the integer whose n_words 32-bit words
   seed holds (as tamsde_seed takes them), on that seed's own Philox, by
   runner: scheme._path_loop storing nothing (PATHS; delta_coarse is not
   used), or the pair of driver._merge of two tamed-adaptive legs (PAIRS)
   or two fixed-step legs (FIXED).  Item i of each of the caller's n-item
   columns is seed i's: x_f and x_c the fine and coarse leg's states, t
   the stop time (t_end when the seed is DONE), n_f and n_c the legs' step
   counts, and status DONE, or FINE_STOP or COARSE_STOP for the leg that
   stopped it.  A path has one leg: x_c and n_c are x_f and n_f, and get
   the same items.  Returns how many seeds stopped, so a caller reads
   status only when some did, or -1 when an element of run_legs_V ran
   past its step budget or lost its stop at t_end (RUNAWAY), a fault of
   this file, which leaves the columns part written.  seed is stepped to
   the integer after the block's last seed, so it needs room for one more
   word (take).  A block's tamed-adaptive pairs run on the four-wide
   vectors on a host with AVX2 when it has vector_pairs[model] seeds or
   more, else in the scalar lanes. */
long long tamsde_block(int runner, int model, double delta_fine,
                       double delta_coarse, double h0, double l0, double x0,
                       double t_end, long long max_steps, unsigned char *seed,
                       size_t n_words, long long n, double *x_f, double *x_c,
                       double *t, long long *n_f, long long *n_c, int *status)
{
    struct pair p = {.delta = {delta_fine, delta_coarse}, .x0 = x0, .h0 = h0,
                     .l0 = l0, .t_end = t_end, .max_steps = max_steps,
                     .model = model};
    struct block b = {seed, n_words, 0, n, x_f, x_c, t, n_f, n_c, status, 0};
    struct leg_d first[2] = {{.x = x0}, {.x = x0}};
    int runaway = 0, j;
    /* each leg as every seed starts it, its first step proposed (a path's
       coarse leg and a fixed-step pair's legs are not read) */
    for (j = 0; j < 2; j++) {
        p.sqd[j] = sqrt(p.delta[j]);
        p.rsqd[j] = 1.0 / p.sqd[j];
        first[j].due = due_d(0.0, propose_d(&p, p.sqd[j], p.rsqd[j],
                                            p.delta[j], x0, &first[j].m,
                                            &first[j].s, &first[j].q), t_end);
    }
    if (runner == FIXED)
        RUN_VECTORS(run_fixed, &p, &b);
    else if (runner == PATHS)
        runaway = RUN_VECTORS(run_legs, &p, first, &b, 1);
#ifdef WIDE
    else if (avx2 && n >= vector_pairs[model])
        runaway = run_legs_v4(&p, first, &b, 2);
#endif
    else
        run_pairs(&p, first, &b);
    return runaway ? -1 : b.stopped;
}

/* The vector layer tamsde_block runs a block's paths and fixed-step pairs
   on, and large blocks of model1 and gbm pairs, as tamsde_init picked it:
   "avx2", four-wide, or "baseline", two-wide, which runs no adaptive
   pairs. */
const char *tamsde_lanes(void)
{
    return avx2 ? "avx2" : "baseline";
}

/* --- a Monte Carlo cell's sums ------------------------------------------- */

/* The errors of tamsde_fsum and tamsde_sums: math.fsum's two, CPython's
   float ** overflowing, and no memory for a cell's values (kernel.py
   raises each as Python does). */
enum { SUM_OK, SUM_OVERFLOW, SUM_INF_MINUS_INF, POW_OVERFLOW, NO_MEMORY };

/* A sum's partials never overlap (Shewchuk, "Adaptive precision
   floating-point arithmetic and fast robust geometric predicates",
   Discrete Comput. Geom. 1997): each holds bits of its own, of the 2098
   bit positions of a finite double, 2**-1074 to 2**1023. */
#define PARTIALS 2098

/* CPython's math.fsum (Modules/mathmodule.c), ported statement for
   statement: *sum = the sum of the n values v, or of the n step counts c
   when v is NULL, as math.fsum of an array of them.  The summands are
   kept exactly as the partials p[0..m), in increasing magnitude, and
   rounded once at the end, with CPython's half-even correction across
   partials; a nan or infinite summand is set aside in special (an
   infinite one in inf too) and empties the partials.  Returns SUM_OK,
   or the error math.fsum raises: SUM_OVERFLOW at the first finite
   summand whose partials overflow, SUM_INF_MINUS_INF at the end. */
static int fsum_of(const double *v, const long long *c, long long n,
                   double *sum)
{
    double p[PARTIALS], x, y, t, xsave, special = 0.0, inf = 0.0, hi, yr,
           lo = 0.0;
    long long k;
    int i, j, m = 0;
    for (k = 0; k < n; k++) {  /* for x in iterable */
        x = xsave = v != NULL ? v[k] : (double)c[k];
        for (i = j = 0; j < m; j++) {  /* for y in partials */
            y = p[j];
            if (fabs(x) < fabs(y)) {
                t = x;
                x = y;
                y = t;
            }
            hi = x + y;
            yr = hi - x;
            lo = y - yr;
            if (lo != 0.0)
                p[i++] = lo;
            x = hi;
        }
        m = i;  /* p[i:] = [x] */
        if (x == 0.0)
            continue;
        if (isfinite(x))
            p[m++] = x;
        else if (isfinite(xsave))
            return SUM_OVERFLOW;  /* an intermediate overflow */
        else {
            if (isinf(xsave))
                inf += xsave;
            special += xsave;
            m = 0;
        }
    }
    if (special != 0.0) {
        *sum = special;
        return isnan(inf) ? SUM_INF_MINUS_INF : SUM_OK;
    }
    hi = 0.0;
    if (m > 0) {
        hi = p[--m];
        /* from the top, until the sum becomes inexact */
        while (m > 0) {
            x = hi;
            y = p[--m];
            hi = x + y;
            yr = hi - x;
            lo = y - yr;
            if (lo != 0.0)
                break;
        }
        /* half-even rounding across the partials left */
        if (m > 0 && ((lo < 0.0 && p[m - 1] < 0.0)
                      || (lo > 0.0 && p[m - 1] > 0.0))) {
            y = lo * 2.0;
            x = hi + y;
            yr = x - hi;
            if (y == yr)
                hi = x;
        }
    }
    *sum = hi;
    return SUM_OK;
}

/* math.fsum of the n values v, for the tests */
int tamsde_fsum(const double *v, long long n, double *sum)
{
    return fsum_of(v, NULL, n, sum);
}

/* *r = a ** e as CPython's float ** gives it for a base a >= 0 or nan
   and an exponent e > 0; 1 when it raises OverflowError.  A nan or
   infinite base is its own power, before pow is called; else pow's
   result overflows when it is infinite or pow set errno and did not
   underflow to 0 (_Py_ADJUST_ERANGE1). */
static int py_pow(double a, double e, double *r)
{
    if (!isfinite(a)) {
        *r = a;
        return 0;
    }
    OPAQUE(e);
    errno = 0;
    *r = pow(a, e);
    return isinf(*r) || (errno != 0 && *r != 0.0);
}

/* The sums montecarlo builds a cell's row from, as its Python reduction
   takes them from the cell's n seeds.  A seed's value is a pair cell's
   squared difference d * d, d = x_f[i] - x_c[i], kept unless nan (a
   failed seed's), when p is 0, else a path cell's |x_f[i]| ** p, kept if
   finite (an overflow fails the seed), and x_c is not read.  *kept is
   the count of kept values, sums[0] their fsum and sums[1], when two or
   more are kept, the fsum of pow(|v - mean|, 2.0) over them, mean =
   sums[0] / *kept, as (v - mean) ** 2 in Python; then sums[2] and
   sums[3] the fsums of the step columns n_f and n_c, unless NULL.  A
   sum not taken is 0.0.  Returns the first error in that order, which
   ends the sums, as Python raises it; *kept is set in any case. */
int tamsde_sums(long long n, const double *x_f, const double *x_c, double p,
                const long long *n_f, const long long *n_c, long long *kept,
                double *sums)
{
    double *v = calloc(n > 0 ? (size_t)n : 1, sizeof *v), d, mean;
    long long i, k = 0;
    int error;
    if (v == NULL)
        return NO_MEMORY;
    for (i = 0; i < n; i++)
        if (p == 0.0) {
            d = x_f[i] - x_c[i];
            v[k] = d * d;
            k += v[k] == v[k];
        } else
            k += !py_pow(fabs(x_f[i]), p, &v[k]) && isfinite(v[k]);
    *kept = k;
    sums[0] = sums[1] = sums[2] = sums[3] = 0.0;
    error = fsum_of(v, NULL, k, &sums[0]);
    if (!error && k > 1) {
        /* the squares up to the first that overflows, each in place */
        mean = sums[0] / (double)k;
        for (i = 0; i < k && !py_pow(fabs(v[i] - mean), 2.0, &v[i]); i++)
            continue;
        error = fsum_of(v, NULL, i, &sums[1]);
        if (!error && i < k)
            error = POW_OVERFLOW;
    }
    free(v);
    if (!error && n_f != NULL)
        error = fsum_of(NULL, n_f, n, &sums[2]);
    if (!error && n_c != NULL)
        error = fsum_of(NULL, n_c, n, &sums[3]);
    return error;
}
