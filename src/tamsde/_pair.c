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
 *   - every real power is libm pow's, which CPython's float ** calls (the
 *     special cases CPython handles before calling pow give the same
 *     values as pow for a non-negative base; an overflow, which
 *     model._rpow turns into inf, is inf here too): a call of pow, or, for
 *     model2's powers on four- and eight-wide vectors, a double that a
 *     rounding test proves is the one glibc's pow returns (prove_V);
 *   - the noise is NoiseSource's stream, numpy's Philox(seed), and each
 *     normal is numpy's random_standard_normal, linked from numpy's
 *     libnpyrandom.a: the function Generator.standard_normal calls.  Every
 *     normal comes off one route, batch(), below, which takes the fast
 *     path, about 99% of draws, itself, with no branch on the random sign,
 *     on tables probed off numpy's function when the library is loaded
 *     (tamsde_init), and hands the rest to the function on a replay of
 *     the outputs.
 *
 * The scheme's formulas (the coefficients of the three models, the tamed
 * product, the step rule of propose, scheme._due, the tamed-adaptive update
 * and the Kahan sum of a pending increment) and the leg they step are
 * written once, in FORMULAS, over a lane type: instantiated on a double
 * for the legs of a tamed-adaptive pair in a scalar lane, and on a vector
 * of doubles for paths, fixed-step pairs or tamed-adaptive pairs, one in
 * each element.  The leg (struct leg_V) and its event (fire_V:
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
 * (tm_step_V, tm_propose_V) are written for the vector alone, on the same
 * leg, struct leg_V.  A fixed-step leg's clock does not depend on its
 * state, so fixed-step pairs that start together share one merged
 * timeline: run_fixed_V works out each event of driver._merge's loop once
 * for a generation of seeds (each leg's clock a struct leg_d: its last,
 * due and steps) and steps the seeds' draws, pending increments, updates
 * and finiteness tests as vectors.  There is no other pair or path loop.
 * kernel.py builds and loads this file.
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
 * (struct lane) or, by the rule tamsde_block states, on VECTORS four- or
 * eight-wide vectors (run_legs_V with two legs), and its paths and its
 * fixed-step pairs in VECTORS vectors (struct leg_lanes_V), whose packed
 * operations step a seed in each element at once; each seed's draw, its
 * powers, its step count and its record stay its own.  A pair vector
 * holds one seed's pair to an element, each element on its own merged
 * timeline: a pass gives each element one event of pair_event, in which
 * only the leg that fires first in that element, picked into one vector,
 * advances and proposes, and a masked step, taken only in a pass where
 * some element has both legs due (every seed at t_end), fires the coarse
 * leg after it.  Once every seed of a block has started, run_legs_V packs
 * the seeds under way into the fewest vectors after each pass in which a
 * seed ended, and hands a pair block's last pairs, fewer than LANES and
 * each before t_end, to scalar lanes, so a long seed does not keep a
 * vector of idle elements stepping.  A lane or an element reads its
 * seed's normals off the seed's stream (struct stream): its Philox and the
 * normals drawn ahead on it, in batches of its next blocks, which the
 * eight-wide layer makes on one vector, the fast path of each output taken
 * on vectors too.  The three
 * runners share one block protocol (struct block): take is the one cursor,
 * which hands out the block's next seed, seeding its stream and stepping the
 * seed's 32-bit words by one, and record is the one writer of the caller's
 * columns, one array for each of the legs' states, the stop time, the legs'
 * step counts and the return code, into which it writes seed i's item i, and
 * counts the stops.  A pass gives every live lane or vector one event or step,
 * and a seed that is over is recorded.  A lane or an element of run_legs_V
 * then takes the block's next seed; a fixed-step pair's element idles, drawing
 * nothing, until its generation is over, as a new seed starts at t = 0 on
 * another timeline, and the next generation starts.  A seed runs the same
 * operations in the same order on its own Philox in any lane or element, so
 * its results do not depend on the others.  A path of a block stores no
 * trajectory; a single pair is a block of one: one lane, or one vector of
 * which one element is not idle.
 *
 * Every build has the vector layer on vectors of two doubles.  On x86-64
 * ELF with glibc it has two more, on vectors of four, compiled for AVX2
 * and FMA, and on vectors of eight, compiled for AVX-512F, DQ and VL
 * beside them (the target attribute), and tamsde_init, which tests the
 * processor once per process, has tamsde_block run the eight-wide runners
 * (run_legs_v8, for paths and adaptive pairs, and run_fixed_v8) on a host
 * with all five, the four-wide ones (run_legs_v4 and run_fixed_v4) on a
 * host with AVX2 and FMA alone, and the two-wide ones (run_legs_v2, for
 * paths only, and run_fixed_v2) elsewhere; tamsde_lanes says which.  With
 * glibc 2.28 or later the four- and eight-wide layers take model2's
 * proven powers when they agree with pow on tamsde_init's probe
 * (probe_powers), and pow's otherwise; they pick no runner.  Without that
 * target (musl, arm64, no ELF, or __ELF__ undefined on the build line) the
 * one two-wide layer is portable GNU C vector code.  No width moves a bit:
 * each element's operations are the scalar ones.
 *
 * A Monte Carlo cell's columns are reduced here too (tamsde_sums), to
 * the sums montecarlo's Python reduction takes, on a port of CPython's
 * math.fsum, so the row's bits are the same.
 *
 * tamsde_seed and tamsde_normals, the streams' draw, tamsde_fsum, the port
 * of math.fsum, and tamsde_powers, model2's powers on the widest vectors
 * the host runs, are exported for the tests that check them against numpy
 * and Python; the structs are known only to this file (and to that test's
 * mirror of struct philox).
 */
#include <errno.h>
#include <float.h>
#include <math.h>
#include <pthread.h>
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

/* Philox's ten rounds, keyed by k0 and k1, on the four words c of a
   counter, of type T, by the product mul (mulhilo, or mulhilo_v8 on eight
   counters at once), as the function name with the attributes A */
#define ROUNDS(T, mul, name, A)                                               \
A static inline void name(T *c, uint64_t k0, uint64_t k1)                     \
{                                                                             \
    T hi0, hi1, lo0, lo1;                                                     \
    int i;                                                                    \
    for (i = 0; i < 10; i++) {                                                \
        if (i > 0) {  /* bump the key */                                      \
            k0 += 0x9E3779B97F4A7C15u;                                        \
            k1 += 0xBB67AE8584CAA73Bu;                                        \
        }                                                                     \
        lo0 = mul(0xD2E7470EE14C6C93u, c[0], &hi0);                           \
        lo1 = mul(0xCA5A826395121157u, c[2], &hi1);                           \
        c[0] = hi1 ^ c[1] ^ k0;                                               \
        c[2] = hi0 ^ c[3] ^ k1;                                               \
        c[1] = lo1;                                                           \
        c[3] = lo0;                                                           \
    }                                                                         \
}

ROUNDS(uint64_t, mulhilo, rounds, )

/* numpy's next block of s: the counter incremented, carrying word by word
   as numpy does, and its 10-round Philox, written to out.  Each counter
   word is read back at the width it was stored, one 64-bit word: a wider
   load of words just stored (a memcpy of the counter compiles to 16-byte
   loads) cannot be forwarded from the store buffer, so it waits for the
   stores to reach the cache.  The rounds run on four local words.  It is
   inline: left out of line, as gcc 12 left it once its rounds were
   ROUNDS', tools/leg_step_ns.py read draw/port at 1.20 and 1.24 of the
   inlined block's time on the two- and four-wide layers (15 rounds,
   2-core Intel Xeon with AVX-512, gcc 12). */
static inline void philox_block(struct philox *s, uint64_t *out)
{
    uint64_t c[4];
    c[0] = ++s->counter[0];
    c[1] = s->counter[1];
    c[2] = s->counter[2];
    c[3] = s->counter[3];
    if (c[0] == 0 && (s->counter[1] = ++c[1]) == 0
            && (s->counter[2] = ++c[2]) == 0)
        s->counter[3] = ++c[3];  /* carry */
    rounds(c, s->key[0], s->key[1]);
    memcpy(out, c, sizeof c);
}

/* numpy's philox_next: the next 64-bit output, off the buffer, which a
   new block refills when every output of it is read */
static uint64_t philox_next(void *st)
{
    struct philox *s = st;
    if (s->buffer_pos == 4) {
        philox_block(s, s->buffer);
        s->buffer_pos = 0;
    }
    return s->buffer[s->buffer_pos++];
}

/* the next_uint32 slot, which numpy's normal never calls: a numpy that
   starts to call it stops here rather than drawing other normals than
   NoiseSource's */
static uint32_t philox_abort32(void *st)
{
    (void)st;
    abort();
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
   ziggurat(), and fasts_V on vectors of outputs, take the same fast path
   themselves and flip the double's sign bit by XOR, with no branch; every
   other draw, on a wedge or the tail, is numpy's own function.  The tables
   are not copied from numpy (they are local symbols of libnpyrandom.a):
   tamsde_init probes them off its function.  They start zeroed, and stay so
   if the probe's check fails, and with ki all 0 every draw is numpy's
   function: the same bits, only slower. */
static uint64_t ki[256];
static double wi[256];

/* A bit generator that reads the outputs from next up to end, drawn
   already on rng and not yet used, and then draws on rng itself; an empty
   replay, next == end, is numpy's Philox rng */
struct replay {
    const uint64_t *next, *end;
    struct philox *rng;
};

static uint64_t replay_next(void *st)
{
    struct replay *p = st;
    return p->next != p->end ? *p->next++ : philox_next(p->rng);
}

static double replay_double(void *st)
{
    return (double)(replay_next(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* numpy's function on the replay p: the draws after its outputs are
   rng's, as numpy's would be, and rng is left as numpy's draws leave it;
   p->next is left at the first output it did not read */
static double replay(struct replay *p)
{
    bitgen_t again = {p, replay_next, philox_abort32, replay_double,
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

/* --- lane types ---------------------------------------------------------- */

/* A vector of doubles (GCC and clang's vector_size type) holds one path,
   one fixed-step pair or one tamed-adaptive pair in each element: +, -,
   *, / and the comparisons act on each element, a scalar operand on every
   one, and a comparison gives a mask of all ones or all zeros in each
   element; a vector of long longs of the same width holds the legs' step
   counts.  Every build has the two-wide vector, native on SSE2 and NEON.
   On x86-64 ELF with glibc the four-wide vector is built too, in code
   compiled for AVX2 and FMA (the target attribute; under -ffp-contract=off
   only an explicit fma_v4 fuses), which tamsde_block runs when the host
   has both, and the eight-wide vector, in code compiled for AVX-512F, DQ
   and VL beside them, which it runs when the host has all five; there the
   square root and the masks' bits are one instruction each, else one call
   or test per element.  Elsewhere (musl, arm64, no ELF, or __ELF__
   undefined on the build line) the one two-wide build is portable GNU C
   vector code.  A four-wide vector outside AVX2 code took about twice as
   long as the two-wide one (ROADMAP, Rejected), so each width has its own
   instruction set, and its own copy of the vector layer (VECTOR_LAYER,
   below).  The helpers, suffixed _d for a double and _v2, _v4 or _v8 for a
   vector, are what the types spell differently; FORMULAS is written in
   them. */
#define BASELINE_ELEMENTS 2
#define AVX2_ELEMENTS 4
#define AVX512_ELEMENTS 8
/* the initializer of a vector of 2, 4 or 8 whose element e is f(a, e);
   with SAME as f, every element is a */
#define EACH2(f, a) {f(a, 0), f(a, 1)}
#define EACH4(f, a) {f(a, 0), f(a, 1), f(a, 2), f(a, 3)}
#define EACH8(f, a) \
    {f(a, 0), f(a, 1), f(a, 2), f(a, 3), f(a, 4), f(a, 5), f(a, 6), f(a, 7)}
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
#define AVX2 __attribute__((target("avx2,fma")))
#define AVX512 __attribute__((target("avx512f,avx512dq,avx512vl,avx2,fma")))
typedef double vec4 __attribute__((vector_size(8 * AVX2_ELEMENTS)));
typedef long long vmask4 __attribute__((vector_size(8 * AVX2_ELEMENTS)));
typedef double vec8 __attribute__((vector_size(8 * AVX512_ELEMENTS)));
typedef long long vmask8 __attribute__((vector_size(8 * AVX512_ELEMENTS)));

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
   (as any_v8 and any_v2, below, without theirs), so a runner's bound on a
   runaway element does not lean on the same code as its stop bits */
AVX2 static inline int any_v4(vmask4 m)
{
    return !_mm256_testz_si256((__m256i)m, (__m256i)m);
}

AVX2 static inline vec4 fma_v4(vec4 a, vec4 b, vec4 c)
{
    return (vec4)_mm256_fmadd_pd((__m256d)a, (__m256d)b, (__m256d)c);
}

AVX512 static inline vec8 sqrt_v8(vec8 x)
{
    return (vec8)_mm512_sqrt_pd((__m512d)x);
}

AVX512 static inline unsigned bits_v8(vmask8 m)
{
    return (unsigned)_mm512_movepi64_mask((__m512i)m);
}

AVX512 static inline int any_v8(vmask8 m)
{
    return _mm512_test_epi64_mask((__m512i)m, (__m512i)m) != 0;
}

AVX512 static inline vec8 fma_v8(vec8 a, vec8 b, vec8 c)
{
    return (vec8)_mm512_fmadd_pd((__m512d)a, (__m512d)b, (__m512d)c);
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

/* 1 when tamsde_init found AVX2 and FMA on the host, and avx512 when it
   found AVX-512F, DQ and VL beside them: tamsde_block runs the eight-wide
   layer's runners where avx512 is set, else the four-wide layer's where
   avx2 is, else the two-wide layer's */
static int avx2, avx512;

/* The proven powers of model2 (prove_V, below, on four- and eight-wide
   vectors) are built on x86-64 ELF with glibc 2.28 or later, whose pow they are proven against, and taken when
   tamsde_init found AVX2 and FMA and they agreed with pow on its probe
   (proven); elsewhere every power of a vector is libm's pow (NO_PROOF). */
#define NO_PROOF(a, half, p12, p02) 0u
#ifdef WIDE
#if __GLIBC_PREREQ(2, 28)
#define PROVEN_POWERS
#endif
#endif
#ifdef PROVEN_POWERS
static int proven;
AVX2 static inline unsigned prove_v4(vec4 a, vec4 *half, vec4 *p12,
                                     vec4 *p02);
AVX512 static inline unsigned prove_v8(vec8 a, vec8 *half, vec8 *p12,
                                       vec8 *p02);
#define PROVE_V4(a, half, p12, p02) \
    (proven ? prove_v4(a, half, p12, p02) : 0u)
#define PROVE_V8(a, half, p12, p02) \
    (proven ? prove_v8(a, half, p12, p02) : 0u)
#else
#define PROVE_V4 NO_PROOF
#define PROVE_V8 NO_PROOF
#endif

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

/* model2's powers of |x|: *half = |x| ** 0.5, which mu and mu' share (the
   compiler does not merge two calls of pow on the same argument, as pow
   may set errno), *p12 = |x| ** 1.2 and *p02 = |x| ** 0.2 */
static inline void powers_d(double x, double *half, double *p12, double *p02)
{
    *half = powabs_d(x, 0.5);
    *p12 = powabs_d(x, 1.2);
    *p02 = powabs_d(x, 0.2);
}

/* --- a seed's normals, drawn ahead -------------------------------------- */

/* Every runner reads a seed's normals off its stream (struct stream): the
   seed's Philox, the normals drawn ahead on it, up to BATCH of them, and
   the next one to read.  An empty stream draws a batch, out of line
   (refill): the outputs left in the Philox's buffer, then its next
   BATCH_BLOCKS blocks (blocks), each output's normal taken on numpy's fast
   path where it is, and every other output handed to numpy's function on
   a replay of the batch's outputs not yet used, then of the Philox; so
   the stream's normals, and its Philox's state, are numpy's, in order.
   batch() is the one route of the kernel's normals: tamsde_normals runs it
   too, and tamsde_init's check() tests it against numpy's function, which
   draws only off the fast path and for the check and the tail of
   tamsde_normals.  Philox is counter-based: the blocks of one key at
   consecutive counters are independent, so the eight-wide layer makes a
   batch's blocks, as many as its elements, as one vector, one block to an
   element, each 64 x 64-bit product made of four 32 x 32-bit ones
   (_mm512_mul_epu32); every other build makes them one at a time
   (philox_block), as does any build for a counter whose low word is within
   BATCH_BLOCKS of its wrap, whose carry numpy takes word by word.  Philox's
   ten rounds are written once (ROUNDS), for a block's words and for a
   vector of eight blocks'.  On the four- and eight-wide layers the fast
   path (fasts_V, ziggurat()'s on vectors) is a gather of ki and wi, a
   compare and a multiply of four or eight outputs at once.  A seed that
   starts has an empty stream (take), so its first normal draws a whole
   batch.  Against normals drawn one at a time (philox_next and ziggurat()
   inline in each draw), tools/leg_step_ns.py read moments-long at 0.71 of
   the time a leg-step, compare-smooth/tam at 0.74, compare-smooth/tm at 0.84
   and rate-rough at 0.91 on the eight-wide layer, 0.85, 0.94, 0.86 and
   0.95 on the four-wide one, and every row of the two-wide build within
   its IQR of 1.00 (21 rounds, 2-core Intel Xeon with AVX-512, gcc 12); a
   buffer filled one draw at a time gains little (ROADMAP, Rejected). */
#define BATCH_BLOCKS 8
#define BATCH (4 + 4 * BATCH_BLOCKS)

struct stream {
    struct philox rng;
    double normal[BATCH];
    int next, n;
};

#ifdef WIDE
typedef unsigned long long vu4 __attribute__((vector_size(8 * AVX2_ELEMENTS)));
typedef unsigned long long vu8
    __attribute__((vector_size(8 * AVX512_ELEMENTS)));

/* ki and wi at each element's strip, on four- and eight-wide vectors */
AVX2 static inline vmask4 ki_v4(vu4 strip)
{
    return (vmask4)_mm256_i64gather_epi64((const long long *)ki,
                                          (__m256i)strip, 8);
}

AVX2 static inline vec4 wi_v4(vu4 strip)
{
    return (vec4)_mm256_i64gather_pd(wi, (__m256i)strip, 8);
}

AVX512 static inline vmask8 ki_v8(vu8 strip)
{
    return (vmask8)_mm512_i64gather_epi64((__m512i)strip, ki, 8);
}

AVX512 static inline vec8 wi_v8(vu8 strip)
{
    return (vec8)_mm512_i64gather_pd((__m512i)strip, wi, 8);
}

/* ziggurat() of each of the W outputs r[0..W) into x[0..W), every one of
   them written, on a vector of W words, vu, of doubles, vec, and of masks,
   vmask, each function with the attributes A (fast_V); returns the bits of
   those on the fast path, bit e for r[e].  rabs < 2**52 converts exactly
   as 2**52 + rabs, its bits beside the exponent of 2**52, less 2**52, so
   no 64-bit integer conversion is needed, which AVX2 lacks.  fasts_V does
   the same for the 4 BATCH_BLOCKS outputs of a batch's blocks. */
#define FAST(vu, vec, vmask, V, W, A)                                         \
A static inline unsigned fast_##V(const uint64_t *r, double *x)              \
{                                                                             \
    vu o, rabs, strip;                                                        \
    vec v;                                                                    \
    memcpy(&o, r, sizeof o);                                                  \
    rabs = o >> 9 & 0xfffffffffffffu;                                         \
    strip = o & 0xff;                                                         \
    v = ((vec)(rabs | 0x4330000000000000u) - 0x1p52) * wi_##V(strip);         \
    v = (vec)((vu)v ^ (o << 55 & 0x8000000000000000u));                       \
    memcpy(x, &v, sizeof v);                                                  \
    return bits_##V((vmask)rabs < ki_##V(strip));                             \
}                                                                             \
A static uint64_t fasts_##V(const uint64_t *r, double *x)                     \
{                                                                             \
    uint64_t fast = 0;                                                        \
    int i;                                                                    \
    for (i = 0; i < 4 * BATCH_BLOCKS; i += W)                                 \
        fast |= (uint64_t)fast_##V(r + i, x + i) << i;                        \
    return fast;                                                              \
}

FAST(vu4, vec4, vmask4, v4, AVX2_ELEMENTS, AVX2)
FAST(vu8, vec8, vmask8, v8, AVX512_ELEMENTS, AVX512)

/* the 64-bit product of the low 32 bits of each element of a and b */
AVX512 static inline vu8 mul32_v8(vu8 a, vu8 b)
{
    return (vu8)_mm512_mul_epu32((__m512i)a, (__m512i)b);
}

/* mulhilo in each element of b, by a: its four 32 x 32-bit products */
AVX512 static inline vu8 mulhilo_v8(uint64_t a, vu8 b, vu8 *hi)
{
    vu8 a0 = (vu8)EACH8(SAME, a), a1 = a0 >> 32, b1 = b >> 32,
        p00 = mul32_v8(a0, b), t = mul32_v8(a1, b) + (p00 >> 32),
        u = mul32_v8(a0, b1) + (t & 0xffffffffu);
    *hi = mul32_v8(a1, b1) + (t >> 32) + (u >> 32);
    return u << 32 | (p00 & 0xffffffffu);
}

ROUNDS(vu8, mulhilo_v8, rounds_v8, AVX512)

/* element e of the vector of the counters after a */
#define AFTER(a, e) ((a) + (e) + 1)

/* The eight blocks of s after its counter, as philox_block makes them, one
   to an element, their outputs into r[0..32) in order.  The counter's low
   word must not wrap. */
AVX512 static void blocks_v8(struct philox *s, uint64_t *r)
{
    /* elements 0-3 and 4-7 of two words interleaved, then the words of two
       blocks at a time */
    const __m512i low = _mm512_set_epi64(11, 3, 10, 2, 9, 1, 8, 0),
                  high = _mm512_set_epi64(15, 7, 14, 6, 13, 5, 12, 4),
                  first = _mm512_set_epi64(11, 10, 3, 2, 9, 8, 1, 0),
                  second = _mm512_set_epi64(15, 14, 7, 6, 13, 12, 5, 4);
    vu8 c[4] = {(vu8)EACH8(AFTER, s->counter[0]),
                (vu8)EACH8(SAME, s->counter[1]),
                (vu8)EACH8(SAME, s->counter[2]),
                (vu8)EACH8(SAME, s->counter[3])};
    __m512i p[4], w[4];
    rounds_v8(c, s->key[0], s->key[1]);
    p[0] = _mm512_permutex2var_epi64((__m512i)c[0], low, (__m512i)c[1]);
    p[1] = _mm512_permutex2var_epi64((__m512i)c[2], low, (__m512i)c[3]);
    p[2] = _mm512_permutex2var_epi64((__m512i)c[0], high, (__m512i)c[1]);
    p[3] = _mm512_permutex2var_epi64((__m512i)c[2], high, (__m512i)c[3]);
    w[0] = _mm512_permutex2var_epi64(p[0], first, p[1]);
    w[1] = _mm512_permutex2var_epi64(p[0], second, p[1]);
    w[2] = _mm512_permutex2var_epi64(p[2], first, p[3]);
    w[3] = _mm512_permutex2var_epi64(p[2], second, p[3]);
    memcpy(r, w, sizeof w);
    s->counter[0] += 8;
    memcpy(s->buffer, r + 28, sizeof s->buffer);
}
#endif

/* The next BATCH_BLOCKS blocks of s, as philox_block makes them, their
   outputs into r and ziggurat() of each into x; returns the bits of those
   on the fast path, bit i for r[i].  s's buffer is left holding the last
   block, every output of it read, as numpy's is.  The eight-wide layer
   makes the blocks on one vector, unless the counter's low word would
   wrap, and takes their fast path on eight-wide vectors; the four-wide
   one takes it on four-wide vectors of the blocks made one at a time: its
   Philox on two four-wide passes read 5.2-5.4 ns an output in a C
   microbenchmark, against 3.6-3.7 for this and 4.4-4.5 for one block and
   one output at a time (the eight-wide vector 3.1-3.2; 2-core Intel Xeon
   with AVX-512, gcc 12). */
static uint64_t blocks(struct philox *s, uint64_t *r, double *x)
{
    uint64_t fast = 0;
    int i;
#ifdef WIDE
    if (avx512 && s->counter[0] <= UINT64_MAX - BATCH_BLOCKS) {
        blocks_v8(s, r);
        return fasts_v8(r, x);
    }
#endif
    for (i = 0; i < BATCH_BLOCKS; i++)
        philox_block(s, r + 4 * i);
    memcpy(s->buffer, r + 4 * BATCH_BLOCKS - 4, sizeof s->buffer);
#ifdef WIDE
    if (avx2)
        return fasts_v4(r, x);
#endif
    for (i = 0; i < 4 * BATCH_BLOCKS; i++)
        fast |= (uint64_t)ziggurat(r[i], &x[i]) << i;
    return fast;
}

/* The next normals of s, as numpy's normal draws them, into normal: one
   for each output left in s's buffer and of its next BATCH_BLOCKS blocks,
   or fewer where numpy's function, off the fast path, reads more than one
   output (reading on into s past the batch's last); returns how many, at
   most BATCH.  s is left as numpy's draws leave it. */
static int batch(struct philox *s, double *normal)
{
    uint64_t r[BATCH], fast = 0;
    int left = 4 - s->buffer_pos, n = left + 4 * BATCH_BLOCKS, i, k;
    for (i = 0; i < left; i++) {
        r[i] = s->buffer[s->buffer_pos++];
        fast |= (uint64_t)ziggurat(r[i], &normal[i]) << i;
    }
    fast |= blocks(s, r + left, normal + left) << left;
    if (fast == ((uint64_t)1 << n) - 1)
        return n;
    /* from the first output off the fast path on, numpy's function on each
       such, and the fast ones after the outputs it read moved up */
    for (i = k = __builtin_ctzll(~fast); i < n;) {
        struct replay p = {r + i, r + n, s};
        normal[k++] = replay(&p);
        for (i = (int)(p.next - r); i < n && fast >> i & 1; i++)
            normal[k++] = normal[i];
    }
    return k;
}

/* s's next batch, which empties it; out of line, so the runners'
   passes hold only the read */
static __attribute__((noinline)) void refill(struct stream *s)
{
    s->n = batch(&s->rng, s->normal);
    s->next = 0;
}

/* numpy's next normal on s's Philox */
static inline double draw(struct stream *s)
{
    if (s->next == s->n)
        refill(s);
    return s->normal[s->next++];
}

/* out = the next n normals of rng, as Generator.standard_normal(n): in
   batches, then, for the last fewer than BATCH, numpy's function on rng
   itself (an empty replay), so rng ends where numpy's does */
void tamsde_normals(struct philox *rng, double *out, long long n)
{
    struct replay p = {NULL, NULL, rng};
    long long i = 0;
    while (n - i >= BATCH)
        i += batch(rng, out + i);
    for (; i < n; i++)
        out[i] = replay(&p);
}

/* --- the fast path's tables ---------------------------------------------- */

/* numpy's normal of the output with strip idx, sign bit 0 and rabs, on a
   replay whose later draws are a zero-keyed Philox's; *fast is 1 when it
   took the fast path, that is, drew nothing more, as any further draw
   steps the Philox's counter */
static double probe(unsigned idx, uint64_t rabs, int *fast)
{
    struct philox rng = {{0}, {0}, {0}, 4};
    uint64_t r = rabs << 9 | idx;
    struct replay p = {&r, &r + 1, &rng};
    double x = replay(&p);
    *fast = rng.counter[0] == 0;
    return x;
}

/* the normals the probed tables are checked on */
#define CHECK_DRAWS 16384

/* 1 when batch() and numpy's function, run on a Philox of its own (an
   empty replay), draw the same normals, bit for bit, at least CHECK_DRAWS
   of them from a fixed key, and leave the same Philox state.  It runs
   before tamsde_init tests the processor, so batch() makes its blocks and
   their fast path one at a time, as the two-wide layer does; the tests
   check the vector layers' batches. */
static int check(void)
{
    struct philox a = {{0}, {0x243F6A8885A308D3u, 0x13198A2E03707344u}, {0},
                       4}, b = a;
    struct replay p = {NULL, NULL, &b};
    double x[BATCH], y;
    long drawn;
    int i, n;
    for (drawn = 0; drawn < CHECK_DRAWS; drawn += n) {
        n = batch(&a, x);
        for (i = 0; i < n; i++) {
            y = replay(&p);
            if (memcmp(&x[i], &y, sizeof y) != 0)
                return 0;
        }
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
     struct leg_V: a leg: its state, the times of its last step and of
       its next event, the mu, sigma and q propose_V kept at its state,
       the Kahan pair of the increment pending since its last step, and
       its step count.  Its base step is the block's.  A fixed-step leg
       (the vector layer's tm_step_V) shares its clock, the times and the
       count, with its generation, and leaves its own unread.
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
    T half, p12, p02;                                                        \
    switch (model) {                                                         \
    case MODEL1:                                                             \
        *m = 0.1 * (x - x * x * x);                                          \
        *mp = 0.1 * (1.0 - 3.0 * x * x);                                     \
        *s = 0.1 * x;                                                        \
        *sp = splat_##V(0.1);                                                \
        break;                                                               \
    case MODEL2:                                                             \
        powers_##V(x, &half, &p12, &p02);                                    \
        *m = -0.1 * (1.0 + 3.0 * x + x * half);                              \
        *mp = -0.3 - 0.15 * half;                                            \
        *s = 0.3 * (1.0 + p12);                                              \
        *sp = 0.36 * sign_##V(x) * p02;                                      \
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
   coarse), its own stream of normals, t, the merged timeline's time, and
   the seed's index in its block. */
struct lane {
    struct leg_d leg[2];
    struct stream s;
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
   is compiled in one piece (flatten): the read of the lane's stream and
   both calls of fire_d are inlined, so each copy of fire_d works on its
   leg at a fixed offset in the lane, and only pow and the stream's refill
   are called.  With fire and the draw called out of line, as gcc 12 left
   them, an adaptive model1 leg-step took 1.15 times as long (2-core AMD
   EPYC). */
static __attribute__((flatten)) int pair_event(const struct pair *p,
                                               struct lane *l)
{
    struct leg_d *f = &l->leg[0], *c = &l->leg[1];
    double t = f->due < c->due ? f->due : c->due;
    double dz = sqrt(t - l->t) * draw(&l->s);
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

/* The index of the block's next seed, with s that seed's stream, its
   Philox seeded and no normal drawn, and the seed's words stepped to the
   next integer; -1, and s untouched, when every seed has started.  A carry out of the top word makes the
   words one longer, so seed has room for one more word, zeroed; stepping
   from a block's first seed to the integer after its last carries out of
   the top word at most once, as a block has fewer than 2**63 seeds. */
static long long take(struct block *b, struct stream *s)
{
    size_t i;
    if (b->next == b->n)
        return -1;
    tamsde_seed(&s->rng, b->seed, b->n_words);
    s->next = s->n = 0;
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

/* the seeds a block keeps in flight: adaptive pairs in LANES lanes, or
   VECTORS vectors of paths, fixed-step pairs or, by the rule at
   tamsde_block, adaptive pairs, of BASELINE_ELEMENTS, AVX2_ELEMENTS or
   AVX512_ELEMENTS each (with 2, 4 or 5 two-wide vectors in place of 3,
   tools/leg_step_ns.py read moments-long at 1.04, 1.01 and 1.02 of this
   count's time; with 1, 2 or 4 eight-wide vectors no row gained on 3 by
   more than its IQR, 15 rounds, 2-core Intel Xeon, gcc 12).  With 4
   lanes, tools/leg_step_ns.py read compare-smooth/tam (model1) at 1.05 of
   these counts' time (15 rounds, 2-core AMD EPYC, gcc 12), and model2's
   pair blocks, whose pow calls leave the processor less idle, read
   0.99-1.02 of 2 lanes' time at 3, 100 and 200 seeds (a build without
   AVX2, 21 rounds, 2-core Intel Xeon, gcc 12). */
#define LANES 3
#define VECTORS 3

/* Start lane l on the block's next seed, with its legs as first[0] and
   first[1], as every seed starts them; 0 when every seed has started. */
static int begin(struct lane *l, const struct leg_d *first, struct block *b)
{
    memcpy(l->leg, first, sizeof l->leg);
    l->t = 0.0;
    return (l->i = take(b, &l->s)) >= 0;
}

/* Each of the block's tamed-adaptive pairs of p, from the legs first, in
   LANES lanes, each seed on its own Philox, the first n_live of lanes with
   a seed under way already (a vector's last pairs, handed off).  A pass
   gives every live lane one event, a lane left alone (the one lane of a
   block of one) included, and a lane whose seed is over writes its record
   and starts the block's next seed.  Each seed runs the same operations
   in the same order as it would alone, so only the order of the work
   across seeds depends on the lanes. */
static void run_pairs(const struct pair *p, const struct leg_d *first,
                      struct block *b, struct lane *lanes, int n_live)
{
    struct lane *live[LANES];
    int k;
    for (k = 0; k < n_live; k++)
        live[k] = &lanes[k];
    for (; n_live < LANES && begin(&lanes[n_live], first, b); n_live++)
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

/* The vector layer on a vector of W doubles, vec, with masks vmask and
   EACH its initializer (EACH2, EACH4 or EACH8): each of its functions,
   suffixed V, carries the attributes A, and its types are suffixed V too.
   Only vectors step fixed-step legs, so the fixed-step update and propose
   are written for the vector alone.  A tamed-adaptive leg's step is FORMULAS'
   fire_V, the one the scalar lanes' pair_event fires too: here a path's
   leg and each leg of a pair, fixed-step or tamed-adaptive, are a struct
   leg_V, one leg to an element.
     splat_V, select_V, not_V, abs_V, isinf_V, copysign_V, powabs_V and
       powers_V: the helpers FORMULAS is written in, as a double's are.
       select_V gives a where c is set, else b; copysign_V each element of
       |a| with the sign of that element of b; powabs_V libm's pow of |x|
       in each element.  powers_V gives model2's powers as powers_d does,
       each where PROVE proves it (prove_v4 or prove_v8 on four- or
       eight-wide vectors while proven is set, else none), and pow's
       elsewhere; it returns the bits of the proven ones, bit e for element
       e of |x| ** 0.5, W + e of 1.2 and 2 W + e of 0.2.  Testing each bit
       on its own, rather than first whether every power was proven, read
       rate-rough at 1/1.049 of that (tools/leg_step_ns.py, 7 rounds); the
       three powers' loops written as one over an array of their pointers
       made model1 path blocks ~1.05 times as slow (2-core Intel Xeon, gcc
       12).
     FORMULAS on the vector.
     tm_propose_V: propose of scheme._tm_leg, whose step is the base step
       itself: keeps mu, sigma and sigma sigma' at the leg's state in its
       m, s and q.
     tm_step_V: the fixed-step update of scheme._tm_leg with the leg's
       pending increment, over the duration dt, which is a generation's,
       one for every element, then clears the pending pair, as step_V
       does.
     begin_leg_V: element e of the legs g, as first is.
     struct seeds_V: the seeds of a vector's elements: each element's
       stream and the index in the block of its seed, or -1 for an
       element with none, which steps with no noise and is not read.
     idle_V: 1 when no element has a seed.
     lane_normal_V and lane_normals_V: element e's normal, and the vector
       of every element's: each the next off its own stream (draw), or 0
       for an element with no seed.  The vector is built from an
       initializer: built by
       a store into each element, the portable two-wide paths took ~1.05
       times as long.
     struct leg_lanes_V: W paths or pairs in flight: their seeds, their
       legs (index 0 the fine leg, 1 the coarse; a path has the fine leg
       only) and each element's time, of its pair's merged timeline or its
       path's last step.  An element whose seed is over has none.  A
       fixed-step generation's time and clocks are its own, one for all
       its elements, so run_fixed_V reads neither t nor its legs' last,
       due and steps.  With the seeds after the legs, the moments-long
       row of tools/leg_step_ns.py took ~1.006 times as long (2-core AMD
       EPYC, gcc 12), for no change in the code it runs.
     run_fixed_V: each of the block's fixed-step pairs, from p's x0 and
       base steps, in generations of up to W VECTORS seeds, W to a vector,
       all started at t = 0 with both legs as first, proposed at x0 (each
       element's stream is its own).  A fixed-step leg's clock does not
       depend on its state, so a generation has one timeline: each
       event's time and sqrt of its gap, which legs fire, their clocks
       (struct leg_d, base step p->delta[j]) and their budget and collapse
       tests are worked out once, in driver._merge's order, and only each
       seed's draw, pending increments, updates, coefficients and
       finiteness tests are its own.  A seed that stops writes its record
       at the event, a fine stop before the coarse leg fires, as
       pair_event's FINE_STOP, and its element idles; the next generation
       starts when every seed of this one is over.  Its timeline's budget
       test ends every generation, so it needs no RUNAWAY bound.
     pick_V: the legs of a where c is set, else of b.
     lane_of_V and set_lane_V: element e of l as a scalar lane, its legs,
       stream, time and seed's index, and back, so a seed moves between
       elements and lanes with its operations unchanged.
     begin_legs_V: starts element e of l on the block's next seed, or
       none, at time 0 with its legs as first (a path's second leg is not
       read, but is set, so lane_of_V reads no unset element).
     pack_V: once every seed has started, the seeds under way of the
       *n_live vectors of live moved into the fewest vectors, live[0] up
       to the new *n_live; returns how many seeds are under way.
     run_legs_V: each of the block's tamed-adaptive paths (legs 1) or pairs
       (legs 2), from first, as run_pairs runs pairs: VECTORS vectors of W
       seeds in flight, and an element whose seed is over (it cannot go on,
       or it has reached t_end) writes its record and starts the block's
       next seed, or none.  Its body, legs_V, is inlined into it once for each
       count of legs, so each has a copy of its own: left to gcc 12, which
       stopped making them once the runner grew, model1 path blocks took ~1.05
       times as long (2-core Intel Xeon).  The two-wide layer runs paths only.
       A pass gives each element of a vector with a live element one step of
       scheme._path_loop, its leg fired at its due time with
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
       prototype.  Once every seed has started, after each pass in which a
       seed ended, it packs the seeds under way into the fewest vectors
       (pack_V), and when fewer pairs than LANES are left, none at t_end (a
       stop lost there stays in its vector, to end the block), hands them
       to run_pairs' scalar lanes and returns: a vector steps every
       element, so a long seed alone in it costs W seeds' steps.  On
       rate-rough (model2, with its proven powers) tools/leg_step_ns.py
       read packing and the hand-off at 0.85 of neither and 0.88 of packing
       alone (21 and 11 rounds), and handing off at most two pairs at
       0.99 and 1.02 of at most three (two runs of 21 rounds, each within
       its IQR; 2-core Intel Xeon, gcc 12). */
#define VECTOR_LAYER(vec, vmask, V, W, EACH, A, PROVE)                       \
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
A static inline unsigned powers_##V(vec x, vec *half, vec *p12, vec *p02)    \
{                                                                            \
    vec a = abs_##V(x);                                                      \
    double e05 = 0.5, e12 = 1.2, e02 = 0.2;                                  \
    unsigned done;                                                           \
    int i;                                                                   \
    *half = *p12 = *p02 = a;                                                 \
    done = PROVE(a, half, p12, p02);                                         \
    OPAQUE(e05);                                                             \
    OPAQUE(e12);                                                             \
    OPAQUE(e02);                                                             \
    for (i = 0; i < W; i++) {                                                \
        if (!(done >> i & 1))                                                \
            (*half)[i] = pow(a[i], e05);                                     \
        if (!(done >> (W + i) & 1))                                          \
            (*p12)[i] = pow(a[i], e12);                                      \
        if (!(done >> (2 * W + i) & 1))                                      \
            (*p02)[i] = pow(a[i], e02);                                      \
    }                                                                        \
    return done;                                                             \
}                                                                            \
FORMULAS(vec, V, vmask, A)                                                   \
A static inline void tm_propose_##V(int model, struct leg_##V *g)            \
{                                                                            \
    vec mp, sp;                                                              \
    coefficients_##V(model, g->x, &g->m, &mp, &g->s, &sp);                   \
    g->q = product_##V(g->s, sp);                                            \
}                                                                            \
A static inline void tm_step_##V(struct leg_##V *g, double dt, double delta) \
{                                                                            \
    g->x = g->x + (g->m * dt + g->s * g->pw                                  \
                   + 0.5 * g->q * (g->pw * g->pw - dt))                      \
                  / (1.0 + delta * (g->x * g->x));                           \
    g->pw = g->pc = splat_##V(0.0);                                          \
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
    struct stream s[W];                                                      \
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
    return k->i[e] >= 0 ? draw(&k->s[e]) : 0.0;                              \
}                                                                            \
A static inline vec lane_normals_##V(struct seeds_##V *k)                    \
{                                                                            \
    return (vec)EACH(lane_normal_##V, k);                                    \
}                                                                            \
struct leg_lanes_##V {                                                       \
    struct seeds_##V k;                                                      \
    struct leg_##V leg[2];                                                   \
    vec t;                                                                   \
};                                                                           \
A static void run_fixed_##V(const struct pair *p, struct block *b)           \
{                                                                            \
    struct leg_lanes_##V lanes[VECTORS], *live[VECTORS];                     \
    struct leg_##V first = {.x = splat_##V(p->x0)};                          \
    int n_live, k, e, j;                                                     \
    tm_propose_##V(p->model, &first);                                        \
    while (b->next < b->n) {                                                 \
        struct leg_d c[2] = {{.due = due_d(0.0, p->delta[0], p->t_end)},     \
                             {.due = due_d(0.0, p->delta[1], p->t_end)}};    \
        double t = 0.0;                                                      \
        for (n_live = 0; n_live < VECTORS && b->next < b->n; n_live++) {     \
            struct leg_lanes_##V *l = live[n_live] = &lanes[n_live];         \
            l->leg[0] = l->leg[1] = first;                                   \
            for (e = 0; e < W; e++)                                          \
                l->k.i[e] = take(b, &l->k.s[e]);                             \
        }                                                                    \
        while (n_live > 0) {                                                 \
            double t_next = c[0].due < c[1].due ? c[0].due : c[1].due;       \
            vec sq = splat_##V(sqrt(t_next - t));                            \
            for (k = 0; k < n_live; k++) {                                   \
                struct leg_##V *g = live[k]->leg;                            \
                vec dz = sq * lane_normals_##V(&live[k]->k);                 \
                pend_##V(&g[0].pw, &g[0].pc, dz);                            \
                pend_##V(&g[1].pw, &g[1].pc, dz);                            \
            }                                                                \
            for (j = 0; j < 2; j++) {                                        \
                struct leg_d *clock = &c[j];                                 \
                double dt = t_next - clock->last;                            \
                int going = t_next < p->t_end, all = !going && j == 1;       \
                if (clock->due != t_next)                                    \
                    continue;                                                \
                clock->last = t_next;                                        \
                clock->steps += 1;                                           \
                if (going) {  /* the budget spent or the step collapsed */   \
                    clock->due = due_d(t_next, p->delta[j], p->t_end);       \
                    all = clock->steps >= p->max_steps                       \
                          || clock->due <= t_next;                           \
                }                                                            \
                /* at t_end both legs fire (every due time is clamped to     \
                   it), and the coarse leg's event ends every seed */        \
                for (k = 0; k < n_live; k++) {                               \
                    struct leg_lanes_##V *l = live[k];                       \
                    struct leg_##V *g = &l->leg[j];                          \
                    unsigned over = all ? (1u << W) - 1 : 0;                 \
                    tm_step_##V(g, dt, p->delta[j]);                         \
                    if (going) {                                             \
                        over |= bits_##V(not_##V(abs_##V(g->x) <= DBL_MAX)); \
                        tm_propose_##V(p->model, g);                         \
                    }                                                        \
                    for (e = 0; e < W; e++)                                  \
                        if (over >> e & 1 && l->k.i[e] >= 0) {               \
                            record(b, l->k.i[e], l->leg[0].x[e],             \
                                   l->leg[1].x[e], c[0].steps, c[1].steps,   \
                                   t_next, going ? FINE_STOP + j             \
                                   : pair_end(l->leg[0].x[e],                \
                                              l->leg[1].x[e]));              \
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
A static inline struct lane lane_of_##V(const struct leg_lanes_##V *l, int e) \
{                                                                            \
    struct lane n;                                                           \
    int j;                                                                   \
    for (j = 0; j < 2; j++) {                                                \
        const struct leg_##V *g = &l->leg[j];                                \
        struct leg_d d = {g->x[e], g->last[e], g->due[e], g->m[e], g->s[e],  \
                          g->q[e], g->pw[e], g->pc[e], g->steps[e]};         \
        n.leg[j] = d;                                                        \
    }                                                                        \
    n.s = l->k.s[e];                                                         \
    n.t = l->t[e];                                                           \
    n.i = l->k.i[e];                                                         \
    return n;                                                                \
}                                                                            \
A static inline void set_lane_##V(struct leg_lanes_##V *l, int e,            \
                                  const struct lane *n)                      \
{                                                                            \
    begin_leg_##V(&l->leg[0], e, &n->leg[0]);                                \
    begin_leg_##V(&l->leg[1], e, &n->leg[1]);                                \
    l->k.s[e] = n->s;                                                        \
    l->t[e] = n->t;                                                          \
    l->k.i[e] = n->i;                                                        \
}                                                                            \
A static inline void begin_legs_##V(struct leg_lanes_##V *l, int e,          \
                                    const struct leg_d *first,               \
                                    struct block *b)                         \
{                                                                            \
    begin_leg_##V(&l->leg[0], e, &first[0]);                                 \
    begin_leg_##V(&l->leg[1], e, &first[1]);                                 \
    l->t[e] = 0.0;                                                           \
    l->k.i[e] = take(b, &l->k.s[e]);                                         \
}                                                                            \
A static int pack_##V(struct leg_lanes_##V **live, int *n_live)              \
{                                                                            \
    int seeds = 0, k, e, to = 0;                                             \
    for (k = 0; k < *n_live; k++)                                            \
        for (e = 0; e < W; e++)                                              \
            seeds += live[k]->k.i[e] >= 0;                                   \
    /* element to % W of vector to / W is the next one free to take a seed */\
    for (k = (seeds + W - 1) / W; k < *n_live; k++)                          \
        for (e = 0; e < W; e++)                                              \
            if (live[k]->k.i[e] >= 0) {                                      \
                struct lane n = lane_of_##V(live[k], e);                     \
                while (live[to / W]->k.i[to % W] >= 0)                       \
                    to++;                                                    \
                set_lane_##V(live[to / W], to % W, &n);                      \
            }                                                                \
    *n_live = (seeds + W - 1) / W;                                           \
    return seeds;                                                            \
}                                                                            \
A static inline __attribute__((always_inline)) int                          \
legs_##V(const struct pair *p, const struct leg_d *first, struct block *b,   \
         int legs)                                                           \
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
            begin_legs_##V(live[n_live], e, first, b);                       \
    }                                                                        \
    while (n_live > 0) {                                                     \
        int ended = 0, seeds;                                                \
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
                if (l->k.i[e] >= 0) {                                        \
                    record(b, l->k.i[e], f->x[e], c->x[e], f->steps[e],      \
                           c->steps[e], l->t[e],                             \
                           l->t[e] < p->t_end                                \
                           ? (coarse_stop[e] ? COARSE_STOP : FINE_STOP)      \
                           : pair_end(f->x[e], c->x[e]));                    \
                    ended = 1;                                               \
                }                                                            \
                begin_legs_##V(l, e, first, b);                              \
            }                                                                \
            if (any_##V(not_##V(l->t < p->t_end)))                           \
                return RUNAWAY;                                              \
            if (idle_##V(&l->k))  /* as in run_pairs */                      \
                live[k--] = live[--n_live];                                  \
        }                                                                    \
        if (!ended || b->next < b->n)                                        \
            continue;                                                        \
        seeds = pack_##V(live, &n_live);                                     \
        if (legs == 2 && seeds < LANES && n_live == 1                        \
                && !any_##V(not_##V(live[0]->t < p->t_end))) {               \
            struct lane under_way[LANES];                                    \
            for (k = e = 0; e < W; e++)                                      \
                if (live[0]->k.i[e] >= 0)                                    \
                    under_way[k++] = lane_of_##V(live[0], e);                \
            run_pairs(p, first, b, under_way, k);                            \
            return 0;                                                        \
        }                                                                    \
    }                                                                        \
    return 0;                                                                \
}                                                                            \
A static int run_legs_##V(const struct pair *p, const struct leg_d *first,   \
                          struct block *b, int legs)                         \
{                                                                            \
    return legs == 1 ? legs_##V(p, first, b, 1) : legs_##V(p, first, b, 2);  \
}

VECTOR_LAYER(vec2, vmask2, v2, BASELINE_ELEMENTS, EACH2, , NO_PROOF)
#ifdef WIDE
VECTOR_LAYER(vec4, vmask4, v4, AVX2_ELEMENTS, EACH4, AVX2, PROVE_V4)
VECTOR_LAYER(vec8, vmask8, v8, AVX512_ELEMENTS, EACH8, AVX512, PROVE_V8)

/* tamsde_block calls each layer's runner directly, so the compiler inlines
   the two-wide runners into it: called through a pointer, the portable
   two-wide build's paths took ~1.03 times as long (tools/leg_step_ns.py,
   moments-long).  RUN_WIDE runs the eight- or the four-wide one. */
#define RUN_WIDE(runner, ...) \
    (avx512 ? runner##_v8(__VA_ARGS__) : runner##_v4(__VA_ARGS__))
#define RUN_VECTORS(runner, ...) \
    (avx2 ? RUN_WIDE(runner, __VA_ARGS__) : runner##_v2(__VA_ARGS__))
#else
#define RUN_VECTORS(runner, ...) runner##_v2(__VA_ARGS__)
#endif

/* --- model2's powers, proven on four- and eight-wide vectors ------------- */

/* model2's coefficients take |x| ** 0.5, 1.2 and 0.2, and the Python loops'
   bits are libm pow's, which took 43% of a model2 leg-step (ROADMAP,
   Baseline).  prove_V gives each power of a = |x| as a double c that a
   rounding test proves is the double glibc's pow returns, with no table
   and no call; powers_V calls pow for each power it does not prove.

   Why a proven c is pow's: glibc's pow (sysdeps/ieee754/dbl-64/e_pow.c,
   glibc 2.28 and later) is within ulperr_exp + |y ln a| relerr_log 2**53
   ULP of the exact a ** y, with ulperr_exp <= 0.511 and relerr_log <= 1.5
   * 2**-68 (0.509 and 1.3 * 2**-68 in its FMA build).  For a in [2**-100,
   2**100] and y <= 1.2, |y ln a| <= 84, so pow is within 0.515 ULP of the
   exact power.  Where the exact power lies within 0.48 ULP of a double c
   that is not a power of two, c's neighbours are each one ULP of c away,
   so more than 0.52 ULP from the power, and pow returns c.  prove_V keeps
   c only there, and only for a in that range.

   The candidates c, each with d, an estimate of (exact power - c):
     - a ** 0.5: c = sqrt(a), correctly rounded, and r = a - c c exactly,
       by one FMA.  The root is c + r / (root + c), and root + c >= 2 c -
       u / 2 (u = c's ULP), so |r| <= 0.9598 c u puts it within 0.48 u.
     - a ** 0.2: 0.2 as a double is 1/5 + 2**-54/5, so the power is a **
       (1/5) exp(w), w = 2**-54/5 ln a.  A seed y, a ** (1/5) to 2e-7 from
       a log and an exp polynomial, gives rho = y**5 / a - 1 to 1e-21, y**4
       in double-double and y**5 - a by one FMA.  Where |rho| <= 2e-6 (else
       nothing is kept), a ** (1/5) = y (1 + s), s = -rho/5 + 3 rho**2/25 -
       11 rho**3/125 up to 1e-24, and the power is y (1 + k), k = s + w + s
       w: c is y (1 + k) rounded, and d = (y - c) + y k.
     - a ** 1.2: 1.2 as a double is 6/5 - 2**-52/5, so the power is a (c +
       d) exp(-2**-54 ln a), with the fifth root's c and d: its c is that
       rounded, from a c exactly as a product and its FMA error.
   Each d is off by less than 1e-4 ULP, so a power is kept where |d| <=
   0.4799 ULP of its c.  Against glibc 2.36's pow, over 80 million inputs
   (log-uniform in [2**-100, 2**100] and over every double, uniform in [0,
   10] and in [0.5, 2], and near-midpoint constructions), every power was
   pow's and ~96% of each in range were proven; the same test at 0.499 ULP
   (and 0.998 for the root) found 8259 mismatches in 10 million inputs, at
   0.5 ULP 24550, and probe_powers turned either build's proven powers
   off. */
#ifdef PROVEN_POWERS
/* a's elements rounded to the nearest integer, on four- and eight-wide
   vectors */
AVX2 static inline vec4 round_v4(vec4 a)
{
    return (vec4)_mm256_round_pd((__m256d)a, _MM_FROUND_TO_NEAREST_INT
                                             | _MM_FROUND_NO_EXC);
}

AVX512 static inline vec8 round_v8(vec8 a)
{
    return (vec8)_mm512_roundscale_pd((__m512d)a, _MM_FROUND_TO_NEAREST_INT
                                                  | _MM_FROUND_NO_EXC);
}

/* The proof on a vector of W doubles, vec, with masks vmask and words
   vu, whose shifts move an exponent field (vpsrlq and vpsllq), each
   function with the attributes A, instantiated for the four- and
   eight-wide layers, so it is written once and each width runs it on its
   own vectors (run on the halves of an eight-wide vector, it took ~1.35
   times as long an input: its 256-bit operations lose a port while
   512-bit ones are in flight).
     near_V: the elements where c is not a power of two and |d| <= tol *
       c's ULP.
     horner_V: c[0] + x (c[1] + x (... + x c[n - 1])).
     prove_V: each power of a = |x| that the test proves, bit e of its
       result set for element e of |x| ** 0.5, W + e of 1.2 and 2 W + e of
       0.2, as powers_V reads them.
     powers_of_V: out[i], out[n + i] and out[2 n + i] = |x[i]| ** 0.5, 1.2
       and 0.2 by powers_V, for i < n, a multiple of W; returns how many of
       the 3 n powers it proved. */
#define PROOF(vec, vmask, vu, V, W, A)                                       \
A static inline vmask near_##V(vec c, vec d, vec tol)                        \
{                                                                            \
    vmask exponent = (vmask)c & 0x7ff0000000000000;                          \
    return ((vmask)c != exponent) & (abs_##V(d) <= tol * (vec)exponent       \
                                                    * 0x1p-52);              \
}                                                                            \
A static inline vec horner_##V(vec x, const double *c, int n)                \
{                                                                            \
    vec r = splat_##V(c[n - 1]);                                             \
    while (--n > 0)                                                          \
        r = fma_##V(r, x, splat_##V(c[n - 1]));                              \
    return r;                                                                \
}                                                                            \
A static inline unsigned prove_##V(vec a, vec *half, vec *p12, vec *p02)     \
{                                                                            \
    static const double atanh2[] = {2.0, 2.0 / 3.0, 2.0 / 5.0, 2.0 / 7.0},   \
                        taylor[] = {1.0, 1.0, 1.0 / 2.0, 1.0 / 6.0,          \
                                    1.0 / 24.0, 1.0 / 120.0, 1.0 / 720.0};   \
    const double ln2 = 0.6931471805599453;                                   \
    vmask in = (a >= 0x1p-100) & (a <= 0x1p100), big, ok05, ok12;            \
    vec inv = 1.0 / a, tol = splat_##V(0.4799), e, m, t, lna, q, n, y, h2,   \
        h4, l4, rho, k, c, d, pr;                                            \
    /* a ** 0.5 */                                                           \
    *half = sqrt_##V(a);                                                     \
    ok05 = in & near_##V(*half, fma_##V(-*half, *half, a), 0.9598 * *half);  \
    /* the seed y of a ** (1/5): ln a = e ln 2 + 2 atanh(t), t = (m - 1) /   \
       (m + 1), a = 2**e m with m in [sqrt(1/2), sqrt(2)) */                 \
    e = (vec)((vu)a >> 52 | 0x4330000000000000u) - (0x1p52 + 1023.0);        \
    m = (vec)(((vmask)a & 0x000fffffffffffff) | 0x3ff0000000000000);         \
    big = m > 1.4142135623730951;                                            \
    m = select_##V(big, 0.5 * m, m);                                         \
    e = e + select_##V(big, splat_##V(1.0), splat_##V(0.0));                 \
    t = (m - 1.0) / (m + 1.0);                                               \
    lna = fma_##V(e, splat_##V(ln2), t * horner_##V(t * t, atanh2, 4));      \
    q = lna * (0.2 / ln2);                                                   \
    n = round_##V(q);                                                        \
    y = horner_##V((q - n) * ln2, taylor, 7)                                 \
        * (vec)((vu)(n + (0x1p52 + 1023.0)) << 52);                          \
    /* rho = y**5 / a - 1, y**4 in double-double (its l2 * l2 is below       \
       2**-104 of it), with 1 / a taken first, off the chain of y */         \
    h2 = y * y;                                                              \
    h4 = h2 * h2;                                                            \
    l4 = fma_##V(h2, h2, -h4) + (h2 + h2) * fma_##V(y, y, -h2);              \
    rho = (fma_##V(h4, y, -a) + l4 * y) * inv;                               \
    in &= abs_##V(rho) <= 2e-6;                                              \
    /* a ** 0.2 = y (1 + k), k = s + w + s w */                              \
    k = rho * (-0.2 + rho * (3.0 / 25.0 - rho * (11.0 / 125.0)));            \
    k = fma_##V(lna * (0x1p-54 / 5.0), k, k + lna * (0x1p-54 / 5.0));        \
    *p02 = c = fma_##V(y, k, y);                                             \
    d = fma_##V(y, k, y - c);                                                \
    /* a ** 1.2 = a (c + d) (1 - 2**-54 ln a) */                             \
    pr = a * c;                                                              \
    k = fma_##V(pr, lna * -0x1p-54, fma_##V(a, d, fma_##V(a, c, -pr)));      \
    *p12 = pr + k;                                                           \
    ok12 = in & near_##V(*p12, (pr - *p12) + k, tol);                        \
    return bits_##V(ok05) | bits_##V(ok12) << W                              \
           | bits_##V(in & near_##V(c, d, tol)) << 2 * W;                    \
}                                                                            \
A static long long powers_of_##V(const double *x, long long n, double *out)  \
{                                                                            \
    long long i, proved = 0;                                                 \
    vec a, r[3];                                                             \
    int j;                                                                   \
    for (i = 0; i < n; i += W) {                                             \
        memcpy(&a, x + i, sizeof a);                                         \
        proved += __builtin_popcount(powers_##V(a, &r[0], &r[1], &r[2]));    \
        for (j = 0; j < 3; j++)                                              \
            memcpy(out + j * n + i, &r[j], sizeof a);                        \
    }                                                                        \
    return proved;                                                           \
}

PROOF(vec4, vmask4, vu4, v4, AVX2_ELEMENTS, AVX2)
PROOF(vec8, vmask8, vu8, v8, AVX512_ELEMENTS, AVX512)

/* the inputs of probe_powers */
#define PROBES 4096

/* 1 when the powers of the widest layer the host runs (powers_v8 or
   powers_v4), with proven set, give pow's bits on PROBES inputs, |x|
   log-uniform from 2**-110 to 2**110, of either sign */
static int probe_powers(void)
{
    static double x[PROBES], got[3 * PROBES];
    double e[3] = {0.5, 1.2, 0.2}, want;
    uint64_t z = 0x9E3779B97F4A7C15u;
    int i, j;
    for (i = 0; i < PROBES; i++) {
        z ^= z << 13;
        z ^= z >> 7;
        z ^= z << 17;
        x[i] = ldexp(i % 2 ? -1.0 : 1.0, (int)(z % 221) - 110)
               * (1.0 + (double)(z >> 12) * 0x1p-52);
    }
    proven = 1;
    RUN_WIDE(powers_of, x, PROBES, got);
    for (i = 0; i < PROBES; i++)
        for (j = 0; j < 3; j++) {
            OPAQUE(e[j]);
            want = pow(fabs(x[i]), e[j]);
            if (memcmp(&want, &got[j * PROBES + i], sizeof want) != 0)
                return 0;
        }
    return 1;
}
#endif

/* tamsde_init's work, done once per process: the fast path's tables,
   probed and checked (probe_tables), before the test of the processor
   that picks the vector layer, so the check's batches make their blocks
   and fast path one at a time */
static void init(void)
{
    probe_tables();
#ifdef WIDE
    __builtin_cpu_init();
    avx2 = __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    avx512 = avx2 && __builtin_cpu_supports("avx512f")
             && __builtin_cpu_supports("avx512dq")
             && __builtin_cpu_supports("avx512vl");
#endif
#ifdef PROVEN_POWERS
    proven = avx2 && probe_powers();
#endif
}

/* Fill the fast path's tables, check them on batch() against numpy's
   function, and pick the vector runners, once per process, before any
   draw or block: kernel.py calls it when it loads the library.  Returns 1
   when the check passed and the draws take the fast path, 0 when it
   failed and every draw is numpy's function. */
int tamsde_init(void)
{
    static pthread_once_t once = PTHREAD_ONCE_INIT;
    pthread_once(&once, init);
    return fast_path;
}

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
   word (take).

   The runner rule, for every model: a block's tamed-adaptive pairs run on
   the eight-wide vectors on a host with AVX-512F, DQ and VL, AVX2 and
   FMA, else on the four-wide vectors on a host with AVX2 and FMA, once it
   has LANES seeds or more, and in the scalar lanes otherwise.  Against the
   lanes (2-core Intel Xeon, gcc 12), the adaptive model1 pairs read 0.67
   on the four-wide vectors and 1.18 on the two-wide build's, so that build
   keeps the lanes; model2's read 0.61 (rate-rough) with its proven powers
   and 0.82-0.86 with pow on every element (blocks of 100 and 200 seeds,
   k=5), with packed tails both.  Against the four-wide vectors, the
   eight-wide ones read compare-smooth/tam (model1) at 0.81 and rate-rough
   at 0.87 (tools/leg_step_ns.py, 21 rounds, 2-core Intel Xeon with
   AVX-512, gcc 12).
   A block of fewer seeds fills only some of the lanes, and a lone pair's
   vector would have all but one element idle. */
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
    struct lane lanes[LANES];
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
    else if (avx2 && n >= LANES)
        runaway = RUN_WIDE(run_legs, &p, first, &b, 2);
#endif
    else
        run_pairs(&p, first, &b, lanes, 0);
    return runaway ? -1 : b.stopped;
}

/* The vector layer tamsde_block runs a block's paths and fixed-step pairs
   on, as tamsde_init picked it: "avx512", eight-wide, "avx2", four-wide,
   or "baseline", two-wide; which adaptive pairs it runs, tamsde_block's
   rule says. */
const char *tamsde_lanes(void)
{
    return avx512 ? "avx512" : avx2 ? "avx2" : "baseline";
}

/* For the tests: out[i], out[n + i] and out[2 n + i] = |x[i]| ** 0.5, 1.2
   and 0.2 as model2's coefficients take them on the widest vectors the
   host runs, eight- or four-wide, for i < n, a multiple of 8; returns how
   many of the 3 n powers were proven rather than pow's, or -1, writing
   nothing, when the proven powers are off or n is not such a multiple. */
long long tamsde_powers(const double *x, long long n, double *out)
{
#ifdef PROVEN_POWERS
    if (proven && n % AVX512_ELEMENTS == 0)
        return RUN_WIDE(powers_of, x, n, out);
#endif
    (void)x;
    (void)n;
    (void)out;
    return -1;
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
