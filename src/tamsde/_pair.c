/* Coupled pairs and single adaptive paths, run in C, bit for bit as
 * driver._merge and scheme.simulate_path.
 *
 * This file mirrors scheme._tamed, scheme._tam_leg, scheme._tm_leg,
 * scheme._due, driver._merge and scheme.simulate_path operation for
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
 *     libnpyrandom.a: the function Generator.standard_normal calls.  A
 *     block's lanes take its fast path, about 99% of draws, themselves,
 *     with no branch on the random sign, on tables probed off numpy's
 *     function when the library is loaded (tamsde_init), and call the
 *     function for the rest (normal(), below).
 *
 * Both loops are built from one set of leg primitives: propose, due, pend
 * and fire on a struct leg, with the coefficients of all three models in
 * one switch.  A pair is two legs on a merged timeline; a path is one leg
 * with one increment pending per step.  Each loop's body is written once,
 * as a function of one seed's state (struct lane): pair_event, one event
 * of driver._merge's loop, and path_step, one step of
 * scheme.simulate_path's; there is no other pair or path loop.  kernel.py
 * builds and loads this file.
 *
 * A Monte Carlo cell's pairs or paths, and a single pair, run as a block
 * of consecutive seeds (tamsde_block).  A block keeps LANES seeds in
 * flight, each in a lane with a Philox of its own: numpy's SeedSequence
 * and Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as
 * 1, 2, 3", SC'11), ported below word for word, so tamsde_seed gives the
 * key and the counter numpy's Philox(seed) starts with.  Only the two
 * draws numpy's normal makes, the 64-bit output and the double, are
 * ported; the bitgen_t's next_uint32 slot aborts (philox_abort32).  A
 * pass gives every live lane one event; a lane whose seed is over writes that seed's
 * states, stop time, step counts and return code into the caller's
 * arrays and refills with the block's next seed.  Each step of a seed is
 * one chain of dependent operations, so one seed alone leaves most of the
 * processor idle; the lanes' chains overlap.  A seed runs the same
 * operations in the same order on its own Philox in any lane, so its
 * results do not depend on the lanes.  A seed of any size is given as its
 * 32-bit words, which the block steps by one per seed.  A path of a block
 * stores no trajectory; a single pair is a block of one, one lane.
 *
 * A path whose trajectory is kept (tamsde_path, whose stored grid the
 * caller releases with tamsde_free) runs path_step in one lane on the
 * bitgen_t of the caller's NoiseSource, numpy's own Philox, and adds each
 * step's duration to the source's clock as the source's own
 * gaussian_increment would.  tamsde_seed and tamsde_normals, the lanes'
 * draw, are exported for the tests that check the port against numpy;
 * the structs are known only to this file (and to that test's mirror of
 * struct philox).
 */
#include <float.h>
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

/* the bitgen_t of numpy's Philox, on s */
static bitgen_t bitgen(struct philox *s)
{
    bitgen_t g = {s, philox_next, philox_abort32, philox_double, philox_next};
    return g;
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

/* --- numpy's normal on the port ------------------------------------------ */

/* numpy's random_standard_normal is a ziggurat (Marsaglia and Tsang, "The
   ziggurat method for generating random variables", J. Stat. Softw.
   2000).  An output r gives the strip idx = r & 0xff, the sign bit 8 and
   rabs, the 52 bits above it; when rabs < ki[idx] the normal is
   rabs * wi[idx], negated when the sign bit is set, and about 99% of
   draws end there.  numpy's compiled function negates with a branch on
   that random bit, which the processor mispredicts on half of all draws.
   normal() takes the same fast path itself and flips the double's sign
   bit by XOR, with no branch; every other draw, on a wedge or the tail,
   is numpy's own function.  The tables are not copied from numpy (they
   are local symbols of libnpyrandom.a): tamsde_init probes them off its
   function.  They start zeroed, and stay so if the probe's check fails,
   and with ki all 0 every draw is numpy's function: the same bits, only
   slower. */
static uint64_t ki[256];
static double wi[256];

/* The next normal on rng, numpy's random_standard_normal(g) bit for bit,
   where g is the bitgen_t on rng.  philox_next leaves the output it
   returned at buffer[buffer_pos - 1] (a new block sets buffer_pos to 1),
   so off the fast path, stepping buffer_pos back by one makes numpy's
   function draw that same output again and go on from it as it would
   have. */
static double normal(struct philox *rng, bitgen_t *g)
{
    uint64_t r = philox_next(rng), rabs = r >> 9 & 0xfffffffffffffu, bits;
    unsigned idx = (unsigned)(r & 0xff);
    double x;
    if (rabs >= ki[idx]) {
        rng->buffer_pos -= 1;
        return random_standard_normal(g);
    }
    /* rabs < 2**52 converts exactly either way; the signed conversion is
       one instruction */
    x = (double)(int64_t)rabs * wi[idx];
    memcpy(&bits, &x, sizeof bits);
    bits ^= (r >> 8 & 1) << 63;  /* numpy's -x when the sign bit is set */
    memcpy(&x, &bits, sizeof x);
    return x;
}

/* out = the next n normals of rng, as Generator.standard_normal(n) */
void tamsde_normals(struct philox *rng, double *out, long long n)
{
    bitgen_t g = bitgen(rng);
    long long i;
    for (i = 0; i < n; i++)
        out[i] = normal(rng, &g);
}

/* A probe of numpy's normal: a bit generator whose first output is
   first, and which counts every draw after it.  Those draws give an
   output on strip 0 at rabs 0 and the double 0.5, on which numpy's
   function ends within a few draws whatever its tables hold. */
struct probe {
    uint64_t first;
    int draws;
};

static uint64_t probe_next(void *st)
{
    struct probe *p = st;
    return p->draws++ == 0 ? p->first : 0;
}

static double probe_double(void *st)
{
    ((struct probe *)st)->draws++;
    return 0.5;
}

/* numpy's normal of the output with strip idx, sign bit 0 and rabs;
   *fast is 1 when it took the fast path, that is, drew nothing more */
static double probe(unsigned idx, uint64_t rabs, int *fast)
{
    struct probe p = {rabs << 9 | idx, 0};
    bitgen_t g = {&p, probe_next, philox_abort32, probe_double, probe_next};
    double x = random_standard_normal(&g);
    *fast = p.draws == 1;
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
    bitgen_t ga = bitgen(&a), gb = bitgen(&b);
    double x, y;
    long i;
    for (i = 0; i < CHECK_DRAWS; i++) {
        x = normal(&a, &ga);
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

/* Fill the tables of normal() once per process, before any draw:
   kernel.py calls it when it loads the library.  Returns 1 when the
   draws take the fast path, 0 when every draw is numpy's function. */
int tamsde_init(void)
{
    static pthread_once_t once = PTHREAD_ONCE_INIT;
    pthread_once(&once, probe_tables);
    return fast_path;
}

/* --- the scheme ----------------------------------------------------------- */

enum { MODEL1, MODEL2, GBM };
/* how a seed's run ended; RUNNING while it goes on */
enum { DONE, FINE_STOP, COARSE_STOP, NO_MEMORY, RUNNING };

struct leg {
    double delta;    /* base step */
    double sqd;      /* sqrt(delta) */
    double x;        /* state */
    double last;     /* time of the leg's last step */
    double due;      /* time of its next event */
    double m, s, q;  /* mu, sigma and the Milstein coefficient kept by
                        propose: tamed q (adaptive) or sigma sigma' (fixed) */
    double pw, pc;   /* Kahan pair of the increment pending since last */
    long long steps;
};

struct pair {
    struct leg fine, coarse;
    double h0, l0;
    double t_end;
    long long max_steps;
    int model;
    int adaptive;    /* 1: tamed-adaptive legs, 0: fixed-step legs */
};

static double sign(double x)
{
    return x > 0.0 ? 1.0 : (x < 0.0 ? -1.0 : 0.0);
}

/* the coefficients of model at x: mu, mu', sigma and sigma', each in the
   operation order of its function in model.py */
static void coefficients(int model, double x, double *m, double *mp,
                         double *s, double *sp)
{
    double r;
    switch (model) {
    case MODEL1:
        *m = 0.1 * (x - x * x * x);
        *mp = 0.1 * (1.0 - 3.0 * x * x);
        *s = 0.1 * x;
        *sp = 0.1;
        break;
    case MODEL2:
        /* one pow for mu and mu': the same call on the same argument, which
           the compiler does not merge itself, as pow may set errno */
        r = pow(fabs(x), 0.5);
        *m = -0.1 * (1.0 + 3.0 * x + x * r);
        *mp = -0.3 - 0.15 * r;
        *s = 0.3 * (1.0 + pow(fabs(x), 1.2));
        *sp = 0.36 * sign(x) * pow(fabs(x), 0.2);
        break;
    default:
        *m = 0.05 * x;
        *mp = 0.05;
        *s = 0.2 * x;
        *sp = 0.2;
    }
}

/* scheme._tamed: an exact zero factor gives a zero product, and an
   infinite product saturates at +-1/sqrt(delta) */
static double tamed(double s, double sp, double sqd)
{
    double g = (s == 0.0 || sp == 0.0) ? 0.0 : s * sp;
    if (isinf(g))
        return copysign(1.0 / sqd, g);
    return g / (1.0 + sqd * fabs(g));
}

/* propose of scheme._tam_leg / _tm_leg for the given model: keep the
   coefficients at x and return the step the leg wants */
static inline double propose_model(const struct pair *p, struct leg *leg,
                                   double x, int model)
{
    double m, s, mp, sp, q, s2, sp2, xl, base, step;
    coefficients(model, x, &m, &mp, &s, &sp);
    leg->m = m;
    leg->s = s;
    if (!p->adaptive) {
        leg->q = (s == 0.0 || sp == 0.0) ? 0.0 : s * sp;
        return leg->delta;
    }
    q = tamed(s, sp, leg->sqd);
    leg->q = q;
    s2 = s * s;
    sp2 = sp * sp;
    xl = p->l0 == 2.0 ? x * x : pow(fabs(x), p->l0);
    base = 1.0 + m * m + fabs(mp) + s2 * s2 + sp2 * sp2 + fabs(q) + xl;
    step = (p->h0 / (base * base)) * leg->delta;
    if (step <= 0.0 || step != step)
        return DBL_MIN;  /* scheme._TINY_STEP */
    return step;
}

/* propose_model for the pair's model, with the model a constant in each
   case, so each model's coefficients fold into its own copy of the step
   rule (sigma' of model1 is 0.1, say); one copy for all models, joined
   after the coefficients, made a model1 leg-step ~6% slower */
static double propose(const struct pair *p, struct leg *leg, double x)
{
    switch (p->model) {
    case MODEL1: return propose_model(p, leg, x, MODEL1);
    case MODEL2: return propose_model(p, leg, x, MODEL2);
    default:     return propose_model(p, leg, x, GBM);
    }
}

/* scheme._due */
static double due(double last, double step, double t_end)
{
    double d;
    if (step >= t_end - last)
        return t_end;
    d = last + step;
    return d >= t_end ? t_end : d;
}

static void pend(struct leg *leg, double dz)
{
    double y = dz - leg->pc;
    double s = leg->pw + y;
    leg->pc = (s - leg->pw) - y;
    leg->pw = s;
}

/* The leg's event at t: advance with the pending increment, then propose
   the next step.  Nonzero when the leg cannot go on (the checks of
   driver._merge and scheme.simulate_path); the caller reports it. */
static int fire(const struct pair *p, struct leg *leg, double t)
{
    double x = leg->x, dt = t - leg->last, dW = leg->pw;
    if (p->adaptive)
        x = x + leg->m * dt + leg->s * dW + 0.5 * leg->q * (dW * dW - dt);
    else
        x = x + (leg->m * dt + leg->s * dW + 0.5 * leg->q * (dW * dW - dt))
                / (1.0 + leg->delta * (x * x));
    leg->x = x;
    leg->pw = leg->pc = 0.0;
    leg->last = t;
    leg->steps += 1;
    if (t < p->t_end) {
        if (leg->steps >= p->max_steps || !isfinite(x))
            return 1;
        leg->due = due(t, propose(p, leg, x), p->t_end);
        if (leg->due <= t)
            return 1;
    }
    return 0;
}

/* A path's stored grid: times and values at each of n points and the
   increment of each step (a[0], a[1] and a[2]), in buffers of cap doubles
   grown by doubling */
struct grid {
    double *a[3];
    long long n, cap;
};

/* realloc each of g's buffers to n doubles, or free them all when n is 0;
   0 if a realloc fails, which leaves that buffer as it was */
static int resize(struct grid *g, long long n)
{
    int i, ok = 1;
    double *p;
    for (i = 0; i < 3; i++) {
        if (n == 0) {
            free(g->a[i]);
            g->a[i] = NULL;
        } else if ((unsigned long long)n <= SIZE_MAX / sizeof *p
                   && (p = realloc(g->a[i], (size_t)n * sizeof *p)) != NULL) {
            g->a[i] = p;
        } else {
            ok = 0;
        }
    }
    return ok;
}

/* store point n and the increment of the step that reached it */
static int keep(struct grid *g, double t, double x, double dw)
{
    if (g->n == g->cap) {
        g->cap *= 2;
        if (!resize(g, g->cap))
            return 0;
    }
    g->a[0][g->n] = t;
    g->a[1][g->n] = x;
    g->a[2][g->n - 1] = dw;
    g->n += 1;
    return 1;
}

void tamsde_free(double *p)
{
    free(p);
}

/* the leg at x0, at base step delta, with its first step proposed */
static void arm(const struct pair *p, struct leg *leg, double delta, double x0)
{
    leg->delta = delta;
    leg->sqd = sqrt(delta);
    leg->x = x0;
    leg->due = due(0.0, propose(p, leg, x0), p->t_end);
}

/* --- one seed in flight: a lane ------------------------------------------ */

/* A seed's run: its pair (a path is the fine leg alone), its own Philox
   and the bitgen_t it draws on (in a block, the one on rng; a kept path
   draws on its caller's instead), t, which is the merged timeline's time
   of a pair and the clock of a path (the sum of its steps' durations),
   and the seed's index in its block. */
struct lane {
    struct pair p;
    struct philox rng;
    bitgen_t g;
    double t;
    long long i;
};

/* One event of driver._merge's loop: one normal, pended onto both legs,
   and the event of each leg due at the next time.  Returns RUNNING while
   the pair goes on; else DONE, or FINE_STOP or COARSE_STOP for the leg
   that cannot go on or ends non-finite.  A pair starts with t = 0 before
   t_end, so its first event is always run. */
static int pair_event(struct lane *l)
{
    struct pair *p = &l->p;
    double t = p->fine.due < p->coarse.due ? p->fine.due : p->coarse.due;
    double dz = sqrt(t - l->t) * normal(&l->rng, &l->g);
    pend(&p->fine, dz);
    pend(&p->coarse, dz);
    l->t = t;
    if (p->fine.due == t && fire(p, &p->fine, t))
        return FINE_STOP;
    if (p->coarse.due == t && fire(p, &p->coarse, t))
        return COARSE_STOP;
    if (t < p->t_end)
        return RUNNING;
    if (!isfinite(p->fine.x))
        return FINE_STOP;
    return isfinite(p->coarse.x) ? DONE : COARSE_STOP;
}

/* One step of scheme.simulate_path's loop on the fine leg: one normal,
   the step's duration added to the clock t, and the step stored in g,
   unless g is NULL.  Returns RUNNING while the path goes on; else DONE,
   FINE_STOP when the leg cannot go on or ends non-finite, or NO_MEMORY
   when the step could not be stored.  A path starts at 0 before t_end, so
   its first step is always run. */
static int path_step(struct lane *l, struct grid *g)
{
    struct leg *leg = &l->p.fine;
    double dt = leg->due - leg->last;
    /* a block's lane (g NULL) draws on its own Philox, a kept path on its
       caller's bit generator; one increment pending onto nothing is the
       increment itself, signed zero included, which pend would turn into
       +0.0 */
    double dw = sqrt(dt) * (g == NULL ? normal(&l->rng, &l->g)
                                      : random_standard_normal(&l->g));
    leg->pw = dw;
    l->t += dt;
    if (fire(&l->p, leg, leg->due))
        return FINE_STOP;
    if (g != NULL && !keep(g, leg->last, leg->x, dw))
        return NO_MEMORY;
    if (leg->last < l->p.t_end)
        return RUNNING;
    return isfinite(leg->x) ? DONE : FINE_STOP;
}

/* scheme.simulate_path: one tamed-adaptive leg from x0 to t_end, one
   normal drawn on bitgen per step, each step's duration added to *clock.
   It runs as one lane, on the caller's bit generator itself.
   Returns DONE with grid = {times, values, increments} (steps + 1
   doubles each, of which the increments use steps; each to be released
   with tamsde_free),
   FINE_STOP when the leg cannot go on, or NO_MEMORY; on either of those
   nothing is stored.  out = {state, time} of the last step, and steps
   the step count. */
int tamsde_path(int model, double delta, double h0, double l0, double x0,
                double t_end, long long max_steps, const bitgen_t *bitgen,
                double *clock, double out[2], long long *steps,
                double *grid[3])
{
    struct lane l = {.p = {.h0 = h0, .l0 = l0, .t_end = t_end,
                           .max_steps = max_steps, .model = model,
                           .adaptive = 1}};
    struct grid g = {{NULL, NULL, NULL}, 1, 1024};
    int status = NO_MEMORY;
    arm(&l.p, &l.p.fine, delta, x0);
    if (resize(&g, g.cap)) {
        g.a[0][0] = 0.0;
        g.a[1][0] = x0;
        l.g = *bitgen;  /* its state is the caller's, drawn on in place */
        l.t = *clock;
        status = RUNNING;
        while (status == RUNNING)
            status = path_step(&l, &g);
        *clock = l.t;
    }
    out[0] = l.p.fine.x;
    out[1] = l.p.fine.last;
    *steps = l.p.fine.steps;
    /* give back the unused capacity (a failed shrink keeps the block), or
       free a grid that is not handed back */
    resize(&g, status == DONE ? g.n : 0);
    memcpy(grid, g.a, sizeof g.a);
    return status;
}

/* --- blocks of seeds ----------------------------------------------------- */

/* *n_words little-endian 32-bit words of seed, plus one: the next integer.
   A carry out of the top word makes it one word longer, so seed must have
   room for one more word, zeroed; stepping from a block's first seed to
   the integer after its last carries out of the top word at most once,
   as a block has fewer than 2**63 seeds. */
static void next_seed(unsigned char *seed, size_t *n_words)
{
    size_t i;
    for (i = 0; i < 4 * *n_words; i++)
        if (++seed[i] != 0)
            return;
    seed[i] = 1;
    *n_words += 1;
}

/* the seeds a block keeps in flight */
#define LANES 4

/* Start lane l on the seed of index i, whose words seed holds, with the
   pair as every seed starts it; then step seed to the next integer. */
static void begin(struct lane *l, const struct pair *start,
                  unsigned char *seed, size_t *n_words, long long i)
{
    l->p = *start;
    tamsde_seed(&l->rng, seed, *n_words);
    l->g = bitgen(&l->rng);
    l->t = 0.0;
    l->i = i;
    next_seed(seed, n_words);
}

/* Each of the n seeds from seed, as tamsde_block takes them, from start:
   a pair (pair_event) when legs is 2, a path storing nothing (path_step)
   when it is 1.  LANES seeds are in flight, each on its own Philox; a
   pass gives every live lane one event, a lane left alone (the one lane
   of a block of one) included, and a lane whose seed is over writes its
   record and starts the block's next seed.  Each seed runs the
   same operations in the same order as it would alone, so only the order
   of the work across seeds depends on the lanes. */
static void run(const struct pair *start, int legs, unsigned char *seed,
                size_t n_words, long long n, double *out, long long *steps,
                int *status)
{
    struct lane lanes[LANES], *live[LANES];
    long long next = 0;
    int n_live = 0, k, j;
    for (; n_live < LANES && next < n; n_live++) {
        live[n_live] = &lanes[n_live];
        begin(live[n_live], start, seed, &n_words, next++);
    }
    while (n_live > 0)
        for (k = 0; k < n_live; k++) {
            struct lane *l = live[k];
            const struct leg *leg[2];
            int code = legs == 2 ? pair_event(l) : path_step(l, NULL);
            if (code == RUNNING)
                continue;
            leg[0] = &l->p.fine;
            leg[1] = &l->p.coarse;
            for (j = 0; j < legs; j++) {
                out[(legs + 1) * l->i + j] = leg[j]->x;
                steps[legs * l->i + j] = leg[j]->steps;
            }
            /* the stop time: the merged timeline's, or the path's last */
            out[(legs + 1) * l->i + legs] = legs == 2 ? l->t : leg[0]->last;
            status[l->i] = code;
            if (next < n)
                begin(l, start, seed, &n_words, next++);
            else  /* the last lane takes this one's place in the pass */
                live[k--] = live[--n_live];
        }
}

/* For each of the n seeds from the integer whose n_words 32-bit words
   seed holds (as tamsde_seed takes them), on that seed's own Philox: the
   pair of driver._merge when legs is 2, and scheme.simulate_path storing
   nothing when it is 1 (then adaptive is 1 and delta_coarse is not
   read).  out[(legs + 1)i + j] is leg j's state (fine, then coarse)
   and out[(legs + 1)i + legs] the stop time (t_end when the seed is
   DONE), steps[legs i + j] leg j's step count, and status[i] DONE, or
   FINE_STOP or COARSE_STOP for the leg that stopped it.  seed is stepped
   to the integer after the block's last seed, so it needs room for one
   more word (next_seed). */
void tamsde_block(int legs, int model, int adaptive, double delta_fine,
                  double delta_coarse, double h0, double l0, double x0,
                  double t_end, long long max_steps, unsigned char *seed,
                  size_t n_words, long long n, double *out, long long *steps,
                  int *status)
{
    struct pair p = {.h0 = h0, .l0 = l0, .t_end = t_end,
                     .max_steps = max_steps, .model = model,
                     .adaptive = adaptive};
    arm(&p, &p.fine, delta_fine, x0);
    if (legs == 2)
        arm(&p, &p.coarse, delta_coarse, x0);
    run(&p, legs, seed, n_words, n, out, steps, status);
}
