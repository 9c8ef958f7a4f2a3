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
 *   - the noise is NoiseSource's stream: numpy's SeedSequence and
 *     Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as
 *     1, 2, 3", SC'11) are ported below word for word, so an integer seed
 *     gives the key and the counter numpy's Philox(seed) starts with, and
 *     each normal is numpy's own random_standard_normal, linked from
 *     numpy's libnpyrandom.a and drawn on the port through the bitgen_t it
 *     takes: the function Generator.standard_normal calls.
 *
 * Both loops are built from one set of leg primitives: propose, due, pend
 * and fire on a struct leg.  A pair is two legs on a merged timeline; a
 * path is one leg with one increment pending per step.  kernel.py builds
 * and loads this file.
 *
 * Pairs run only in blocks of consecutive seeds (tamsde_pairs), as do the
 * paths of a Monte Carlo cell (tamsde_paths): for each seed the block
 * seeds a Philox of its own with tamsde_seed, as a fresh NoiseSource(seed)
 * would be, runs the pair or path loop on it, and writes that seed's
 * states, stop time, step counts and return code into the caller's
 * arrays.  A seed of any size is given as its 32-bit words, which the
 * block steps by one per seed.  A path of a block stores no trajectory; a
 * per-seed pair is a block of one.
 *
 * A path whose trajectory is kept (tamsde_path, whose stored grid the
 * caller releases with tamsde_free) runs on the struct philox of the
 * caller's NoiseSource, its one generator, seeded by tamsde_seed, and
 * adds each draw's duration to a pointer to the source's clock as the
 * source's own gaussian_increment would; tamsde_normals fills the
 * source's blocks of normals from the same generator, so a path here and
 * the source's own draws share one stream.  struct philox is mirrored by
 * kernel._Philox; the other structs are known only to this file.
 */
#include <float.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <numpy/random/bitgen.h>

/* declared in numpy/random/distributions.h, which includes Python.h */
double random_standard_normal(bitgen_t *bitgen_state);

/* --- numpy's Philox4x64-10 and SeedSequence ------------------------------ */

/* The state of numpy's Philox: the counter, the key, the four outputs of
   the counter's block of which buffer_pos are read, and the upper half of
   an output next_uint32 has yet to return. */
struct philox {
    uint64_t counter[4], key[2], buffer[4];
    int buffer_pos, has_uint32;
    uint32_t uinteger;
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
   Philox of the counter, which is incremented first */
static uint64_t philox_next(void *st)
{
    struct philox *s = st;
    uint64_t c[4], k0 = s->key[0], k1 = s->key[1], hi0, hi1, lo0, lo1;
    int i;
    if (s->buffer_pos < 4)
        return s->buffer[s->buffer_pos++];
    for (i = 0; i < 4 && ++s->counter[i] == 0; i++)
        ;  /* carry */
    memcpy(c, s->counter, sizeof c);
    for (i = 0; i < 10; i++) {
        if (i > 0) {  /* bump the key */
            k0 += 0x9E3779B97F4A7C15u;
            k1 += 0xBB67AE8584CAA73Bu;
        }
        lo0 = mulhilo(0xD2E7470EE14C6C93u, c[0], &hi0);
        lo1 = mulhilo(0xCA5A826395121157u, c[2], &hi1);
        c[0] = hi1 ^ c[1] ^ k0;
        c[2] = hi0 ^ c[3] ^ k1;
        c[1] = lo1;
        c[3] = lo0;
    }
    memcpy(s->buffer, c, sizeof c);
    s->buffer_pos = 1;
    return c[0];
}

static uint32_t philox_next32(void *st)
{
    struct philox *s = st;
    uint64_t next;
    if (s->has_uint32) {
        s->has_uint32 = 0;
        return s->uinteger;
    }
    next = philox_next(s);
    s->has_uint32 = 1;
    s->uinteger = (uint32_t)(next >> 32);
    return (uint32_t)(next & 0xffffffffu);
}

static double philox_double(void *st)
{
    return (double)(philox_next(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* the bitgen_t of numpy's Philox, on s */
static bitgen_t bitgen(struct philox *s)
{
    bitgen_t g = {s, philox_next, philox_next32, philox_double, philox_next};
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

/* out = the next n normals of rng, as Generator.standard_normal(n) */
void tamsde_normals(struct philox *rng, double *out, long long n)
{
    bitgen_t g = bitgen(rng);
    long long i;
    for (i = 0; i < n; i++)
        out[i] = random_standard_normal(&g);
}

/* --- the scheme ----------------------------------------------------------- */

enum { MODEL1, MODEL2, GBM };
enum { DONE, FINE_STOP, COARSE_STOP, NO_MEMORY };

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

static double drift(int model, double x)
{
    switch (model) {
    case MODEL1: return 0.1 * (x - x * x * x);
    case MODEL2: return -0.1 * (1.0 + 3.0 * x + x * pow(fabs(x), 0.5));
    default:     return 0.05 * x;
    }
}

static double drift_prime(int model, double x)
{
    switch (model) {
    case MODEL1: return 0.1 * (1.0 - 3.0 * x * x);
    case MODEL2: return -0.3 - 0.15 * pow(fabs(x), 0.5);
    default:     return 0.05;
    }
}

static double diffusion(int model, double x)
{
    switch (model) {
    case MODEL1: return 0.1 * x;
    case MODEL2: return 0.3 * (1.0 + pow(fabs(x), 1.2));
    default:     return 0.2 * x;
    }
}

static double diffusion_prime(int model, double x)
{
    switch (model) {
    case MODEL1: return 0.1;
    case MODEL2: return 0.36 * sign(x) * pow(fabs(x), 0.2);
    default:     return 0.2;
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

/* propose of scheme._tam_leg / _tm_leg: keep the coefficients at x and
   return the step the leg wants */
static double propose(const struct pair *p, struct leg *leg, double x)
{
    double m, s, mp, sp, q, s2, sp2, xl, base, step;
    m = drift(p->model, x);
    s = diffusion(p->model, x);
    sp = diffusion_prime(p->model, x);
    leg->m = m;
    leg->s = s;
    if (!p->adaptive) {
        leg->q = (s == 0.0 || sp == 0.0) ? 0.0 : s * sp;
        return leg->delta;
    }
    mp = drift_prime(p->model, x);
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

/* driver._merge: the pair from x0 to t_end, one normal drawn per event
   from rng.  Returns DONE with out = {fine x, coarse x, t_end}, or
   FINE_STOP or COARSE_STOP with out[2] the stop time and that leg's state
   in out; steps gets both legs' step counts. */
static int merge(int model, int adaptive, double delta_fine,
                 double delta_coarse, double h0, double l0, double x0,
                 double t_end, long long max_steps, struct philox *rng,
                 double out[3], long long steps[2])
{
    struct pair p = {.h0 = h0, .l0 = l0, .t_end = t_end,
                     .max_steps = max_steps, .model = model,
                     .adaptive = adaptive};
    struct leg *legs[2] = {&p.fine, &p.coarse};
    double deltas[2] = {delta_fine, delta_coarse}, t = 0.0;
    int i, status = DONE;
    bitgen_t g = bitgen(rng);
    for (i = 0; i < 2; i++) {
        legs[i]->delta = deltas[i];
        legs[i]->sqd = sqrt(deltas[i]);
        legs[i]->x = x0;
        legs[i]->due = due(0.0, propose(&p, legs[i], x0), t_end);
    }
    while (t < t_end && status == DONE) {
        double t_next = p.fine.due < p.coarse.due ? p.fine.due : p.coarse.due;
        double dz = sqrt(t_next - t) * random_standard_normal(&g);
        pend(&p.fine, dz);
        pend(&p.coarse, dz);
        t = t_next;
        if (p.fine.due == t && fire(&p, &p.fine, t))
            status = FINE_STOP;
        else if (p.coarse.due == t && fire(&p, &p.coarse, t))
            status = COARSE_STOP;
    }
    if (status == DONE && !isfinite(p.fine.x))
        status = FINE_STOP;
    else if (status == DONE && !isfinite(p.coarse.x))
        status = COARSE_STOP;
    out[0] = p.fine.x;
    out[1] = p.coarse.x;
    out[2] = t;
    steps[0] = p.fine.steps;
    steps[1] = p.coarse.steps;
    return status;
}

/* A path's stored grid: times and values at each of n points and the
   increment of each step, in buffers grown by doubling */
struct grid {
    double *t, *x, *dw;
    long long n, cap;
};

/* realloc *a to n doubles; 0, with *a untouched, if that fails */
static int resize(double **a, long long n)
{
    double *p;
    if ((unsigned long long)n > SIZE_MAX / sizeof **a)
        return 0;
    p = realloc(*a, (size_t)n * sizeof **a);
    if (p == NULL)
        return 0;
    *a = p;
    return 1;
}

/* store point n and the increment of the step that reached it */
static int keep(struct grid *g, double t, double x, double dw)
{
    if (g->n == g->cap) {
        g->cap *= 2;
        if (!(resize(&g->t, g->cap) && resize(&g->x, g->cap)
              && resize(&g->dw, g->cap)))
            return 0;
    }
    g->t[g->n] = t;
    g->x[g->n] = x;
    g->dw[g->n - 1] = dw;
    g->n += 1;
    return 1;
}

void tamsde_free(double *p)
{
    free(p);
}

/* scheme.simulate_path's loop: p's fine leg, at base step delta, from x0
   to p->t_end, one normal drawn from rng per step and rng left after the
   last, each step's duration added to *clock and each step stored in g,
   unless g is NULL.  Returns DONE, FINE_STOP when the leg cannot go on, or
   NO_MEMORY when a step could not be stored. */
static int walk(struct pair *p, double delta, double x0, struct philox *rng,
                double *clock, struct grid *g)
{
    struct leg *leg = &p->fine;
    bitgen_t noise = bitgen(rng);
    int status = DONE;
    leg->delta = delta;
    leg->sqd = sqrt(delta);
    leg->x = x0;
    leg->due = due(0.0, propose(p, leg, x0), p->t_end);
    while (status == DONE && leg->last < p->t_end) {
        double dt = leg->due - leg->last;
        /* one increment pending onto nothing is the increment itself,
           signed zero included, which pend would turn into +0.0 */
        double dw = sqrt(dt) * random_standard_normal(&noise);
        leg->pw = dw;
        *clock += dt;
        if (fire(p, leg, leg->due))
            status = FINE_STOP;
        else if (g != NULL && !keep(g, leg->last, leg->x, dw))
            status = NO_MEMORY;
    }
    if (status == DONE && !isfinite(leg->x))
        status = FINE_STOP;
    return status;
}

/* scheme.simulate_path: one tamed-adaptive leg from x0 to t_end, one
   normal drawn from rng per step and rng left after the last, each step's
   duration added to *clock.
   Returns DONE with grid = {times, values, increments} (steps + 1,
   steps + 1 and steps doubles, each to be released with tamsde_free),
   FINE_STOP when the leg cannot go on, or NO_MEMORY; on either of those
   nothing is stored.  out = {state, time} of the last step, and steps
   the step count. */
int tamsde_path(int model, double delta, double h0, double l0, double x0,
                double t_end, long long max_steps, struct philox *rng,
                double *clock, double out[2], long long *steps,
                double *grid[3])
{
    struct pair p = {.h0 = h0, .l0 = l0, .t_end = t_end,
                     .max_steps = max_steps, .model = model, .adaptive = 1};
    struct grid g = {NULL, NULL, NULL, 1, 1024};
    int status = NO_MEMORY;
    if (resize(&g.t, g.cap) && resize(&g.x, g.cap) && resize(&g.dw, g.cap)) {
        g.t[0] = 0.0;
        g.x[0] = x0;
        status = walk(&p, delta, x0, rng, clock, &g);
    } else
        p.fine.x = x0;
    out[0] = p.fine.x;
    out[1] = p.fine.last;
    *steps = p.fine.steps;
    if (status == DONE) {
        /* give back the unused capacity; a failed shrink keeps the block */
        resize(&g.t, g.n);
        resize(&g.x, g.n);
        resize(&g.dw, g.n - 1);
    } else {
        free(g.t);
        free(g.x);
        free(g.dw);
        g.t = g.x = g.dw = NULL;
    }
    grid[0] = g.t;
    grid[1] = g.x;
    grid[2] = g.dw;
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

/* The pair of driver._merge for each of the n seeds from the integer whose
   n_words 32-bit words seed holds (as tamsde_seed takes them), on that
   seed's own Philox: out[3i..3i+2] as merge returns them, steps[2i] and
   steps[2i + 1] the fine and coarse step counts, status[i] its return
   code.  seed is stepped to the integer after the block's last seed, so
   it needs room for one more word (next_seed). */
void tamsde_pairs(int model, int adaptive, double delta_fine,
                  double delta_coarse, double h0, double l0, double x0,
                  double t_end, long long max_steps, unsigned char *seed,
                  size_t n_words, long long n, double *out, long long *steps,
                  int *status)
{
    long long i;
    for (i = 0; i < n; i++, next_seed(seed, &n_words)) {
        struct philox rng;
        tamsde_seed(&rng, seed, n_words);
        status[i] = merge(model, adaptive, delta_fine, delta_coarse, h0, l0,
                          x0, t_end, max_steps, &rng, out + 3 * i,
                          steps + 2 * i);
    }
}

/* scheme.simulate_path for each of the n seeds from seed, as tamsde_pairs
   takes them, on that seed's own Philox, storing nothing: out[2i] and
   out[2i + 1] the state and time of its last step, steps[i] the step
   count, status[i] DONE or FINE_STOP. */
void tamsde_paths(int model, double delta, double h0, double l0, double x0,
                  double t_end, long long max_steps, unsigned char *seed,
                  size_t n_words, long long n, double *out, long long *steps,
                  int *status)
{
    long long i;
    for (i = 0; i < n; i++, next_seed(seed, &n_words)) {
        struct pair p = {.h0 = h0, .l0 = l0, .t_end = t_end,
                         .max_steps = max_steps, .model = model,
                         .adaptive = 1};
        struct philox rng;
        double clock = 0.0;
        tamsde_seed(&rng, seed, n_words);
        status[i] = walk(&p, delta, x0, &rng, &clock, NULL);
        out[2 * i] = p.fine.x;
        out[2 * i + 1] = p.fine.last;
        steps[i] = p.fine.steps;
    }
}
