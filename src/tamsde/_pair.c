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
 *   - each normal is numpy's own random_standard_normal, linked from
 *     numpy's libnpyrandom.a, drawn on the caller's Philox: the function
 *     Generator.standard_normal calls, so a pair or a path reads
 *     NoiseSource's numbers and leaves the generator where the Python
 *     loop's draws leave it.
 *
 * Both loops are built from one set of leg primitives: propose, due, pend
 * and fire on a struct leg.  A pair is two legs on a merged timeline; a
 * path is one leg with one increment pending per step.  kernel.py builds
 * and loads this file and makes one call per pair (tamsde_pair) or per
 * path (tamsde_path, whose stored grid the caller releases with
 * tamsde_free); the structs below are known only to this file.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <numpy/random/bitgen.h>

/* declared in numpy/random/distributions.h, which includes Python.h */
double random_standard_normal(bitgen_t *bitgen_state);

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

/* driver._merge: the pair from x0 to t_end, one normal drawn from rng per
   event.  Returns DONE with out = {fine x, coarse x, t_end}, or FINE_STOP
   or COARSE_STOP with out[2] the stop time and that leg's state in out;
   steps gets both legs' step counts. */
int tamsde_pair(int model, int adaptive, double delta_fine,
                double delta_coarse, double h0, double l0, double x0,
                double t_end, long long max_steps, bitgen_t *rng,
                double out[3], long long steps[2])
{
    struct pair p = {.h0 = h0, .l0 = l0, .t_end = t_end,
                     .max_steps = max_steps, .model = model,
                     .adaptive = adaptive};
    struct leg *legs[2] = {&p.fine, &p.coarse};
    double deltas[2] = {delta_fine, delta_coarse}, t = 0.0;
    int i, status = DONE;
    for (i = 0; i < 2; i++) {
        legs[i]->delta = deltas[i];
        legs[i]->sqd = sqrt(deltas[i]);
        legs[i]->x = x0;
        legs[i]->due = due(0.0, propose(&p, legs[i], x0), t_end);
    }
    while (t < t_end && status == DONE) {
        double t_next = p.fine.due < p.coarse.due ? p.fine.due : p.coarse.due;
        double dz = sqrt(t_next - t) * random_standard_normal(rng);
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

/* scheme.simulate_path: one tamed-adaptive leg from x0 to t_end, one
   normal drawn from rng per step, each step's duration added to *clock.
   Returns DONE with grid = {times, values, increments} (steps + 1,
   steps + 1 and steps doubles, each to be released with tamsde_free),
   FINE_STOP when the leg cannot go on, or NO_MEMORY; on either of those
   nothing is stored.  out = {state, time} of the last step, and steps
   the step count. */
int tamsde_path(int model, double delta, double h0, double l0, double x0,
                double t_end, long long max_steps, bitgen_t *rng,
                double *clock, double out[2], long long *steps,
                double *grid[3])
{
    struct pair p = {.h0 = h0, .l0 = l0, .t_end = t_end,
                     .max_steps = max_steps, .model = model, .adaptive = 1};
    struct leg *leg = &p.fine;
    struct grid g = {NULL, NULL, NULL, 1, 1024};
    int status = DONE;
    leg->delta = delta;
    leg->sqd = sqrt(delta);
    leg->x = x0;
    leg->due = due(0.0, propose(&p, leg, x0), t_end);
    if (!(resize(&g.t, g.cap) && resize(&g.x, g.cap) && resize(&g.dw, g.cap)))
        status = NO_MEMORY;
    else {
        g.t[0] = 0.0;
        g.x[0] = x0;
    }
    while (status == DONE && leg->last < t_end) {
        double dt = leg->due - leg->last;
        /* one increment pending onto nothing is the increment itself,
           signed zero included, which pend would turn into +0.0 */
        double dw = sqrt(dt) * random_standard_normal(rng);
        leg->pw = dw;
        *clock += dt;
        if (fire(&p, leg, leg->due))
            status = FINE_STOP;
        else if (!keep(&g, leg->last, leg->x, dw))
            status = NO_MEMORY;
    }
    if (status == DONE && !isfinite(leg->x))
        status = FINE_STOP;
    out[0] = leg->x;
    out[1] = leg->last;
    *steps = leg->steps;
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
