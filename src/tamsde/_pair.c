/* One coupled pair of either scheme, run in C, bit for bit as driver._merge.
 *
 * This file mirrors scheme._tamed, scheme._tam_leg, scheme._tm_leg,
 * scheme._due and driver._merge operation for operation, with the
 * coefficients of the built-in models of model.py written in the same
 * operation order.  The results are byte-identical to the Python loop only
 * because:
 *   - it is built with -ffp-contract=off, so no a*b+c is fused into one
 *     rounding, and without -ffast-math, so nothing is reassociated;
 *   - every real power goes through libm pow, which CPython's float **
 *     calls (the special cases CPython handles before calling pow give the
 *     same values as pow for a non-negative base; an overflow, which
 *     model._rpow turns into inf, is inf here too).
 *
 * kernel.py builds and loads this file; struct pair is mirrored there as a
 * ctypes Structure, and tamsde_pair_size lets the loader check the layout.
 * Normals come from the pair's own numpy generator in blocks: run returns
 * NEED_NORMALS when the block is spent and is called again with the next
 * one, so no Python callback runs inside C.
 */
#include <float.h>
#include <math.h>
#include <stddef.h>

enum { MODEL1, MODEL2, GBM };
enum { DONE, FINE_STOP, COARSE_STOP, NEED_NORMALS };

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
    double t;        /* time of the last event; the stop time on a stop */
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
   the next step.  Nonzero when the leg cannot go on (driver._merge's
   checks); the caller reports it. */
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

size_t tamsde_pair_size(void)
{
    return sizeof(struct pair);
}

void tamsde_pair_init(struct pair *p, int model, int adaptive,
                      double delta_fine, double delta_coarse, double h0,
                      double l0, double x0, double t_end, long long max_steps)
{
    struct leg *legs[2] = {&p->fine, &p->coarse};
    double deltas[2] = {delta_fine, delta_coarse};
    int i;
    p->model = model;
    p->adaptive = adaptive;
    p->h0 = h0;
    p->l0 = l0;
    p->t = 0.0;
    p->t_end = t_end;
    p->max_steps = max_steps;
    for (i = 0; i < 2; i++) {
        struct leg *leg = legs[i];
        leg->delta = deltas[i];
        leg->sqd = sqrt(deltas[i]);
        leg->x = x0;
        leg->last = 0.0;
        leg->pw = leg->pc = 0.0;
        leg->steps = 0;
        leg->due = due(0.0, propose(p, leg, x0), t_end);
    }
}

/* driver._merge's event loop from where the last call left it, drawing
   from normals[0..n).  Returns DONE with both terminal states,
   FINE_STOP or COARSE_STOP with that leg's state and p->t the stop time,
   or NEED_NORMALS when the block is spent. */
int tamsde_pair_run(struct pair *p, const double *normals, int n)
{
    int i = 0;
    while (p->t < p->t_end) {
        double t_next, dz;
        if (i == n)
            return NEED_NORMALS;
        t_next = p->fine.due < p->coarse.due ? p->fine.due : p->coarse.due;
        dz = sqrt(t_next - p->t) * normals[i++];
        pend(&p->fine, dz);
        pend(&p->coarse, dz);
        if (p->fine.due == t_next && fire(p, &p->fine, t_next)) {
            p->t = t_next;
            return FINE_STOP;
        }
        if (p->coarse.due == t_next && fire(p, &p->coarse, t_next)) {
            p->t = t_next;
            return COARSE_STOP;
        }
        p->t = t_next;
    }
    if (!isfinite(p->fine.x))
        return FINE_STOP;
    if (!isfinite(p->coarse.x))
        return COARSE_STOP;
    return DONE;
}
