/* The step kernel of stochlyap: the base step of the state x under
   Euler-Maruyama or Heun, and the frame step of (Q, rho), on one system's
   constants, the Sys block that integrator._kernel_args fills.  Its entry
   points take their arrays by address (integrator._Array).  Their Python
   twin, integrator._PythonKernel, takes the same arguments; its closures
   (integrator._float_steps and _rotate) read the same block and skip the
   same structural zeros of the noise, expression for expression, so that,
   built with -ffp-contract=off, the results equal theirs bit for bit.
   Matrices are 3x3, flat and row-major. */

#include <string.h>

typedef struct {
    double sigma, r, b, dt, bound;
    double a00, a11, a12, a21, a22; /* Df1: the entries either noise sets */
    double h00, h11, h12, h21, h22; /* the drift correction's factor */
    double e00, e01, e11, e22;      /* the constant entries of M's Df0 dt */
} Sys;

static int bounded(const Sys *s, const double *y)
{
    return y[0] >= -s->bound && y[0] <= s->bound && y[1] >= -s->bound
        && y[1] <= s->bound && y[2] >= -s->bound && y[2] <= s->bound;
}

/* the drift f and the diffusion g = Df1 x at x */
static void coefficients(const Sys *s, const double *x, double *f, double *g)
{
    g[0] = s->a00 * x[0];
    g[1] = s->a11 * x[1] + s->a12 * x[2];
    g[2] = s->a21 * x[1] + s->a22 * x[2];
    f[0] = s->sigma * (x[1] - x[0]) + s->h00 * g[0];
    f[1] = s->r * x[0] - x[0] * x[2] - x[1] + (s->h11 * g[1] + s->h12 * g[2]);
    f[2] = x[0] * x[1] - s->b * x[2] + (s->h21 * g[1] + s->h22 * g[2]);
}

/* one base step from x: the Euler-Maruyama state p and the next state y,
   which is p under Euler-Maruyama and corrects it under Heun; y may be x */
static void base_step(const Sys *s, int heun, const double *x, double dw,
                      double *p, double *y)
{
    double f[3], g[3], v[3], u[3];
    int k;
    coefficients(s, x, f, g);
    for (k = 0; k < 3; k++)
        p[k] = x[k] + f[k] * s->dt + g[k] * dw;
    if (heun)
        coefficients(s, p, v, u);
    for (k = 0; k < 3; k++)
        y[k] = heun ? x[k] + 0.5 * (f[k] + v[k]) * s->dt + 0.5 * (g[k] + u[k]) * dw : p[k];
}

/* A = Q^T M Q with M = Df0(x) dt + Df1 dw: its diagonal d, and -1/2 times
   its strict lower triangle (1,0), (2,0), (2,1) in t */
static void frame_increment(const Sys *s, const double *q, const double *x,
                            double dw, double *d, double *t)
{
    double m00 = s->e00 + s->a00 * dw, m11 = s->e11 + s->a11 * dw;
    double m10 = (s->r - x[2]) * s->dt, m12 = -x[0] * s->dt + s->a12 * dw;
    double m20 = x[1] * s->dt, m21 = x[0] * s->dt + s->a21 * dw;
    double m22 = s->e22 + s->a22 * dw, n[9];
    int j;
    for (j = 0; j < 3; j++) { /* N = M Q */
        n[j] = m00 * q[j] + s->e01 * q[3 + j];
        n[3 + j] = m10 * q[j] + m11 * q[3 + j] + m12 * q[6 + j];
        n[6 + j] = m20 * q[j] + m21 * q[3 + j] + m22 * q[6 + j];
    }
    for (j = 0; j < 3; j++)
        d[j] = q[j] * n[j] + q[3 + j] * n[3 + j] + q[6 + j] * n[6 + j];
    t[0] = -0.5 * (q[1] * n[0] + q[4] * n[3] + q[7] * n[6]);
    t[1] = -0.5 * (q[2] * n[0] + q[5] * n[3] + q[8] * n[6]);
    t[2] = -0.5 * (q[2] * n[1] + q[5] * n[4] + q[8] * n[7]);
}

/* out = q cayley(S), S skew with strict lower triangle t; out may be q */
static void rotate(const double *q, const double *t, double *out)
{
    double s0 = t[0], s1 = t[1], s2 = t[2];
    double w2 = s0 * s0 + s1 * s1 + s2 * s2, d = 1.0 - w2, den = 1.0 + w2;
    double c[9] = {
        (d + 2.0 * s2 * s2) / den, 2.0 * (s0 - s1 * s2) / den, 2.0 * (s1 + s0 * s2) / den,
        -2.0 * (s0 + s1 * s2) / den, (d + 2.0 * s1 * s1) / den, 2.0 * (s2 - s0 * s1) / den,
        2.0 * (s0 * s2 - s1) / den, -2.0 * (s2 + s0 * s1) / den, (d + 2.0 * s0 * s0) / den};
    int i;
    for (i = 0; i < 9; i += 3) {
        double q0 = q[i], q1 = q[i + 1], q2 = q[i + 2];
        out[i] = q0 * c[0] + q1 * c[3] + q2 * c[6];
        out[i + 1] = q0 * c[1] + q1 * c[4] + q2 * c[7];
        out[i + 2] = q0 * c[2] + q1 * c[5] + q2 * c[8];
    }
}

/* n base steps from x along dw[0..n), the state after step i stored in
   out[3i..3i+2] unless out is NULL.  Returns -1 with x the end state, or
   the index of the first state that fails the bound (NaN fails it too)
   with x that state.  It steps a copy of x, stored back once: a store per
   step can share a cache line with another thread's loop state. */
long base_loop(const Sys *s, int heun, double *x, const double *dw, long n,
               double *out)
{
    double y[3], p[3];
    long i;
    memcpy(y, x, sizeof y);
    for (i = 0; i < n; i++) {
        base_step(s, heun, y, dw[i], p, y);
        if (!bounded(s, y))
            break;
        if (out)
            memcpy(out + 3 * i, y, sizeof y);
    }
    memcpy(x, y, sizeof y);
    return i < n ? i : -1;
}

/* Exponent steps lo..hi-1 of the state (x, q, rho), 15 doubles in a row,
   along dw: the base step, and the frame step at (x, q); Heun takes the mean
   of the increments at (x, q) and at (p, q cayley(S)).  After step i with
   (i + 1) % every == 0, row (i + 1) / every - 1 of samples gets (t, rho).
   Returns as base_loop, and steps copies of x, q and rho likewise. */
long frame_loop(const Sys *s, int heun, double *state, const double *dw, long lo, long hi,
                long every, double *samples)
{
    double *x = state, *q = state + 3, *rho = state + 12;
    double xl[3], ql[9], rl[3], p[3], y[3], d[3], t[3], e[3], v[3], u[9];
    long i;
    int k;
    memcpy(xl, x, sizeof xl), memcpy(ql, q, sizeof ql), memcpy(rl, rho, sizeof rl);
    for (i = lo; i < hi; i++) {
        base_step(s, heun, xl, dw[i], p, y);
        if (!bounded(s, y))
            break;
        frame_increment(s, ql, xl, dw[i], d, t);
        if (heun) {
            rotate(ql, t, u);
            frame_increment(s, u, p, dw[i], e, v);
            for (k = 0; k < 3; k++) {
                rl[k] += 0.5 * (d[k] + e[k]);
                t[k] = 0.5 * (t[k] + v[k]);
            }
        } else
            for (k = 0; k < 3; k++)
                rl[k] += d[k];
        rotate(ql, t, ql);
        memcpy(xl, y, sizeof y);
        if ((i + 1) % every == 0) {
            double *row = samples + 4 * ((i + 1) / every - 1);
            row[0] = (double)(i + 1) * s->dt;
            row[1] = rl[0], row[2] = rl[1], row[3] = rl[2];
        }
    }
    memcpy(x, i < hi ? y : xl, sizeof y), memcpy(q, ql, sizeof ql), memcpy(rho, rl, sizeof rl);
    return i < hi ? i : -1;
}
