/* The step kernel of stochlyap: the base step of the state x under
   Euler-Maruyama or Heun, and the frame step of (Q, rho), on one system's
   constants, the Sys block that integrator._kernel_args fills.  Its entry
   points take their arrays by address (integrator._Array).  Their Python
   twin, integrator._PythonKernel, takes the same arguments; its closures
   (integrator._float_steps and _rotate) read the same block and skip the
   same structural zeros of the noise, expression for expression, so that,
   built with -ffp-contract=off, the results equal theirs bit for bit.
   Matrices are 3x3, flat and row-major.

   The step functions are written once, over a lane type V, and built at
   two widths: double, one run, and f2, two runs on one path in the two
   lanes of a 128-bit vector (SSE2 on x86-64, NEON on aarch64; GCC and
   Clang vector extensions).  Each lane makes the scalar step's IEEE
   operations in the same order, so a lane's results are its run's alone
   bit for bit. */

#include <cstring>

namespace {

typedef double f2 __attribute__((vector_size(16)));
typedef decltype(f2() < f2()) m2; /* a comparison's lane masks */

template <class V> struct SysOf {
    V sigma, r, b, dt, bound;
    V a00, a11, a12, a21, a22; /* Df1: the entries either noise sets */
    V h00, h11, h12, h21, h22; /* the drift correction's factor */
    V e00, e01, e11, e22;      /* the constant entries of M's Df0 dt */
};
typedef SysOf<double> Sys;
const int FIELDS = sizeof(Sys) / sizeof(double);
static_assert(sizeof(SysOf<f2>) == FIELDS * sizeof(f2), "a Sys block of one f2 a field");

/* the block of two runs' systems, lane k from sk */
SysOf<f2> pair(const Sys *s0, const Sys *s1)
{
    double a[FIELDS], b[FIELDS];
    f2 v[FIELDS];
    SysOf<f2> s;
    std::memcpy(a, s0, sizeof a), std::memcpy(b, s1, sizeof b);
    for (int i = 0; i < FIELDS; i++)
        v[i] = f2{a[i], b[i]};
    std::memcpy(&s, v, sizeof s);
    return s;
}

/* lane k of a value, its width in runs, and the lane masks' conjunctions */
template <class V> constexpr int width = sizeof(V) / sizeof(double);
inline double lane(double v, int) { return v; }
inline double lane(f2 v, int k) { return v[k]; }
inline void set_lane(double &v, int, double x) { v = x; }
inline void set_lane(f2 &v, int k, double x) { v[k] = x; }
inline bool both(bool a, bool b) { return a && b; }
inline m2 both(m2 a, m2 b) { return a & b; }
inline bool all(bool m) { return m; }
inline bool all(m2 m) { return (m[0] & m[1]) != 0; }

/* lane k of v[0..n) from p[0..n), and back */
template <class V> void load(V *v, int k, const double *p, int n)
{
    for (int j = 0; j < n; j++)
        set_lane(v[j], k, p[j]);
}
template <class V> void store(double *p, const V *v, int k, int n)
{
    for (int j = 0; j < n; j++)
        p[j] = lane(v[j], k);
}

/* max|y| <= bound, which NaN fails, in each lane */
template <class V> auto bounded(const SysOf<V> &s, const V *y)
{
    auto within = [&s](V v) { return both(v >= -s.bound, v <= s.bound); };
    return both(both(within(y[0]), within(y[1])), within(y[2]));
}

/* the drift f and the diffusion g = Df1 x at x */
template <class V> void coefficients(const SysOf<V> &s, const V *x, V *f, V *g)
{
    g[0] = s.a00 * x[0];
    g[1] = s.a11 * x[1] + s.a12 * x[2];
    g[2] = s.a21 * x[1] + s.a22 * x[2];
    f[0] = s.sigma * (x[1] - x[0]) + s.h00 * g[0];
    f[1] = s.r * x[0] - x[0] * x[2] - x[1] + (s.h11 * g[1] + s.h12 * g[2]);
    f[2] = x[0] * x[1] - s.b * x[2] + (s.h21 * g[1] + s.h22 * g[2]);
}

/* one base step from x: the Euler-Maruyama state p and the next state y,
   which is p under Euler-Maruyama and corrects it under Heun; y may be x */
template <class V> void base_step(const SysOf<V> &s, int heun, const V *x, double dw, V *p, V *y)
{
    V f[3], g[3], v[3], u[3];
    int k;
    coefficients(s, x, f, g);
    for (k = 0; k < 3; k++)
        p[k] = x[k] + f[k] * s.dt + g[k] * dw;
    if (heun)
        coefficients(s, p, v, u);
    for (k = 0; k < 3; k++)
        y[k] = heun ? x[k] + 0.5 * (f[k] + v[k]) * s.dt + 0.5 * (g[k] + u[k]) * dw : p[k];
}

/* A = Q^T M Q with M = Df0(x) dt + Df1 dw: its diagonal d, and -1/2 times
   its strict lower triangle (1,0), (2,0), (2,1) in t */
template <class V>
void frame_increment(const SysOf<V> &s, const V *q, const V *x, double dw, V *d, V *t)
{
    V m00 = s.e00 + s.a00 * dw, m11 = s.e11 + s.a11 * dw;
    V m10 = (s.r - x[2]) * s.dt, m12 = -x[0] * s.dt + s.a12 * dw;
    V m20 = x[1] * s.dt, m21 = x[0] * s.dt + s.a21 * dw;
    V m22 = s.e22 + s.a22 * dw, n[9];
    int j;
    for (j = 0; j < 3; j++) { /* N = M Q */
        n[j] = m00 * q[j] + s.e01 * q[3 + j];
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
template <class V> void rotate(const V *q, const V *t, V *out)
{
    V s0 = t[0], s1 = t[1], s2 = t[2];
    V w2 = s0 * s0 + s1 * s1 + s2 * s2, d = 1.0 - w2, den = 1.0 + w2;
    V c[9] = {
        (d + 2.0 * s2 * s2) / den, 2.0 * (s0 - s1 * s2) / den, 2.0 * (s1 + s0 * s2) / den,
        -2.0 * (s0 + s1 * s2) / den, (d + 2.0 * s1 * s1) / den, 2.0 * (s2 - s0 * s1) / den,
        2.0 * (s0 * s2 - s1) / den, -2.0 * (s2 + s0 * s1) / den, (d + 2.0 * s0 * s0) / den};
    int i;
    for (i = 0; i < 9; i += 3) {
        V q0 = q[i], q1 = q[i + 1], q2 = q[i + 2];
        out[i] = q0 * c[0] + q1 * c[3] + q2 * c[6];
        out[i + 1] = q0 * c[1] + q1 * c[4] + q2 * c[7];
        out[i + 2] = q0 * c[2] + q1 * c[5] + q2 * c[8];
    }
}

/* n base steps of each lane k from x[k] along dw[0..n), the state after
   step i stored in out[k][3i..3i+2] unless out[k] is NULL.  Returns -1 with
   x the end states, or the first step at which a lane's state fails the
   bound (NaN fails it too) with x the states after it.  It steps copies
   of x, stored back once: a store per step can share a cache line with
   another thread's loop state. */
template <class V>
long base_lanes(const SysOf<V> &s, int heun, double *const *x, const double *dw, long n,
                double *const *out)
{
    V y[3], p[3];
    long i;
    int k;
    for (k = 0; k < width<V>; k++)
        load(y, k, x[k], 3);
    for (i = 0; i < n; i++) {
        base_step(s, heun, y, dw[i], p, y);
        if (!all(bounded(s, y)))
            break;
        for (k = 0; k < width<V>; k++)
            if (out[k])
                store(out[k] + 3 * i, y, k, 3);
    }
    for (k = 0; k < width<V>; k++)
        store(x[k], y, k, 3);
    return i < n ? i : -1;
}

/* Exponent steps lo..hi-1 of each lane k's state (x, q, rho), 15 doubles
   in a row at state[k], along dw: the base step, and the frame step at
   (x, q); Heun takes the mean of the increments at (x, q) and at
   (p, q cayley(S)).  After step i with (i + 1) % every == 0, row
   (i + 1) / every - 1 of samples[k] gets (t, rho).  Returns -1 with state
   the end states, or the first step at which a lane's state fails the
   bound with state the states before it, and steps copies likewise. */
template <class V>
long frame_lanes(const SysOf<V> &s, int heun, double *const *state, const double *dw, long lo,
                 long hi, long every, double *const *samples)
{
    V xl[3], ql[9], rl[3], p[3], y[3], d[3], t[3], e[3], v[3], u[9];
    long i;
    int k;
    for (k = 0; k < width<V>; k++)
        load(xl, k, state[k], 3), load(ql, k, state[k] + 3, 9), load(rl, k, state[k] + 12, 3);
    for (i = lo; i < hi; i++) {
        base_step(s, heun, xl, dw[i], p, y);
        if (!all(bounded(s, y)))
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
        std::memcpy(xl, y, sizeof y);
        if ((i + 1) % every == 0)
            for (k = 0; k < width<V>; k++) {
                double *row = samples[k] + 4 * ((i + 1) / every - 1);
                row[0] = (double)(i + 1) * lane(s.dt, k);
                store(row + 1, rl, k, 3);
            }
    }
    for (k = 0; k < width<V>; k++)
        store(state[k], xl, k, 3), store(state[k] + 3, ql, k, 9), store(state[k] + 12, rl, k, 3);
    return i < hi ? i : -1;
}

/* base_loop's steps of one run after step i, where some lane of its pair
   failed, with x the state after step i: i if it fails there */
long base_rest(const Sys *s, int heun, double *x, const double *dw, long n, double *out, long i)
{
    if (!bounded(*s, x))
        return i;
    if (out)
        std::memcpy(out + 3 * i, x, 3 * sizeof *x), out += 3 * (i + 1);
    long failed = base_lanes(*s, heun, &x, dw + i + 1, n - i - 1, &out);
    return failed < 0 ? failed : failed + i + 1;
}

/* frame_lanes of one run, x on a failing step the state that fails */
long frame_one(const Sys *s, int heun, double *state, const double *dw, long lo, long hi,
               long every, double *samples)
{
    double p[3];
    long i = frame_lanes(*s, heun, &state, dw, lo, hi, every, &samples);
    if (i >= 0)
        base_step(*s, heun, state, dw[i], p, state);
    return i;
}

} // namespace

/* The entry points step one run, or with s2 two runs on the same dw as one
   run each: their lanes in step until one fails, and each then on its own
   from that step.  They return the first run's failing step and store the
   second's in *failed2, each -1 if the run did not fail. */

/* n base steps from x along dw[0..n), the state after step i stored in
   out[3i..3i+2] unless out is NULL.  Returns -1 with x the end state, or
   the index of the first state that fails the bound (NaN fails it too)
   with x that state. */
extern "C" long base_loop(const Sys *s, int heun, double *x, const double *dw, long n,
                          double *out, const Sys *s2, double *x2, double *out2, long *failed2)
{
    if (!s2)
        return base_lanes(*s, heun, &x, dw, n, &out);
    double *xs[2] = {x, x2}, *outs[2] = {out, out2};
    long i = base_lanes(pair(s, s2), heun, xs, dw, n, outs);
    if (i < 0)
        return *failed2 = -1;
    *failed2 = base_rest(s2, heun, x2, dw, n, out2, i);
    return base_rest(s, heun, x, dw, n, out, i);
}

/* Exponent steps lo..hi-1 of the state (x, q, rho), as frame_lanes; returns
   as base_loop, with q and rho the frame state before a failing step. */
extern "C" long frame_loop(const Sys *s, int heun, double *state, const double *dw, long lo,
                           long hi, long every, double *samples, const Sys *s2, double *state2,
                           double *samples2, long *failed2)
{
    if (!s2)
        return frame_one(s, heun, state, dw, lo, hi, every, samples);
    double *states[2] = {state, state2}, *series[2] = {samples, samples2};
    long i = frame_lanes(pair(s, s2), heun, states, dw, lo, hi, every, series);
    if (i < 0)
        return *failed2 = -1;
    *failed2 = frame_one(s2, heun, state2, dw, i, hi, every, samples2);
    return frame_one(s, heun, state, dw, i, hi, every, samples);
}
