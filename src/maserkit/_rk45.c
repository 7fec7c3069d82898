/* The compiled loops of maserkit.cqed, on the N-scaled five-state
 * mean-field system of the cqed module docstring.
 *
 * rk45_solve is the whole solve of cqed._integrate_rk45, in one call: the
 * first stage, the initial step by the rule of Hairer, Norsett & Wanner
 * (Solving ODEs I, Sec. II.4), the steps of the Dormand-Prince 5(4) pair
 * (J. Comput. Appl. Math. 6, 19 (1980)) with the tableau, error norm,
 * step-size controller and minimum step of scipy's RK45, and the states at
 * the output times from Shampine's quartic dense output (Math. Comp. 46,
 * 135 (1986)).  Every float operation is the one a generic Python loop over
 * the state components makes when it calls the reference right-hand side
 * at every stage (reference_rk45 and the oracles beside it in
 * tests/test_cqed.py), in the same order, so the step record is
 * bit-identical to that loop's: the stage sums run left to right, the
 * right-hand side is evaluated term by term, and the error norms are
 * Python's left-to-right sum of squares written out.  The dense output sums
 * its terms in the order numpy's einsum did when it computed them.  That
 * holds only without contraction of a * b + c into a fused multiply-add and
 * without -ffast-math; cqed compiles this file with -ffp-contract=off.
 * pow, sqrt and nextafter are the C library's, as Python's float ** and
 * math.sqrt / math.nextafter are.  The solve hands its state back whenever
 * the record is full, so the caller can grow the record and call again to
 * resume.
 *
 * rk45_sensitivity is the pass of cqed._log_photon_sensitivity: it
 * differentiates the recorded steps with their sizes frozen.
 */
#include <math.h>
#include <string.h>

enum { RK45_DONE, RK45_FULL, RK45_STEP_TOO_SMALL, RK45_OUT_OF_BUDGET, RK45_NO_FIRST_STEP };

/* The fields of cqed._RhsCoefficients, in order. */
enum { KAPPA_C, FEED, HALF_WIDTH, DELTA, G_E, TWO_G, FOUR_G, GAMMA, N_SPINS, PAIR_WEIGHT,
       PAIR_DECAY };

/* The solve's state as rk45_solve reads and writes it: t, y (5), k1 (5), h_abs. */
enum { T, Y = 1, K1 = 6, H_ABS = 11 };
/* Its counters: step attempts, record rows written, output points written. */
enum { ATTEMPTS, ROWS, DONE };

/* One step record: t_old, t_new, y_old (5) and the stages k1..k7 (35). */
#define RECORD 42
/* Sensitivity columns: log10 g_e, log10 kappa_s, log10 n_spins. */
#define COLUMNS 3

static const double A21 = 1.0 / 5;
static const double A31 = 3.0 / 40, A32 = 9.0 / 40;
static const double A41 = 44.0 / 45, A42 = -56.0 / 15, A43 = 32.0 / 9;
static const double A51 = 19372.0 / 6561, A52 = -25360.0 / 2187, A53 = 64448.0 / 6561,
                    A54 = -212.0 / 729;
static const double A61 = 9017.0 / 3168, A62 = -355.0 / 33, A63 = 46732.0 / 5247,
                    A64 = 49.0 / 176, A65 = -5103.0 / 18656;
static const double B1 = 35.0 / 384, B3 = 500.0 / 1113, B4 = 125.0 / 192,
                    B5 = -2187.0 / 6784, B6 = 11.0 / 84;
static const double E1 = -71.0 / 57600, E3 = 71.0 / 16695, E4 = -71.0 / 1920,
                    E5 = 17253.0 / 339200, E6 = -22.0 / 525, E7 = 1.0 / 40;
static const double SAFETY = 0.9, MIN_FACTOR = 0.2, MAX_FACTOR = 10.0;
static const double ERROR_EXPONENT = -1.0 / 5;

/* Shampine's dense output of the pair, as scipy's RK45 has it: stage s
 * weighs in with DENSE[s] . (x, x^2, x^3, x^4) at x = (t - t_old) / h. */
static const double DENSE[7][4] = {
    {1, -8048581381.0 / 2820520608, 8663915743.0 / 2820520608,
     -12715105075.0 / 11282082432},
    {0, 0, 0, 0},
    {0, 131558114200.0 / 32700410799, -68118460800.0 / 10900136933,
     87487479700.0 / 32700410799},
    {0, -1754552775.0 / 470086768, 14199869525.0 / 1410260304,
     -10690763975.0 / 1880347072},
    {0, 127303824393.0 / 49829197408, -318862633887.0 / 49829197408,
     701980252875.0 / 199316789632},
    {0, -282668133.0 / 205662961, 2019193451.0 / 616988883, -1453857185.0 / 822651844},
    {0, 40617522.0 / 29380423, -110615467.0 / 29380423, 69997945.0 / 29380423}};

/* The state of stage s (2..6; 7 is y_new, where k7 is evaluated) of a step
 * of size h from a, with the stages k (k1 at k, k2 at k + w, ...), for w
 * components.  The step loop calls it on the state (w 5), the sensitivity
 * pass on the state and on the 5 x COLUMNS tangents. */
static void stage(int s, const double *restrict a, const double *restrict k, int w, double h,
                  double *restrict y)
{
    const double *k1 = k, *k2 = k + w, *k3 = k + 2 * w, *k4 = k + 3 * w, *k5 = k + 4 * w,
                 *k6 = k + 5 * w;
    int i;

    switch (s) {
    case 2:
        for (i = 0; i < w; i++)
            y[i] = a[i] + (A21 * k1[i]) * h;
        break;
    case 3:
        for (i = 0; i < w; i++)
            y[i] = a[i] + (A31 * k1[i] + A32 * k2[i]) * h;
        break;
    case 4:
        for (i = 0; i < w; i++)
            y[i] = a[i] + (A41 * k1[i] + A42 * k2[i] + A43 * k3[i]) * h;
        break;
    case 5:
        for (i = 0; i < w; i++)
            y[i] = a[i] + (A51 * k1[i] + A52 * k2[i] + A53 * k3[i] + A54 * k4[i]) * h;
        break;
    case 6:
        for (i = 0; i < w; i++)
            y[i] = a[i] + (A61 * k1[i] + A62 * k2[i] + A63 * k3[i] + A64 * k4[i]
                           + A65 * k5[i]) * h;
        break;
    default:
        for (i = 0; i < w; i++)
            y[i] = a[i] + h * (B1 * k1[i] + B3 * k3[i] + B4 * k4[i] + B5 * k5[i] + B6 * k6[i]);
    }
}

/* The right-hand side on y = (n/N, Re c/N, Im c/N, sz, ss/N). */
static void rhs(const double *restrict c, const double *restrict y, double *restrict f)
{
    const double n = y[0], cr = y[1], ci = y[2], sz = y[3], ss = y[4];
    const double bracket = 0.5 * (sz + 1.0) / c[N_SPINS] + c[PAIR_WEIGHT] * ss + n * sz;
    f[0] = -c[KAPPA_C] * n + c[FEED] - c[TWO_G] * ci;
    f[1] = -c[HALF_WIDTH] * cr + c[DELTA] * ci;
    f[2] = -c[HALF_WIDTH] * ci - c[DELTA] * cr - c[G_E] * bracket;
    f[3] = -c[GAMMA] * sz + c[FOUR_G] * ci;
    f[4] = -c[PAIR_DECAY] * ss - c[TWO_G] * sz * ci;
}

/* The root mean square of x (5), summed left to right. */
static double rms(const double *x)
{
    double total = 0.0;
    int i;

    for (i = 0; i < 5; i++)
        total += x[i] * x[i];
    return sqrt(total) / sqrt(5.0);
}

/* The first stage f0 = f(y0) and the initial step size *h_abs for a solve
 * from t0 to t1, with Python's min() and max() written out as the
 * comparisons they make, NaN included.  Returns 0 where the rule divides by
 * zero or its trial step h0 is not a number. */
static int first_step(const double *c, double t0, double t1, double rtol, double atol,
                      const double *y0, double *f0, double *h_abs)
{
    const double interval = t1 - t0;
    double scale[5], x[5], y1[5], f1[5], d0, d1, d2, h0, h1, h;
    int i;

    rhs(c, y0, f0);
    for (i = 0; i < 5; i++)
        scale[i] = atol + fabs(y0[i]) * rtol;
    for (i = 0; i < 5; i++)
        x[i] = y0[i] / scale[i];
    d0 = rms(x);
    for (i = 0; i < 5; i++)
        x[i] = f0[i] / scale[i];
    d1 = rms(x);
    h0 = d0 < 1e-5 || d1 < 1e-5 ? 1e-6 : 0.01 * d0 / d1;
    if (interval < h0)
        h0 = interval;
    if (!(h0 > 0))
        return 0;
    for (i = 0; i < 5; i++)
        y1[i] = y0[i] + h0 * f0[i];
    rhs(c, y1, f1);
    for (i = 0; i < 5; i++)
        x[i] = (f1[i] - f0[i]) / scale[i];
    d2 = rms(x) / h0;
    if (d1 <= 1e-15 && d2 <= 1e-15) {
        h1 = h0 * 1e-3 > 1e-6 ? h0 * 1e-3 : 1e-6;
    } else {
        const double d = d2 > d1 ? d2 : d1;

        if (d == 0)
            return 0;
        h1 = pow(0.01 / d, 1.0 / 5);
    }
    h = 100 * h0;
    if (h1 < h)
        h = h1;
    if (interval < h)
        h = interval;
    *h_abs = h;
    return 1;
}

/* Write the states at the output times t_eval[done] <= t_new of the step
 * recorded in row, component i of point p at states[i * points + p], and
 * return the new count of points written.  The sums run as numpy's einsum
 * ran them: q = sum over the stages s = 0..6 of k_s DENSE[s], then
 * y_old + h ((q0 x + q2 x^3) + (q1 x^2 + q3 x^4)). */
static long sample(const double *row, const double *t_eval, long points, long done,
                   double *states)
{
    const double h = row[1] - row[0];
    double q[5][4];
    int i, j, s;

    if (done == points || t_eval[done] > row[1])
        return done;
    for (i = 0; i < 5; i++) {
        for (j = 0; j < 4; j++) {
            double sum = 0.0;
            for (s = 0; s < 7; s++)
                sum += row[7 + 5 * s + i] * DENSE[s][j];
            q[i][j] = sum;
        }
    }
    for (; done < points && t_eval[done] <= row[1]; done++) {
        const double x = (t_eval[done] - row[0]) / h, x2 = x * x, x3 = x2 * x, x4 = x3 * x;

        for (i = 0; i < 5; i++)
            states[i * points + done] = row[2 + i]
                + h * ((q[i][0] * x + q[i][2] * x3) + (q[i][1] * x2 + q[i][3] * x4));
    }
    return done;
}

/* Solve from state = (t0, y0 (5), ...) to t1 and sample the solve at the
 * increasing times t_eval, points of them in [t0, t1], into states (5 x
 * points).
 *
 * c holds the 11 coefficients of cqed._RhsCoefficients.  Each accepted step
 * is written as one RECORD-double row of record, which has room for
 * capacity rows.  counts holds the step attempts (accepted and rejected),
 * the rows written and the points written; max_attempts bounds the
 * attempts.  A call with no row written starts the solve: it computes k1
 * and h_abs; a call with rows written resumes from state.  On return state
 * holds the solve's state after the last written step.
 *
 * Returns RK45_DONE when t1 is reached, RK45_FULL when record is full
 * before that (call again with more room to resume), RK45_STEP_TOO_SMALL
 * when the step size falls below ten float spacings of t,
 * RK45_OUT_OF_BUDGET when another attempt would exceed max_attempts, and
 * RK45_NO_FIRST_STEP when the initial step rule fails (see first_step).
 */
int rk45_solve(const double *c, double t1, double rtol, double atol, long max_attempts,
               const double *t_eval, long points, double *states, double *record,
               long capacity, double *state, long *counts)
{
    double t = state[T], h_abs = state[H_ABS];
    double a[5], aa[5], y[5], b[5], bb[5], k[7][5];
    long rows = counts[ROWS], tries = counts[ATTEMPTS], done = counts[DONE];
    int status = RK45_DONE;
    int i, s;

    memcpy(a, state + Y, sizeof a);
    if (rows > 0)
        memcpy(k[0], state + K1, sizeof k[0]);
    else if (!first_step(c, t, t1, rtol, atol, a, k[0], &h_abs))
        return RK45_NO_FIRST_STEP;
    for (i = 0; i < 5; i++)
        aa[i] = fabs(a[i]);
    while (t < t1) {
        double min_step, t_new, h;
        int rejected = 0;

        if (rows == capacity) {
            status = RK45_FULL;
            break;
        }
        min_step = 10.0 * (nextafter(t, INFINITY) - t);
        if (min_step > h_abs)
            h_abs = min_step;
        for (;;) {
            double total = 0.0, error_norm, factor;

            if (!(h_abs >= min_step)) {
                status = RK45_STEP_TOO_SMALL;
                goto out;
            }
            if (++tries > max_attempts) {
                status = RK45_OUT_OF_BUDGET;
                goto out;
            }
            t_new = t + h_abs;
            if (t1 < t_new)
                t_new = t1;
            h = t_new - t;
            for (s = 2; s <= 6; s++) {
                stage(s, a, k[0], 5, h, y);
                rhs(c, y, k[s - 1]);
            }
            stage(7, a, k[0], 5, h, b);
            rhs(c, b, k[6]);
            /* the rms of the scaled errors, atol + max(|a|, |b|) rtol, with
             * the choice Python's max() makes, NaN included */
            for (i = 0; i < 5; i++) {
                double x;
                bb[i] = fabs(b[i]);
                x = (E1 * k[0][i] + E3 * k[2][i] + E4 * k[3][i] + E5 * k[4][i]
                     + E6 * k[5][i] + E7 * k[6][i]) * h
                    / (atol + (bb[i] > aa[i] ? bb[i] : aa[i]) * rtol);
                total += x * x;
            }
            error_norm = sqrt(total) / sqrt(5.0);
            /* min() and max() written out as the comparisons they make */
            if (error_norm < 1) {
                if (error_norm == 0) {
                    factor = MAX_FACTOR;
                } else {
                    factor = SAFETY * pow(error_norm, ERROR_EXPONENT);
                    if (!(factor < MAX_FACTOR))
                        factor = MAX_FACTOR;
                }
                if (rejected && !(factor < 1))
                    factor = 1;
                h_abs = h * factor;
                break;
            }
            factor = SAFETY * pow(error_norm, ERROR_EXPONENT);
            h_abs = h * (factor > MIN_FACTOR ? factor : MIN_FACTOR);
            rejected = 1;
        }
        {
            double *row = record + RECORD * rows++;
            row[0] = t;
            row[1] = t_new;
            memcpy(row + 2, a, sizeof a);
            memcpy(row + 7, k, sizeof k);
            done = sample(row, t_eval, points, done, states);
        }
        t = t_new;
        memcpy(a, b, sizeof a);
        memcpy(aa, bb, sizeof aa);
        memcpy(k[0], k[6], sizeof k[0]);
    }
out:
    state[T] = t;
    memcpy(state + Y, a, sizeof a);
    memcpy(state + K1, k[0], sizeof k[0]);
    state[H_ABS] = h_abs;
    counts[ATTEMPTS] = tries;
    counts[ROWS] = rows;
    counts[DONE] = done;
    return status;
}

/* The tangent right-hand side at y: (d f / d y) z + ln 10 p d f / d p for
 * p = g_e, kappa_s, n_spins, one 5-component column of z and f each. */
static void tangent(const double *restrict c, double kappa_s, const double *restrict y,
                    const double *restrict z, double *restrict f)
{
    const double n = y[0], cr = y[1], ci = y[2], sz = y[3], ss = y[4], ln10 = log(10.0);
    const double bracket = 0.5 * (sz + 1.0) / c[N_SPINS] + c[PAIR_WEIGHT] * ss + n * sz;
    /* the products the three columns share, each multiplied as in the
     * expressions written out term by term */
    const double g_sz = -c[G_E] * sz, g_n = c[G_E] * (0.5 / c[N_SPINS] + n),
                 g_pair = c[G_E] * c[PAIR_WEIGHT], two_g_sz = -c[TWO_G] * sz,
                 two_g_ci = c[TWO_G] * ci;
    double *dg = f, *dks = f + 5, *dn = f + 10;    /* the columns of g_e, kappa_s, n_spins */
    int j;

    for (j = 0; j < COLUMNS; j++, z += 5, f += 5) {
        f[0] = -c[KAPPA_C] * z[0] - c[TWO_G] * z[2];
        f[1] = -c[HALF_WIDTH] * z[1] + c[DELTA] * z[2];
        f[2] = g_sz * z[0] - c[DELTA] * z[1] - c[HALF_WIDTH] * z[2] - g_n * z[3] - g_pair * z[4];
        f[3] = c[FOUR_G] * z[2] - c[GAMMA] * z[3];
        f[4] = two_g_sz * z[2] - two_g_ci * z[3] - c[PAIR_DECAY] * z[4];
    }
    dg[0] += ln10 * -c[TWO_G] * ci;
    dg[2] += ln10 * -c[G_E] * bracket;
    dg[3] += ln10 * c[FOUR_G] * ci;
    dg[4] += ln10 * -c[TWO_G] * sz * ci;
    dks[1] += ln10 * -0.5 * kappa_s * cr;
    dks[2] += ln10 * -0.5 * kappa_s * ci;
    dks[4] += ln10 * -kappa_s * ss;
    dn[0] += ln10 * -c[FEED];
    dn[2] += ln10 * c[G_E] * (0.5 * (sz + 1.0) - ss) / c[N_SPINS];
}

/* d log10 n / d log10 (g_e, kappa_s, n_spins) at the increasing times
 * t_eval, COLUMNS doubles a point in out, from the rows steps of record,
 * with c as in rk45_solve and photons the photon numbers n = N y[0] at
 * t_eval.  The initial sensitivity d y0 / d log10 p is that of the
 * record's first state, which scales as 1/N except the inversion.  A step
 * maps the sensitivity S as it maps the state: Z_i = S + h sum_j a_ij K_j,
 * K_i = tangent(y_i, Z_i) at the stage states y_i of the step loop, and
 * S_next = Z_7, whose K_7 is the next K_1.  A point takes the dense output
 * of the first step whose t_new is at or after it; d y[0] / d log10 p there
 * becomes d log10 n / d log10 p as numpy did it: divided by ln 10 (n / N),
 * plus 1 in the n_spins column.  A point whose photon number is not above
 * floor gets a zero row, as log10 max(n, floor) is flat there.  Returns
 * the number of points written: fewer than points if the record ends
 * first.
 */
long rk45_sensitivity(const double *c, double kappa_s, const double *record, long rows,
                      const double *t_eval, const double *photons, long points, double floor,
                      double *out)
{
    double sens[5 * COLUMNS], y[5], tangents[7][5 * COLUMNS];
    const double ln10 = log(10.0);
    long r, done = 0;
    int s, j;

    memset(sens, 0, sizeof sens);
    if (rows > 0) {
        for (j = 0; j < 5; j++)
            sens[10 + j] = -ln10 * record[2 + j];
        sens[10 + 3] = 0.0;
    }
    for (r = 0; r < rows && done < points; r++) {
        const double *row = record + RECORD * r, *a = row + 2, *k = row + 7;
        const double h = row[1] - row[0];
        double z[5 * COLUMNS];

        if (r == 0)
            tangent(c, kappa_s, a, sens, tangents[0]);
        for (s = 2; s <= 7; s++) {
            stage(s, a, k, 5, h, y);
            stage(s, sens, tangents[0], 5 * COLUMNS, h, z);
            tangent(c, kappa_s, y, z, tangents[s - 1]);
        }
        for (; done < points && t_eval[done] <= row[1]; done++) {
            const double x = (t_eval[done] - row[0]) / h;
            const double scale = ln10 * (photons[done] / c[N_SPINS]);
            double *o = out + COLUMNS * done;

            for (j = 0; j < COLUMNS; j++) {
                double sum = 0.0;
                for (s = 0; s < 7; s++) {
                    const double *d = DENSE[s];
                    sum += (((d[3] * x + d[2]) * x + d[1]) * x + d[0]) * x * tangents[s][5 * j];
                }
                o[j] = (sens[5 * j] + h * sum) / scale;
            }
            o[COLUMNS - 1] += 1.0;
            if (!(photons[done] > floor))
                memset(o, 0, COLUMNS * sizeof *o);
        }
        memcpy(sens, z, sizeof sens);
        memcpy(tangents[0], tangents[6], sizeof tangents[0]);
    }
    return done;
}
