/* The compiled loops of maserkit.cqed, on the N-scaled five-state
 * mean-field system of cqed._scaled_rhs.
 *
 * rk45_run is the step loop of cqed._integrate_rk45: the Dormand-Prince
 * 5(4) pair (J. Comput. Appl. Math. 6, 19 (1980)) with the tableau, error
 * norm, step-size controller and minimum step of scipy's RK45.  Every float
 * operation is the one a generic Python loop over the state components
 * makes when it calls cqed._scaled_rhs at every stage (the reference_rk45
 * of tests/test_cqed.py), in the same order, so the step record is
 * bit-identical to that loop's: the stage sums run left to right, the
 * right-hand side is cqed._scaled_rhs term by term, and the error norm is
 * cqed._rms written out.  That holds only without contraction of a * b + c
 * into a fused multiply-add and without -ffast-math; cqed compiles this
 * file with -ffp-contract=off.  pow, sqrt and nextafter are the C
 * library's, as Python's float ** and math.sqrt / math.nextafter are.
 * The caller computes the first stage and the initial step (where the
 * arithmetic of extreme rates fails, as a Python exception) and passes the
 * solve's state in; the loop hands it back whenever the record is full, so
 * the caller can grow the record and call again to resume.
 *
 * rk45_sensitivity is the pass of cqed._log_photon_sensitivity: it
 * differentiates the recorded steps with their sizes frozen.
 */
#include <math.h>
#include <string.h>

enum { RK45_DONE, RK45_FULL, RK45_STEP_TOO_SMALL, RK45_OUT_OF_BUDGET };

/* The fields of cqed._RhsCoefficients, in order. */
enum { KAPPA_C, FEED, HALF_WIDTH, DELTA, G_E, TWO_G, FOUR_G, GAMMA, N_SPINS, PAIR_WEIGHT,
       PAIR_DECAY };

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

/* The state of stage s (2..6; 7 is y_new, where k7 is evaluated) of a step
 * of size h from a, with the stages k (k1 at k, k2 at k + w, ...), for w
 * components.  The step loop calls it on the state (w 5), the sensitivity
 * pass on the state and on the 5 x COLUMNS tangents. */
static void stage(int s, const double *a, const double *k, int w, double h, double *y)
{
    const double *k1 = k, *k2 = k + w, *k3 = k + 2 * w, *k4 = k + 3 * w, *k5 = k + 4 * w,
                 *k6 = k + 5 * w;
    int i;

    for (i = 0; i < w; i++) {
        switch (s) {
        case 2: y[i] = a[i] + (A21 * k1[i]) * h; break;
        case 3: y[i] = a[i] + (A31 * k1[i] + A32 * k2[i]) * h; break;
        case 4: y[i] = a[i] + (A41 * k1[i] + A42 * k2[i] + A43 * k3[i]) * h; break;
        case 5: y[i] = a[i] + (A51 * k1[i] + A52 * k2[i] + A53 * k3[i] + A54 * k4[i]) * h; break;
        case 6: y[i] = a[i] + (A61 * k1[i] + A62 * k2[i] + A63 * k3[i] + A64 * k4[i]
                               + A65 * k5[i]) * h; break;
        default: y[i] = a[i] + h * (B1 * k1[i] + B3 * k3[i] + B4 * k4[i] + B5 * k5[i]
                                    + B6 * k6[i]);
        }
    }
}

/* cqed._scaled_rhs: y = (n/N, Re c/N, Im c/N, sz, ss/N). */
static void rhs(const double *c, const double *y, double *f)
{
    const double n = y[0], cr = y[1], ci = y[2], sz = y[3], ss = y[4];
    const double bracket = 0.5 * (sz + 1.0) / c[N_SPINS] + c[PAIR_WEIGHT] * ss + n * sz;
    f[0] = -c[KAPPA_C] * n + c[FEED] - c[TWO_G] * ci;
    f[1] = -c[HALF_WIDTH] * cr + c[DELTA] * ci;
    f[2] = -c[HALF_WIDTH] * ci - c[DELTA] * cr - c[G_E] * bracket;
    f[3] = -c[GAMMA] * sz + c[FOUR_G] * ci;
    f[4] = -c[PAIR_DECAY] * ss - c[TWO_G] * sz * ci;
}

/* Integrate from state = (t, y (5), k1 (5), h_abs) towards t1.
 *
 * c holds the 11 coefficients of cqed._RhsCoefficients.  Each accepted step
 * is written as one RECORD-double row of record, which has room for
 * capacity rows; *written is the number written.  *attempts counts step
 * attempts, accepted and rejected, across calls, and max_attempts bounds
 * it.  On return state holds the solve's state after the last written step.
 *
 * Returns RK45_DONE when t1 is reached, RK45_FULL when record is full
 * before that (call again with more room to resume), RK45_STEP_TOO_SMALL
 * when the step size falls below ten float spacings of t, and
 * RK45_OUT_OF_BUDGET when another attempt would exceed max_attempts.
 */
int rk45_run(const double *c, double t1, double rtol, double atol, long max_attempts,
             double *state, long *attempts, double *record, long capacity, long *written)
{
    double t = state[0], h_abs = state[11];
    double a[5], aa[5], y[5], b[5], bb[5], k[7][5];
    long rows = 0, tries = *attempts;
    int status = RK45_DONE;
    int i, s;

    for (i = 0; i < 5; i++) {
        a[i] = state[1 + i];
        aa[i] = fabs(a[i]);
        k[0][i] = state[6 + i];
    }
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
            /* cqed._rms of the scaled errors, atol + max(|a|, |b|) rtol, with
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
        }
        t = t_new;
        memcpy(a, b, sizeof a);
        memcpy(aa, bb, sizeof aa);
        memcpy(k[0], k[6], sizeof k[0]);
    }
out:
    state[0] = t;
    for (i = 0; i < 5; i++) {
        state[1 + i] = a[i];
        state[6 + i] = k[0][i];
    }
    state[11] = h_abs;
    *attempts = tries;
    *written = rows;
    return status;
}

/* The tangent right-hand side at y: (d f / d y) z + ln 10 p d f / d p for
 * p = g_e, kappa_s, n_spins, one 5-component column of z and f each. */
static void tangent(const double *c, double kappa_s, const double *y, const double *z,
                    double *f)
{
    const double n = y[0], cr = y[1], ci = y[2], sz = y[3], ss = y[4], ln10 = log(10.0);
    const double bracket = 0.5 * (sz + 1.0) / c[N_SPINS] + c[PAIR_WEIGHT] * ss + n * sz;
    double *dg = f, *dks = f + 5, *dn = f + 10;    /* the columns of g_e, kappa_s, n_spins */
    int j;

    for (j = 0; j < COLUMNS; j++, z += 5, f += 5) {
        f[0] = -c[KAPPA_C] * z[0] - c[TWO_G] * z[2];
        f[1] = -c[HALF_WIDTH] * z[1] + c[DELTA] * z[2];
        f[2] = -c[G_E] * sz * z[0] - c[DELTA] * z[1] - c[HALF_WIDTH] * z[2]
               - c[G_E] * (0.5 / c[N_SPINS] + n) * z[3] - c[G_E] * c[PAIR_WEIGHT] * z[4];
        f[3] = c[FOUR_G] * z[2] - c[GAMMA] * z[3];
        f[4] = -c[TWO_G] * sz * z[2] - c[TWO_G] * ci * z[3] - c[PAIR_DECAY] * z[4];
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

/* d y[0] / d log10 (g_e, kappa_s, n_spins) at the increasing times t_eval,
 * COLUMNS doubles a point in out, from the rows steps of record, with c as
 * in rk45_run, dense the 7 x 4 cqed._DENSE_P and sens0 = d y0 / d log10 p,
 * one column of 5 a parameter.  A step maps the sensitivity S as it maps the
 * state: Z_i = S + h sum_j a_ij K_j, K_i = tangent(y_i, Z_i) at the stage
 * states y_i of the step loop, and S_next = Z_7, whose K_7 is the next K_1.
 * A point takes the dense output of the first step whose t_new is at or
 * after it.  Returns the number of points written: fewer than points if
 * the record ends first.
 */
long rk45_sensitivity(const double *c, double kappa_s, const double *record, long rows,
                      const double *t_eval, long points, const double *dense,
                      const double *sens0, double *out)
{
    double sens[5 * COLUMNS], y[5], tangents[7][5 * COLUMNS];
    long r, done = 0;
    int s, j;

    memcpy(sens, sens0, sizeof sens);
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

            for (j = 0; j < COLUMNS; j++) {
                double sum = 0.0;
                for (s = 0; s < 7; s++) {
                    const double *d = dense + 4 * s;
                    sum += (((d[3] * x + d[2]) * x + d[1]) * x + d[0]) * x * tangents[s][5 * j];
                }
                out[COLUMNS * done + j] = sens[5 * j] + h * sum;
            }
        }
        memcpy(sens, z, sizeof sens);
        memcpy(tangents[0], tangents[6], sizeof tangents[0]);
    }
    return done;
}
