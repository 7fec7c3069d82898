/* The step loop of maserkit.cqed._integrate_rk45: the Dormand-Prince 5(4)
 * pair (J. Comput. Appl. Math. 6, 19 (1980)) with the tableau, error norm,
 * step-size controller and minimum step of scipy's RK45, on the N-scaled
 * five-state mean-field system of cqed._scaled_rhs.
 *
 * Every float operation is the one a generic Python loop over the state
 * components makes when it calls cqed._scaled_rhs at every stage (the
 * reference_rk45 of tests/test_cqed.py), in the same order, so the step
 * record is bit-identical to that loop's: the stage sums run left to
 * right, the right-hand side is cqed._scaled_rhs term by term, and the
 * error norm is cqed._rms written out.  That holds only without
 * contraction of a * b + c into a fused multiply-add and without
 * -ffast-math; cqed compiles this file with -ffp-contract=off.  pow, sqrt
 * and nextafter are the C library's, as Python's float ** and
 * math.sqrt / math.nextafter are.
 *
 * The caller computes the first stage and the initial step (where the
 * arithmetic of extreme rates fails, as a Python exception) and passes the
 * solve's state in; the loop hands it back whenever the record is full, so
 * the caller can grow the record and call again to resume.
 */
#include <math.h>
#include <string.h>

enum { RK45_DONE, RK45_FULL, RK45_STEP_TOO_SMALL, RK45_OUT_OF_BUDGET };

/* The fields of cqed._RhsCoefficients, in order. */
enum { KAPPA_C, FEED, HALF_WIDTH, DELTA, G_E, TWO_G, FOUR_G, GAMMA, N_SPINS, PAIR_WEIGHT,
       PAIR_DECAY };

/* One step record: t_old, t_new, y_old (5) and the stages k1..k7 (35). */
#define RECORD 42

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
    int i;

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
            for (i = 0; i < 5; i++)
                y[i] = a[i] + (A21 * k[0][i]) * h;
            rhs(c, y, k[1]);
            for (i = 0; i < 5; i++)
                y[i] = a[i] + (A31 * k[0][i] + A32 * k[1][i]) * h;
            rhs(c, y, k[2]);
            for (i = 0; i < 5; i++)
                y[i] = a[i] + (A41 * k[0][i] + A42 * k[1][i] + A43 * k[2][i]) * h;
            rhs(c, y, k[3]);
            for (i = 0; i < 5; i++)
                y[i] = a[i] + (A51 * k[0][i] + A52 * k[1][i] + A53 * k[2][i]
                               + A54 * k[3][i]) * h;
            rhs(c, y, k[4]);
            for (i = 0; i < 5; i++)
                y[i] = a[i] + (A61 * k[0][i] + A62 * k[1][i] + A63 * k[2][i]
                               + A64 * k[3][i] + A65 * k[4][i]) * h;
            rhs(c, y, k[5]);
            for (i = 0; i < 5; i++)
                b[i] = a[i] + h * (B1 * k[0][i] + B3 * k[2][i] + B4 * k[3][i]
                                   + B5 * k[4][i] + B6 * k[5][i]);
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
