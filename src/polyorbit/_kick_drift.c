/* The two hot loops of polyorbit in plain C, built into one library.
 *
 * kick_drift is the kick-then-drift loop of _propagate_py.propagate_kernel.
 * The same statements in the same order as the Python loop, so with IEEE
 * double arithmetic, correctly rounded sqrt and no contraction of a multiply
 * and an add into one fused operation (-ffp-contract=off) every state is
 * bitwise that of the Python kernel.  t is the running sum t = t + dt from
 * t0 in both.
 *
 * csv_rows is the row formatter of _propagate_py.format_rows: each value is
 * printed with "%.17g", which glibc rounds exactly (ties to even) as CPython
 * does, under the "C" numeric locale whatever the process locale is, and a
 * NaN of either sign is written "nan" as CPython writes it.
 */
#define _POSIX_C_SOURCE 200809L  /* newlocale, uselocale */

#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

/* The caller allocates the five outputs with steps / record_every + 1
 * entries and passes record_every <= steps + 1.  Returns the number of
 * recorded states; *collided is the 1-based step at which r fell below
 * collision_radius, or -1.
 */
int64_t kick_drift(double x, double y, double vx, double vy, double m, double dt,
                   int64_t steps, int64_t record_every, double collision_radius,
                   double t0, double *t_out, double *x_out, double *y_out,
                   double *vx_out, double *vy_out, int64_t *collided)
{
    double t = t0;
    int64_t n = 1, due = record_every;

    t_out[0] = t;
    x_out[0] = x;
    y_out[0] = y;
    vx_out[0] = vx;
    vy_out[0] = vy;
    *collided = -1;
    for (int64_t k = 1; k <= steps; k++) {
        double r2 = x * x + y * y;
        double r = sqrt(r2);
        if (r < collision_radius) {
            *collided = k;
            break;
        }
        double f = m / (r2 * r) * dt;
        vx = vx - f * x;
        vy = vy - f * y;
        x = x + vx * dt;
        y = y + vy * dt;
        t = t + dt;
        if (k == due) {
            due += record_every;
            t_out[n] = t;
            x_out[n] = x;
            y_out[n] = y;
            vx_out[n] = vx;
            vy_out[n] = vy;
            n++;
        }
    }
    return n;
}

#define CSV_COLUMNS 8
/* The longest "%.17g" of a double, as "-2.2250738585072014e-308". */
#define CSV_VALUE_MAX 24

/* Writes rows [start, stop) of the eight columns cols[0..7] to out as CSV
 * lines, eight values joined by commas and ended by a newline, with no
 * terminating NUL.  out must hold (stop - start) * 8 * (CSV_VALUE_MAX + 1)
 * bytes.  Returns the number of bytes written, or -1 when the "C" locale
 * cannot be made.
 */
int64_t csv_rows(const double *const *cols, int64_t start, int64_t stop, char *out)
{
    locale_t c_numeric = newlocale(LC_NUMERIC_MASK, "C", (locale_t)0);
    if (c_numeric == (locale_t)0)
        return -1;
    locale_t previous = uselocale(c_numeric);
    char *p = out;

    for (int64_t i = start; i < stop; i++) {
        for (int j = 0; j < CSV_COLUMNS; j++) {
            double v = cols[j][i];
            if (isnan(v)) {
                memcpy(p, "nan", 3);
                p += 3;
            } else {
                /* the value and its NUL fit in the value's slot of out */
                p += snprintf(p, CSV_VALUE_MAX + 1, "%.17g", v);
            }
            *p++ = j + 1 < CSV_COLUMNS ? ',' : '\n';
        }
    }
    uselocale(previous);
    freelocale(c_numeric);
    return p - out;
}
