/* The kick-then-drift loop of _propagate_py.propagate_kernel in plain C.
 *
 * The same statements in the same order as the Python loop, so with IEEE
 * double arithmetic, correctly rounded sqrt and no contraction of a multiply
 * and an add into one fused operation (-ffp-contract=off) every state is
 * bitwise that of the Python kernel.  t is the running sum t = t + dt from
 * t0 in both.
 *
 * The caller allocates the five outputs with steps / record_every + 1
 * entries and passes record_every <= steps + 1.  Returns the number of
 * recorded states; *collided is the 1-based step at which r fell below
 * collision_radius, or -1.
 */
#include <math.h>
#include <stdint.h>

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
