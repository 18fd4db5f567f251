/* The four hot loops of polyorbit in plain C, built into one library.
 *
 * kick_drift is the kick-then-drift loop of _propagate_py.propagate_kernel.
 * The same statements in the same order as the Python loop, so with IEEE
 * double arithmetic, correctly rounded sqrt and no contraction of a multiply
 * and an add into one fused operation (-ffp-contract=off) every state is
 * bitwise that of the Python kernel.  t is the running sum t = t + dt from
 * t0 in both.
 *
 * csv_rows is the row formatter of _propagate_py.format_rows: each value is
 * printed as "%.17g" prints it, the exact decimal value rounded to 17
 * significant digits, ties to even, as glibc and CPython both do.  The
 * digits come from an integer fast path (digits17); the values it cannot
 * settle, and zeros and infinities, go to snprintf under the "C" numeric
 * locale whatever the process locale is.  A NaN of either sign is written
 * "nan" as CPython writes it.
 *
 * ring_terms and conic_residuals are the NumPy loops of shell._ring_terms
 * and _propagate_py.conic_residuals, written the same way: one C statement per
 * NumPy expression, in its order.  They call libm's sin, cos and hypot,
 * which NumPy's float64 loops call too; the load-time probe in
 * _propagate_c checks that, and binds the NumPy loops where it fails.
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
 * collision_radius, or -1.  The windows are those of propagate_kernel: the
 * first window_cap go to window_k and window_states (20 values each), the
 * count of all of them to *windows, and the last state to last.
 */
int64_t kick_drift(double x, double y, double vx, double vy, double m, double dt,
                   int64_t steps, int64_t record_every, double collision_radius,
                   double t0, double *t_out, double *x_out, double *y_out,
                   double *vx_out, double *vy_out, int64_t *collided,
                   int64_t window_cap, int64_t *window_k, double *window_states,
                   int64_t *windows, double *last)
{
    double t = t0;
    int64_t n = 1, due = record_every, w = 0;
    double d = x * vx + y * vy, d1;
    double before[5], prev[5] = {NAN, NAN, NAN, NAN, NAN};  /* states k - 2 and k - 1 */
    double *pending = NULL;  /* the slot of state k + 2 in the last window */

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
        memcpy(before, prev, sizeof prev);
        memcpy(prev, (double[5]){t, x, y, vx, vy}, sizeof prev);
        d1 = d;
        double f = m / (r2 * r) * dt;
        vx = vx - f * x;
        vy = vy - f * y;
        x = x + vx * dt;
        y = y + vy * dt;
        t = t + dt;
        d = x * vx + y * vy;
        if (k == due) {
            due += record_every;
            t_out[n] = t;
            x_out[n] = x;
            y_out[n] = y;
            vx_out[n] = vx;
            vy_out[n] = vy;
            n++;
        }
        if (pending) {
            memcpy(pending, (double[5]){t, x, y, vx, vy}, sizeof prev);
            pending = NULL;
        }
        if ((d1 < 0.0 && d > 0.0) || (d1 > 0.0 && d < 0.0)) {
            if (w < window_cap) {
                double *s = window_states + 20 * w;
                window_k[w] = k - 1;
                memcpy(s, before, sizeof before);
                memcpy(s + 5, prev, sizeof prev);
                memcpy(s + 10, (double[5]){t, x, y, vx, vy}, sizeof prev);
                memcpy(s + 15, (double[5]){NAN, NAN, NAN, NAN, NAN}, sizeof prev);
                pending = s + 15;
            }
            w++;
        }
    }
    *windows = w;
    memcpy(last, (double[5]){t, x, y, vx, vy}, sizeof prev);
    return n;
}

#define CSV_COLUMNS 8
/* The longest "%.17g" of a double, as "-2.2250738585072014e-308". */
#define CSV_VALUE_MAX 24
#define TEN_TO_16 UINT64_C(10000000000000000)
#define TEN_TO_17 UINT64_C(100000000000000000)
#define TOP_BIT (UINT64_C(1) << 63)
/* The bytes csv_rows may write past the end of out's last row: write_g's
 * copies write up to 35 bytes from a value's start, 10 past the
 * CSV_VALUE_MAX + 1 that a row of out holds for a value and its comma. */
#define CSV_SLACK 16

/* The high 64 bits of a * b, and the low 64 bits in *lo, from 32-bit halves:
 * ISO C has no 128-bit integer. */
static uint64_t mul_64x64(uint64_t a, uint64_t b, uint64_t *lo)
{
    uint64_t a0 = a & 0xFFFFFFFFu, a1 = a >> 32, b0 = b & 0xFFFFFFFFu, b1 = b >> 32;
    uint64_t p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0;
    uint64_t mid = (p00 >> 32) + (p01 & 0xFFFFFFFFu) + (p10 & 0xFFFFFFFFu);

    *lo = mid << 32 | (p00 & 0xFFFFFFFFu);
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
}

/* floor(n c) for an irrational c close enough to num / 2^shift: as in Ryu,
 * (78913, 18) gives floor(n log10 2) for |n| <= 1650 and (1217359, 19)
 * floor(n log2 5) for |n| <= 3528.  For n < 0, n c is not an integer, so
 * floor(n c) = -floor(-n c) - 1. */
static int floor_mul(int n, int num, int shift)
{
    return n >= 0 ? (n * num) >> shift : -((-n * num) >> shift) - 1;
}

/* The 17 significant digits of f * 2^e, 2^63 <= f < 2^64, rounded to
 * nearest: returns d, 10^16 <= d < 10^17, and sets *x to the decimal
 * exponent, so the value rounds to d * 10^(*x - 16).  Returns 0 where it
 * cannot settle the rounding: a tie, a near-tie, or a power of ten outside
 * the table.
 *
 * pow10 holds, for q = q_min .. q_max, the two 64-bit words (high first) of
 * m, 2^127 <= m < 2^128, with 10^q = (m + t) * 2^b, 0 <= t < 1 and
 * b = floor(q log2 10) - 127: m is exact for 0 <= q <= 55 and truncated
 * otherwise.  f * m is exact in 192 bits, so it is below f * (m + t) by
 * less than f < 2^64, less than one unit of its middle word.
 */
static uint64_t digits17(uint64_t f, int e, const uint64_t *pow10, int q_min, int q_max,
                         int *x)
{
    int k = floor_mul(e + 63, 78913, 18);  /* floor(log10(2^(e + 63))): X or X - 1 */

    for (;;) {
        int q = 16 - k;
        if (q < q_min || q > q_max)
            return 0;
        const uint64_t *m = pow10 + 2 * (q - q_min);
        /* f * m * 2^(e + b) = f * 2^e * 10^q has its integer part in the
         * top word shifted right by r: 3 <= r <= 10 while it lies in
         * [10^16, 10^18) */
        int b = q + floor_mul(q, 1217359, 19) - 127;
        int r = -(e + b) - 128;
        uint64_t low, middle, low_high = mul_64x64(f, m[1], &low);
        uint64_t top = mul_64x64(f, m[0], &middle);
        middle += low_high;
        top += middle < low_high;
        uint64_t d = top >> r;
        if (d >= TEN_TO_17) {  /* f * 2^e >= 10^(k + 1): X is k + 1 */
            k++;
            continue;
        }
        /* w is the fraction's top 64 bits.  The bits below them and the
         * table error add less than 2 units of 2^-64, so the exact fraction
         * lies in [w, w + 2) units and one half, 2^63 units, can lie there
         * only when w is 2^63 - 1 or 2^63. */
        uint64_t w = top << (64 - r) | middle >> r;
        if (w - (TOP_BIT - 1) <= 1)
            return 0;
        d += w > TOP_BIT;
        if (d == TEN_TO_17) {  /* 10^17 is 10^16 at the next exponent */
            d = TEN_TO_16;
            k++;
        }
        *x = k;
        return d;
    }
}

/* "00" .. "99": the two digits of each n < 100 at DIGIT_PAIRS + 2 * n. */
static const char DIGIT_PAIRS[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* The eight digits of y < 10^8, from four pairs. */
static void write_8_digits(char *s, uint32_t y)
{
    uint32_t high = y / 10000u, low = y % 10000u;
    memcpy(s, DIGIT_PAIRS + 2 * (high / 100u), 2);
    memcpy(s + 2, DIGIT_PAIRS + 2 * (high % 100u), 2);
    memcpy(s + 4, DIGIT_PAIRS + 2 * (low / 100u), 2);
    memcpy(s + 6, DIGIT_PAIRS + 2 * (low % 100u), 2);
}

/* Writes v, rounded to d * 10^(x - 16), as "%.17g" does: fixed notation for
 * -4 <= x < 17, else exponent notation with at least two exponent digits,
 * with trailing zeros and a bare point removed.  Returns the end of the
 * text.  The copies have fixed sizes, so they may write past the end of the
 * text, up to 35 bytes from p (see CSV_SLACK); the next value overwrites
 * those bytes.
 */
static char *write_g(char *p, int negative, uint64_t d, int x)
{
    /* The 17 digits, then 16 '0's that the fixed-size copies below may read. */
    char s[33];
    uint32_t high = (uint32_t)(d / 100000000u);
    s[0] = (char)('0' + high / 100000000u);
    write_8_digits(s + 1, high % 100000000u);
    write_8_digits(s + 9, (uint32_t)(d % 100000000u));
    memset(s + 17, '0', 16);
    size_t n = 17;  /* the digits up to the last non-zero one; s[0] is not '0' */
    if (s[16] == '0')
        while (s[n - 1] == '0')
            n--;

    *p = '-';
    p += negative;
    if (x < -4 || x >= 17) {
        p[0] = s[0];
        p[1] = '.';
        memcpy(p + 2, s + 1, 16);
        p += n > 1 ? n + 1 : 1;  /* no bare point */
        unsigned a = (unsigned)(x < 0 ? -x : x);
        p[0] = 'e';
        p[1] = x < 0 ? '-' : '+';
        if (a >= 100) {
            p[2] = (char)('0' + a / 100);
            memcpy(p + 3, DIGIT_PAIRS + 2 * (a % 100), 2);
            return p + 5;
        }
        memcpy(p + 2, DIGIT_PAIRS + 2 * a, 2);
        return p + 4;
    }
    if (x >= 0) {
        size_t whole = (size_t)x + 1;
        memcpy(p, s, 17);
        p[whole] = '.';
        memcpy(p + whole + 1, s + whole, 16);
        return p + (n > whole ? n + 1 : whole);
    }
    memcpy(p, "0.000", 5);  /* "0." and -x - 1 zeros */
    p += 1 - x;
    memcpy(p, s, 17);
    return p + n;
}

/* Writes rows [start, stop) of the eight columns cols[0..7] to out as CSV
 * lines, eight values joined by commas and ended by a newline, with no
 * terminating NUL.  out must hold (stop - start) * 8 * (CSV_VALUE_MAX + 1)
 * + CSV_SLACK bytes; pow10, q_min and q_max are digits17's table.  Returns
 * the number of bytes of text, or -1 when the "C" locale cannot be made.
 */
int64_t csv_rows(const double *const *cols, int64_t start, int64_t stop, char *out,
                 const uint64_t *pow10, int q_min, int q_max)
{
    locale_t c_numeric = newlocale(LC_NUMERIC_MASK, "C", (locale_t)0);
    if (c_numeric == (locale_t)0)
        return -1;
    locale_t previous = uselocale(c_numeric);
    char *p = out;

    for (int64_t i = start; i < stop; i++) {
        for (int j = 0; j < CSV_COLUMNS; j++) {
            double v = cols[j][i];
            uint64_t bits, d = 0;
            int x = 0;
            memcpy(&bits, &v, sizeof bits);
            if (isfinite(v) && v != 0) {
                /* v = f * 2^e with the top bit of f set */
                int biased = (int)(bits >> 52 & 0x7FF);
                uint64_t f = (bits & 0xFFFFFFFFFFFFFu) << 11;
                int e = biased ? biased - 1086 : -1085;
                if (biased)
                    f |= TOP_BIT;
                for (; !(f & TOP_BIT); f <<= 1)  /* a subnormal */
                    e--;
                d = digits17(f, e, pow10, q_min, q_max, &x);
            }
            if (d) {
                p = write_g(p, (int)(bits >> 63), d, x);
            } else if (isnan(v)) {
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

/* shell._ring_terms over the rings i = start .. stop - 1: terms[i] is the
 * axial pull of ring i, the ring at polar angle (i + 0.5) * dtheta.  A ring's
 * term depends on i alone, so _propagate_c fills disjoint ranges of terms
 * on several threads with the bits of one call. */
void ring_terms(double a, double d, double dtheta, double width, double scale, int64_t start,
                int64_t stop, double *terms)
{
    const double two_pi = 2.0 * 3.141592653589793;  /* 2.0 * math.pi */
    const double d2_a2 = d * d + a * a, two_a_d = 2.0 * a * d;

    for (int64_t i = start; i < stop; i++) {
        double theta = ((double)i + 0.5) * dtheta;
        double area = two_pi * (a * sin(theta)) * width;  /* shell._ring_area */
        double cos_t = cos(theta);
        double s2 = d2_a2 - two_a_d * cos_t;
        double s = sqrt(s2);
        double axial = (d - a * cos_t) / s;
        terms[i] = scale * area / s2 * axial;
    }
}

/* The values of geometry.ConicClass. */
enum { CONIC_ELLIPSE = 1, CONIC_PARABOLA = 2, CONIC_HYPERBOLA = 3 };

/* geometry._PARALLEL_EPS */
#define PARALLEL_EPS 1e-12

/* _propagate_py._block_residuals over the samples i = start .. stop - 1 at
 * polar angles theta0 + span * i / div (_propagate_py._sample_thetas):
 * writes the focal, reflection and right-angle maxima to maxima[0..2] and
 * the count of samples whose tangent is parallel to the directrix to
 * *skipped, and returns 0.  Returns 1, the block flagged, where any check of
 * _block_residuals could fail: 1 - e sin(theta) is not > 0, a point,
 * tangent, ray or intersection is not finite, a tangent, ray or
 * intersection norm is zero, or the focal residual is NaN.  Its outputs are
 * then not written; _block_residuals reruns the block and raises its error.
 * A zero point norm and a NaN reflection or right-angle residual cannot
 * occur, for the reasons _block_residuals gives, and are not tested.
 * focus2_y and focal_constant are unused for a parabola.  The maxima of
 * disjoint ranges merge exactly with max and their counts add, so
 * _propagate_c runs the ranges of a block on several threads.
 */
int conic_residuals(double e, double ell, double aO, int kind, double focus2_y,
                    double focal_constant, double theta0, double span, double div,
                    int64_t start, int64_t stop, double *maxima, int64_t *skipped)
{
    double focal_max = 0.0, reflection_max = 0.0, right_max = 0.0;
    int64_t skip = 0;

    for (int64_t i = start; i < stop; i++) {
        double theta = theta0 + span * (double)i / div;
        double s = sin(theta), c = cos(theta);
        /* _polar_form */
        double denom = 1.0 - e * s;
        if (!(denom > 0.0))
            return 1;
        double r = ell / denom;
        double px = r * c, py = r * s, dr = e * c * r * r / ell;
        if (!(isfinite(px) && isfinite(py)))
            return 1;
        double tx = dr * c - r * s, ty = dr * s + r * c;
        if (!(isfinite(tx) && isfinite(ty)))
            return 1;
        double t_norm = hypot(tx, ty);
        if (t_norm == 0.0)
            return 1;
        double tux = tx / t_norm, tuy = ty / t_norm;
        double p_norm = hypot(px, py);
        double pux = px / p_norm, puy = py / p_norm;

        double focal, ray_x = 0.0, ray_y = 1.0;  /* a parabola's beam is parallel to the axis */
        if (kind == CONIC_PARABOLA) {
            focal = fabs(p_norm - (py + aO));
        } else {
            double dx = 0.0 - px, dy = focus2_y - py;
            if (!(isfinite(dx) && isfinite(dy)))
                return 1;
            double d_norm = hypot(dx, dy);
            if (d_norm == 0.0)
                return 1;
            if (kind == CONIC_ELLIPSE)
                focal = fabs(p_norm + d_norm - focal_constant);
            else
                focal = fabs(fabs(d_norm - p_norm) - focal_constant);
            ray_x = dx / d_norm;
            ray_y = dy / d_norm;
        }
        double sin1 = fabs(tux * puy - tuy * pux);
        double sin2 = fabs(tux * ray_y - tuy * ray_x);
        double reflection = fabs(sin1 - sin2);
        if (isnan(focal))
            return 1;
        if (focal > focal_max)
            focal_max = focal;
        if (reflection > reflection_max)
            reflection_max = reflection;

        if (!(fabs(tuy) >= PARALLEL_EPS)) {
            skip++;
            continue;
        }
        double lx = px + (-aO - py) / tuy * tux, ly = -aO;
        if (!(isfinite(lx) && isfinite(ly)))
            return 1;
        double l_norm = hypot(lx, ly);
        if (l_norm == 0.0)
            return 1;
        double right = fabs(pux * (lx / l_norm) + puy * (ly / l_norm));
        if (right > right_max)
            right_max = right;
    }
    maxima[0] = focal_max;
    maxima[1] = reflection_max;
    maxima[2] = right_max;
    *skipped = skip;
    return 0;
}
