/* The four hot loops of polyorbit in plain C, built into one library.
 *
 * kick_drift is the kick-then-drift loop of _propagate_py.propagate_kernel.
 * The same statements in the same order as the Python loop, so with IEEE
 * double arithmetic, correctly rounded sqrt and no contraction of a multiply
 * and an add into one fused operation (-ffp-contract=off) every state is
 * bitwise that of the Python kernel.  t is the running sum t = t + dt from
 * 0 in both.
 *
 * csv_rows is the row formatter of _propagate_py.format_rows, called on the
 * whole columns of one 1024-row chunk of the export (_CSV_CHUNK_ROWS): each
 * value is printed as "%.17g" prints it, the exact decimal value rounded to
 * 17 significant digits, ties to even, as glibc and CPython both do.  The
 * digits come from an integer fast path (digits17); the values it cannot
 * settle, and zeros and infinities, go to snprintf under the "C" numeric
 * locale whatever the process locale is.  A NaN of either sign is written
 * "nan" as CPython writes it.  derive_columns writes each chunk's r, v and
 * cos alpha for csv_rows from its x, y, vx and vy, with libm's hypot as
 * NumPy's float64 hypot calls it.
 *
 * ring_terms and conic_residuals are the NumPy loops of the same names in
 * _propagate_py, written the same way: one C statement per NumPy expression,
 * in its order.  They call libm's sin, cos and hypot, which NumPy's float64
 * loops call too; the load-time probe in _propagate_c checks that, and binds
 * the NumPy loops where it fails.  Both call sin and cos once per group of
 * ANGLE_GROUP rings or samples and give each one's by angle addition
 * (add_angle, _propagate_py.angle_addition), from those two values and a
 * table of the offsets in a group (angle_table) that is built once per call.
 * ring_sum adds ring_terms' terms exactly, one group at a time with one
 * table for its range and without an array of them, for the caller to round
 * once with math.fsum.
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
 * first window_cap go to window_states (9 values each), the count of all
 * of them to *windows, and the last state to last.
 */
int64_t kick_drift(double x, double y, double vx, double vy, double m, double dt,
                   int64_t steps, int64_t record_every, double collision_radius,
                   double *t_out, double *x_out, double *y_out, double *vx_out,
                   double *vy_out, int64_t *collided,
                   int64_t window_cap, double *window_states,
                   int64_t *windows, double *last)
{
    double t = 0.0;
    int64_t n = 1, due = record_every, w = 0;
    double r2 = x * x + y * y, rise = 0.0;  /* the last non-zero change of r2 */
    double before[3], prev[3] = {t, x, y};  /* states k - 2 and k - 1 */

    t_out[0] = t;
    x_out[0] = x;
    y_out[0] = y;
    vx_out[0] = vx;
    vy_out[0] = vy;
    *collided = -1;
    for (int64_t k = 1; k <= steps; k++) {
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
        double r2_before = r2;
        r2 = x * x + y * y;
        double change = r2 - r2_before;
        if (k == due) {
            due += record_every;
            t_out[n] = t;
            x_out[n] = x;
            y_out[n] = y;
            vx_out[n] = vx;
            vy_out[n] = vy;
            n++;
        }
        if ((rise < 0.0 && change > 0.0) || (rise > 0.0 && change < 0.0)) {
            if (w < window_cap) {
                double *s = window_states + 9 * w;
                memcpy(s, before, sizeof before);
                memcpy(s + 3, prev, sizeof prev);
                memcpy(s + 6, (double[3]){t, x, y}, sizeof prev);
            }
            w++;
        }
        if (change != 0.0)
            rise = change;
        memcpy(before, prev, sizeof prev);
        memcpy(prev, (double[3]){t, x, y}, sizeof prev);
    }
    *windows = w;
    memcpy(last, (double[5]){t, x, y, vx, vy}, sizeof(double[5]));
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

/* The high 64 bits of a * b, and the low 64 bits in *lo.  ISO C has no
 * 128-bit integer; GCC and Clang define __SIZEOF_INT128__ where they have
 * one (64-bit targets), and there one multiply gives both words.  The
 * 32-bit halves are the only path elsewhere, as on 32-bit targets. */
#ifdef __SIZEOF_INT128__
__extension__ typedef unsigned __int128 uint128;

static uint64_t mul_64x64(uint64_t a, uint64_t b, uint64_t *lo)
{
    uint128 p = (uint128)a * b;

    *lo = (uint64_t)p;
    return (uint64_t)(p >> 64);
}
#else
static uint64_t mul_64x64(uint64_t a, uint64_t b, uint64_t *lo)
{
    uint64_t a0 = a & 0xFFFFFFFFu, a1 = a >> 32, b0 = b & 0xFFFFFFFFu, b1 = b >> 32;
    uint64_t p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0;
    uint64_t mid = (p00 >> 32) + (p01 & 0xFFFFFFFFu) + (p10 & 0xFFFFFFFFu);

    *lo = mid << 32 | (p00 & 0xFFFFFFFFu);
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
}
#endif

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

/* Writes the first `rows` rows of the eight columns cols[0..7] to out as CSV
 * lines, eight values joined by commas and ended by a newline, with no
 * terminating NUL.  out must hold rows * 8 * (CSV_VALUE_MAX + 1) + CSV_SLACK
 * bytes; pow10, q_min and q_max are digits17's table.  Returns
 * the number of bytes of text, or -1 when the "C" locale cannot be made.
 */
int64_t csv_rows(const double *const *cols, int64_t rows, char *out, const uint64_t *pow10,
                 int q_min, int q_max)
{
    locale_t c_numeric = newlocale(LC_NUMERIC_MASK, "C", (locale_t)0);
    if (c_numeric == (locale_t)0)
        return -1;
    locale_t previous = uselocale(c_numeric);
    char *p = out;

    for (int64_t i = 0; i < rows; i++) {
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

/* The derived columns of _propagate_py.derive_columns over the first `rows`
 * rows of csv_rows' eight columns: from x, y, vx and vy in cols[1..4] it
 * writes r = hypot(x, y) to cols[5], v = hypot(vx, vy) to cols[6] and
 * cos alpha = (x*vx + y*vy) / (r*v), clipped to [-1, 1] as np.clip clips
 * (a NaN stays NaN), to cols[7], for the caller to turn into alpha with
 * NumPy's arccos.  The expressions and their order are NumPy's. */
void derive_columns(double *const *cols, int64_t rows)
{
    const double *x = cols[1], *y = cols[2], *vx = cols[3], *vy = cols[4];
    double *r = cols[5], *v = cols[6], *cos_alpha = cols[7];

    for (int64_t i = 0; i < rows; i++) {
        double ri = hypot(x[i], y[i]), vi = hypot(vx[i], vy[i]);
        double c = (x[i] * vx[i] + y[i] * vy[i]) / (ri * vi);
        r[i] = ri;
        v[i] = vi;
        cos_alpha[i] = c < -1.0 ? -1.0 : c > 1.0 ? 1.0 : c;
    }
}

/* Rings or samples per group (_propagate_py._ANGLE_GROUP): each group of
 * ring_terms and conic_residuals takes one sin and one cos call, and
 * ring_sum adds the terms of one group at a time. */
#define ANGLE_GROUP 128

/* cos_k[k] = cos(k * step) and sin_k[k] = sin(k * step) for the offsets
 * k = 0 .. ANGLE_GROUP - 1 of a ring or sample in its group. */
static void angle_table(double step, double *cos_k, double *sin_k)
{
    for (int k = 0; k < ANGLE_GROUP; k++) {
        double phi = (double)k * step;
        cos_k[k] = cos(phi);
        sin_k[k] = sin(phi);
    }
}

/* sin and cos of theta_g + k * step by angle addition, from theta_g's and
 * the offset's cos_k[k] and sin_k[k] of angle_table, in the order of
 * _propagate_py.angle_addition and with no fused multiply-add.  At k = 0 they
 * are sin_g and cos_g. */
static inline void add_angle(double sin_g, double cos_g, double cos_k, double sin_k,
                             double *sin_t, double *cos_t)
{
    *sin_t = sin_g * cos_k + cos_g * sin_k;
    *cos_t = cos_g * cos_k - sin_g * sin_k;
}

/* The terms of the rings from lo to the end of its group or to stop, hi,
 * which it returns; g = lo - lo % ANGLE_GROUP is the group's first ring.
 * terms[i - lo] is that of ring i = g + k at the angle theta_g + k * dtheta,
 * theta_g = (g + 0.5) * dtheta, whose sine and cosine come by add_angle
 * from theta_g's and from angle_table(dtheta). */
static int64_t ring_group(double a, double d, double dtheta, double width, double scale,
                          const double *cos_k, const double *sin_k, int64_t lo, int64_t stop,
                          double *terms)
{
    const double two_pi = 2.0 * 3.141592653589793;  /* 2.0 * math.pi */
    const double d2_a2 = d * d + a * a, two_a_d = 2.0 * a * d;
    int64_t g = lo - lo % ANGLE_GROUP;
    int64_t hi = g + ANGLE_GROUP < stop ? g + ANGLE_GROUP : stop;
    double theta_g = ((double)g + 0.5) * dtheta;
    double sin_g = sin(theta_g), cos_g = cos(theta_g);

    for (int64_t i = lo; i < hi; i++) {
        double sin_t, cos_t;
        add_angle(sin_g, cos_g, cos_k[i - g], sin_k[i - g], &sin_t, &cos_t);
        double area = two_pi * (a * sin_t) * width;  /* the thin-ring area */
        double s2 = d2_a2 - two_a_d * cos_t;
        double s = sqrt(s2);
        double axial = (d - a * cos_t) / s;
        terms[i - lo] = scale * area / s2 * axial;
    }
    return hi;
}

/* _propagate_py.ring_terms over the rings i = start .. stop - 1: terms[i - start]
 * is the axial pull of ring i, the ring at polar angle (i + 0.5) * dtheta,
 * made one group at a time with one table for the call.  A ring's term
 * depends on i alone. */
void ring_terms(double a, double d, double dtheta, double width, double scale, int64_t start,
                int64_t stop, double *terms)
{
    double cos_k[ANGLE_GROUP], sin_k[ANGLE_GROUP];

    angle_table(dtheta, cos_k, sin_k);
    for (int64_t lo = start; lo < stop;)
        lo = ring_group(a, d, dtheta, width, scale, cos_k, sin_k, lo, stop, terms + (lo - start));
}

/* 32-bit chunks from 2^-1074 up past the top bit of a sum of 2^31 doubles */
#define RING_CHUNKS 67

/* The exact sum of ring_terms' terms of the rings start .. stop - 1, as
 * chunks[i] = c_i * 2^(32 i - 1074) with integers c_i in [-2^31, 2^31), each
 * exact in a double; math.fsum of the chunks of every range is then the
 * correctly rounded total, however _propagate_c splits the rings.  Each
 * term's 53-bit significand is added, with its sign, to the three int64
 * chunks it spans, less than 2^32 to each: fewer than 2^31 terms
 * (shell.MAX_RINGS is 10^7) cannot overflow a chunk, so the loop never
 * renormalises.  Returns 0, or -1 when a term is not finite.
 */
int ring_sum(double a, double d, double dtheta, double width, double scale, int64_t start,
             int64_t stop, double *chunks)
{
    int64_t acc[RING_CHUNKS + 1] = {0};
    double t[ANGLE_GROUP], cos_k[ANGLE_GROUP], sin_k[ANGLE_GROUP];

    angle_table(dtheta, cos_k, sin_k);
    for (int64_t lo = start, hi; lo < stop; lo = hi) {
        hi = ring_group(a, d, dtheta, width, scale, cos_k, sin_k, lo, stop, t);
        for (int64_t k = 0; k < hi - lo; k++) {
            uint64_t bits;
            memcpy(&bits, &t[k], sizeof bits);
            /* |t| = f * 2^(p - 1074) with f < 2^53 */
            unsigned p = (unsigned)(bits >> 52 & 0x7FF) - 1, s;
            uint64_t f = (bits & 0xFFFFFFFFFFFFFu) | (uint64_t)1 << 52;
            if (p >= 0x7FE) {  /* not finite, or zero or subnormal */
                if (p == 0x7FE)
                    return -1;
                p = 0;
                f ^= (uint64_t)1 << 52;
            }
            s = p % 32;
            uint64_t low = f << s, high = f >> 32 >> (32 - s);  /* f * 2^s */
            int64_t *c = acc + p / 32;
            if (bits >> 63) {
                c[0] -= (int64_t)(low & 0xFFFFFFFFu);
                c[1] -= (int64_t)(low >> 32);
                c[2] -= (int64_t)high;
            } else {
                c[0] += (int64_t)(low & 0xFFFFFFFFu);
                c[1] += (int64_t)(low >> 32);
                c[2] += (int64_t)high;
            }
        }
    }
    for (int i = 0; i < RING_CHUNKS; i++) {
        /* acc[i] = r + 2^32 q, r in [-2^31, 2^31); the top chunk, below 2^17, has q = 0 */
        int64_t r = (int64_t)(((uint64_t)acc[i] + 0x80000000u) & 0xFFFFFFFFu) - 0x80000000;
        acc[i + 1] += (acc[i] - r) / 0x100000000;
        chunks[i] = ldexp((double)r, 32 * i - 1074);
    }
    return 0;
}

/* Whether conic_residuals takes its samples' sines and cosines by angle
 * addition, as _propagate_py._by_addition, which says why: for a parabola,
 * and for |1 - e^2| >= 1/2 and e <= 16.  Elsewhere each group is one
 * sample, whose values are then libm's. */
static int by_addition(double e)
{
    return e <= 16.0 && (e == 1.0 || fabs(1.0 - e * e) >= 0.5);
}

/* The values of geometry.ConicClass. */
enum { CONIC_ELLIPSE = 1, CONIC_PARABOLA = 2, CONIC_HYPERBOLA = 3 };

/* _propagate_py._block_residuals over the samples i = start .. stop - 1 at
 * polar angles theta0 + span * i / div (_propagate_py._sample_thetas),
 * whose sines and cosines come by add_angle, one group of ANGLE_GROUP
 * samples at a time where by_addition(e) holds and of one sample
 * elsewhere: sample i = g + k, g = i - i % group, is at theta_g + k * step,
 * theta_g = theta0 + span * g / div and step = span / div, with one sin
 * and one cos of theta_g per group and angle_table(step) for the offsets.
 * A sample's values depend on i alone, and a group's first sample has
 * libm's.  It writes the focal, reflection and right-angle maxima to
 * maxima[0..2] and the count of samples whose tangent is parallel to the
 * directrix, |tangent_y| < parallel_eps (geometry._PARALLEL_EPS), to
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
                    double parallel_eps, int64_t start, int64_t stop, double *maxima,
                    int64_t *skipped)
{
    double focal_max = 0.0, reflection_max = 0.0, right_max = 0.0;
    double cos_k[ANGLE_GROUP], sin_k[ANGLE_GROUP];
    int64_t skip = 0, group = by_addition(e) ? ANGLE_GROUP : 1;

    angle_table(span / div, cos_k, sin_k);
    for (int64_t g = start - start % group; g < stop; g += group) {
        double theta_g = theta0 + span * (double)g / div;
        double sin_g = sin(theta_g), cos_g = cos(theta_g);
        int64_t hi = g + group < stop ? g + group : stop;
        for (int64_t i = g < start ? start : g; i < hi; i++) {
            double s, c;
            add_angle(sin_g, cos_g, cos_k[i - g], sin_k[i - g], &s, &c);
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

            /* a parabola's beam is parallel to the axis */
            double focal, ray_x = 0.0, ray_y = 1.0;
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

            if (!(fabs(tuy) >= parallel_eps)) {
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
    }
    maxima[0] = focal_max;
    maxima[1] = reflection_max;
    maxima[2] = right_max;
    *skipped = skip;
    return 0;
}
