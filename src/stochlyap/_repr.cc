/* The CSV float formatter of stochlyap: rows of doubles written as Python's
   repr writes them.  The digits are the shortest that round-trip, from
   std::to_chars (C++17, libstdc++ >= 11); the layout is float.__repr__'s:
   positional for 1e-4 <= |x| < 1e16, with ".0" after an integral value,
   otherwise d.ddde+XX with at least two exponent digits; NaN of either sign
   is "nan".  At most 24 characters a value. */

#include <charconv>
#include <cstring>

namespace {

char *put(char *out, const char *s, long n)
{
    std::memcpy(out, s, n);
    return out + n;
}

/* repr(x) at out; returns its end */
char *repr(double x, char *out)
{
    char buf[32];
    char *end = std::to_chars(buf, buf + sizeof buf - 1, x,
                              std::chars_format::scientific).ptr;
    *end = '\0';
    const char *p = buf + (buf[0] == '-');
    if (*p == 'n') /* nan or -nan */
        return put(out, "nan", 3);
    if (*p == 'i') /* inf or -inf */
        return put(out, buf, end - buf);
    if (p != buf)
        *out++ = '-';
    char digits[20]; /* d[.ddd]: at most 17 significant digits */
    long n = 0;
    for (; *p != 'e'; ++p)
        if (*p != '.')
            digits[n++] = *p;
    const char *exponent = p; /* e, sign, two or three digits, as repr has them */
    int e = 0;
    for (p += 2; *p; ++p)
        e = 10 * e + (*p - '0');
    if (exponent[1] == '-')
        e = -e;
    if (e < -4 || e >= 16) {
        *out++ = digits[0];
        if (n > 1) {
            *out++ = '.';
            out = put(out, digits + 1, n - 1);
        }
        return put(out, exponent, end - exponent);
    }
    long point = e + 1; /* digits before the decimal point */
    if (point <= 0) { /* "0.", -point zeros, the digits */
        out = put(out, "0.0000", 2 - point);
        return put(out, digits, n);
    }
    if (point < n) {
        out = put(out, digits, point);
        *out++ = '.';
        return put(out, digits + point, n - point);
    }
    out = put(out, digits, n);
    for (; n < point; ++n)
        *out++ = '0';
    return put(out, ".0", 2);
}

} // namespace

/* rows x cols doubles from v, row-major, as comma-separated,
   newline-terminated rows at out; returns the bytes written, at most
   25 * rows * cols */
extern "C" long repr_rows(const double *v, long rows, long cols, char *out)
{
    char *p = out;
    for (long i = 0; i < rows; ++i)
        for (long j = 0; j < cols; ++j) {
            p = repr(*v++, p);
            *p++ = j + 1 < cols ? ',' : '\n';
        }
    return p - out;
}
