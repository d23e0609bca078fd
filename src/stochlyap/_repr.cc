/* The CSV float formatter of stochlyap: rows of doubles written as Python's
   repr writes them.  The digits are the shortest that round-trip (of those,
   the closest to the value, ties to even); the layout is float.__repr__'s:
   positional for 1e-4 <= |x| < 1e16, with ".0" after an integral value,
   otherwise d.ddde+XX with at least two exponent digits; NaN of either sign
   is "nan".  At most 24 characters a value.  Where unsigned __int128 exists
   (GCC and Clang on 64-bit targets), the positional range takes an exact
   integer path, ``shortest``; every other value (the zeros, subnormals, inf
   and nan among them), and every value without __int128, takes
   std::to_chars (C++17, libstdc++ >= 11), to the same bytes. */

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>

namespace {

char *put(char *out, const char *s, long n)
{
    std::memcpy(out, s, n);
    return out + n;
}

/* the n digits at d (readable to d + n + 16) times 10^(e + 1 - n), -4 <= e < 16,
   positionally at out, built in s by fixed-width copies; returns its end */
char *positional(const char *d, long n, int e, char *out)
{
    char s[48];
    if (e < 0) { /* "0.", -e - 1 zeros, the digits */
        std::memcpy(s, "0.000", 5);
        std::memcpy(s + 1 - e, d, 17);
        return put(out, s, n + 1 - e);
    }
    std::memcpy(s, d, 16);
    if (e + 1 < n) { /* e + 1 digits, the point, the others */
        s[e + 1] = '.';
        std::memcpy(s + e + 2, d + e + 1, 16);
        return put(out, s, n + 1);
    }
    std::memset(s + n, '0', 16); /* the digits, e + 1 - n zeros, ".0" */
    std::memcpy(s + e + 1, ".0", 2);
    return put(out, s, e + 3);
}

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;
struct Tens { /* 10^0 ... 10^20 */
    u128 v[21];
    constexpr Tens() : v() { for (int i = 0; i < 21; ++i) v[i] = i ? 10 * v[i - 1] : 1; }
};
constexpr Tens ten;

/* the doubles nearest 10^-4 ... 10^16: those below 1 lie above the powers,
   so for a double x, x >= decade[k + 4] exactly when x >= 10^k */
const double decade[] = {1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6,
                         1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16};

/* the 8 digits of v < 10^8 at out: v splits into halves of 4 digits, 2, 1,
   side by side in the lanes of one word, the first digit in its lowest byte */
void digits8(uint64_t v, char *out)
{
    uint64_t hi = v * 0xD1B71759 >> 45;
    uint64_t x = (v << 32) - (hi * 10000 << 32) + hi;
    uint64_t q = (x * 10486 >> 20) & 0x7F0000007F;
    uint64_t y = (x << 16) - (q * 100 << 16) + q;
    uint64_t r = (y * 103 >> 10) & 0x000F000F000F000F;
    uint64_t z = (y << 8) - (r * 10 << 8) + r + 0x3030303030303030;
    if (__BYTE_ORDER__ == __ORDER_BIG_ENDIAN__)
        z = __builtin_bswap64(z);
    std::memcpy(out, &z, 8);
}

/* repr(x) for 1e-4 <= x < 1e16 at out, from the shortest digits that
   round-trip, of those the closest to x, ties to even; returns its end */
char *shortest(double x, char *out)
{
    uint64_t bits = __builtin_bit_cast(uint64_t, x);
    int be = bits >> 52, sh = 1077 - be; /* x = 4m / 2^sh, 1 <= sh <= 68 */
    uint64_t m = (bits & ((1ull << 52) - 1)) | 1ull << 52, odd = m & 1;
    int e = ((be - 1023) * 78913) >> 18; /* floor(log10 2^(be - 1023)) */
    e += x >= decade[e + 5];
    u128 unit = ten.v[16 - e], X = 4 * m * unit; /* X / 2^sh in [10^16, 10^17) */
    /* [L, H]: the integers that round to x, within 2 units of X / 2^sh (1 below
       where m = 2^52), the ends only where m is even; at most 22 apart */
    uint64_t L = (X - (m == 1ull << 52 ? unit : 2 * unit) + ((u128)1 << sh) - 1 + odd) >> sh,
             H = (X + 2 * unit - odd) >> sh, c = X >> sh;
    int k = 0; /* the digits dropped */
    if ((L + 99) / 100 <= H / 100) { /* the one multiple of 100 in [L, H] */
        c = (L + 99) / 100, k = 2;
        auto strip = [&](uint64_t t, int j) { if (c % t == 0) c /= t, k += j; };
        strip(100000000, 8), strip(10000, 4), strip(100, 2), strip(10, 1);
    } else { /* drop a digit where [L, H] holds a multiple of 10; round half even into it */
        if ((L + 9) / 10 <= H / 10)
            c /= 10, L = (L + 9) / 10, H /= 10, k = 1;
        u128 rest = X - ((u128)(c * (uint64_t)ten.v[k]) << sh);
        c += rest + (c & 1) > ten.v[k] << (sh - 1);
        c = c < L ? L : c > H ? H : c;
    }
    char buf[48] = {};
    digits8(c / 10000000000000000, buf);
    digits8(c / 100000000 % 100000000, buf + 8);
    digits8(c % 100000000, buf + 16);
    return positional(buf + 7 + k, 17 - k, e, out);
}
#endif

/* repr(x) at out; returns its end */
char *repr(double x, char *out)
{
    if (std::isnan(x))
        return put(out, "nan", 3);
    if (std::signbit(x))
        *out++ = '-';
    x = std::fabs(x);
    if (std::isinf(x))
        return put(out, "inf", 3);
#ifdef __SIZEOF_INT128__
    if (x >= 1e-4 && x < 1e16)
        return shortest(x, out);
#endif
    char buf[48] = {};
    int e = 0;
    const char *end = std::to_chars(buf, buf + 32, x, std::chars_format::scientific).ptr;
    const char *p = std::strchr(buf, 'e'); /* d[.ddd]e-XX */
    std::from_chars(p + 1 + (p[1] == '+'), end, e);
    if (e < -4 || e >= 16)
        return put(out, buf, end - buf); /* as repr writes it */
    long n = 0; /* the digits, to the front of buf */
    for (const char *q = buf; q < p; ++q)
        if (*q != '.')
            buf[n++] = *q;
    return positional(buf, n, e, out);
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
