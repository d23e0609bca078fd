/* The CSV float formatter of stochlyap: rows of doubles written as Python's
   repr writes them.  The digits are the shortest that round-trip (of those,
   the closest to the value, ties to even); the layout is float.__repr__'s:
   fixed-point for 1e-4 <= |x| < 1e16, with ".0" after an integral value,
   otherwise d.ddde+XX with at least two exponent digits; NaN of either sign
   is "nan".  At most 24 characters a value.  The fixed-point range takes an
   exact integer path on unsigned __int128, ``shortest``; nan, the zeros and
   inf are written directly, and every other value (subnormals among them)
   is std::to_chars's scientific form.  Needs GCC or Clang on a 64-bit target
   (for __int128) and C++17 floating-point to_chars (libstdc++ >= 11). */

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>

#ifndef __SIZEOF_INT128__
#error "the formatter needs unsigned __int128 (GCC or Clang on a 64-bit target)"
#endif

#define INLINE inline __attribute__((always_inline))

namespace {

char *put(char *out, const char *s, long n)
{
    std::memcpy(out, s, n);
    return out + n;
}

typedef unsigned __int128 u128;
struct Fives { /* 2 * 5^0 ... 2 * 5^20 */
    uint64_t v[21];
    constexpr Fives() : v() { for (int i = 0; i < 21; ++i) v[i] = i ? 5 * v[i - 1] : 2; }
};
constexpr Fives five;

/* the doubles nearest 10^-4 ... 10^16: those below 1 lie above the powers,
   so for a double x, x >= decade[k + 4] exactly when x >= 10^k */
const double decade[] = {1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6,
                         1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16};

/* the 8 digits of v < 10^8 as the bytes of a word, the first digit in its
   lowest byte: v splits into halves of 4 digits, 2, 1, side by side */
INLINE uint64_t digits8(uint64_t v)
{
    uint64_t hi = v * 0xD1B71759 >> 45;
    uint64_t x = (v << 32) - (hi * 10000 << 32) + hi;
    uint64_t q = (x * 10486 >> 20) & 0x7F0000007F;
    uint64_t y = (x << 16) - (q * 100 << 16) + q;
    uint64_t r = (y * 103 >> 10) & 0x000F000F000F000F;
    return (y << 8) - (r * 10 << 8) + r;
}

/* the 16 characters of w, the first in its lowest byte, at out */
INLINE void put16(u128 w, char *out)
{
    uint64_t half[2] = {(uint64_t)w, (uint64_t)(w >> 64)};
    if (__BYTE_ORDER__ == __ORDER_BIG_ENDIAN__)
        half[0] = __builtin_bswap64(half[0]), half[1] = __builtin_bswap64(half[1]);
    std::memcpy(out, half, 16);
}

/* repr(x) for 1e-4 <= x < 1e16 at out (40 bytes of room), from the shortest
   digits that round-trip, of those the closest to x, ties to even; returns its end */
INLINE char *shortest(double x, char *out)
{
    uint64_t bits = __builtin_bit_cast(uint64_t, x);
    int be = bits >> 52;
    uint64_t m = (bits & ((1ull << 52) - 1)) | 1ull << 52, odd = m & 1;
    int e = ((be - 1023) * 78913) >> 18; /* floor(log10 2^(be - 1023)) */
    e += x >= decade[e + 5];
    /* x 10^(16 - e) = X / 2^50, in [10^16, 10^17): c, and f / 2^50 */
    uint64_t unit = five.v[16 - e] << (be - 1012 - e); /* < 2^53 */
    u128 X = (u128)(4 * m) * unit;
    uint64_t c = X >> 50, f = (uint64_t)X & ((1ull << 50) - 1);
    /* [L, H]: the integers that round to x, within 2 units of X / 2^50 (1 below
       where m = 2^52), the ends only where m is even; at most 22 apart */
    int64_t below = unit << (m != 1ull << 52);
    uint64_t L = c + ((int64_t)(f + (1ull << 50) - 1 + odd - below) >> 50),
             H = c + ((f + 2 * unit - odd) >> 50), r = H % 100;
    if (r <= H - L) { /* the one multiple of 100 in [L, H] */
        c = H - r;
    } else { /* drop a digit where [L, H] holds a multiple of 10; round half even into it */
        bool k = r % 10 <= H - L;
        uint64_t t = k ? 10 : 1, d = k ? c / 10 : c;
        L = k ? (L + 9) / 10 : L, H = k ? H / 10 : H;
        d += f + ((c - d * t) << 50) + (d & 1) > t << 49;
        c = (d < L ? L : d > H ? H : d) * t;
    }
    /* c has 17 digits, lead and then the 16 of w; repr drops its trailing zeros */
    uint64_t q = c / 100000000, lead = c / 10000000000000000;
    uint64_t hi = digits8(q - lead * 100000000), lo = digits8(c - q * 100000000);
    int zeros = lo ? __builtin_clzll(lo) >> 3 : hi ? 8 + (__builtin_clzll(hi) >> 3) : 16;
    int n = 17 - zeros;
    u128 w = (u128)(lo + 0x3030303030303030) << 64 | (hi + 0x3030303030303030);
    if (e < 0) { /* "0.", -e - 1 zeros, the digits */
        std::memcpy(out, "0.000", 5);
        out += 1 - e;
    }
    *out = '0' + lead;
    put16(w, out + 1);
    if (e < 0)
        return out + n;
    if (e + 1 < n) { /* e + 1 digits, the point, the others */
        out[e + 1] = '.';
        put16(w >> 8 * e, out + e + 2);
        return out + n + 1;
    }
    std::memcpy(out + e + 1, ".0", 2); /* the digits, zeros to the point, ".0" */
    return out + e + 3;
}

/* repr(x) at out (40 bytes of room); returns its end */
INLINE char *repr(double x, char *out)
{
    double a = std::fabs(x);
    if (a >= 1e-4 && a < 1e16) {
        *out = '-';
        return shortest(a, out + std::signbit(x));
    }
    if (std::isnan(x))
        return put(out, "nan", 3);
    if (std::signbit(x))
        *out++ = '-';
    if (a == 0.0)
        return put(out, "0.0", 3);
    if (std::isinf(a))
        return put(out, "inf", 3);
    return std::to_chars(out, out + 32, a, std::chars_format::scientific).ptr;
}

} // namespace

/* rows of cols doubles from v, row-major, as comma-separated,
   newline-terminated rows at out, each row i led, where dt is not 0, by
   (first + i) * dt; returns the bytes written, at most 25 a value.  The
   values are written into a local buffer and copied out in stretches. */
extern "C" long repr_rows(const double *v, long rows, long cols, long first, double dt,
                          char *out)
{
    char stage[1024], *p = stage, *o = out;
    for (long i = 0; i < rows; ++i)
        for (long j = -(dt != 0); j < cols; ++j) { /* j = -1: the index column */
            p = repr(j < 0 ? (double)(first + i) * dt : *v++, p);
            *p++ = j + 1 < cols ? ',' : '\n';
            if (p > stage + sizeof stage - 64)
                o = put(o, stage, p - stage), p = stage;
        }
    return put(o, stage, p - stage) - out;
}
