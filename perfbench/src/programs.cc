#include "programs.hh"

#include <bit>
#include <cmath>
#include <algorithm>

namespace pb
{

std::int64_t
matmulRef(std::int64_t n)
{
    // A[i][j] = i + 2j, B[i][j] = i*j + 1.
    std::int64_t s = 0;
    for (std::int64_t i = 0; i < n; ++i)
        for (std::int64_t j = 0; j < n; ++j)
            for (std::int64_t k = 0; k < n; ++k)
                s += (i + 2 * k) * (k * j + 1);
    return s;
}

std::int64_t
wavefrontRef(std::int64_t n)
{
    // C(2m, m) with m = n - 1, exactly in integers.
    const std::int64_t m = n - 1;
    std::int64_t c = 1;
    for (std::int64_t i = 1; i <= m; ++i)
        c = c * (m + i) / i;
    return c;
}

std::int64_t
mergesortRef(std::int64_t n)
{
    std::int64_t s = 0;
    for (std::int64_t i = 0; i < n; ++i)
        s += (i * 37 + 11) % 101;
    return s;
}

std::int64_t
fibRef(std::int64_t n)
{
    std::int64_t a = 0, b = 1;
    for (std::int64_t i = 0; i < n; ++i) {
        const std::int64_t t = a + b;
        a = b;
        b = t;
    }
    return a;
}

std::int64_t
takRef(std::int64_t x, std::int64_t y, std::int64_t z)
{
    return y < x ? takRef(takRef(x - 1, y, z), takRef(y - 1, z, x),
                          takRef(z - 1, x, y))
                 : z;
}

std::int64_t
vectorSumRef(std::int64_t n)
{
    return n * (n - 1) / 2;
}

std::int64_t
producerConsumerRef(std::int64_t n)
{
    return n * (n - 1);
}

bool
sameValue(const graph::Value &got, const graph::Value &want)
{
    if (!got.isNumeric() || !want.isNumeric())
        return false;
    if (got.isInt() && want.isInt())
        return got.asInt() == want.asInt();
    const double w = want.asReal(), g = got.asReal();
    return std::fabs(g - w) <= 1e-9 * std::max(1.0, std::fabs(w));
}

std::uint64_t
valueBits(const graph::Value &v)
{
    if (v.isInt())
        return static_cast<std::uint64_t>(v.asInt());
    if (v.isReal())
        return std::bit_cast<std::uint64_t>(v.asReal());
    return 0x5eed;
}

} // namespace pb
