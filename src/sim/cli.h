/**
 * @file
 * Strict parsing of numeric command-line values, shared by the tools
 * and benches. The whole string must be the number: "abc", "6e4",
 * "-1", " 5" and "" are rejected (and out-of-range values too), so a
 * caller can print its usage text and exit 2 instead of aborting on
 * an uncaught exception or silently running with a misread value.
 */
#pragma once

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace dax::sim {

/**
 * Parse all of @p text as a decimal unsigned integer that fits @p out.
 * @return false (leaving @p out untouched) on anything else.
 */
template <typename T>
    requires std::is_unsigned_v<T>
bool
parseNumber(std::string_view text, T &out)
{
    T value{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end)
        return false;
    out = value;
    return true;
}

/** As above, for a finite real number ("3", "0.5", "1e-3"). */
inline bool
parseNumber(std::string_view text, double &out)
{
    double value = 0.0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || !std::isfinite(value))
        return false;
    out = value;
    return true;
}

} // namespace dax::sim
