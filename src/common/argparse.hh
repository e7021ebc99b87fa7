/**
 * @file
 * Shared CLI argument conventions for every icicle tool.
 *
 * Every shipped binary (icicle-lint/sweep/trace/prove/chaos/sync,
 * icicled, icicle-bench-serve and bench_selfprof) promises the same
 * contract, pinned by tests/test_cli.cc:
 *
 *   --help / -h   usage text on *stdout*, exit 0
 *   unknown flag  diagnostic + usage text on *stderr*, exit 2
 *   missing value diagnostic + usage text on *stderr*, exit 2
 *
 * The helpers here are the single place that encodes "stdout means
 * success, stderr means usage error" so no tool can drift (one
 * historically printed --help to stderr). Tools keep their own flag
 * loops — grids, subcommands, and positionals differ too much for a
 * declarative table — but route every help/error exit and every
 * numeric value through this.
 */

#ifndef ICICLE_COMMON_ARGPARSE_HH
#define ICICLE_COMMON_ARGPARSE_HH

#include <charconv>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "common/logging.hh"

namespace icicle
{
namespace cli
{

/** The two help spellings every tool accepts. */
bool isHelp(const std::string &arg);

/**
 * Print the usage text to `out` and return the canonical exit code
 * for that destination: 0 for stdout (--help), 2 for stderr (usage
 * error). Tools `return cli::usageExit(...)` directly from main.
 */
int usageExit(FILE *out, const char *text);

/** "unknown option: ARG" + usage on stderr; returns 2. */
int unknownOption(const std::string &arg, const char *text);

/** "FLAG needs a value" + usage on stderr; returns 2. */
int missingValue(const std::string &flag, const char *text);

/**
 * Split a comma-separated flag value ("rocket, boom-small") into its
 * items, each trimmed of spaces and tabs; empty items are dropped.
 */
std::vector<std::string> splitList(const std::string &text);

/**
 * Parse `text`, the value of `flag` (a CLI flag or a spec-file key),
 * as a T. Decimal digits only — plus one '.' for floating-point T —
 * so a sign, whitespace, an exponent or a suffix is rejected rather
 * than partly read (`--cycles 1e6` is not 1), and the value must fit
 * T (`--lane 256` does not wrap to lane 0). Either failure is a
 * fatal() naming the flag, which every tool turns into exit 2.
 */
template <typename T>
T
parseNumber(const std::string &flag, const std::string &text)
{
    static_assert(std::is_unsigned_v<T> || std::is_floating_point_v<T>,
                  "flag values are unsigned integers or decimals");
    const char *digits =
        std::is_floating_point_v<T> ? "0123456789." : "0123456789";
    T value{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || text.find_first_not_of(digits) !=
                            std::string::npos ||
        ec == std::errc::invalid_argument || ptr != end)
        fatal(flag, " expects a non-negative decimal number, got '",
              text, "'");
    if (ec == std::errc::result_out_of_range)
        fatal(flag, " value ", text, " is out of range");
    return value;
}

} // namespace cli
} // namespace icicle

#endif // ICICLE_COMMON_ARGPARSE_HH
