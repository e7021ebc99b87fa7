/**
 * @file
 * The one JSON string escaper behind every JSON report the tree
 * writes (sweep rows, lint and lock-order reports, SARIF, store
 * damage, constraint sets, prove and chaos verdicts).
 */

#ifndef ICICLE_COMMON_JSON_HH
#define ICICLE_COMMON_JSON_HH

#include <string>
#include <string_view>

namespace icicle
{

/**
 * `text` as the body of a JSON string literal (no quotes): `"` and
 * `\` are backslash-escaped, newline and tab become `\n` and `\t`,
 * and every other control character becomes `\u00XX`.
 */
inline std::string
jsonEscape(std::string_view text)
{
    static constexpr char kHex[] = "0123456789abcdef";
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                out += "\\u00";
                out += kHex[c >> 4];
                out += kHex[c & 0xf];
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** `text` as a quoted JSON string literal. */
inline std::string
jsonQuote(std::string_view text)
{
    return '"' + jsonEscape(text) + '"';
}

} // namespace icicle

#endif // ICICLE_COMMON_JSON_HH
