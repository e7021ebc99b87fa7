#include "selfprof/selfprof.hh"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstring>

namespace icicle
{

// ------------------------------------------------------ calibration

double
calibrateSpinRate()
{
    // LCG feedback: every iteration depends on the last, so the loop
    // measures straight-line integer latency and cannot be folded.
    volatile u64 sink = 0;
    u64 x = 0x9e3779b97f4a7c15ull;
    constexpr u64 kIters = 20'000'000;
    const auto start = std::chrono::steady_clock::now();
    for (u64 i = 0; i < kIters; i++)
        x = x * 6364136223846793005ull + 1442695040888963407ull;
    sink = x;
    (void)sink;
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (elapsed.count() <= 0)
        return 0;
    return static_cast<double>(kIters) / elapsed.count();
}

// ------------------------------------------------------------- JSON

const JsonValue *
JsonValue::get(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    const auto it = fields.find(key);
    return it == fields.end() ? nullptr : &it->second;
}

namespace
{

struct Parser
{
    const std::string &text;
    u64 pos = 0;
    std::string error;

    bool
    fail(const std::string &what)
    {
        if (error.empty())
            error = what + " at offset " + std::to_string(pos);
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            pos++;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos < text.size() && text[pos] == c) {
            pos++;
            return true;
        }
        return false;
    }

    bool
    parseValue(JsonValue &out)
    {
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        const char c = text[pos];
        if (c == '{')
            return parseObject(out);
        if (c == '[')
            return parseArray(out);
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return parseString(out.str);
        }
        if (c == 't' || c == 'f')
            return parseKeyword(out);
        if (c == 'n')
            return parseKeyword(out);
        return parseNumber(out);
    }

    bool
    parseKeyword(JsonValue &out)
    {
        static const struct
        {
            const char *word;
            JsonValue::Kind kind;
            bool value;
        } kKeywords[] = {
            {"true", JsonValue::Kind::Bool, true},
            {"false", JsonValue::Kind::Bool, false},
            {"null", JsonValue::Kind::Null, false},
        };
        for (const auto &kw : kKeywords) {
            const u64 len = std::strlen(kw.word);
            if (text.compare(pos, len, kw.word) == 0) {
                out.kind = kw.kind;
                out.boolean = kw.value;
                pos += len;
                return true;
            }
        }
        return fail("invalid literal");
    }

    bool
    parseNumber(JsonValue &out)
    {
        const u64 start = pos;
        if (pos < text.size() && text[pos] == '-')
            pos++;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '.' || text[pos] == 'e' ||
                text[pos] == 'E' || text[pos] == '+' ||
                text[pos] == '-'))
            pos++;
        if (pos == start)
            return fail("expected a value");
        try {
            out.number = std::stod(text.substr(start, pos - start));
        } catch (...) {
            pos = start;
            return fail("malformed number");
        }
        out.kind = JsonValue::Kind::Number;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        skipWs();
        if (!consume('"'))
            return fail("expected '\"'");
        out.clear();
        while (pos < text.size()) {
            const char c = text[pos++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos >= text.size())
                    return fail("bad escape");
                const char e = text[pos++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'u':
                    // Enough for this format: keep the escape as-is.
                    if (pos + 4 > text.size())
                        return fail("bad \\u escape");
                    out += "\\u" + text.substr(pos, 4);
                    pos += 4;
                    break;
                  default: return fail("bad escape");
                }
            } else {
                out += c;
            }
        }
        return fail("unterminated string");
    }

    bool
    parseObject(JsonValue &out)
    {
        if (!consume('{'))
            return fail("expected '{'");
        out.kind = JsonValue::Kind::Object;
        skipWs();
        if (consume('}'))
            return true;
        while (true) {
            std::string key;
            if (!parseString(key))
                return false;
            if (!consume(':'))
                return fail("expected ':'");
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.fields[key] = std::move(value);
            if (consume(','))
                continue;
            if (consume('}'))
                return true;
            return fail("expected ',' or '}'");
        }
    }

    bool
    parseArray(JsonValue &out)
    {
        if (!consume('['))
            return fail("expected '['");
        out.kind = JsonValue::Kind::Array;
        skipWs();
        if (consume(']'))
            return true;
        while (true) {
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.items.push_back(std::move(value));
            if (consume(','))
                continue;
            if (consume(']'))
                return true;
            return fail("expected ',' or ']'");
        }
    }
};

} // namespace

JsonValue
parseJson(const std::string &text, std::string *error)
{
    Parser parser{text, 0, {}};
    JsonValue out;
    if (!parser.parseValue(out)) {
        if (error)
            *error = parser.error;
        return JsonValue{};
    }
    parser.skipWs();
    if (parser.pos != text.size()) {
        if (error)
            *error = "trailing garbage at offset " +
                     std::to_string(parser.pos);
        return JsonValue{};
    }
    return out;
}

// ------------------------------------------------------- validation

namespace
{

/** The lane of `report` called `name`; nullptr when it has none. */
const JsonValue *
findLane(const JsonValue &report, const std::string &name)
{
    for (const JsonValue &lane : report.get("lanes")->items)
        if (lane.get("name")->str == name)
            return &lane;
    return nullptr;
}

bool
failValidate(std::string *error, const std::string &what)
{
    if (error)
        *error = what;
    return false;
}

bool
requirePositiveNumber(const JsonValue &obj, const std::string &key,
                      const std::string &where, std::string *error)
{
    const JsonValue *v = obj.get(key);
    if (!v || !v->isNumber())
        return failValidate(error,
                            where + ": missing number '" + key + "'");
    if (v->number <= 0)
        return failValidate(error, where + ": '" + key +
                                       "' must be > 0");
    return true;
}

} // namespace

bool
validateSelfprofReport(const JsonValue &report, std::string *error)
{
    if (!report.isObject())
        return failValidate(error, "report must be a JSON object");

    const JsonValue *version = report.get("schema_version");
    if (!version || !version->isNumber() || version->number != 1)
        return failValidate(error, "schema_version must be 1");

    const JsonValue *calibration = report.get("calibration");
    if (!calibration || !calibration->isObject())
        return failValidate(error, "missing calibration object");
    if (!requirePositiveNumber(*calibration, "spin_iters_per_sec",
                               "calibration", error))
        return false;

    const JsonValue *lanes = report.get("lanes");
    if (!lanes || !lanes->isArray() || lanes->items.empty())
        return failValidate(error, "lanes must be a non-empty array");

    for (u64 i = 0; i < lanes->items.size(); i++) {
        const JsonValue &lane = lanes->items[i];
        const std::string where = "lanes[" + std::to_string(i) + "]";
        if (!lane.isObject())
            return failValidate(error, where + " must be an object");
        const JsonValue *name = lane.get("name");
        if (!name || !name->isString() || name->str.empty())
            return failValidate(error,
                                where + ": missing string 'name'");
        if (!requirePositiveNumber(lane, "sim_cycles", where, error))
            return false;
        if (!requirePositiveNumber(lane, "wall_seconds", where,
                                   error))
            return false;
        if (!requirePositiveNumber(lane, "sim_cycles_per_sec", where,
                                   error))
            return false;
    }
    return true;
}

// ------------------------------------------------------- comparison

SelfprofComparison
compareSelfprofReports(const JsonValue &baseline,
                       const JsonValue &current, double tolerance)
{
    SelfprofComparison out;
    const double base_spin =
        baseline.get("calibration")->get("spin_iters_per_sec")->number;
    const double cur_spin =
        current.get("calibration")->get("spin_iters_per_sec")->number;

    for (const JsonValue &base_lane :
         baseline.get("lanes")->items) {
        const std::string &name = base_lane.get("name")->str;
        const JsonValue *cur_lane = findLane(current, name);
        if (!cur_lane) {
            out.report += "  " + name + ": missing from current "
                                        "report  MISSING\n";
            out.ok = false;
            continue;
        }
        // Spin-normalized throughput: sim cycles per calibration
        // iteration, a host-speed-independent figure of merit.
        const double base_norm =
            base_lane.get("sim_cycles_per_sec")->number / base_spin;
        const double cur_norm =
            cur_lane->get("sim_cycles_per_sec")->number / cur_spin;
        const double ratio = cur_norm / base_norm;
        char line[256];
        std::snprintf(line, sizeof(line),
                      "  %s: normalized ratio %.3f (>= %.3f required)",
                      name.c_str(), ratio, 1.0 - tolerance);
        out.report += line;
        if (ratio < 1.0 - tolerance) {
            out.report += "  REGRESSION\n";
            out.ok = false;
        } else {
            out.report += "  ok\n";
        }
    }
    for (const JsonValue &cur_lane : current.get("lanes")->items) {
        const std::string &name = cur_lane.get("name")->str;
        if (!findLane(baseline, name))
            out.report += "  " + name + ": not in baseline "
                                        "(not compared)\n";
    }
    return out;
}

} // namespace icicle
