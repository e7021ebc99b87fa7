/**
 * @file
 * Tests for the bench/selfprof support library: the JSON reader, the
 * BENCH_selfprof.json validator, the calibration-normalized
 * regression comparison, and the spin calibration.
 */

#include <gtest/gtest.h>

#include "selfprof/selfprof.hh"

namespace icicle
{
namespace
{

const char *kValidReport = R"({
  "schema_version": 1,
  "calibration": {"spin_iters_per_sec": 5.0e8},
  "lanes": [
    {"name": "rocket_mix", "sim_cycles": 1000000,
     "wall_seconds": 0.1, "sim_cycles_per_sec": 1.0e7},
    {"name": "boom_large_mix", "sim_cycles": 1000000,
     "wall_seconds": 0.5, "sim_cycles_per_sec": 2.0e6}
  ]
})";

JsonValue
parseOk(const std::string &text)
{
    std::string error;
    JsonValue value = parseJson(text, &error);
    EXPECT_TRUE(error.empty()) << error;
    return value;
}

TEST(SelfprofJson, ParsesScalarsArraysObjects)
{
    const JsonValue v = parseOk(
        R"({"a": 1.5, "b": [true, null, "x\n"], "c": {"d": -2}})");
    ASSERT_TRUE(v.isObject());
    EXPECT_DOUBLE_EQ(v.get("a")->number, 1.5);
    ASSERT_TRUE(v.get("b")->isArray());
    EXPECT_EQ(v.get("b")->items.size(), 3u);
    EXPECT_TRUE(v.get("b")->items[0].boolean);
    EXPECT_EQ(v.get("b")->items[1].kind, JsonValue::Kind::Null);
    EXPECT_EQ(v.get("b")->items[2].str, "x\n");
    EXPECT_DOUBLE_EQ(v.get("c")->get("d")->number, -2.0);
}

TEST(SelfprofJson, RejectsMalformedInput)
{
    for (const char *bad :
         {"{", "[1,", "{\"a\" 1}", "tru", "{} garbage", ""}) {
        std::string error;
        const JsonValue v = parseJson(bad, &error);
        EXPECT_EQ(v.kind, JsonValue::Kind::Null) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

TEST(SelfprofSchema, AcceptsValidReport)
{
    std::string error;
    EXPECT_TRUE(validateSelfprofReport(parseOk(kValidReport), &error))
        << error;
}

TEST(SelfprofSchema, RejectsBrokenReports)
{
    // Each mutation breaks exactly one schema rule.
    const struct
    {
        const char *from;
        const char *to;
    } kMutations[] = {
        {"\"schema_version\": 1", "\"schema_version\": 2"},
        {"\"spin_iters_per_sec\": 5.0e8",
         "\"spin_iters_per_sec\": 0"},
        {"\"sim_cycles_per_sec\": 1.0e7",
         "\"sim_cycles_per_sec\": \"fast\""},
        {"\"name\": \"rocket_mix\"", "\"name\": \"\""},
    };
    for (const auto &mutation : kMutations) {
        std::string text = kValidReport;
        const auto at = text.find(mutation.from);
        ASSERT_NE(at, std::string::npos) << mutation.from;
        text.replace(at, std::string(mutation.from).size(),
                     mutation.to);
        std::string error;
        EXPECT_FALSE(validateSelfprofReport(parseOk(text), &error))
            << "mutation not caught: " << mutation.to;
        EXPECT_FALSE(error.empty());
    }
    std::string error;
    EXPECT_FALSE(validateSelfprofReport(
        parseOk(R"({"schema_version": 1})"), &error));
}

TEST(SelfprofCheck, NormalizesByCalibration)
{
    const JsonValue baseline = parseOk(kValidReport);

    // Same normalized throughput on a host twice as fast: both the
    // spin rate and the lane rates double; no regression.
    std::string faster = kValidReport;
    auto scale = [&faster](const std::string &from,
                           const std::string &to) {
        faster.replace(faster.find(from), from.size(), to);
    };
    scale("5.0e8", "1.0e9");
    scale("1.0e7", "2.0e7");
    scale("2.0e6", "4.0e6");
    const SelfprofComparison same =
        compareSelfprofReports(baseline, parseOk(faster), 0.20);
    EXPECT_TRUE(same.ok) << same.report;

    // A 30% single-lane drop at equal calibration fails the gate.
    std::string slower = kValidReport;
    slower.replace(slower.find("2.0e6"), 5, "1.4e6");
    const SelfprofComparison worse =
        compareSelfprofReports(baseline, parseOk(slower), 0.20);
    EXPECT_FALSE(worse.ok);
    EXPECT_NE(worse.report.find("REGRESSION"), std::string::npos);

    // The same drop passes a looser tolerance.
    EXPECT_TRUE(
        compareSelfprofReports(baseline, parseOk(slower), 0.35).ok);
}

TEST(SelfprofCheck, MissingBaselineLaneFails)
{
    // A baseline lane the current report lacks (renamed or dropped)
    // fails the gate instead of passing unchecked.
    const JsonValue baseline = parseOk(kValidReport);
    std::string renamed = kValidReport;
    renamed.replace(renamed.find("boom_large_mix"), 14, "boom_mix");
    const SelfprofComparison missing =
        compareSelfprofReports(baseline, parseOk(renamed), 0.20);
    EXPECT_FALSE(missing.ok) << missing.report;
    EXPECT_NE(missing.report.find("boom_large_mix: missing"),
              std::string::npos)
        << missing.report;

    // A lane found only in the current report is noted, not failed.
    std::string extended = kValidReport;
    extended.replace(extended.find("\"lanes\": ["), 10,
                     R"("lanes": [
    {"name": "boom_large_traced", "sim_cycles": 1000000,
     "wall_seconds": 0.5, "sim_cycles_per_sec": 2.0e6},)");
    const SelfprofComparison added =
        compareSelfprofReports(baseline, parseOk(extended), 0.20);
    EXPECT_TRUE(added.ok) << added.report;
    EXPECT_NE(added.report.find("boom_large_traced: not in baseline"),
              std::string::npos)
        << added.report;
}

TEST(SelfprofHost, CalibrationIsPositive)
{
    EXPECT_GT(calibrateSpinRate(), 0.0);
}

} // namespace
} // namespace icicle
