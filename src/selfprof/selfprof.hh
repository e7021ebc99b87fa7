/**
 * @file
 * Self-profiling support for the bench_selfprof lane: the simulator
 * measures its *own* host-side throughput so that tick-loop
 * regressions show up as data, not anecdotes.
 *
 * Two pieces:
 *  - calibrateSpinRate(): a fixed integer spin loop whose iters/sec
 *    anchors cross-host comparisons — regression checks compare
 *    sim-cycles/s *normalized by* the host's spin rate, so a slower
 *    CI machine does not read as a simulator regression.
 *  - A minimal JSON reader plus validation/compare routines for
 *    BENCH_selfprof.json, so the report check and the >20%
 *    regression gate run from the same binary with no external
 *    tooling.
 */

#ifndef ICICLE_SELFPROF_SELFPROF_HH
#define ICICLE_SELFPROF_SELFPROF_HH

#include <map>
#include <string>
#include <vector>

#include "common/types.hh"

namespace icicle
{

/**
 * Calibration spin: iterations/second of a fixed LCG-feedback integer
 * loop (nothing the compiler can vectorize away). Used to normalize
 * throughput numbers across hosts of different speeds.
 */
double calibrateSpinRate();

// --------------------------------------------------------------------
// Minimal JSON for the report format
// --------------------------------------------------------------------

/** A parsed JSON value (just enough for BENCH_selfprof.json). */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0;
    std::string str;
    std::vector<JsonValue> items;
    std::map<std::string, JsonValue> fields;

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    /** Field lookup; nullptr when absent or not an object. */
    const JsonValue *get(const std::string &key) const;
};

/**
 * Parse a JSON document. On failure returns Kind::Null and sets
 * *error to a message with an offset.
 */
JsonValue parseJson(const std::string &text, std::string *error);

/**
 * Validate a parsed BENCH_selfprof.json report: schema_version 1, a
 * positive calibration.spin_iters_per_sec, and a non-empty lanes
 * array whose entries carry a name and positive sim_cycles,
 * wall_seconds and sim_cycles_per_sec. Returns true when valid;
 * otherwise fills *error.
 */
bool validateSelfprofReport(const JsonValue &report,
                            std::string *error);

/** Outcome of a baseline-vs-current throughput comparison. */
struct SelfprofComparison
{
    bool ok = true;
    /** Human-readable per-lane verdicts. */
    std::string report;
};

/**
 * Compare two valid reports lane by lane on calibration-normalized
 * sim-cycles/s. A lane regresses when
 *   current_norm < (1 - tolerance) * baseline_norm.
 * A baseline lane missing from the current report fails too, so a
 * renamed or dropped lane cannot pass unchecked; a lane found only
 * in the current report is noted.
 */
SelfprofComparison compareSelfprofReports(const JsonValue &baseline,
                                          const JsonValue &current,
                                          double tolerance);

} // namespace icicle

#endif // ICICLE_SELFPROF_SELFPROF_HH
