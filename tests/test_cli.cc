/**
 * @file
 * CLI exit-code regression tests. These shell out to the real
 * icicle-trace and icicle-prove binaries (paths baked in by CMake) to
 * pin the exit-status contract scripts and CI depend on:
 *
 *   0  clean / query answered
 *   1  findings (prove)
 *   2  usage error or malformed input — including a query against an
 *      empty (header-only) store, which used to succeed vacuously
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <utility>

#include "core/session.hh"
#include "store/store.hh"
#include "sweep/sweep.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

#ifndef ICICLE_TRACE_BIN
#error "CMake must define ICICLE_TRACE_BIN for test_cli"
#endif
#ifndef ICICLE_PROVE_BIN
#error "CMake must define ICICLE_PROVE_BIN for test_cli"
#endif
#ifndef ICICLE_SWEEP_BIN
#error "CMake must define ICICLE_SWEEP_BIN for test_cli"
#endif
#ifndef ICICLE_LINT_BIN
#error "CMake must define ICICLE_LINT_BIN for test_cli"
#endif

namespace icicle
{
namespace
{

/** Run a shell command, stdout/stderr silenced; return exit status. */
int
run(const std::string &command)
{
    const int status =
        std::system((command + " > /dev/null 2>&1").c_str());
    if (status < 0 || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

std::string
quoted(const std::string &path)
{
    return "'" + path + "'";
}

class TempPath
{
  public:
    explicit TempPath(const char *name)
        : path(std::string(::testing::TempDir()) + name)
    {
        std::remove(path.c_str());
    }
    ~TempPath() { std::remove(path.c_str()); }
    const std::string path;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(CliTrace, QueryOnEmptyStoreExitsTwo)
{
    // Regression: `icicle-trace query` on a header-only store used to
    // print a count of 0 and exit 0, indistinguishable from a real
    // empty window. It must now refuse with the malformed-input code.
    TempPath store("cli_empty.icst");
    std::unique_ptr<Core> core = makeSweepCore(
        "rocket", CounterArch::AddWires, buildWorkload("vvadd"));
    streamTraceToStore(*core, TraceSpec::tmaBundle(*core), 0,
                       store.path, 4096);

    EXPECT_EQ(run(std::string(ICICLE_TRACE_BIN) +
                  " query fetch-bubbles " + quoted(store.path)),
              2);
    // `info` on the same store stays informational (exit 0).
    EXPECT_EQ(run(std::string(ICICLE_TRACE_BIN) + " info " +
                  quoted(store.path)),
              0);
}

TEST(CliTrace, QueryOnRealStoreExitsZero)
{
    TempPath store("cli_real.icst");
    std::unique_ptr<Core> core = makeSweepCore(
        "rocket", CounterArch::AddWires, buildWorkload("vvadd"));
    streamTraceToStore(*core, TraceSpec::tmaBundle(*core), 20000,
                       store.path, 4096);

    EXPECT_EQ(run(std::string(ICICLE_TRACE_BIN) +
                  " query fetch-bubbles " + quoted(store.path)),
              0);
    EXPECT_EQ(run(std::string(ICICLE_TRACE_BIN) +
                  " query fetch-bubbles " + quoted(store.path) +
                  " --window 0:1000"),
              0);
}

TEST(CliTrace, MissingFileExitsTwo)
{
    EXPECT_EQ(run(std::string(ICICLE_TRACE_BIN) +
                  " query fetch-bubbles /nonexistent/x.icst"),
              2);
    EXPECT_EQ(run(std::string(ICICLE_TRACE_BIN) + " bogus-command"),
              2);
}

TEST(CliTrace, SalvageExitCodeContract)
{
    // 0 = clean, 1 = damage found and recovered around, 2 = nothing
    // recoverable. Scripts route on these; pin all three.
    TempPath store("cli_salvage.icst");
    TempPath repaired("cli_salvage_repaired.icst");
    TempPath report("cli_salvage_report.json");
    std::unique_ptr<Core> core = makeSweepCore(
        "rocket", CounterArch::AddWires, buildWorkload("vvadd"));
    streamTraceToStore(*core, TraceSpec::tmaBundle(*core), 20000,
                       store.path, 4096);

    EXPECT_EQ(run(std::string(ICICLE_TRACE_BIN) + " salvage " +
                  quoted(store.path)),
              0);

    // Truncate mid-store: the tail is gone, the prefix must survive.
    const auto size = std::filesystem::file_size(store.path);
    std::filesystem::resize_file(store.path, size - size / 3);
    EXPECT_EQ(run(std::string(ICICLE_TRACE_BIN) + " salvage " +
                  quoted(store.path) + " --repaired " +
                  quoted(repaired.path) + " --report " +
                  quoted(report.path)),
              1);
    // The repaired store opens strictly clean, and the damage report
    // is real JSON naming the source file.
    EXPECT_EQ(run(std::string(ICICLE_TRACE_BIN) + " info " +
                  quoted(repaired.path)),
              0);
    const std::string damage = slurp(report.path);
    EXPECT_NE(damage.find("\"salvaged\""), std::string::npos);
    EXPECT_NE(damage.find("cli_salvage.icst"), std::string::npos);

    // A file that is not an icicle store at all is unrecoverable.
    {
        std::ofstream garbage(store.path, std::ios::binary |
                                              std::ios::trunc);
        garbage << "this is not a trace store";
    }
    EXPECT_EQ(run(std::string(ICICLE_TRACE_BIN) + " salvage " +
                  quoted(store.path)),
              2);
}

TEST(CliSweep, KillDuringJournalThenResumeIsByteIdentical)
{
    // End-to-end crash drill: a SIGKILL-equivalent fault lands in the
    // middle of the second journal append; the resumed campaign must
    // reproduce the uninterrupted report byte for byte.
    TempPath golden("cli_sweep_golden.csv");
    TempPath crashed("cli_sweep_crashed.csv");
    TempPath resumed("cli_sweep_resumed.csv");
    TempPath journal("cli_sweep.icjn");

    const std::string grid_flags =
        " --cores rocket --archs addwires"
        " --workloads vvadd,towers --cycles 2000000"
        " --format csv --out ";

    ASSERT_EQ(run(std::string(ICICLE_SWEEP_BIN) + grid_flags +
                  quoted(golden.path)),
              0);

    // kill@journal#1 _Exit(137)s mid-append of the second record.
    EXPECT_EQ(run("ICICLE_FAULT='kill@journal#1' " +
                  std::string(ICICLE_SWEEP_BIN) + grid_flags +
                  quoted(crashed.path) + " --journal " +
                  quoted(journal.path)),
              137);
    // The crash precedes the report: no partial output published.
    EXPECT_FALSE(std::filesystem::exists(crashed.path));
    EXPECT_TRUE(std::filesystem::exists(journal.path));

    EXPECT_EQ(run(std::string(ICICLE_SWEEP_BIN) + grid_flags +
                  quoted(resumed.path) + " --journal " +
                  quoted(journal.path) + " --resume"),
              0);
    const std::string golden_csv = slurp(golden.path);
    ASSERT_FALSE(golden_csv.empty());
    EXPECT_EQ(slurp(resumed.path), golden_csv);
}

TEST(CliSweep, ResumeWithoutJournalExitsTwo)
{
    EXPECT_EQ(run(std::string(ICICLE_SWEEP_BIN) +
                  " --workloads vvadd --resume"),
              2);
}

TEST(CliProve, ArchMatrixExitsZero)
{
    EXPECT_EQ(run(std::string(ICICLE_PROVE_BIN) +
                  " arch --horizon 16"),
              0);
    EXPECT_EQ(run(std::string(ICICLE_PROVE_BIN) +
                  " arch --horizon 16 --json"),
              0);
}

TEST(CliProve, TraceVerifiesACapturedStore)
{
    TempPath store("cli_prove.icst");
    std::unique_ptr<Core> core = makeSweepCore(
        "boom-small", CounterArch::AddWires,
        buildWorkload("dhrystone"));
    streamTraceToStore(*core, TraceSpec::tmaBundle(*core), 20000,
                       store.path, 4096);

    EXPECT_EQ(run(std::string(ICICLE_PROVE_BIN) + " trace " +
                  quoted(store.path)),
              0);
}

TEST(CliProve, ConstraintsDeriveForEveryShippedConfig)
{
    EXPECT_EQ(run(std::string(ICICLE_PROVE_BIN) + " constraints"), 0);
    EXPECT_EQ(run(std::string(ICICLE_PROVE_BIN) +
                  " constraints rocket boom-mega --json"),
              0);
    // An unknown configuration is a usage error, not findings.
    EXPECT_EQ(run(std::string(ICICLE_PROVE_BIN) +
                  " constraints no-such-core"),
              2);
}

TEST(CliProve, RefuteExitCodeContract)
{
    // 0 = litmus suite clean on an unmutated build.
    EXPECT_EQ(run(std::string(ICICLE_PROVE_BIN) +
                  " refute rocket --workload litmus-width-retire"),
              0);
    // 2 = unbuildable / unknown config or litmus name.
    EXPECT_EQ(run(std::string(ICICLE_PROVE_BIN) +
                  " refute no-such-core"),
              2);
    EXPECT_EQ(run(std::string(ICICLE_PROVE_BIN) +
                  " refute --workload no-such-litmus"),
              2);
}

/** Minimal structural parse of a SARIF file; returns its rule ids. */
std::vector<std::string>
sarifRuleIds(const std::string &path)
{
    const std::string text = slurp(path);
    EXPECT_NE(text.find("\"version\":\"2.1.0\""), std::string::npos)
        << path;
    EXPECT_NE(text.find("\"results\":"), std::string::npos) << path;
    std::vector<std::string> ids;
    const std::string rules_key = "\"rules\":[";
    const size_t rules = text.find(rules_key);
    EXPECT_NE(rules, std::string::npos) << path;
    if (rules == std::string::npos)
        return ids;
    const size_t end = text.find(']', rules);
    const std::string key = "\"id\":\"";
    for (size_t at = text.find(key, rules);
         at != std::string::npos && at < end;
         at = text.find(key, at + 1)) {
        const size_t start = at + key.size();
        ids.push_back(text.substr(start,
                                  text.find('"', start) - start));
    }
    return ids;
}

TEST(CliProve, RefuteSarifCarriesStableProveRuleIds)
{
    // The CI code-scanning upload keys on these ids; pin that a clean
    // refutation run still advertises every PROVE-R family.
    TempPath sarif("cli_refute.sarif");
    EXPECT_EQ(run(std::string(ICICLE_PROVE_BIN) +
                  " refute rocket --workload litmus-width-retire"
                  " --sarif " +
                  quoted(sarif.path)),
              0);
    const std::vector<std::string> ids = sarifRuleIds(sarif.path);
    for (const char *rule : {"PROVE-R0", "PROVE-R1", "PROVE-R2",
                             "PROVE-R3", "PROVE-R4"}) {
        EXPECT_NE(std::find(ids.begin(), ids.end(), rule), ids.end())
            << rule << " missing from " << sarif.path;
    }
}

TEST(CliLint, SarifParsesWithPopulatedRuleTable)
{
    // icicle-lint's SARIF must stay structurally parseable for the
    // code-scanning upload; a clean run still carries the
    // model-fidelity notes in its rule table.
    TempPath sarif("cli_lint.sarif");
    EXPECT_EQ(run(std::string(ICICLE_LINT_BIN) +
                  " rocket-distributed --sarif " +
                  quoted(sarif.path)),
              0);
    const std::vector<std::string> ids = sarifRuleIds(sarif.path);
    EXPECT_FALSE(ids.empty());
    EXPECT_NE(std::find(ids.begin(), ids.end(), "TMA-005"),
              ids.end());
}

TEST(CliContract, HelpExitsZeroUnknownFlagExitsTwo)
{
    // Every shipped binary honours the same contract: --help (and -h)
    // succeeds with the usage text on stdout, an unrecognized flag is
    // a usage error on stderr with exit 2. All nine go through
    // cli::usageExit, so one drifting apart is a real regression.
    const std::string binaries[] = {
        ICICLE_TRACE_BIN, ICICLE_PROVE_BIN, ICICLE_SWEEP_BIN,
        ICICLE_LINT_BIN,  ICICLED_BIN,      ICICLE_BENCH_SERVE_BIN,
        ICICLE_CHAOS_BIN, ICICLE_SYNC_BIN,  BENCH_SELFPROF_BIN,
    };
    for (const std::string &bin : binaries) {
        EXPECT_EQ(run(bin + " --help"), 0) << bin;
        EXPECT_EQ(run(bin + " -h"), 0) << bin;
        EXPECT_EQ(run(bin + " --no-such-flag"), 2) << bin;
    }
}

TEST(CliContract, HelpTextGoesToStdoutUsageErrorToStderr)
{
    // The streams matter: `tool --help | less` must show the text,
    // and a usage error must not pollute piped stdout.
    const std::string binaries[] = {
        ICICLE_TRACE_BIN, ICICLE_PROVE_BIN, ICICLE_SWEEP_BIN,
        ICICLE_LINT_BIN,  ICICLED_BIN,      ICICLE_BENCH_SERVE_BIN,
        ICICLE_CHAOS_BIN, ICICLE_SYNC_BIN,  BENCH_SELFPROF_BIN,
    };
    for (const std::string &bin : binaries) {
        TempPath captured("cli_contract_out.txt");
        ASSERT_EQ(std::system((bin + " --help > " +
                               quoted(captured.path) + " 2>/dev/null")
                                  .c_str()),
                  0)
            << bin;
        EXPECT_NE(slurp(captured.path).find("usage:"),
                  std::string::npos)
            << bin;

        std::system((bin + " --no-such-flag > " +
                     quoted(captured.path) + " 2>/dev/null")
                        .c_str());
        EXPECT_TRUE(slurp(captured.path).empty()) << bin;
    }
}

TEST(CliContract, MalformedNumbersExitTwoNamingTheFlag)
{
    // Regression: numeric values went through raw std::stoul/stoull,
    // so a non-number ended in std::terminate (exit 134), `1e6` was
    // read as 1, and `--lane 256` wrapped to lane 0. Each is now a
    // usage error whose message names the flag.
    TempPath store("cli_numbers.icst");
    TempPath captured("cli_numbers_capture.icst");
    std::unique_ptr<Core> core = makeSweepCore(
        "rocket", CounterArch::AddWires, buildWorkload("vvadd"));
    streamTraceToStore(*core, TraceSpec::tmaBundle(*core), 20000,
                       store.path, 4096);
    const std::string trace = ICICLE_TRACE_BIN;
    const std::pair<std::string, std::string> cases[] = {
        {trace + " tma " + quoted(store.path) + " --window abc:100",
         "--window"},
        {std::string(ICICLE_SWEEP_BIN) + " --cycles abc", "--cycles"},
        {trace + " capture --core rocket --workload vvadd --store " +
             quoted(captured.path) + " --cycles 1e6",
         "--cycles"},
        {trace + " query fetch-bubbles " + quoted(store.path) +
             " --lane 256",
         "--lane"},
    };
    for (const auto &[command, flag] : cases) {
        TempPath errs("cli_numbers_err.txt");
        const int status = std::system(
            (command + " > /dev/null 2> " + quoted(errs.path)).c_str());
        ASSERT_TRUE(WIFEXITED(status)) << command;
        EXPECT_EQ(WEXITSTATUS(status), 2) << command;
        const std::string diag = slurp(errs.path);
        EXPECT_NE(diag.find(flag), std::string::npos)
            << command << ": " << diag;
    }
    // `--cycles 1e6` must not have captured a 1-cycle store.
    EXPECT_FALSE(std::filesystem::exists(captured.path));
    // A zero core width is refused too, not reported as 0% everywhere.
    EXPECT_EQ(run(trace + " tma " + quoted(store.path) +
                  " --window 0:1000 --width 0"),
              2);
}

TEST(CliSweep, UnknownCoreOrWorkloadExitsTwoNamingIt)
{
    // Names are checked up front, before anything is built or run.
    const std::pair<std::string, std::string> cases[] = {
        {" --cores rocket,no-such-core --workloads vvadd",
         "unknown core config 'no-such-core' (try icicle-sweep --list)"},
        {" --workloads vvadd,no-such-workload",
         "unknown workload: no-such-workload"},
    };
    for (const auto &[flags, message] : cases) {
        TempPath errs("cli_unknown_err.txt");
        const int status =
            std::system((std::string(ICICLE_SWEEP_BIN) + flags +
                         " > /dev/null 2> " + quoted(errs.path))
                            .c_str());
        ASSERT_TRUE(WIFEXITED(status)) << flags;
        EXPECT_EQ(WEXITSTATUS(status), 2) << flags;
        const std::string diag = slurp(errs.path);
        EXPECT_NE(diag.find(message), std::string::npos)
            << flags << ": " << diag;
    }
}

TEST(CliSweep, ResumeGridMismatchNamesJournalAndBothHashes)
{
    // A journal from one grid replayed against another must refuse
    // with a diagnostic a user can act on: the journal path plus both
    // grid hashes in hex.
    TempPath journal("cli_mismatch.icjn");
    TempPath out("cli_mismatch.csv");
    TempPath errs("cli_mismatch_err.txt");

    ASSERT_EQ(run(std::string(ICICLE_SWEEP_BIN) +
                  " --workloads vvadd --cycles 200000 --journal " +
                  quoted(journal.path) + " --out " + quoted(out.path)),
              0);
    std::system((std::string(ICICLE_SWEEP_BIN) +
                 " --workloads vvadd,towers --cycles 200000"
                 " --journal " +
                 quoted(journal.path) + " --resume --out " +
                 quoted(out.path) + " > /dev/null 2> " +
                 quoted(errs.path))
                    .c_str());
    const std::string diag = slurp(errs.path);
    EXPECT_NE(diag.find(journal.path), std::string::npos) << diag;
    EXPECT_NE(diag.find("refusing to resume"), std::string::npos)
        << diag;
    // Two distinct hex hashes, 0x-prefixed.
    const size_t first = diag.find("0x");
    ASSERT_NE(first, std::string::npos) << diag;
    const size_t second = diag.find("0x", first + 2);
    ASSERT_NE(second, std::string::npos) << diag;
    EXPECT_NE(diag.substr(first, 10), diag.substr(second, 10))
        << diag;
}

TEST(CliProve, UsageErrorsExitTwo)
{
    EXPECT_EQ(run(std::string(ICICLE_PROVE_BIN)), 2);
    EXPECT_EQ(run(std::string(ICICLE_PROVE_BIN) + " bogus"), 2);
    EXPECT_EQ(run(std::string(ICICLE_PROVE_BIN) +
                  " trace /nonexistent/x.icst"),
              2);
#ifndef ICICLE_MUTANTS
    // Without the mutant build the suite must refuse, not vacuously
    // pass: a CI misconfiguration that drops -DICICLE_MUTANTS=ON
    // would otherwise look green.
    EXPECT_EQ(run(std::string(ICICLE_PROVE_BIN) + " mutants"), 2);
#endif
}

} // namespace
} // namespace icicle
