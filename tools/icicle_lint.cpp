/**
 * @file
 * icicle-lint: standalone static model-invariant analyzer.
 *
 * Constructs (but never runs) each named core configuration, audits
 * its event wiring, counter architecture, CSR layout, and TMA model
 * conservation, and also validates the standard TMA perf request
 * against the hardware-counter budget. The config matrix spans every
 * configuration shipped by the examples and benchmark drivers:
 * Rocket plus the five Table IV BOOM sizes, each under all three
 * counter architectures.
 *
 *   $ icicle-lint                 # lint every known config
 *   $ icicle-lint boom-giga-scalar rocket-scalar
 *   $ icicle-lint --json          # machine-readable, for CI
 *   $ icicle-lint --list          # show known config names
 *
 * Exit status: 0 clean (warnings allowed), 1 any Error-severity
 * finding, 2 usage error.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/lint.hh"
#include "analysis/sarif.hh"
#include "common/argparse.hh"
#include "common/logging.hh"
#include "isa/builder.hh"
#include "sweep/sweep.hh"

using namespace icicle;

namespace
{

struct NamedConfig
{
    std::string name;
    std::string core;
    CounterArch arch;
};

/** Every sweep core under every counter architecture. */
std::vector<NamedConfig>
allConfigs()
{
    std::vector<NamedConfig> configs;
    for (const std::string &core : sweepCoreNames()) {
        for (CounterArch arch : {CounterArch::Scalar, CounterArch::AddWires,
                                 CounterArch::Distributed}) {
            // Config names spell the architecture without its hyphen.
            std::string arch_name = counterArchName(arch);
            std::erase(arch_name, '-');
            configs.push_back({core + "-" + arch_name, core, arch});
        }
    }
    return configs;
}

/** Minimal program: construction needs code, linting never runs it. */
Program
stubProgram()
{
    ProgramBuilder b("lint-stub");
    b.halt();
    return b.build();
}

LintReport
lintConfig(const NamedConfig &config, const Program &program)
{
    // Construct without the fail-fast gate: the lint *is* the check
    // and we want the full report, not the first fatal().
    ScopedLintDisable no_gate;
    std::unique_ptr<Core> core =
        makeSweepCore(config.core, config.arch, program);

    LintReport report = lintCore(*core);

    // Validate the standard TMA request (with the level-3 extension)
    // against this config's counter budget.
    std::vector<EventId> tma_request;
    for (const TmaInput &in : kTmaInputs)
        tma_request.push_back(in.event(core->kind()));
    report.merge(lintPerfRequest(*core, tma_request));
    return report;
}

constexpr char kUsage[] =
    "usage: icicle-lint [--json] [--quiet] [--list] "
    "[--sarif FILE] [config ...]\n";

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    bool quiet = false;
    std::string sarif_path;
    std::vector<std::string> selected;

    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--sarif") {
            if (i + 1 >= argc)
                return cli::missingValue(arg, kUsage);
            sarif_path = argv[++i];
        } else if (arg == "--list") {
            for (const NamedConfig &config : allConfigs())
                std::printf("%s\n", config.name.c_str());
            return 0;
        } else if (cli::isHelp(arg)) {
            return cli::usageExit(stdout, kUsage);
        } else if (!arg.empty() && arg[0] == '-') {
            return cli::unknownOption(arg, kUsage);
        } else {
            selected.push_back(arg);
        }
    }

    const std::vector<NamedConfig> configs = allConfigs();
    std::vector<const NamedConfig *> to_lint;
    for (const std::string &name : selected) {
        const NamedConfig *found = nullptr;
        for (const NamedConfig &config : configs) {
            if (config.name == name)
                found = &config;
        }
        if (!found) {
            std::fprintf(stderr, "unknown config '%s' (--list shows "
                                 "known names)\n",
                         name.c_str());
            return 2;
        }
        to_lint.push_back(found);
    }
    if (to_lint.empty()) {
        for (const NamedConfig &config : configs)
            to_lint.push_back(&config);
    }

    const Program program = stubProgram();
    u32 total_errors = 0;
    u32 total_warnings = 0;
    bool first = true;

    std::vector<std::pair<std::string, LintReport>> sarif_reports;
    if (json) {
        std::printf("[");
    }
    for (const NamedConfig *config : to_lint) {
        const LintReport report = lintConfig(*config, program);
        total_errors += report.errorCount();
        total_warnings += report.count(Severity::Warn);
        if (!sarif_path.empty())
            sarif_reports.emplace_back(config->name, report);

        if (json) {
            std::printf("%s{\"config\":\"%s\",\"report\":%s}",
                        first ? "" : ",", config->name.c_str(),
                        report.toJson().c_str());
        } else {
            const bool clean = report.errorCount() == 0;
            std::printf("%-24s %s (%u errors, %u warnings, %u notes)\n",
                        config->name.c_str(), clean ? "ok" : "FAIL",
                        report.errorCount(),
                        report.count(Severity::Warn),
                        report.count(Severity::Info));
            if (!quiet && !report.empty()) {
                for (const Diagnostic &diag : report.diagnostics()) {
                    if (diag.severity == Severity::Info && clean)
                        continue;
                    std::printf("  %s\n",
                                (std::string(severityName(
                                     diag.severity)) +
                                 " [" + diag.rule + "] " + diag.subject +
                                 ": " + diag.message)
                                    .c_str());
                }
            }
        }
        first = false;
    }
    if (json) {
        std::printf("]\n");
    } else {
        std::printf("%u config(s) linted: %u errors, %u warnings\n",
                    static_cast<u32>(to_lint.size()), total_errors,
                    total_warnings);
    }
    if (!sarif_path.empty()) {
        try {
            writeSarif("icicle-lint", sarif_reports, sarif_path);
        } catch (const FatalError &err) {
            std::fprintf(stderr, "fatal: %s\n", err.what());
            return 2;
        }
    }
    return total_errors > 0 ? 1 : 0;
}
