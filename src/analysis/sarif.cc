#include "analysis/sarif.hh"

#include <fstream>
#include <set>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"

namespace icicle
{

namespace
{

/** SARIF "level" for a severity. */
const char *
sarifLevel(Severity severity)
{
    switch (severity) {
      case Severity::Info: return "note";
      case Severity::Warn: return "warning";
      case Severity::Error: return "error";
      default: return "none";
    }
}

/**
 * Source file implementing the invariant a rule family checks —
 * where a violation would have to be fixed, and where GitHub anchors
 * the code-scanning annotation.
 */
const char *
ruleUri(const std::string &rule)
{
    if (rule.rfind("PROVE-C", 0) == 0)
        return "src/prove/prove.cc";
    if (rule.rfind("PROVE-T", 0) == 0)
        return "src/prove/trace_check.cc";
    if (rule.rfind("PROVE-R", 0) == 0)
        return "src/prove/refute.cc";
    if (rule.rfind("REF-", 0) == 0)
        return "src/analysis/constraints.cc";
    if (rule.rfind("SYNC-", 0) == 0)
        return "src/common/lockorder.cc";
    if (rule.rfind("EVT-", 0) == 0)
        return "src/pmu/event.cc";
    if (rule.rfind("CSR-", 0) == 0)
        return "src/pmu/csr.cc";
    if (rule.rfind("CNT-", 0) == 0)
        return "src/pmu/counters.cc";
    if (rule.rfind("TMA-", 0) == 0)
        return "src/tma/tma.cc";
    return "src/analysis/lint.cc";
}

} // namespace

std::string
toSarif(const std::string &tool_name,
        const std::vector<std::pair<std::string, LintReport>> &reports)
{
    // Collect the distinct rule ids for the tool.driver.rules table.
    std::set<std::string> rules;
    for (const auto &[subject, report] : reports) {
        for (const Diagnostic &diag : report.diagnostics())
            rules.insert(diag.rule);
    }

    std::ostringstream os;
    os << "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0."
          "json\",\"version\":\"2.1.0\",\"runs\":[{\"tool\":"
          "{\"driver\":{\"name\":";
    os << jsonQuote(tool_name);
    os << ",\"informationUri\":\"https://github.com/icicle\","
          "\"rules\":[";
    bool first = true;
    for (const std::string &rule : rules) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"id\":";
        os << jsonQuote(rule);
        os << "}";
    }
    os << "]}},\"results\":[";

    first = true;
    for (const auto &[subject, report] : reports) {
        for (const Diagnostic &diag : report.diagnostics()) {
            if (!first)
                os << ",";
            first = false;
            std::string message = diag.message;
            std::string context = subject;
            if (!diag.subject.empty()) {
                context +=
                    context.empty() ? diag.subject : "/" + diag.subject;
            }
            if (!context.empty())
                message = "[" + context + "] " + message;
            os << "{\"ruleId\":";
            os << jsonQuote(diag.rule);
            os << ",\"level\":\"" << sarifLevel(diag.severity)
               << "\",\"message\":{\"text\":";
            os << jsonQuote(message);
            os << "},\"locations\":[{\"physicalLocation\":"
                  "{\"artifactLocation\":{\"uri\":";
            os << jsonQuote(ruleUri(diag.rule));
            os << ",\"uriBaseId\":\"SRCROOT\"},\"region\":{"
                  "\"startLine\":1}}}]}";
        }
    }
    os << "]}]}";
    return os.str();
}

void
writeSarif(const std::string &tool_name,
           const std::vector<std::pair<std::string, LintReport>> &reports,
           const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("cannot open SARIF output file ", path);
    out << toSarif(tool_name, reports) << "\n";
    if (!out)
        fatal("failed writing SARIF output file ", path);
}

} // namespace icicle
