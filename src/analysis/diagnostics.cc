#include "analysis/diagnostics.hh"

#include <sstream>

#include "common/json.hh"

namespace icicle
{

const char *
severityName(Severity severity)
{
    switch (severity) {
      case Severity::Info: return "info";
      case Severity::Warn: return "warn";
      case Severity::Error: return "error";
      default: return "?";
    }
}

void
LintReport::add(const char *rule, Severity severity, std::string message,
                std::string subject)
{
    diags.push_back(Diagnostic{rule, severity, std::move(message),
                               std::move(subject)});
}

void
LintReport::merge(const LintReport &other)
{
    diags.insert(diags.end(), other.diags.begin(), other.diags.end());
}

u32
LintReport::count(Severity severity) const
{
    u32 n = 0;
    for (const Diagnostic &diag : diags) {
        if (diag.severity == severity)
            n++;
    }
    return n;
}

std::vector<Diagnostic>
LintReport::byRule(const std::string &rule) const
{
    std::vector<Diagnostic> result;
    for (const Diagnostic &diag : diags) {
        if (diag.rule == rule)
            result.push_back(diag);
    }
    return result;
}

bool
LintReport::hasRule(const std::string &rule) const
{
    for (const Diagnostic &diag : diags) {
        if (diag.rule == rule)
            return true;
    }
    return false;
}

std::string
LintReport::format() const
{
    std::ostringstream os;
    for (const Diagnostic &diag : diags) {
        os << severityName(diag.severity) << " [" << diag.rule << "]";
        if (!diag.subject.empty())
            os << " " << diag.subject << ":";
        os << " " << diag.message << "\n";
    }
    return os.str();
}

std::string
LintReport::toJson() const
{
    std::ostringstream os;
    os << "{\"errors\":" << count(Severity::Error)
       << ",\"warnings\":" << count(Severity::Warn)
       << ",\"infos\":" << count(Severity::Info) << ",\"diagnostics\":[";
    bool first = true;
    for (const Diagnostic &diag : diags) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"rule\":";
        os << jsonQuote(diag.rule);
        os << ",\"severity\":\"" << severityName(diag.severity)
           << "\",\"subject\":";
        os << jsonQuote(diag.subject);
        os << ",\"message\":";
        os << jsonQuote(diag.message);
        os << "}";
    }
    os << "]}";
    return os.str();
}

} // namespace icicle
