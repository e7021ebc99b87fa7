#include "spans.hh"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "common/logging.hh"

namespace perfbench
{

using icicle::i64;
using icicle::u64;

i64
SpanLog::add(const std::string &layer, u64 id, i64 parent,
             double start, double end)
{
    entries.push_back(Span{layer, id, parent, start, end});
    return static_cast<i64>(entries.size()) - 1;
}

void
SpanLog::finish(i64 index, double end)
{
    entries.at(static_cast<size_t>(index)).end = end;
}

void
SpanLog::merge(const SpanLog &other)
{
    const i64 base = static_cast<i64>(entries.size());
    for (Span span : other.entries) {
        if (span.parent != kNoParent)
            span.parent += base;
        entries.push_back(std::move(span));
    }
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &span : spans) {
        if (span.parent == kNoParent)
            continue;
        const Span &parent = spans.at(static_cast<size_t>(span.parent));
        const double start = std::max(span.start, parent.start);
        const double end = std::min(span.end, parent.end);
        if (end > start)
            children[static_cast<size_t>(span.parent)].emplace_back(start,
                                                                   end);
    }
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); i++) {
        std::vector<std::pair<double, double>> &kids = children[i];
        std::sort(kids.begin(), kids.end());
        // Union of the clipped child intervals, so overlapping
        // children are not subtracted twice.
        double covered = 0;
        double run_start = 0, run_end = 0;
        bool open = false;
        for (const auto &[start, end] : kids) {
            if (open && start <= run_end) {
                run_end = std::max(run_end, end);
                continue;
            }
            if (open)
                covered += run_end - run_start;
            run_start = start;
            run_end = end;
            open = true;
        }
        if (open)
            covered += run_end - run_start;
        self[i] = spans[i].duration() - covered;
    }
    return self;
}

double
unattributedShare(double total, double attributed)
{
    return total == 0 ? 0 : (total - attributed) / total;
}

void
writeSpans(const std::vector<Span> &spans, const std::string &path)
{
    std::unique_ptr<std::FILE, int (*)(std::FILE *)> out(
        std::fopen(path.c_str(), "w"), &std::fclose);
    if (!out)
        icicle::fatal("cannot write spans to ", path);
    const std::vector<double> self = selfTimes(spans);
    for (size_t i = 0; i < spans.size(); i++) {
        const Span &span = spans[i];
        std::fprintf(out.get(),
                     "{\"span\": %zu, \"layer\": \"%s\", \"id\": %llu, "
                     "\"parent\": %lld, \"start_s\": %.9f, "
                     "\"end_s\": %.9f, \"self_s\": %.9f}\n",
                     i, span.layer.c_str(),
                     static_cast<unsigned long long>(span.id),
                     static_cast<long long>(span.parent), span.start,
                     span.end, self[i]);
    }
}

} // namespace perfbench
