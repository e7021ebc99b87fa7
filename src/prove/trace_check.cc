#include "prove/trace_check.hh"

#include <algorithm>
#include <bit>
#include <sstream>
#include <vector>

#include "analysis/constraints.hh"
#include "common/logging.hh"
#include "core/core.hh"
#include "pmu/csr.hh"
#include "store/store.hh"
#include "sweep/sweep.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

namespace icicle
{

namespace
{

constexpr u32 kMaxFindingsPerRule = 5;

/** Rate-limited Error reporter for one rule id. */
class RuleSink
{
  public:
    RuleSink(LintReport &report, const char *rule,
             std::string subject)
        : out(report), ruleId(rule), subj(std::move(subject))
    {}

    void
    add(const std::string &message)
    {
        hits++;
        if (hits <= kMaxFindingsPerRule) {
            out.add(ruleId, Severity::Error, message, subj);
        } else if (hits == kMaxFindingsPerRule + 1) {
            out.add(ruleId, Severity::Warn,
                    "further violations of this rule suppressed "
                    "(witnesses above are representative)",
                    subj);
        }
    }

    u64 count() const { return hits; }

  private:
    LintReport &out;
    const char *ruleId;
    std::string subj;
    u64 hits = 0;
};

/** Field indices of an event, ordered by lane; empty if not traced. */
std::vector<u32>
laneFields(const TraceSpec &spec, EventId event)
{
    std::vector<std::pair<u8, u32>> found;
    for (u32 f = 0; f < spec.numFields(); f++) {
        if (spec.fields[f].event == event)
            found.emplace_back(spec.fields[f].lane, f);
    }
    std::sort(found.begin(), found.end());
    // Require exactly lanes 0..n-1 so a lane index equals its rank.
    std::vector<u32> fields;
    for (u32 i = 0; i < found.size(); i++) {
        if (found[i].first != i)
            return {};
        fields.push_back(found[i].second);
    }
    return fields;
}

u64
maskOf(const std::vector<u32> &fields)
{
    u64 mask = 0;
    for (u32 f : fields)
        mask |= 1ull << f;
    return mask;
}

/** Is the set bit pattern one contiguous run (or empty)? */
bool
contiguous(u64 mask)
{
    if (mask == 0)
        return true;
    const u64 lsb = mask & (~mask + 1);
    return ((mask + lsb) & mask) == 0;
}

} // namespace

TraceCheckStats
checkStoreInvariants(const StoreReader &reader, LintReport &report)
{
    const TraceSpec &spec = reader.spec();
    TraceCheckStats stats;
    stats.cycles = reader.numCycles();
    stats.fields = spec.numFields();

    const std::vector<u32> bubble_fields =
        laneFields(spec, EventId::FetchBubbles);
    const std::vector<u32> retired_fields_boom =
        laneFields(spec, EventId::UopsRetired);
    const std::vector<u32> retired_fields_rocket =
        laneFields(spec, EventId::InstRetired);
    const std::vector<u32> &retired_fields =
        retired_fields_boom.empty() ? retired_fields_rocket
                                    : retired_fields_boom;
    stats.boomShaped =
        spec.fieldMask(EventId::UopsIssued) != 0 ||
        !retired_fields_boom.empty();
    stats.coreWidth = std::max<u32>(
        1, std::max(static_cast<u32>(bubble_fields.size()),
                    static_cast<u32>(retired_fields.size())));

    RuleSink t1(report, "PROVE-T1", "store");
    RuleSink t2(report, "PROVE-T2", "store");
    RuleSink t3(report, "PROVE-T3", "store");
    RuleSink t5(report, "PROVE-T5", "store");
    RuleSink t6(report, "PROVE-T6", "store");

    if (stats.cycles == 0) {
        t1.add("store holds zero cycles; nothing to verify");
        stats.rulesRun = "T1";
        return stats;
    }

    // ---- PROVE-T1: footer sanity (no plane decode) -----------------
    for (u32 f = 0; f < spec.numFields(); f++) {
        const TraceField &field = spec.fields[f];
        const u64 pop = reader.count(field.event, field.lane);
        if (pop > stats.cycles) {
            std::ostringstream os;
            os << "field " << eventName(field.event) << "["
               << static_cast<u32>(field.lane) << "] popcount " << pop
               << " exceeds trace length " << stats.cycles;
            t1.add(os.str());
        }
        if (field.event == EventId::Cycles && pop != stats.cycles) {
            std::ostringstream os;
            os << "Cycles signal high " << pop << " of "
               << stats.cycles
               << " cycles; the cycle strobe must assert every cycle";
            t1.add(os.str());
        }
    }

    // ---- decoded scan: PROVE-T2, T3, and T6 popcounts --------------
    const u64 recovering_mask =
        spec.fieldMask(EventId::Recovering);
    const u64 bubble_mask = maskOf(bubble_fields);
    const bool run_t2 =
        stats.boomShaped && bubble_mask != 0 && recovering_mask != 0;
    const bool run_t3 =
        stats.boomShaped && bubble_fields.size() > 1;

    std::vector<u64> decoded_pop(spec.numFields(), 0);
    reader.forEachCycleWord(0, stats.cycles, [&](u64 cycle, u64 word) {
        for (u32 f = 0; f < spec.numFields(); f++)
            decoded_pop[f] += (word >> f) & 1;

        if (run_t2 && (word & recovering_mask) != 0 &&
            (word & bubble_mask) != 0) {
            std::ostringstream os;
            os << "cycle " << cycle
               << " asserts fetch-bubbles and recovering together; "
                  "the slot would be attributed to both Frontend and "
                  "Bad Speculation";
            t2.add(os.str());
        }
        if (run_t3) {
            u64 lanes = 0;
            for (u32 i = 0; i < bubble_fields.size(); i++)
                lanes |= ((word >> bubble_fields[i]) & 1) << i;
            if (!contiguous(lanes)) {
                std::ostringstream os;
                os << "cycle " << cycle
                   << " asserts a non-contiguous fetch-bubble lane "
                      "set 0b";
                for (u32 i =
                         static_cast<u32>(bubble_fields.size());
                     i-- > 0;)
                    os << ((lanes >> i) & 1);
                os << "; decode fills lanes in order";
                t3.add(os.str());
            }
        }
    });

    // ---- PROVE-T6: decoded popcounts match footers ----------------
    for (u32 f = 0; f < spec.numFields(); f++) {
        const TraceField &field = spec.fields[f];
        const u64 footer = reader.count(field.event, field.lane);
        if (decoded_pop[f] != footer) {
            std::ostringstream os;
            os << "field " << eventName(field.event) << "["
               << static_cast<u32>(field.lane)
               << "]: decoded popcount " << decoded_pop[f]
               << " != footer popcount " << footer
               << " (codec or footer corruption)";
            t6.add(os.str());
        }
    }

    // ---- PROVE-T5: the PROVE-R4 set on the whole-window TMA ---------
    const bool run_t5 =
        !bubble_fields.empty() && !retired_fields.empty();
    if (run_t5) {
        TmaParams params;
        params.coreWidth = stats.coreWidth;
        const TmaResult tma =
            reader.windowTma(0, stats.cycles, stats.coreWidth);
        for (const TmaConstraint &c : deriveTmaConstraints(params)) {
            double excess = 0;
            if (satisfiesTma(c, tma, &excess))
                continue;
            std::ostringstream os;
            os << c.id << " refuted: " << c.text << " fails by "
               << excess << " | derived from: " << c.provenance;
            t5.add(os.str());
        }
    }

    std::ostringstream rules;
    rules << "T1";
    if (run_t2)
        rules << " T2";
    if (run_t3)
        rules << " T3";
    if (run_t5)
        rules << " T5";
    rules << " T6";
    stats.rulesRun = rules.str();
    return stats;
}

// ----------------------------------------------------- PROVE-T4 live

LiveCheckStats
proveLiveCrossCheck(const LiveCheckOptions &options,
                    LintReport &report)
{
    const Program program = buildWorkload(options.workload);
    std::unique_ptr<Core> core =
        makeSweepCore(options.coreName, options.arch, program);

    std::ostringstream subj;
    subj << "live/" << options.coreName << "/"
         << counterArchName(options.arch) << "/" << options.workload;
    RuleSink t4(report, "PROVE-T4", subj.str());

    const EventId retired = core->kind() == CoreKind::Boom
                                ? EventId::UopsRetired
                                : EventId::InstRetired;
    const std::vector<EventId> checked = {
        EventId::FetchBubbles, EventId::Recovering,
        EventId::BranchMispredict, retired};

    // Program CSR counters over the checked events. The Scalar
    // architecture's multi-source mapping is the legacy OR (at most
    // one count per cycle), so multi-lane events get one counter per
    // lane there — the Table V per-lane mapping — and their lane
    // counters are summed at readout.
    CsrFile &csrs = core->csrFile();
    struct Programmed
    {
        EventId event;
        std::vector<u32> counters;
    };
    std::vector<Programmed> programmed;
    u32 next = 0;
    for (EventId event : checked) {
        const u32 lanes = core->bus().sourcesOf(event);
        Programmed entry;
        entry.event = event;
        if (options.arch == CounterArch::Scalar && lanes > 1) {
            for (u32 lane = 0; lane < lanes; lane++) {
                csrs.program(next, {event}, lane + 1);
                entry.counters.push_back(next++);
            }
        } else {
            csrs.programEvent(next, event);
            entry.counters.push_back(next++);
        }
        programmed.push_back(std::move(entry));
    }
    csrs.setInhibit(false);

    // Capture the TMA bundle from the same bus the counters sample.
    const TraceSpec spec = TraceSpec::tmaBundle(*core);
    Trace trace(spec);
    const u64 cycles = core->run(
        options.maxCycles, [&trace](Cycle, const EventBus &bus) {
            trace.capture(bus);
        });

    LiveCheckStats stats;
    stats.cycles = cycles;
    stats.countersProgrammed = next;
    for (const Programmed &entry : programmed) {
        u64 csr_total = 0;
        for (u32 index : entry.counters)
            csr_total += csrs.hpmCorrected(index);
        const u64 ground = core->total(entry.event);
        const u64 traced = trace.countAllLanes(entry.event);
        stats.eventsChecked++;
        if (csr_total != ground) {
            std::ostringstream os;
            os << eventName(entry.event) << ": CSR corrected total "
               << csr_total << " != host ground-truth total "
               << ground << " over " << cycles << " cycles";
            t4.add(os.str());
        }
        if (traced != ground) {
            std::ostringstream os;
            os << eventName(entry.event) << ": trace popcount "
               << traced << " != host ground-truth total " << ground
               << " over " << cycles << " cycles";
            t4.add(os.str());
        }
    }
    return stats;
}

} // namespace icicle
