#include "perf/harness.hh"

#include <algorithm>

#include "analysis/lint.hh"
#include "common/logging.hh"

namespace icicle
{

PerfHarness::PerfHarness(Core &core) : core(core)
{}

void
PerfHarness::addEvent(EventId event)
{
    const EventInfo info = eventInfo(core.kind(), event);
    if (!info.supported) {
        fatal("event ", eventName(event), " not supported on ",
              core.name());
    }
    if (std::find(requested.begin(), requested.end(), event) ==
        requested.end())
        requested.push_back(event);
}

void
PerfHarness::addTmaEvents(bool level3)
{
    for (const TmaInput &in : kTmaInputs) {
        if (level3 || !in.level3)
            addEvent(in.event(core.kind()));
    }
}

void
PerfHarness::allocate()
{
    // Static config validation before any counter is programmed:
    // fail fast on budget violations, duplicate mappings, and
    // unsupported or reserved events.
    enforceLint(lintPerfRequest(core, requested),
                "PerfHarness::allocate");

    allocations.clear();
    const bool per_lane_counters =
        core.csrFile().arch() == CounterArch::Scalar;

    // Build the flat list of (event, lane) counter needs.
    std::vector<PerfAllocation> flat;
    for (EventId event : requested) {
        const u32 sources = core.bus().sourcesOf(event);
        if (per_lane_counters && sources > 1) {
            for (u32 lane = 1; lane <= sources; lane++)
                flat.push_back(PerfAllocation{event, lane, 0, 0, 0});
        } else {
            flat.push_back(PerfAllocation{event, 0, 0, 0, 0});
        }
    }

    // Pack into groups of at most numHpm counters. Lanes of one event
    // stay in the same group so their sum is coherent.
    u32 group = 0;
    u32 index = 0;
    for (u64 i = 0; i < flat.size();) {
        // Count lanes of the same event.
        u64 span = 1;
        while (i + span < flat.size() &&
               flat[i + span].event == flat[i].event)
            span++;
        if (span > csr::numHpm)
            fatal("event needs more counters than exist");
        if (index + span > csr::numHpm) {
            group++;
            index = 0;
        }
        for (u64 s = 0; s < span; s++) {
            flat[i + s].group = group;
            flat[i + s].hpmIndex = index++;
        }
        i += span;
    }
    groupCount = group + 1;
    maxGroupSize = 0;
    std::vector<u32> sizes(groupCount, 0);
    for (const PerfAllocation &alloc : flat) {
        sizes[alloc.group] = std::max(sizes[alloc.group],
                                      alloc.hpmIndex + 1);
    }
    for (u32 size : sizes)
        maxGroupSize = std::max(maxGroupSize, size);

    allocations = std::move(flat);
    groupCycles.assign(groupCount, 0);
    allocated = true;
    active = 0;
    epochStart = core.cycle();
}

void
PerfHarness::programGroup(u32 group)
{
    CsrFile &csrs = core.csrFile();
    // Steps (1)-(3): enable and configure each counter in the group;
    // step (4): clear the inhibit bit.
    csrs.setInhibit(true);
    for (u32 i = 0; i < csr::numHpm; i++)
        csrs.writeCsr(csr::mhpmevent3 + i, 0);
    for (const PerfAllocation &alloc : allocations) {
        if (alloc.group != group)
            continue;
        const EventInfo info = eventInfo(core.kind(), alloc.event);
        const int bit = maskBitOf(core.kind(), alloc.event);
        ICICLE_ASSERT(bit >= 0, "event missing from set");
        csrs.writeCsr(csr::mhpmevent3 + alloc.hpmIndex,
                      csr::selector(info.set, 1ull << bit,
                                    alloc.lanePlusOne));
        csrs.writeCsr(csr::mhpmcounter3 + alloc.hpmIndex, 0);
    }
    csrs.setInhibit(false);
}

void
PerfHarness::harvestGroup(u32 group)
{
    CsrFile &csrs = core.csrFile();
    for (PerfAllocation &alloc : allocations) {
        if (alloc.group != group)
            continue;
        alloc.accumulated += csrs.hpmCorrected(alloc.hpmIndex);
        // Latch reliability flags before reprogramming clears them:
        // one bad epoch taints the whole accumulated value.
        alloc.saturated |= csrs.hpmSaturated(alloc.hpmIndex);
        alloc.armedWrite |= csrs.hpmArmedWrite(alloc.hpmIndex);
    }
}

u64
PerfHarness::run(u64 max_cycles, u64 epoch)
{
    if (!allocated)
        allocate();

    // The previous call harvested the active group; programming it
    // again zeroes its counters without moving its epoch.
    u64 simulated = 0;
    programGroup(active);
    Cycle harvested_at = core.cycle();

    while (!core.done() && simulated < max_cycles) {
        u64 budget = max_cycles - simulated;
        if (groupCount > 1) {
            // Stop at the epoch's end. A span never crosses a run()
            // bound, so each rotation lands on the cycle it would if
            // the core advanced one cycle at a time.
            const u64 elapsed = core.cycle() - epochStart;
            budget = std::min(budget, std::max<u64>(1, epoch - elapsed));
        }
        simulated += core.run(budget);
        if (groupCount > 1 && core.cycle() - epochStart >= epoch) {
            harvestGroup(active);
            groupCycles[active] += core.cycle() - harvested_at;
            active = (active + 1) % groupCount;
            programGroup(active);
            epochStart = harvested_at = core.cycle();
        }
    }
    harvestGroup(active);
    groupCycles[active] += core.cycle() - harvested_at;
    totalCycles += simulated;
    return simulated;
}

u64
PerfHarness::value(EventId event) const
{
    u64 total = 0;
    u32 group = 0;
    bool found = false;
    for (const PerfAllocation &alloc : allocations) {
        if (alloc.event != event)
            continue;
        total += alloc.accumulated;
        group = alloc.group;
        found = true;
    }
    if (!found)
        return 0;
    // Scale for multiplexing: extrapolate from the group's duty cycle.
    if (groupCount > 1 && groupCycles[group] > 0 && totalCycles > 0) {
        const double scale = static_cast<double>(totalCycles) /
                             static_cast<double>(groupCycles[group]);
        return static_cast<u64>(static_cast<double>(total) * scale);
    }
    return total;
}

std::vector<UnreliableEvent>
PerfHarness::unreliableEvents() const
{
    std::vector<UnreliableEvent> out;
    for (const PerfAllocation &alloc : allocations) {
        // Cycles passed but this group was never programmed: value()
        // reads 0 whatever the event did.
        const bool not_counted =
            totalCycles > 0 && groupCycles[alloc.group] == 0;
        if (!alloc.saturated && !alloc.armedWrite && !not_counted)
            continue;
        // Any tainted lane taints the event's aggregate.
        UnreliableEvent *entry = nullptr;
        for (UnreliableEvent &e : out) {
            if (e.event == alloc.event)
                entry = &e;
        }
        if (!entry) {
            out.push_back(UnreliableEvent{alloc.event});
            entry = &out.back();
        }
        entry->saturated |= alloc.saturated;
        entry->armedWrite |= alloc.armedWrite;
        entry->notCounted |= not_counted;
    }
    return out;
}

bool
PerfHarness::anyUnreliable() const
{
    return !unreliableEvents().empty();
}

TmaCounters
PerfHarness::tmaCounters() const
{
    TmaCounters c;
    c.cycles = core.csrFile().cycles();
    for (const TmaInput &in : kTmaInputs)
        c.*in.field = value(in.event(core.kind()));
    return c;
}

} // namespace icicle
