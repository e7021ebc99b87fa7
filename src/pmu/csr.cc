#include "pmu/csr.hh"

#include <bit>

#include "common/logging.hh"
#include "pmu/mutants.hh"

namespace icicle
{

CsrFile::CsrFile(CoreKind core, CounterArch arch, const EventBus *bus)
    : coreKind(core), counterArch(arch), busGeometry(bus)
{}

void
CsrFile::decodeSelector(Hpm &hpm, u64 value)
{
    hpm.selector = value;
    hpm.sources.clear();
    hpm.machine = makeMachine(counterArch, 0);
    hpm.saturated = false;
    hpm.armedWrite = false;
    hpm.watchedEvents = 0;
    if (value == 0)
        return;

    const u32 set_id = static_cast<u32>(value & 0xff);
    u64 mask = (value >> 8) & ((1ull << 48) - 1);
    if (ICICLE_MUTANT(MaskWidthTruncation))
        mask &= 0xF;
    const u32 lane_plus_one = static_cast<u32>(value >> 56) & 0x3f;

    if (set_id >= static_cast<u32>(EventSetId::NumSets)) {
        warn("mhpmevent selects unknown event set ", set_id);
        return;
    }

    const std::vector<EventId> set_events =
        eventsInSet(coreKind, static_cast<EventSetId>(set_id));
    for (u64 bit = 0; bit < set_events.size() && bit < 48; bit++) {
        if (!(mask & (1ull << bit)))
            continue;
        const EventId event = set_events[bit];
        const u32 n_sources = busGeometry->sourcesOf(event);
        if (lane_plus_one) {
            if (lane_plus_one - 1 < n_sources) {
                hpm.sources.emplace_back(
                    event, static_cast<u8>(lane_plus_one - 1));
            }
        } else {
            for (u32 s = 0; s < n_sources; s++)
                hpm.sources.emplace_back(event, static_cast<u8>(s));
        }
    }

    ICICLE_ASSERT(hpm.sources.size() <= 64,
                  "a counter's source mask holds 64 sources");
    for (const auto &[event, source] : hpm.sources)
        hpm.watchedEvents |= 1ull << static_cast<u32>(event);
    hpm.machine = makeMachine(counterArch,
                              static_cast<u32>(hpm.sources.size()));
}

u64
CsrFile::sample(const Hpm &hpm, const EventBus &bus)
{
    // The gather only matters when one of the watched events was
    // raised this cycle; the machine must still step on an all-zero
    // mask (the distributed rotation advances every cycle).
    u64 high = 0;
    if (bus.dirty() & hpm.watchedEvents) {
        for (u64 s = 0; s < hpm.sources.size(); s++) {
            const auto &[event, source] = hpm.sources[s];
            if (bus.mask(event) & (1u << source))
                high |= 1ull << s;
        }
    }
    return high;
}

void
CsrFile::recomputeConfigured()
{
    configuredMask = 0;
    for (u32 i = 0; i < csr::numHpm; i++) {
        if (!hpms[i].sources.empty())
            configuredMask |= 1u << i;
    }
}

u32
CsrFile::liveCounters() const
{
    u32 live = configuredMask;
    if (!ICICLE_MUTANT(InhibitRace))
        live &= ~static_cast<u32>(inhibitMask >> 3);
    return live;
}

void
CsrFile::tick(const EventBus &bus)
{
    if (!(inhibitMask & 1ull))
        mcycleValue++;
    if (!(inhibitMask & 4ull))
        minstretValue += bus.count(EventId::InstRetired);
    // Only counters that are both configured and live step.
    for (u32 live = liveCounters(); live; live &= live - 1) {
        Hpm &hpm = hpms[std::countr_zero(live)];
        const u64 high = sample(hpm, bus);
        hpm.saturated |= std::visit(
            [high](auto &machine) { return machine.step(high); },
            hpm.machine);
    }
}

void
CsrFile::tick(const EventBus &bus, u64 cycles)
{
    if (!(inhibitMask & 1ull))
        mcycleValue += cycles;
    if (!(inhibitMask & 4ull))
        minstretValue += cycles * bus.count(EventId::InstRetired);
    for (u32 live = liveCounters(); live; live &= live - 1) {
        Hpm &hpm = hpms[std::countr_zero(live)];
        const u64 high = sample(hpm, bus);
        hpm.saturated |= std::visit(
            [high, cycles](auto &machine) {
                return machine.step(high, cycles);
            },
            hpm.machine);
    }
}

u64
CsrFile::readCsr(u32 addr)
{
    if (addr == csr::mcycle || addr == csr::cycle)
        return mcycleValue;
    if (addr == csr::minstret || addr == csr::instret)
        return minstretValue;
    if (addr >= csr::mhpmcounter3 &&
        addr < csr::mhpmcounter3 + csr::numHpm)
        return readHpmInBand(addr - csr::mhpmcounter3);
    if (addr >= csr::hpmcounter3 && addr < csr::hpmcounter3 + csr::numHpm)
        return readHpmInBand(addr - csr::hpmcounter3);
    if (addr >= csr::mhpmevent3 && addr < csr::mhpmevent3 + csr::numHpm)
        return hpms[addr - csr::mhpmevent3].selector;
    if (addr == csr::mcountinhibit)
        return inhibitMask;
    return 0;
}

void
CsrFile::writeCsr(u32 addr, u64 value)
{
    if (addr == csr::mcycle) {
        mcycleValue = value;
        return;
    }
    if (addr == csr::minstret) {
        minstretValue = value;
        return;
    }
    if (addr >= csr::mhpmcounter3 &&
        addr < csr::mhpmcounter3 + csr::numHpm) {
        const u32 index = addr - csr::mhpmcounter3;
        Hpm &hpm = hpms[index];
        // Writing a counter resets all architecture-internal state;
        // only value 0 is meaningful for the distributed design.
        if (!ICICLE_MUTANT(CounterWriteKeepsResidue)) {
            const u64 selector = hpm.selector;
            decodeSelector(hpm, selector);
        }
        std::visit([value](auto &machine) { machine.write(value); },
                   hpm.machine);
        // §IV-D requires inhibiting before reconfiguration; a write
        // that lands while the counter is armed races the increment
        // logic in hardware, so latch it (after the decode above,
        // which clears the flags for a clean reprogram).
        if (!(inhibitMask & (1ull << (index + 3))))
            hpm.armedWrite = true;
        return;
    }
    if (addr >= csr::mhpmevent3 && addr < csr::mhpmevent3 + csr::numHpm) {
        const u32 index = addr - csr::mhpmevent3;
        decodeSelector(hpms[index], value);
        recomputeConfigured();
        if (!(inhibitMask & (1ull << (index + 3))))
            hpms[index].armedWrite = true;
        return;
    }
    if (addr == csr::mcountinhibit) {
        inhibitMask = value;
        return;
    }
}

u64
CsrFile::readHpmInBand(u32 index)
{
    if (configuredMask & (1u << index))
        configuredRead = true;
    return hpmValue(index);
}

u64
CsrFile::hpmValue(u32 index) const
{
    ICICLE_ASSERT(index < csr::numHpm, "hpm index out of range");
    return std::visit([](const auto &machine) { return machine.read(); },
                      hpms[index].machine);
}

u64
CsrFile::hpmCorrected(u32 index) const
{
    ICICLE_ASSERT(index < csr::numHpm, "hpm index out of range");
    return std::visit(
        [](const auto &machine) { return machine.corrected(); },
        hpms[index].machine);
}

void
CsrFile::program(u32 index, const std::vector<EventId> &events,
                 u32 lane_plus_one)
{
    ICICLE_ASSERT(index < csr::numHpm, "hpm index out of range");
    if (events.empty())
        fatal("programming a counter with no events");
    const EventSetId set = eventInfo(coreKind, events[0]).set;
    u64 mask = 0;
    for (EventId event : events) {
        const EventInfo info = eventInfo(coreKind, event);
        if (!info.supported)
            fatal("event ", eventName(event), " not supported on core");
        if (info.set != set) {
            fatal("events mapped to one counter must share an event "
                  "set: ",
                  eventName(events[0]), " vs ", eventName(event));
        }
        const int bit = maskBitOf(coreKind, event);
        ICICLE_ASSERT(bit >= 0, "event missing from its set");
        mask |= 1ull << bit;
    }
    writeCsr(csr::mhpmevent3 + index, csr::selector(set, mask,
                                                    lane_plus_one));
    writeCsr(csr::mhpmcounter3 + index, 0);
}

void
CsrFile::programEvent(u32 index, EventId event)
{
    program(index, {event});
}

void
CsrFile::setInhibit(bool inhibit)
{
    inhibitMask = inhibit ? ~0ull : 0ull;
}

void
CsrFile::clearCounters()
{
    mcycleValue = 0;
    minstretValue = 0;
    for (Hpm &hpm : hpms) {
        const u64 selector = hpm.selector;
        decodeSelector(hpm, selector);
    }
    recomputeConfigured();
}

CounterMachine
CsrFile::snapshotHpm(u32 index) const
{
    ICICLE_ASSERT(index < csr::numHpm, "hpm index out of range");
    return hpms[index].machine;
}

void
CsrFile::restoreHpm(u32 index, const CounterMachine &machine)
{
    ICICLE_ASSERT(index < csr::numHpm, "hpm index out of range");
    Hpm &hpm = hpms[index];
    ICICLE_ASSERT(machine.index() == hpm.machine.index(),
                  "snapshot of another counter architecture");
    hpm.machine = machine;
}

void
CsrFile::stepHpm(u32 index, u64 source_mask)
{
    ICICLE_ASSERT(index < csr::numHpm, "hpm index out of range");
    Hpm &hpm = hpms[index];
    if (hpm.sources.empty())
        return;
    if (!(inhibitMask & (1ull << (index + 3))) ||
        ICICLE_MUTANT(InhibitRace)) {
        hpm.saturated |= std::visit(
            [source_mask](auto &machine) {
                return machine.step(source_mask);
            },
            hpm.machine);
    }
}

bool
CsrFile::hpmSaturated(u32 index) const
{
    ICICLE_ASSERT(index < csr::numHpm, "hpm index out of range");
    return hpms[index].saturated;
}

bool
CsrFile::hpmArmedWrite(u32 index) const
{
    ICICLE_ASSERT(index < csr::numHpm, "hpm index out of range");
    return hpms[index].armedWrite;
}

} // namespace icicle
