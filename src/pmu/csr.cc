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
    hpm.value = 0;
    hpm.perSource.clear();
    hpm.local.clear();
    hpm.overflow.clear();
    hpm.select = 0;
    hpm.principal = 0;
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

    for (const auto &[event, source] : hpm.sources)
        hpm.watchedEvents |= 1ull << static_cast<u32>(event);

    const u64 n = hpm.sources.size();
    if (n == 0)
        return;
    hpm.perSource.assign(n, 0);
    // Distributed local width: ceil(log2(sources)), min 1.
    hpm.localWidth = 1;
    while ((1ull << hpm.localWidth) < n)
        hpm.localWidth++;
    hpm.wrap = 1ull << hpm.localWidth;
    hpm.local.assign(n, 0);
    hpm.overflow.assign(n, false);
}

void
CsrFile::tickHpm(Hpm &hpm, const EventBus &bus)
{
    u64 high = 0;
    // The gather only matters when one of the watched events was
    // raised this cycle; tickHpmMasked must still run on an all-zero
    // mask (the distributed rotation advances every cycle).
    if (bus.dirty() & hpm.watchedEvents) {
        const u64 n = hpm.sources.size();
        for (u64 s = 0; s < n && s < 64; s++) {
            const auto &[event, source] = hpm.sources[s];
            if (bus.mask(event) & (1u << source))
                high |= 1ull << s;
        }
    }
    tickHpmMasked(hpm, high);
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

void
CsrFile::tickHpmMasked(Hpm &hpm, u64 high)
{
    if (hpm.sources.empty())
        return;

    // hpmWidth-bit registers: an increment that carries past the
    // implemented width wraps, and the wrap is latched in the sticky
    // saturation flag (hardware would just lose the count).
    const auto bump = [&hpm](u64 &reg, u64 increment) {
        reg += increment;
        if (reg > csr::hpmValueMask) {
            reg &= csr::hpmValueMask;
            hpm.saturated = true;
        }
    };

    const u64 n = hpm.sources.size();
    switch (counterArch) {
      case CounterArch::Scalar: {
        // Legacy Chipyard semantics: the counter increments by one if
        // *any* mapped signal is high (Fig. 1); per-source shadow
        // registers implement the "one counter per lane" variant when
        // lane-select is used (then n == 1 and the two coincide).
        bool any = false;
        for (u64 s = 0; s < n; s++) {
            if (high & (1ull << s)) {
                bump(hpm.perSource[s], 1);
                any = true;
            }
        }
        if (any)
            bump(hpm.value, 1);
        break;
      }
      case CounterArch::AddWires: {
        // The adder chain sums the concatenated (width-padded)
        // increment signals of all mapped events.
        u64 increment = 0;
        for (u64 s = 0; s < n; s++) {
            if (high & (1ull << s))
                increment++;
        }
        bump(hpm.value, increment);
        break;
      }
      case CounterArch::Distributed: {
        for (u64 s = 0; s < n; s++) {
            if (high & (1ull << s)) {
                if (++hpm.local[s] == hpm.wrap) {
                    hpm.local[s] = 0;
                    hpm.overflow[s] = true;
                }
            }
        }
        if (hpm.overflow[hpm.select]) {
            hpm.overflow[hpm.select] = false;
            bump(hpm.principal, 1);
        }
        hpm.select = static_cast<u32>((hpm.select + 1) % n);
        break;
      }
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
    // Unconfigured counters are no-ops in tickHpm, so the per-cycle
    // loop only visits counters that are both configured and live.
    for (u32 live = liveCounters(); live; live &= live - 1)
        tickHpm(hpms[std::countr_zero(live)], bus);
}

void
CsrFile::tick(const EventBus &bus, u64 cycles)
{
    if (liveCounters()) {
        for (u64 c = 0; c < cycles; c++)
            tick(bus);
        return;
    }
    if (!(inhibitMask & 1ull))
        mcycleValue += cycles;
    if (!(inhibitMask & 4ull))
        minstretValue += cycles * bus.count(EventId::InstRetired);
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
        hpm.value = value;
        hpm.principal = value;
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
    const Hpm &hpm = hpms[index];
    return counterArch == CounterArch::Distributed ? hpm.principal
                                                   : hpm.value;
}

u64
CsrFile::hpmCorrected(u32 index) const
{
    ICICLE_ASSERT(index < csr::numHpm, "hpm index out of range");
    const Hpm &hpm = hpms[index];
    if (counterArch != CounterArch::Distributed)
        return hpm.value;
    u64 residue = 0;
    for (u64 s = 0; s < hpm.local.size(); s++) {
        residue += hpm.local[s];
        if (hpm.overflow[s])
            residue += hpm.wrap;
    }
    return hpm.principal * hpm.wrap + residue;
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

HpmState
CsrFile::snapshotHpm(u32 index) const
{
    ICICLE_ASSERT(index < csr::numHpm, "hpm index out of range");
    const Hpm &hpm = hpms[index];
    HpmState state;
    state.selector = hpm.selector;
    state.value = hpm.value;
    state.perSource = hpm.perSource;
    state.localWidth = hpm.localWidth;
    state.wrap = hpm.wrap;
    state.local = hpm.local;
    state.overflow.assign(hpm.overflow.size(), 0);
    for (u64 s = 0; s < hpm.overflow.size(); s++)
        state.overflow[s] = hpm.overflow[s] ? 1 : 0;
    state.select = hpm.select;
    state.principal = hpm.principal;
    return state;
}

void
CsrFile::restoreHpm(u32 index, const HpmState &state)
{
    ICICLE_ASSERT(index < csr::numHpm, "hpm index out of range");
    Hpm &hpm = hpms[index];
    // Re-derive the source wiring from the selector, then overlay the
    // dynamic state on top.
    decodeSelector(hpm, state.selector);
    recomputeConfigured();
    ICICLE_ASSERT(hpm.perSource.size() == state.perSource.size() &&
                      hpm.local.size() == state.local.size() &&
                      hpm.overflow.size() == state.overflow.size(),
                  "snapshot geometry mismatch");
    hpm.value = state.value;
    hpm.perSource = state.perSource;
    hpm.local = state.local;
    for (u64 s = 0; s < state.overflow.size(); s++)
        hpm.overflow[s] = state.overflow[s] != 0;
    hpm.select = state.select;
    hpm.principal = state.principal;
}

void
CsrFile::stepHpm(u32 index, u16 source_mask)
{
    ICICLE_ASSERT(index < csr::numHpm, "hpm index out of range");
    if (!(inhibitMask & (1ull << (index + 3))) ||
        ICICLE_MUTANT(InhibitRace))
        tickHpmMasked(hpms[index], source_mask);
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

u32
CsrFile::hwCountersInUse() const
{
    // mcycle + minstret are always present.
    u32 total = 2;
    for (const Hpm &hpm : hpms) {
        if (hpm.sources.empty())
            continue;
        // Scalar dedicates a register per source when lane-mapped;
        // with legacy OR mapping it is still a single register.
        total += 1;
    }
    return total;
}

} // namespace icicle
