#include "vlsi/vlsi.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/logging.hh"

namespace icicle
{

namespace
{

/** A multi-source event as the floorplan sees it. */
struct PlacedEvent
{
    EventId id;
    u32 sources;
    /** Region centre, as a fraction of the die side. */
    double x, y;
    /** Activity: average asserted sources per cycle. */
    double activity;
};

/**
 * State bits of one BOOM tile (memories as registers). The L2 is a
 * separate block in Chipyard floorplans and is excluded from the tile
 * the PMU perturbs.
 */
double
coreStateBits(const BoomConfig &cfg)
{
    double bits = 0;
    // L1 caches (data + tags), unrolled into registers per the paper.
    auto cache_bits = [](const CacheConfig &c) {
        const double tag = 28.0 + 2.0; // tag + state per line
        return c.sizeBytes * 8.0 +
               (static_cast<double>(c.sizeBytes) / c.blockBytes) * tag;
    };
    bits += cache_bits(cfg.mem.l1i);
    bits += cache_bits(cfg.mem.l1d);
    // Branch predictor storage (TAGE tables + BTB), roughly the
    // 14+14+28+28+28 KiB of Table IV.
    bits += 112.0 * 1024 * 8;
    // Core structures.
    bits += 32 * 64;                       // architectural regfile
    bits += cfg.robEntries * 80.0;         // ROB payload
    bits += (cfg.iqEntries[0] + cfg.iqEntries[1] + cfg.iqEntries[2]) *
            48.0;                          // issue queues
    bits += (cfg.ldqEntries + cfg.stqEntries) * 64.0;
    bits += cfg.fetchBufferEntries * 48.0;
    bits += cfg.numMshrs * 64.0;
    // Physical register file scales with machine size.
    bits += (64.0 + cfg.robEntries) * 64.0;
    return bits;
}

/** Random logic gate count (non-storage), scaling with widths. */
double
coreGateCount(const BoomConfig &cfg)
{
    return 60000.0 +
           22000.0 * cfg.coreWidth +
           14000.0 * cfg.totalIssueWidth() +
           6000.0 * cfg.fetchWidth;
}

/** Build the placed TMA event list for a configuration. */
std::vector<PlacedEvent>
placedEvents(const BoomConfig &cfg, const ActivityFactors &activity,
             bool per_lane_events)
{
    const u32 wc = cfg.coreWidth;
    const u32 wi = cfg.totalIssueWidth();
    const u32 fb_sources = per_lane_events ? wc : 1;
    return {
        // Frontend region: top-left.
        {EventId::FetchBubbles, fb_sources, 0.22, 0.78,
         activity.fetchBubbles},
        {EventId::Recovering, 1, 0.24, 0.70, activity.recovering},
        {EventId::ICacheBlocked, 1, 0.30, 0.72, activity.other},
        // Issue region: centre-left band.
        {EventId::UopsIssued, wi, 0.38, 0.46, activity.uopsIssued},
        // LSU: bottom-right.
        {EventId::DCacheBlocked, wc, 0.72, 0.24,
         activity.dcacheBlocked},
        // ROB / commit: right.
        {EventId::UopsRetired, wc, 0.74, 0.56, activity.uopsRetired},
        {EventId::Flush, 1, 0.76, 0.62, activity.other},
        {EventId::BranchMispredict, 1, 0.46, 0.60, activity.other},
        {EventId::FenceRetired, 1, 0.78, 0.58, activity.other},
    };
}

} // namespace

ActivityFactors
measureActivity(const BoomCore &core)
{
    ActivityFactors activity;
    const double cycles =
        std::max<double>(1.0, static_cast<double>(
                                  core.total(EventId::Cycles)));
    activity.uopsIssued = core.total(EventId::UopsIssued) / cycles;
    activity.fetchBubbles = core.total(EventId::FetchBubbles) / cycles;
    activity.uopsRetired = core.total(EventId::UopsRetired) / cycles;
    activity.dcacheBlocked = core.total(EventId::DCacheBlocked) / cycles;
    activity.recovering = core.total(EventId::Recovering) / cycles;
    return activity;
}

VlsiReport
evaluateVlsi(const BoomConfig &cfg, CounterArch arch,
             const ActivityFactors &activity, const VlsiParams &p,
             bool per_lane_events)
{
    VlsiReport r;
    r.configName = cfg.name;
    r.arch = arch;

    // ---- baseline core ---------------------------------------------
    const double state_bits = coreStateBits(cfg);
    const double gates = coreGateCount(cfg);
    r.coreAreaUm2 = (state_bits * p.bitcellRegAreaUm2 +
                     gates * p.gateAreaUm2) /
                    p.utilization;
    const double die_side = std::sqrt(r.coreAreaUm2);
    // Baseline wirelength: pin count times the average net length.
    r.coreWirelengthUm =
        (gates * 3.2 + state_bits * 0.30) * p.avgNetUm;
    // Baseline power: leakage + clocked storage + switched logic.
    const double ff_count = state_bits;
    r.corePowerMw = (r.coreAreaUm2 * p.leakageUwPerUm2 +
                     ff_count * p.ffClockPowerUw * p.ffClockDuty +
                     gates * p.baselineActivity * 0.055) /
                    1000.0;

    // ---- PMU under the chosen architecture ---------------------------
    const std::vector<PlacedEvent> events =
        placedEvents(cfg, activity, per_lane_events);
    const double cx = 0.5, cy = 0.5; // CSR file at die centre

    double pmu_wire = 0;      // um
    double pmu_ff = 0;        // flip-flops
    double pmu_gates = 0;     // NAND2-equivalents
    double pmu_switch_uw = 0; // wire switching power
    double worst_path_ps = 0;
    double longest_wire = 0;
    u32 hw_counters = 0;

    // Baseline counters (mcycle/minstret) exist in all designs; only
    // the TMA additions are accounted here.
    for (const PlacedEvent &event : events) {
        const double dist =
            (std::abs(event.x - cx) + std::abs(event.y - cy)) *
            die_side;
        const double inc_bits =
            std::ceil(std::log2(static_cast<double>(event.sources) + 1));
        double path_ps = 0;
        switch (arch) {
          case CounterArch::Scalar: {
            // One full counter per source, one wire per source.
            const double wire = event.sources * dist;
            pmu_wire += wire;
            longest_wire = std::max(longest_wire, dist);
            pmu_ff += event.sources * 64.0;
            pmu_gates += event.sources * 70.0; // 64-bit increment
            hw_counters += event.sources;
            pmu_switch_uw += event.activity * dist * p.wireCapFfPerUm *
                             p.switchPowerUwPerFf;
            path_ps = dist * p.wireDelayPsPerUm + p.counterSetupPs;
            break;
          }
          case CounterArch::AddWires: {
            // Local sequential adder chain, then a multi-bit bus.
            const double chain_wire =
                addWiresChainLength(event.sources) * p.localPitchUm;
            const double bus_wire = inc_bits * dist;
            pmu_wire += chain_wire + bus_wire;
            longest_wire =
                std::max(longest_wire, dist + chain_wire);
            pmu_ff += 64.0;
            pmu_gates += event.sources * 14.0 + 90.0; // adders + add
            hw_counters += 1;
            pmu_switch_uw += event.activity *
                             (chain_wire + bus_wire) *
                             p.wireCapFfPerUm * p.switchPowerUwPerFf;
            path_ps = event.sources * p.adderStagePs +
                      (dist + chain_wire) * p.wireDelayPsPerUm +
                      p.counterSetupPs;
            break;
          }
          case CounterArch::Distributed: {
            // Local counters at the sources; 1-bit overflow wires in,
            // a select wire out; constant arbiter at the CSR file.
            // The central nets are off the single-cycle critical path
            // and route relaxed.
            const double local_width = localWidthFor(event.sources);
            const double wire =
                (event.sources * dist /* overflow */ +
                 dist /* rotating select broadcast */) *
                    p.relaxedRouteFactor +
                (event.sources > 1 ? event.sources - 1 : 0) *
                    p.localPitchUm;
            pmu_wire += wire;
            longest_wire = std::max(longest_wire, dist);
            pmu_ff += 64.0 + event.sources * (local_width + 1.0);
            pmu_gates += event.sources * (local_width * 6.0) + 110.0;
            hw_counters += 1;
            // Overflow wires toggle once per 2^width events.
            pmu_switch_uw += event.activity /
                             std::pow(2.0, local_width) * wire *
                             p.wireCapFfPerUm * p.switchPowerUwPerFf;
            path_ps = p.arbiterPs + dist * p.wireDelayPsPerUm +
                      p.counterSetupPs;
            break;
          }
        }
        worst_path_ps = std::max(worst_path_ps, path_ps);
    }

    // Per-counter CSR-file infrastructure (selector registers, event
    // mux trees, read ports).
    pmu_ff += hw_counters * p.csrSelectorFf;
    pmu_gates += hw_counters * p.csrGatesPerCounter;

    r.pmuWirelengthUm = pmu_wire * p.routingBlowup;
    r.longestPmuWireUm = longest_wire;
    r.pmuAreaUm2 = (pmu_ff * p.ffAreaUm2 + pmu_gates * p.gateAreaUm2) /
                   p.utilization;
    r.pmuPowerMw = (pmu_ff * p.ffClockPowerUw * p.pmuToggleFactor +
                    pmu_switch_uw +
                    r.pmuAreaUm2 * p.leakageUwPerUm2) /
                   1000.0;
    r.hwCounters = hw_counters;

    r.areaOverheadPct = 100.0 * r.pmuAreaUm2 / r.coreAreaUm2;
    r.wirelengthOverheadPct =
        100.0 * r.pmuWirelengthUm / r.coreWirelengthUm;
    r.powerOverheadPct = 100.0 * r.pmuPowerMw / r.corePowerMw;

    r.csrPathDelayNs = worst_path_ps / 1000.0;
    r.meets200MHz = r.csrPathDelayNs <= p.clockPeriodNs &&
                    p.baselineCriticalPathNs <= p.clockPeriodNs;
    // Normalize against the scalar design on the same configuration
    // (Fig. 9b's presentation).
    if (arch == CounterArch::Scalar) {
        r.normalizedCsrDelay = 1.0;
    } else {
        const VlsiReport scalar = evaluateVlsi(
            cfg, CounterArch::Scalar, activity, p, per_lane_events);
        r.normalizedCsrDelay =
            r.csrPathDelayNs / scalar.csrPathDelayNs;
    }
    return r;
}

std::vector<VlsiReport>
vlsiSweep(const ActivityFactors &activity, const VlsiParams &params)
{
    std::vector<VlsiReport> reports;
    for (const BoomConfig &cfg : BoomConfig::allSizes()) {
        for (CounterArch arch :
             {CounterArch::Scalar, CounterArch::AddWires,
              CounterArch::Distributed}) {
            VlsiReport report =
                evaluateVlsi(cfg, arch, activity, params);
            reports.push_back(report);
        }
        // Normalize the CSR-crossing delay within this configuration
        // to the scalar design (Fig. 9b's presentation).
        const double scalar_delay =
            reports[reports.size() - 3].csrPathDelayNs;
        for (u64 i = reports.size() - 3; i < reports.size(); i++) {
            reports[i].normalizedCsrDelay =
                reports[i].csrPathDelayNs / scalar_delay;
        }
    }
    return reports;
}

std::string
formatVlsiRow(const VlsiReport &r)
{
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "%-14s %-12s power+%5.2f%%  area+%5.2f%%  wire+%5.2f%%  "
        "csr-path %6.3f ns (norm %.2f)  %s  counters=%u",
        r.configName.c_str(), counterArchName(r.arch),
        r.powerOverheadPct, r.areaOverheadPct, r.wirelengthOverheadPct,
        r.csrPathDelayNs, r.normalizedCsrDelay,
        r.meets200MHz ? "200MHz:PASS" : "200MHz:FAIL", r.hwCounters);
    return std::string(buf);
}

} // namespace icicle
