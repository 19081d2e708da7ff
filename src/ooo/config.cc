#include "ooo/config.hh"

#include <cstdio>

namespace arl::ooo
{

std::string
ContentionKnobs::suffix() const
{
    if (!any())
        return "";
    std::string out = "+";
    char buf[16];
    auto append = [&](char key, unsigned value) {
        if (!value)
            return;
        std::snprintf(buf, sizeof(buf), "%c%u", key, value);
        out += buf;
    };
    append('b', banks);
    append('m', mshrs);
    append('w', wbBuffer);
    append('u', busCycles);
    append('t', tlbMissLatency);
    return out;
}

void
MachineConfig::applyContention(const ContentionKnobs &knobs)
{
    if (!knobs.any())
        return;
    hierarchy.contention.l1Banks = knobs.banks;
    hierarchy.contention.lvcBanks = knobs.banks;
    hierarchy.contention.mshrs = knobs.mshrs;
    hierarchy.contention.wbBufEntries = knobs.wbBuffer;
    hierarchy.contention.busCyclesPerTransfer = knobs.busCycles;
    tlbMissLatency = knobs.tlbMissLatency;
    name += knobs.suffix();
}

MachineConfig
MachineConfig::nPlusM(unsigned dports, unsigned lports,
                      unsigned l1_hit_latency)
{
    MachineConfig config;
    char buf[48];
    std::snprintf(buf, sizeof(buf), "(%u+%u)", dports, lports);
    config.name = buf;
    if (l1_hit_latency != 2)
        config.name += "/" + std::to_string(l1_hit_latency) + "cyc";
    config.dcachePorts = dports;
    config.lvcPorts = lports;
    config.decoupled = lports > 0;
    config.hierarchy.l1HitLatency = l1_hit_latency;
    config.hierarchy.hasLvc = config.decoupled;
    return config;
}

std::vector<MachineConfig>
MachineConfig::figure8Suite()
{
    // The paper charges the 4-port L1 with a 3-cycle access time
    // ("we have accordingly set the cache access time to be 3 cycles
    // for the configuration, not to increase the clock cycle time").
    return {
        MachineConfig::nPlusM(2, 0, 2),   // baseline
        MachineConfig::nPlusM(3, 0, 2),
        MachineConfig::nPlusM(3, 0, 3),
        MachineConfig::nPlusM(4, 0, 3),
        MachineConfig::nPlusM(2, 2, 2),
        MachineConfig::nPlusM(2, 3, 2),
        MachineConfig::nPlusM(3, 3, 2),
        MachineConfig::nPlusM(16, 0, 2),  // the 16-port configuration
    };
}

} // namespace arl::ooo
