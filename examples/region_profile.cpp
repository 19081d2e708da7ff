/**
 * @file
 * Region-profiling example: run any registered workload through the
 * paper's §3 methodology and print its full region characterisation
 * — Figure 2 classes, Table 2 window statistics, and Figure 4
 * predictor accuracies, side by side.
 *
 *   $ ./region_profile [workload] [scale]
 *   $ ./region_profile vortex_like 2
 *
 * Run without arguments for the workload list.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/experiment.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace arl;

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--help") == 0) {
        std::printf("usage: region_profile [workload] [scale]\n\n"
                    "workloads:\n");
        for (const auto &info : workloads::allWorkloads())
            std::printf("  %-14s (%s%s)\n", info.name.c_str(),
                        info.paperAnalog.c_str(),
                        info.floatingPoint ? ", FP" : "");
        return 0;
    }
    const char *name = argc > 1 ? argv[1] : "li_like";
    unsigned scale = argc > 2 ? std::atoi(argv[2]) : 1;

    const auto &info = workloads::workloadByName(name);
    std::printf("profiling %s (substitute for %s), scale %u...\n\n",
                info.name.c_str(), info.paperAnalog.c_str(), scale);

    sim::Simulator simulator(info.build(scale));
    sim::SimulatorSource source(simulator);
    auto result = sweep::runRegionPass(
        info.name, source, core::toSweepSchemes(core::figure4Schemes()));

    std::printf("dynamic instructions : %llu\n",
                (unsigned long long)result.instructions);
    std::printf("loads / stores       : %llu / %llu\n\n",
                (unsigned long long)result.profile.dynamicLoads,
                (unsigned long long)result.profile.dynamicStores);

    std::printf("-- Figure 2: region classes of static memory "
                "instructions --\n");
    for (unsigned c = 0; c < profile::NumRegionClasses; ++c) {
        auto cls = static_cast<profile::RegionClass>(c);
        if (result.profile.staticCounts[c] == 0)
            continue;
        std::printf("  %-6s : %6llu static  %12llu dynamic\n",
                    profile::regionClassName(cls).c_str(),
                    (unsigned long long)result.profile.staticCounts[c],
                    (unsigned long long)result.profile.dynamicCounts[c]);
    }
    std::printf("  multi-region: %.2f%% of static, %.2f%% of dynamic\n\n",
                result.profile.staticMultiRegionPct(),
                result.profile.dynamicMultiRegionPct());

    std::printf("-- Table 2: accesses per sliding window, mean (sd) "
                "--\n");
    const char *regions[3] = {"data", "heap", "stack"};
    for (unsigned r = 0; r < 3; ++r) {
        std::printf("  %-5s : W32 %6.2f (%5.2f)%s   W64 %6.2f "
                    "(%5.2f)%s\n", regions[r], result.window32.mean[r],
                    result.window32.stddev[r],
                    result.window32.strictlyBursty(r) ? "*" : " ",
                    result.window64.mean[r], result.window64.stddev[r],
                    result.window64.strictlyBursty(r) ? "*" : " ");
    }
    std::printf("  ('*' = strictly bursty: sd exceeds mean)\n\n");

    std::printf("-- Figure 4: stack/non-stack prediction accuracy --\n");
    for (const auto &[scheme, report] : result.schemes)
        std::printf("  %-12s : %8.4f%%   (ARPT entries touched: %zu)\n",
                    scheme.c_str(), report.accuracyPct(),
                    report.arptOccupancy);
    return 0;
}
