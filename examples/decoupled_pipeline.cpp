/**
 * @file
 * Timing example: compare the conventional memory system against the
 * data-decoupled design (paper §4) on one workload.
 *
 *   $ ./decoupled_pipeline [workload] [timed_insts]
 *   $ ./decoupled_pipeline vortex_like 500000
 *
 * Prints cycles/IPC for the baseline (2+0), the decoupled (2+2) and
 * (3+3), and the 16-port configuration (16+0), plus the
 * decoupling-specific statistics: LVAQ steering rate, LVC hit rate,
 * region mispredictions, and fast-forwarded loads.  (16+0) is no
 * upper bound in this model: on vortex_like, (2+2) takes fewer
 * cycles (see EXPERIMENTS.md).
 */

#include <cstdio>
#include <cstdlib>

#include "sweep/sweep.hh"
#include "workloads/workloads.hh"

using namespace arl;

int
main(int argc, char **argv)
{
    const char *name = argc > 1 ? argv[1] : "vortex_like";
    InstCount timed = argc > 2
                          ? static_cast<InstCount>(std::atoll(argv[2]))
                          : 400000;

    const auto &info = workloads::workloadByName(name);
    std::printf("timing %s (substitute for %s), %llu instructions "
                "after a %llu-instruction warmup\n\n", info.name.c_str(),
                info.paperAnalog.c_str(), (unsigned long long)timed,
                (unsigned long long)info.warmupInsts);

    // One workload row, four machine configurations: a sweep whose
    // points share one recorded trace.
    sweep::WorkloadSpec row;
    row.name = info.name;
    row.warmup = info.warmupInsts;
    row.timed = timed;
    sweep::SweepSpec spec;
    spec.workloads = {row};
    spec.configs = {
        ooo::MachineConfig::nPlusM(2, 0),
        ooo::MachineConfig::nPlusM(2, 2),
        ooo::MachineConfig::nPlusM(3, 3),
        ooo::MachineConfig::nPlusM(16, 0),
    };
    sweep::SweepResult result = sweep::runSweep(spec);

    double base = static_cast<double>(result.timing[0].stats.cycles);
    std::printf("%-8s %10s %6s %8s %7s %8s %8s %7s\n", "config",
                "cycles", "IPC", "speedup", "LVAQ%", "LVChit%",
                "regmis", "fastfwd");
    for (const auto &point : result.timing) {
        const ooo::OooStats &stats = point.stats;
        double mem_ops =
            static_cast<double>(stats.loads + stats.stores);
        double lvaq_pct =
            mem_ops ? 100.0 * stats.lvaqSteered / mem_ops : 0.0;
        std::uint64_t lvc_total = stats.lvcHits + stats.lvcMisses;
        double lvc_hit =
            lvc_total ? 100.0 * stats.lvcHits / lvc_total : 0.0;
        std::printf("%-8s %10llu %6.2f %7.3fx %6.1f%% %7.2f%% %8llu "
                    "%7llu\n", stats.configName.c_str(),
                    (unsigned long long)stats.cycles, stats.ipc(),
                    base / static_cast<double>(stats.cycles), lvaq_pct,
                    lvc_hit,
                    (unsigned long long)stats.regionMispredictions,
                    (unsigned long long)stats.fastForwardedLoads);
    }

    std::printf("\nthe decoupled configurations steer stack references "
                "(identified by the ARPT + addressing mode) into the "
                "LVAQ/LVC pipeline, freeing D-cache ports for data and "
                "heap traffic.\n");
    return 0;
}
