/**
 * @file
 * Shared plumbing for the table/figure reproduction benches.
 *
 * Every bench binary accepts an optional scale argument
 * (`<bench> [scale]`, default 1) that multiplies workload iteration
 * counts, prints the paper reference it reproduces, and renders its
 * output with common/table.hh so EXPERIMENTS.md can quote it
 * verbatim.
 *
 * Machine-readable output: when ARL_BENCH_JSON names a directory (or
 * `--json <dir>` appears after the positionals), each bench also
 * writes BENCH_<name>.json there in the obs::Report schema shared
 * with `arl_sim --stats-json` (schema_version 1, one RunRecord per
 * workload × configuration).
 */

#ifndef ARL_BENCH_BENCH_UTIL_HH
#define ARL_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/table.hh"
#include "obs/report.hh"
#include "sweep/sweep.hh"
#include "workloads/workloads.hh"

namespace arl::bench
{

/** Parse the scale argument (argv[1], default 1). */
inline unsigned
parseScale(int argc, char **argv)
{
    if (argc > 1) {
        int value = std::atoi(argv[1]);
        if (value >= 1)
            return static_cast<unsigned>(value);
    }
    return 1;
}

/**
 * Worker threads for the sweep engine: `--jobs N` after the
 * positionals, else ARL_BENCH_JOBS, else every core.  Thread count
 * never changes bench output (the engine merges deterministically).
 */
inline unsigned
parseJobs(int argc, char **argv)
{
    const char *env = std::getenv("ARL_BENCH_JOBS");
    unsigned jobs = env && env[0]
                        ? static_cast<unsigned>(std::atoi(env))
                        : 0;
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], "--jobs") == 0)
            jobs = static_cast<unsigned>(std::atoi(argv[i + 1]));
    return jobs;
}

/** Trace-cache directory: `--trace-cache D` or ARL_BENCH_TRACE_CACHE. */
inline std::string
parseTraceCache(int argc, char **argv)
{
    std::string dir;
    const char *env = std::getenv("ARL_BENCH_TRACE_CACHE");
    if (env && env[0])
        dir = env;
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], "--trace-cache") == 0)
            dir = argv[i + 1];
    return dir;
}

/**
 * Fast-forward knobs shared by every bench: neither changes bench
 * numbers (seek-ff is bit-identical given the same warmup window),
 * so both are safe to flip for wall-clock comparisons.
 *
 *   --seek-ff            / ARL_BENCH_SEEK_FF=1      checkpointed ff
 *   --warmup-window N    / ARL_BENCH_WARMUP_WINDOW  bounded warming
 */
inline void
parseTraceOptions(sweep::SweepSpec &spec, int argc, char **argv)
{
    auto env_or_flag = [&](const char *env_name,
                           const char *flag) -> const char * {
        const char *value = std::getenv(env_name);
        if (value && !value[0])
            value = nullptr;
        for (int i = 1; i + 1 < argc; ++i)
            if (std::strcmp(argv[i], flag) == 0)
                value = argv[i + 1];
        return value;
    };
    const char *seek = std::getenv("ARL_BENCH_SEEK_FF");
    spec.seekFastForward = seek && seek[0] && seek[0] != '0';
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--seek-ff") == 0)
            spec.seekFastForward = true;
    InstCount window = 0;
    if (const char *w =
            env_or_flag("ARL_BENCH_WARMUP_WINDOW", "--warmup-window"))
        window = static_cast<InstCount>(std::atoll(w));
    if (spec.seekFastForward && window == 0)
        window = trace::DefaultBlockRecords;
    for (auto &workload : spec.workloads)
        workload.warmupWindow = window;
}

/**
 * Memory-backend contention knobs shared by every timing bench.
 * Unlike the trace knobs above these CHANGE the modelled numbers —
 * they bank the first-level caches, bound outstanding misses and the
 * writeback buffer, meter the L2/memory bus, and charge TLB misses.
 * All default to 0 (the ideal backend), so bench output only moves
 * when explicitly asked to.
 *
 *   --banks N        / ARL_BENCH_BANKS          L1+LVC banks
 *   --mshrs N        / ARL_BENCH_MSHRS          MSHRs per structure
 *   --wb-buffer N    / ARL_BENCH_WB_BUFFER      writeback buffer depth
 *   --bus-cycles N   / ARL_BENCH_BUS_CYCLES     bus cycles per transfer
 *   --tlb-miss-lat N / ARL_BENCH_TLB_MISS_LAT   TLB miss penalty
 */
inline ooo::ContentionKnobs
parseContention(int argc, char **argv)
{
    auto env_or_flag = [&](const char *env_name,
                           const char *flag) -> unsigned {
        const char *value = std::getenv(env_name);
        if (value && !value[0])
            value = nullptr;
        for (int i = 1; i + 1 < argc; ++i)
            if (std::strcmp(argv[i], flag) == 0)
                value = argv[i + 1];
        int parsed = value ? std::atoi(value) : 0;
        return parsed > 0 ? static_cast<unsigned>(parsed) : 0;
    };
    ooo::ContentionKnobs knobs;
    knobs.banks = env_or_flag("ARL_BENCH_BANKS", "--banks");
    knobs.mshrs = env_or_flag("ARL_BENCH_MSHRS", "--mshrs");
    knobs.wbBuffer = env_or_flag("ARL_BENCH_WB_BUFFER", "--wb-buffer");
    knobs.busCycles =
        env_or_flag("ARL_BENCH_BUS_CYCLES", "--bus-cycles");
    knobs.tlbMissLatency =
        env_or_flag("ARL_BENCH_TLB_MISS_LAT", "--tlb-miss-lat");
    return knobs;
}

/**
 * Per-cycle stall attribution: `--cpi-stack` or ARL_BENCH_CPI_STACK=1
 * forces the ooo.cpi_stack.* leaves and the load-to-use histogram on
 * every timing config (contended configs always account).
 * Observation-only — bench numbers never move.
 */
inline bool
parseCpiStack(int argc, char **argv)
{
    const char *env = std::getenv("ARL_BENCH_CPI_STACK");
    bool enabled = env && env[0] && env[0] != '0';
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--cpi-stack") == 0)
            enabled = true;
    return enabled;
}

/**
 * Phase sampling: `--sampling` or ARL_BENCH_SAMPLING=1 runs every
 * timing point through the phase-sampled estimator (clustered
 * representative intervals instead of the full timed window).  This
 * CHANGES bench numbers — cycles become extrapolated estimates — so
 * it is off by default and announced on stdout when active.
 *
 *   --sampling         / ARL_BENCH_SAMPLING=1       enable
 *   --interval-insts N / ARL_BENCH_INTERVAL_INSTS   interval length
 *   --clusters K       / ARL_BENCH_CLUSTERS         cluster count
 */
inline void
parseSampling(sweep::SweepSpec &spec, int argc, char **argv)
{
    const char *env = std::getenv("ARL_BENCH_SAMPLING");
    spec.sampling = env && env[0] && env[0] != '0';
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--sampling") == 0)
            spec.sampling = true;
    if (!spec.sampling)
        return;
    auto env_or_flag = [&](const char *env_name,
                           const char *flag) -> const char * {
        const char *value = std::getenv(env_name);
        if (value && !value[0])
            value = nullptr;
        for (int i = 1; i + 1 < argc; ++i)
            if (std::strcmp(argv[i], flag) == 0)
                value = argv[i + 1];
        return value;
    };
    if (const char *v =
            env_or_flag("ARL_BENCH_INTERVAL_INSTS", "--interval-insts"))
        spec.samplingInterval = static_cast<InstCount>(std::atoll(v));
    if (const char *v = env_or_flag("ARL_BENCH_CLUSTERS", "--clusters"))
        spec.samplingClusters =
            static_cast<unsigned>(std::atoi(v));
    std::printf("phase sampling: interval %llu, clusters %u (cycles "
                "are extrapolated estimates)\n",
                (unsigned long long)spec.samplingInterval,
                spec.samplingClusters);
}

/** All workloads × @p configs through the sweep engine. */
inline sweep::SweepResult
timingGrid(std::vector<ooo::MachineConfig> configs, unsigned scale,
           InstCount timed, int argc, char **argv)
{
    sweep::SweepSpec spec;
    spec.workloads = sweep::allWorkloadSpecs(scale, timed);
    spec.configs = std::move(configs);
    spec.cpiStack = parseCpiStack(argc, argv);
    parseSampling(spec, argc, argv);
    ooo::ContentionKnobs knobs = parseContention(argc, argv);
    if (knobs.any()) {
        std::printf("contended backend: banks %u, mshrs %u, wb %u, "
                    "bus %u, tlb-miss %u (numbers differ from the "
                    "ideal default)\n", knobs.banks, knobs.mshrs,
                    knobs.wbBuffer, knobs.busCycles,
                    knobs.tlbMissLatency);
        for (auto &config : spec.configs)
            config.applyContention(knobs);
    }
    spec.jobs = parseJobs(argc, argv);
    spec.traceCacheDir = parseTraceCache(argc, argv);
    parseTraceOptions(spec, argc, argv);
    return sweep::runSweep(spec);
}

/** All workloads × @p schemes (region study) through the engine. */
inline sweep::SweepResult
regionGrid(std::vector<sweep::SchemeSpec> schemes, unsigned scale,
           int argc, char **argv)
{
    sweep::SweepSpec spec;
    spec.workloads = sweep::allWorkloadSpecs(scale, 0);
    spec.schemes = std::move(schemes);
    spec.jobs = parseJobs(argc, argv);
    spec.traceCacheDir = parseTraceCache(argc, argv);
    parseTraceOptions(spec, argc, argv);
    return sweep::runSweep(spec);
}

/** One-line engine metering (stdout only; never in JSON sinks). */
inline void
printSweepMeter(const sweep::SweepResult &result)
{
    std::printf("sweep engine: jobs %u, wall %.2fs, est. serial "
                "%.2fs, speedup %.2fx\n", result.jobs,
                result.wallSeconds, result.serialSecondsEstimate,
                result.speedup());
    if (result.traceDiskBytes)
        std::printf("trace cache: %.2f MB on disk, %.2fx vs v1%s\n",
                    result.traceDiskBytes / 1e6,
                    static_cast<double>(result.traceV1EquivBytes) /
                        result.traceDiskBytes,
                    result.seekSkippedRecords
                        ? ", seek-ff active"
                        : "");
}

/** Print the standard bench banner. */
inline void
banner(const std::string &experiment, const std::string &description,
       unsigned scale)
{
    std::printf("==============================================================\n");
    std::printf("%s — %s\n", experiment.c_str(), description.c_str());
    std::printf("workload scale: %u (paper ran full SPEC95 inputs; see "
                "DESIGN.md)\n", scale);
    std::printf("==============================================================\n");
}

/** Horizontal rule between the integer and FP program groups. */
inline bool
isFirstFpIndex(std::size_t index)
{
    const auto &all = workloads::allWorkloads();
    return index < all.size() && all[index].floatingPoint &&
           (index == 0 || !all[index - 1].floatingPoint);
}

/**
 * Optional machine-readable sink for a bench's headline numbers.
 *
 * Disabled by default; enabled when ARL_BENCH_JSON names an output
 * directory or `--json <dir>` appears on the command line.  Collects
 * (workload, config) → stat rows and writes BENCH_<name>.json in the
 * obs::Report schema on write().
 */
class JsonSink
{
  public:
    JsonSink(const std::string &bench_name, int argc, char **argv)
    {
        report_.tool = "bench";
        report_.command = bench_name;
        const char *env = std::getenv("ARL_BENCH_JSON");
        if (env && env[0])
            dir_ = env;
        for (int i = 1; i + 1 < argc; ++i)
            if (std::strcmp(argv[i], "--json") == 0)
                dir_ = argv[i + 1];
    }

    bool enabled() const { return !dir_.empty(); }

    /** Record one stat of the (workload, config) run. */
    void
    add(const std::string &workload, const std::string &config,
        const std::string &stat, double value)
    {
        if (!enabled())
            return;
        run(workload, config).stats.emplace_back(stat, value);
    }

    /** Write BENCH_<name>.json; a no-op when disabled. */
    bool
    write()
    {
        if (!enabled())
            return true;
        std::string path =
            dir_ + "/BENCH_" + report_.command + ".json";
        bool ok = report_.writeJsonFile(path);
        if (ok)
            std::printf("wrote %s\n", path.c_str());
        return ok;
    }

  private:
    obs::RunRecord &
    run(const std::string &workload, const std::string &config)
    {
        for (obs::RunRecord &record : report_.runs)
            if (record.workload == workload && record.config == config)
                return record;
        obs::RunRecord record;
        record.workload = workload;
        record.config = config;
        report_.runs.push_back(std::move(record));
        return report_.runs.back();
    }

    std::string dir_;
    obs::Report report_;
};

} // namespace arl::bench

#endif // ARL_BENCH_BENCH_UTIL_HH
