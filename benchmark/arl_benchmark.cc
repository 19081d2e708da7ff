/**
 * @file
 * arl_benchmark — the repository benchmark.
 *
 * One process runs one named workload (README.md in this directory
 * says why each exists) and prints two JSON lines on stdout: a detail
 * record (sim_digest, every timed call, the workload's fidelity
 * numbers), then the summary record that BENCHMARK.json describes:
 *
 *   {"correct": B, "attempted": N, "failed": N, "metrics": {...}}
 *
 *   arl_benchmark --workload W [--seed S] [--seconds N] [--trace-file F]
 *                 [--smoke] [--expected F] [--work-dir D]
 *
 * Untraced (the default) the process sets the workload up several
 * times (setup_s is the median), then repeats the workload's timed
 * call — one sweep::runSweep, or long_run's sampled+full pair — while
 * another call still fits in --seconds, and reports the end-to-end
 * metrics: setup_s, cpu_s (the median call's process CPU time),
 * cpu_mips (guest instructions per host CPU-second) and peak_rss_mb
 * (the peak resident set during the first call, which is what a
 * process making one call holds; later calls also carry the heap the
 * earlier ones left behind).  Calls are gated on CPU time, not wall
 * time: on a shared host the hypervisor steals CPU time from the
 * guest, which stretches wall time but is not charged to the process.
 * Every call's wall time is in the detail record.
 *
 * With --trace-file the process instead runs one untraced call (for
 * the sweep's own metering), then the same work serially as direct
 * calls into each layer's public functions, each wrapped in a span
 * (span_log.hh), and reports the per-layer metrics.  Probes replay
 * every program's recorded stream into standalone instances of the
 * cache, value predictor, ARPT, region predictors and profilers, so
 * every layer is measured on the workload's own traffic.
 *
 * Correctness: every grid point is sanity-checked, seed-chosen points
 * are re-run live (no recorded trace) and must match, every repeated
 * call and the traced run must reproduce the first call's sim_digest
 * (CRC32 over the integer per-point results), and at seed 0 the
 * digest must equal the one stored in expected.json — on a mismatch
 * every attempted operation counts as failed.
 *
 * --smoke shrinks every workload to a sub-second size (the ctest).
 * Exit codes: 0 result printed, 1 usage or environment error.
 */

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "assembler/assembler.hh"
#include "cache/hierarchy.hh"
#include "common/bits.hh"
#include "common/crc32.hh"
#include "common/logging.hh"
#include "core/experiment.hh"
#include "corpus/corpus.hh"
#include "obs/hooks.hh"
#include "obs/host_meta.hh"
#include "obs/json.hh"
#include "obs/telemetry.hh"
#include "ooo/core.hh"
#include "ooo/value_predictor.hh"
#include "predict/arpt.hh"
#include "predict/region_predictor.hh"
#include "profile/region_profiler.hh"
#include "profile/window_profiler.hh"
#include "sampling/sampling.hh"
#include "sim/simulator.hh"
#include "span_log.hh"
#include "sweep/sweep.hh"
#include "trace/replay.hh"
#include "workloads/workloads.hh"

using namespace arl;
using benchmark::SpanLog;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// ---------------------------------------------------------------- knobs

/** Timed instructions per grid point. */
constexpr InstCount kFig8Timed = 400000;
constexpr InstCount kContendedTimed = 2000000;
/** long_run: perl_like at this scale is 33.4 M instructions. */
constexpr unsigned kLongRunScale = 4;
/** --smoke sizes. */
constexpr InstCount kSmokeTimed = 20000;
constexpr InstCount kSmokeStudyInsts = 200000;
constexpr InstCount kSmokeLongInsts = 300000;
constexpr std::size_t kSmokeCorpusPrograms = 3;
/**
 * A setup takes microseconds to milliseconds, and on a shared host
 * its speed switches between two levels every few hundred
 * milliseconds (8 vs 13 µs for long_run).  An untraced run therefore
 * repeats setup in windows of kSetupWindowSeconds (at least
 * kSetupMinRepeats each) — one before the first timed call and one
 * after every call — and setup_s is the median over all of them.
 */
constexpr std::size_t kSetupMinRepeats = 5;
constexpr double kSetupWindowSeconds = 0.25;
/** region_study does no OoO work; its traced run prices the core on a
 *  bounded window of every program instead. */
constexpr InstCount kRegionOooProbeInsts = 100000;
/** Window and pair count of the telemetry-overhead probe. */
constexpr InstCount kTelemetryProbeInsts = 400000;
constexpr int kTelemetryProbePairs = 3;
constexpr std::uint64_t kTelemetryProbeInterval = 100000;
/** A sampled estimate further than this from the full run fails. */
constexpr double kMaxSamplingErrorPct = 10.0;
/** The paper's published 1BIT-HYBRID accuracy (int, FP). */
constexpr double kPaperHybridInt = 99.89;
constexpr double kPaperHybridFp = 100.0;

/** The 16-wide machine commits at most this many per cycle. */
constexpr double kMaxIpc = 16.0;

/**
 * Dynamic instruction counts of the registry programs at scale 1, as
 * `arl_sim run <name>` reports them.  For seeds other than 0,
 * region_study stops each program a seed-chosen 1–64 K instructions
 * short of its end; if a program changes length the cap only moves
 * where its study stops (a cap past the end runs to completion).
 */
InstCount
registryInsts(const std::string &name)
{
    static const std::map<std::string, InstCount> counts = {
        {"go_like", 1338572},      {"m88ksim_like", 5470962},
        {"gcc_like", 3361793},     {"compress_like", 6576476},
        {"li_like", 3974929},      {"ijpeg_like", 1612256},
        {"perl_like", 8357188},    {"vortex_like", 2419960},
        {"tomcatv_like", 1143895}, {"swim_like", 1744337},
        {"su2cor_like", 8223509},  {"mgrid_like", 1983779},
    };
    auto it = counts.find(name);
    return it == counts.end() ? 0 : it->second;
}

/**
 * splitmix64 of (seed, name): a CRC alone is linear, so seeds that
 * differ in one bit would map to the same low bits.
 */
std::uint64_t
seedHash(std::uint64_t seed, const std::string &name)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull +
                      crc32(name.data(), name.size());
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * The seed's perturbation of one program: 0 at the canonical seed 0,
 * otherwise 1–64 K instructions chosen by a hash of (seed, program).
 * Timing workloads lengthen the program's fast-forward by it;
 * region_study stops the program that much short of its end.
 */
InstCount
seedShift(std::uint64_t seed, const std::string &program)
{
    return seed ? (seedHash(seed, program) % 64 + 1) * 1000 : 0;
}

/** Seed-chosen index in [0, n) for the @p k-th spot check. */
std::size_t
spotPick(std::uint64_t seed, int k, std::size_t n)
{
    return seedHash(seed, "spot/" + std::to_string(k)) % n;
}

// -------------------------------------------------------------- options

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    std::string traceFile;
    bool smoke = false;
    std::string expectedPath = ARL_BENCHMARK_EXPECTED;
    std::string workDir = ".bench_run";
};

[[noreturn]] void
usage(const char *message)
{
    std::fprintf(stderr, "arl_benchmark: %s\n", message);
    std::fprintf(stderr,
                 "usage: arl_benchmark --workload "
                 "fig8_grid|contended_grid|region_study|long_run\n"
                 "                     [--seed S] [--seconds N] "
                 "[--trace-file F] [--smoke]\n"
                 "                     [--expected F] [--work-dir D]\n");
    std::exit(1);
}

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    auto value = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            usage("a flag is missing its value");
        return argv[++i];
    };
    auto number = [&](const std::string &text) {
        char *end = nullptr;
        errno = 0;
        const double v = std::strtod(text.c_str(), &end);
        if (text.empty() || *end != '\0' || errno || v < 0.0 ||
            !std::isfinite(v))
            usage("expected a non-negative number");
        return v;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--workload") {
            opt.workload = value(i);
        } else if (flag == "--seed") {
            const std::string text = value(i);
            char *end = nullptr;
            errno = 0;
            opt.seed = std::strtoull(text.c_str(), &end, 10);
            if (text.empty() || text[0] == '-' || *end != '\0' || errno)
                usage("--seed takes a non-negative integer");
        } else if (flag == "--seconds") {
            opt.seconds = number(value(i));
        } else if (flag == "--trace-file") {
            opt.traceFile = value(i);
        } else if (flag == "--smoke") {
            opt.smoke = true;
        } else if (flag == "--expected") {
            opt.expectedPath = value(i);
        } else if (flag == "--work-dir") {
            opt.workDir = value(i);
        } else {
            usage(("unknown argument '" + flag + "'").c_str());
        }
    }
    if (opt.workload.empty())
        usage("--workload is required");
    return opt;
}

// ------------------------------------------------------------ workloads

enum class Kind
{
    Fig8,
    Contended,
    Region,
    LongRun
};

struct Workload
{
    Kind kind = Kind::Fig8;
    /** One timed call's grid (long_run: call A, the sampled run). */
    sweep::SweepSpec spec;
    /** Built programs, parallel to spec.workloads. */
    std::vector<std::shared_ptr<const vm::Program>> programs;
    /** The (3+3) point the sampling and telemetry probes run. */
    ooo::MachineConfig probeConfig;
    /** Live re-runs checked against the replayed grid. */
    int spotChecks = 0;
};

Kind
kindOf(const std::string &name)
{
    if (name == "fig8_grid")
        return Kind::Fig8;
    if (name == "contended_grid")
        return Kind::Contended;
    if (name == "region_study")
        return Kind::Region;
    if (name == "long_run")
        return Kind::LongRun;
    usage(("unknown workload '" + name + "'").c_str());
}

unsigned
sweepJobs()
{
    return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

ooo::ContentionKnobs
contendedKnobs()
{
    ooo::ContentionKnobs knobs;
    knobs.banks = 4;
    knobs.mshrs = 8;
    knobs.wbBuffer = 4;
    knobs.busCycles = 2;
    knobs.tlbMissLatency = 30;
    return knobs;
}

/** 1BIT-HYBRID with a limited ARPT, context bits sized to the table
 *  (Fig. 5; 32K entries is the paper's 8 GBH + 7 CID split). */
sweep::SchemeSpec
limitedHybrid(std::uint32_t entries)
{
    sweep::SchemeSpec scheme;
    scheme.name = "1BIT-HYBRID-" + std::to_string(entries / 1024) + "K";
    scheme.config.useArpt = true;
    scheme.config.arpt.entries = entries;
    scheme.config.arpt.counterBits = 1;
    scheme.config.arpt.context.kind = predict::ContextKind::Hybrid;
    scheme.config.arpt.context.gbhBits = 8;
    const unsigned index_bits = floorLog2(entries);
    scheme.config.arpt.context.cidBits =
        index_bits > 8 ? index_bits - 8 : 0;
    return scheme;
}

/** Fig. 4's five schemes plus Fig. 5's four limited table sizes. */
std::vector<sweep::SchemeSpec>
regionSchemes()
{
    std::vector<sweep::SchemeSpec> schemes =
        core::toSweepSchemes(core::figure4Schemes());
    for (std::uint32_t entries :
         {64u * 1024, 32u * 1024, 16u * 1024, 8u * 1024})
        schemes.push_back(limitedHybrid(entries));
    return schemes;
}

/** Index of 1BIT-HYBRID-32K in regionSchemes(). */
constexpr std::size_t kHybrid32K = 6;
/** Index of 1BIT-HYBRID (unlimited) in regionSchemes(). */
constexpr std::size_t kHybridUnlimited = 4;

sweep::WorkloadSpec
registrySpec(const std::string &name, unsigned scale, InstCount timed,
             std::uint64_t seed)
{
    const workloads::WorkloadInfo &info = workloads::workloadByName(name);
    sweep::WorkloadSpec w;
    w.name = info.name;
    w.scale = scale;
    w.warmup = info.warmupInsts + seedShift(seed, name);
    w.timed = timed;
    return w;
}

std::shared_ptr<const vm::Program>
assembleFile(const std::string &path, const std::string &name)
{
    std::ifstream file(path, std::ios::binary);
    std::ostringstream text;
    text << file.rdbuf();
    if (!file)
        fatal("cannot read '%s'", path.c_str());
    assembler::AsmResult result = assembler::assemble(text.str(), name);
    if (!result.ok())
        fatal("%s: %s", path.c_str(),
              result.errors.empty() ? "assembly failed"
                                    : result.errors[0].format().c_str());
    return result.program;
}

/**
 * Build the workload: its grid and every program it runs.  With a
 * span log, each program build is a span (the traced run's setup).
 */
Workload
setup(const Options &opt, SpanLog *log)
{
    Workload wl;
    wl.kind = kindOf(opt.workload);
    sweep::SweepSpec &spec = wl.spec;
    spec.jobs = sweepJobs();
    wl.probeConfig = ooo::MachineConfig::nPlusM(3, 3);

    const std::vector<std::string> all_names = [] {
        std::vector<std::string> names;
        for (const auto &info : workloads::allWorkloads())
            names.push_back(info.name);
        return names;
    }();

    switch (wl.kind) {
    case Kind::Fig8: {
        const std::vector<std::string> names =
            opt.smoke ? std::vector<std::string>{"li_like", "swim_like"}
                      : all_names;
        for (const std::string &name : names)
            spec.workloads.push_back(registrySpec(
                name, 1, opt.smoke ? kSmokeTimed : kFig8Timed, opt.seed));
        spec.configs = ooo::MachineConfig::figure8Suite();
        wl.spotChecks = 2;
        break;
    }
    case Kind::Contended: {
        const std::vector<std::string> names =
            opt.smoke ? std::vector<std::string>{"li_like", "gcc_like"}
                      : std::vector<std::string>{"li_like", "gcc_like",
                                                 "vortex_like",
                                                 "m88ksim_like"};
        for (const std::string &name : names)
            spec.workloads.push_back(registrySpec(
                name, 1, opt.smoke ? kSmokeTimed : kContendedTimed,
                opt.seed));
        spec.configs = {ooo::MachineConfig::nPlusM(2, 0),
                        ooo::MachineConfig::nPlusM(4, 0),
                        ooo::MachineConfig::nPlusM(3, 1),
                        ooo::MachineConfig::nPlusM(3, 3)};
        for (ooo::MachineConfig &config : spec.configs)
            config.applyContention(contendedKnobs());
        spec.cpiStack = true;
        wl.probeConfig = spec.configs.back();
        wl.spotChecks = 1;
        break;
    }
    case Kind::Region: {
        const std::vector<std::string> names =
            opt.smoke ? std::vector<std::string>{"li_like", "swim_like"}
                      : all_names;
        for (const std::string &name : names) {
            sweep::WorkloadSpec w = registrySpec(name, 1, 0, 0);
            const InstCount length =
                opt.smoke ? kSmokeStudyInsts : registryInsts(name);
            const InstCount shift = seedShift(opt.seed, name);
            if ((opt.smoke || shift) && length > shift)
                w.studyInsts = length - shift;
            spec.workloads.push_back(w);
        }
        std::vector<sweep::WorkloadSpec> corpus_specs;
        std::string error;
        {
            std::unique_ptr<SpanLog::Scope> span;
            if (log)
                span = std::make_unique<SpanLog::Scope>(*log,
                                                        "corpus.assemble");
            if (!corpus::corpusWorkloadSpecs(ARL_CORPUS_DIR, 0,
                                             corpus_specs, &error))
                fatal("corpus: %s", error.c_str());
        }
        if (opt.smoke && corpus_specs.size() > kSmokeCorpusPrograms)
            corpus_specs.resize(kSmokeCorpusPrograms);
        spec.workloads.insert(spec.workloads.end(), corpus_specs.begin(),
                              corpus_specs.end());
        spec.schemes = regionSchemes();
        wl.spotChecks = 1;
        break;
    }
    case Kind::LongRun: {
        sweep::WorkloadSpec w =
            registrySpec("perl_like", opt.smoke ? 1 : kLongRunScale,
                         opt.smoke ? kSmokeLongInsts : 0, opt.seed);
        spec.workloads.push_back(w);
        spec.configs = {ooo::MachineConfig::nPlusM(3, 3)};
        spec.jobs = 1;
        spec.sampling = true;
        break;
    }
    }

    for (const sweep::WorkloadSpec &w : spec.workloads) {
        std::unique_ptr<SpanLog::Scope> span;
        if (log)
            span = std::make_unique<SpanLog::Scope>(
                *log, w.sourcePath.empty() ? "workloads.build"
                                           : "corpus.assemble",
                w.name);
        wl.programs.push_back(
            w.sourcePath.empty()
                ? workloads::buildWorkload(w.name, w.scale)
                : assembleFile(w.sourcePath, w.name));
    }
    return wl;
}

// ---------------------------------------------------------- correctness

/** CRC32 over a stream of 64-bit words. */
class Digest
{
  public:
    void add(std::uint64_t word) { crc = crc32(&word, sizeof word, crc); }
    std::uint32_t value() const { return crc; }

  private:
    std::uint32_t crc = 0;
};

void
digestTiming(Digest &d, const ooo::OooStats &s)
{
    for (std::uint64_t word :
         {std::uint64_t(s.instructions), std::uint64_t(s.cycles), s.loads,
          s.stores, s.l1Hits, s.l1Misses, s.lvcHits, s.lvcMisses,
          s.l2Misses, s.regionMispredictions, s.vpOffered, s.vpWrong,
          s.forwardedLoads})
        d.add(word);
}

/** Integer results of one region pass (sweep::RegionPoint's shape). */
struct RegionResult
{
    InstCount instructions = 0;
    profile::RegionProfile profile;
    std::vector<predict::PredictorReport> schemes;
};

void
digestRegion(Digest &d, const RegionResult &r)
{
    d.add(r.instructions);
    for (std::uint64_t refs : r.profile.regionRefs)
        d.add(refs);
    d.add(r.profile.dynamicLoads);
    d.add(r.profile.dynamicStores);
    d.add(r.profile.staticTotal());
    for (const predict::PredictorReport &report : r.schemes) {
        d.add(report.total);
        d.add(report.correct);
        d.add(report.arptOccupancy);
    }
}

/** Physical sanity of one timing point; "" when it holds. */
std::string
checkTiming(const ooo::OooStats &s, InstCount window, bool stacked)
{
    if (s.cycles == 0)
        return "zero cycles";
    if (window && s.instructions > window)
        return "committed more instructions than its window";
    if (s.ipc() > kMaxIpc)
        return "IPC above the machine's 16-wide peak";
    if (stacked && s.cpiStack.total() != s.cycles)
        return "CPI-stack leaves do not sum to cycles";
    return "";
}

/** Sanity of one region pass; "" when it holds. */
std::string
checkRegion(const RegionResult &r, InstCount cap)
{
    if (r.instructions == 0)
        return "studied no instructions";
    if (cap && r.instructions > cap)
        return "studied past its cap";
    for (const predict::PredictorReport &report : r.schemes) {
        std::uint64_t total = 0, correct = 0;
        for (unsigned s = 0; s < predict::NumPredictionSources; ++s) {
            total += report.totalBySource[s];
            correct += report.correctBySource[s];
        }
        if (total != report.total || correct != report.correct)
            return "predictor per-source totals do not sum to the total";
        if (report.correct > report.total)
            return "more correct predictions than predictions";
    }
    return "";
}

RegionResult
regionResult(const sweep::RegionPoint &point)
{
    RegionResult r;
    r.instructions = point.instructions;
    r.profile = point.profile;
    for (const auto &[name, report] : point.schemes)
        r.schemes.push_back(report);
    return r;
}

/** Tally of operations attempted and failed, with reasons on stderr. */
struct Ops
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    check(const std::string &what, const std::string &problem)
    {
        ++attempted;
        if (problem.empty())
            return;
        ++failed;
        std::fprintf(stderr, "arl_benchmark: FAILED %s: %s\n", what.c_str(),
                     problem.c_str());
    }

    void
    merge(const Ops &other)
    {
        attempted += other.attempted;
        failed += other.failed;
    }
};

// ------------------------------------------------------------ the call

/** One timed call of the workload and what it produced. */
struct Call
{
    double wallSeconds = 0.0;
    /** CPU time of the whole process (every sweep worker) during it. */
    double cpuSeconds = 0.0;
    /** Peak resident set during the call (0 when it cannot be read). */
    double peakRssMb = 0.0;
    std::uint32_t digest = 0;
    Ops ops;
    /** Instructions the call's wall time is charged with (sim_mips). */
    double statedInsts = 0.0;
    /** sweep::SweepResult metering, summed over the call's sweeps. */
    double sweepWall = 0.0;
    double serialSeconds = 0.0;
    std::uint64_t cacheHits = 0;
    /** Workload-specific results for the detail record. */
    std::vector<std::pair<std::string, double>> detail;
    /** The replayed points, kept for the live spot checks. */
    std::vector<ooo::OooStats> timing;
    std::vector<RegionResult> region;
};

/** Mean relative gap (%) to the paper's seven Fig. 8 averages. */
double
fig8PaperGap(const Workload &wl, const std::vector<ooo::OooStats> &points)
{
    struct Published
    {
        const char *config;
        bool fp;
        double speedup;
    };
    static const Published kPaper[] = {
        {"(3+0)", false, 1.21},       {"(3+0)/3cyc", false, 1.18},
        {"(4+0)/3cyc", false, 1.25},  {"(16+0)", false, 1.33},
        {"(3+0)", true, 1.14},        {"(4+0)/3cyc", true, 1.20},
        {"(16+0)", true, 1.25},
    };
    const std::size_t nc = wl.spec.configs.size();
    double gap = 0.0;
    for (const Published &p : kPaper) {
        std::size_t ci = 0;
        while (ci < nc && wl.spec.configs[ci].name != p.config)
            ++ci;
        double sum = 0.0;
        unsigned count = 0;
        for (std::size_t wi = 0; wi < wl.spec.workloads.size(); ++wi) {
            const auto &info =
                workloads::workloadByName(wl.spec.workloads[wi].name);
            if (info.floatingPoint != p.fp || ci == nc)
                continue;
            sum += ratio(static_cast<double>(points[wi * nc].cycles),
                         static_cast<double>(points[wi * nc + ci].cycles));
            ++count;
        }
        const double measured = count ? sum / count : 0.0;
        gap += std::abs(measured - p.speedup) / p.speedup;
    }
    return 100.0 * gap / std::size(kPaper);
}

/** Mean gap (points) of 1BIT-HYBRID to the paper's int/FP accuracy. */
double
regionPaperGap(const Workload &wl, const std::vector<RegionResult> &points)
{
    double sum[2] = {0.0, 0.0};
    unsigned count[2] = {0, 0};
    for (std::size_t i = 0; i < points.size(); ++i) {
        const sweep::WorkloadSpec &w = wl.spec.workloads[i];
        if (!w.sourcePath.empty())
            continue;
        const bool fp = workloads::workloadByName(w.name).floatingPoint;
        sum[fp] += points[i].schemes[kHybridUnlimited].accuracyPct();
        ++count[fp];
    }
    double gap = 0.0;
    unsigned groups = 0;
    const double paper[2] = {kPaperHybridInt, kPaperHybridFp};
    for (int g = 0; g < 2; ++g) {
        if (!count[g])
            continue;
        gap += std::abs(sum[g] / count[g] - paper[g]);
        ++groups;
    }
    return groups ? gap / groups : 0.0;
}

void
addSweepMetering(Call &call, const sweep::SweepResult &result)
{
    call.sweepWall += result.wallSeconds;
    call.serialSeconds += result.serialSecondsEstimate;
    call.cacheHits += result.traceCacheHits;
}

Call
gridCall(const Workload &wl)
{
    Call call;
    Clock::time_point start = Clock::now();
    sweep::SweepResult result = sweep::runSweep(wl.spec);
    call.wallSeconds = secondsSince(start);
    addSweepMetering(call, result);

    Digest digest;
    for (std::size_t i = 0; i < result.timing.size(); ++i) {
        const sweep::TimingPoint &point = result.timing[i];
        const sweep::WorkloadSpec &w =
            wl.spec.workloads[i / result.numConfigs];
        const bool stacked = wl.spec.cpiStack ||
                             wl.spec.configs[i % result.numConfigs].cpiStack;
        call.ops.check(point.workload + " " + point.config,
                       checkTiming(point.stats, w.timed, stacked));
        digestTiming(digest, point.stats);
        call.statedInsts += point.stats.instructions;
        call.timing.push_back(point.stats);
    }
    for (std::size_t i = 0; i < result.region.size(); ++i) {
        RegionResult r = regionResult(result.region[i]);
        call.ops.check(result.region[i].workload + " region pass",
                       checkRegion(r, wl.spec.workloads[i].studyInsts));
        digestRegion(digest, r);
        call.statedInsts += r.instructions;
        call.region.push_back(std::move(r));
    }
    call.digest = digest.value();
    if (wl.kind == Kind::Fig8)
        call.detail.emplace_back("paper_gap_pct",
                                 fig8PaperGap(wl, call.timing));
    if (wl.kind == Kind::Region)
        call.detail.emplace_back("paper_gap_pct",
                                 regionPaperGap(wl, call.region));
    return call;
}

double
cpi(const ooo::OooStats &s)
{
    return ratio(static_cast<double>(s.cycles),
                 static_cast<double>(s.instructions));
}

double
samplingErrorPct(const ooo::OooStats &sampled, const ooo::OooStats &full)
{
    return 100.0 * ratio(std::abs(cpi(sampled) - cpi(full)), cpi(full));
}

/**
 * long_run: call A is the sampled estimate against an empty trace
 * cache (it records, encodes and writes the trace); call B is the
 * full run, which must hit that cache, with a telemetry channel at
 * the default heartbeat interval.  The call's wall time is A + B.
 */
Call
longRunCall(const Workload &wl, const Options &opt)
{
    Call call;
    const std::string cache_dir = opt.workDir + "/trace-cache";
    const std::string telemetry_path = opt.workDir + "/telemetry.jsonl";
    std::filesystem::remove_all(cache_dir);
    std::filesystem::remove(telemetry_path);

    sweep::SweepSpec sampled = wl.spec;
    sampled.traceCacheDir = cache_dir;
    Clock::time_point start = Clock::now();
    sweep::SweepResult a = sweep::runSweep(sampled);
    const double a_seconds = secondsSince(start);
    addSweepMetering(call, a);

    std::string error;
    auto channel = obs::TelemetryChannel::open(
        telemetry_path, obs::TelemetryOptions{}, &error);
    if (!channel)
        fatal("long_run: %s", error.c_str());
    sweep::SweepSpec full = wl.spec;
    full.sampling = false;
    full.traceCacheDir = cache_dir;
    full.telemetry = channel.get();
    start = Clock::now();
    sweep::SweepResult b = sweep::runSweep(full);
    const double b_seconds = secondsSince(start);
    addSweepMetering(call, b);
    channel.reset();
    std::filesystem::remove(telemetry_path);
    std::filesystem::remove_all(cache_dir);

    call.wallSeconds = a_seconds + b_seconds;
    const ooo::OooStats &est = a.timing.at(0).stats;
    const ooo::OooStats &ref = b.timing.at(0).stats;
    const double error_pct = samplingErrorPct(est, ref);

    std::string problem;
    if (!a.timing[0].sampling.enabled)
        problem = "call A lost its sampling report";
    else if (est.instructions != ref.instructions)
        problem = "sampled population differs from the full run";
    else if (error_pct > kMaxSamplingErrorPct)
        problem = "sampling error above the gate";
    call.ops.check("long_run call A (sampled)", problem);
    problem = checkTiming(ref, wl.spec.workloads[0].timed, false);
    if (problem.empty() && b.traceCacheHits != 1)
        problem = "call B missed the trace cache";
    call.ops.check("long_run call B (full)", problem);

    Digest digest;
    digestTiming(digest, est);
    digestTiming(digest, ref);
    call.digest = digest.value();
    call.statedInsts = static_cast<double>(ref.instructions);
    call.detail = {{"sampled_wall_s", a_seconds},
                   {"full_wall_s", b_seconds},
                   {"sampling_error_pct", error_pct},
                   {"est_cycles", static_cast<double>(est.cycles)},
                   {"full_cycles", static_cast<double>(ref.cycles)},
                   {"decode_mbps", ratio(b.traceDiskBytes / 1e6,
                                         b.traceDecodeSeconds)}};
    return call;
}

/** Reset the process's peak-RSS mark (Linux clear_refs "5"). */
bool
resetPeakRss()
{
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    return static_cast<bool>(clear);
}

/** Peak RSS in MB since the last reset (VmHWM), 0 when unknown. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.compare(0, 6, "VmHWM:") == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

/** User + system CPU seconds of every thread of this process. */
double
processCpuSeconds()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    };
    return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

Call
timedCall(const Workload &wl, const Options &opt)
{
    const bool reset = resetPeakRss();
    const double cpu_before = processCpuSeconds();
    Call call = wl.kind == Kind::LongRun ? longRunCall(wl, opt)
                                         : gridCall(wl);
    call.cpuSeconds = processCpuSeconds() - cpu_before;
    call.peakRssMb = reset ? peakRssMb() : 0.0;
    return call;
}

/**
 * Re-run seed-chosen grid points live — an OooCore with no step
 * source, or a functional Simulator feeding the 32K hybrid predictor
 * — and compare them with the replayed call.
 */
void
spotChecks(const Workload &wl, const Options &opt, const Call &call,
           Ops &ops)
{
    for (int k = 0; k < wl.spotChecks; ++k) {
        if (wl.kind == Kind::Region) {
            const std::size_t wi =
                spotPick(opt.seed, k, wl.spec.workloads.size());
            const sweep::WorkloadSpec &w = wl.spec.workloads[wi];
            sim::Simulator live(wl.programs[wi]);
            predict::RegionPredictor predictor(
                wl.spec.schemes[kHybrid32K].config);
            live.run(w.studyInsts, [&](const sim::StepInfo &step) {
                predictor.observe(step);
            });
            const predict::PredictorReport got = predictor.report();
            const predict::PredictorReport &want =
                call.region[wi].schemes[kHybrid32K];
            ops.check("live spot check " + w.name,
                      got.total == want.total &&
                              got.correct == want.correct
                          ? ""
                          : "live predictor disagrees with the replay");
            continue;
        }
        const std::size_t nc = wl.spec.configs.size();
        const std::size_t index =
            spotPick(opt.seed, k, wl.spec.workloads.size() * nc);
        const sweep::WorkloadSpec &w = wl.spec.workloads[index / nc];
        ooo::MachineConfig config = wl.spec.configs[index % nc];
        if (wl.spec.cpiStack)
            config.cpiStack = true;
        ooo::OooCore live(config, wl.programs[index / nc]);
        if (w.warmup)
            live.warmup(w.warmup);
        Digest got, want;
        digestTiming(got, live.run(w.timed));
        digestTiming(want, call.timing[index]);
        ops.check("live spot check " + w.name + " " + config.name,
                  got.value() == want.value()
                      ? ""
                      : "live core disagrees with the replay");
    }
}

/** The seed-0 digest stored for this workload and size, or "". */
std::string
expectedDigest(const Options &opt)
{
    std::ifstream file(opt.expectedPath);
    std::ostringstream text;
    text << file.rdbuf();
    obs::JsonValue doc;
    if (!file || !obs::jsonParse(text.str(), doc) || !doc.isObject())
        fatal("cannot read expected digests from '%s'",
              opt.expectedPath.c_str());
    const obs::JsonValue *table =
        doc.find(opt.smoke ? "smoke_sim_digest" : "sim_digest");
    const obs::JsonValue *entry =
        table ? table->find(opt.workload) : nullptr;
    return entry && entry->isString() ? entry->string : "";
}

std::string
hex(std::uint32_t value)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "%08x", value);
    return buf;
}

// ------------------------------------------------------------- traced

/** Accumulators behind the per-layer metrics. */
struct LayerTotals
{
    double stepSeconds = 0.0;
    std::uint64_t stepInsts = 0;
    double recordSeconds = 0.0;
    std::uint64_t recordInsts = 0;
    double memBytes = 0.0;
    double replaySeconds = 0.0;
    std::uint64_t replayInsts = 0;
    double encodeSeconds = 0.0;
    double decodeSeconds = 0.0;
    double diskBytes = 0.0;
    std::uint64_t codecInsts = 0;
    double warmupSeconds = 0.0;
    std::uint64_t warmupInsts = 0;
    double runSeconds = 0.0;
    std::uint64_t runInsts = 0;
    std::uint64_t runCycles = 0;
    double sampleSeconds = 0.0;
    double vpSeconds = 0.0;
    std::uint64_t vpOps = 0;
    double cacheSeconds = 0.0;
    std::uint64_t cacheAccesses = 0;
    std::uint64_t cacheMisses = 0;
    double timedSeconds = 0.0;
    std::uint64_t timedAccesses = 0;
    double observeSeconds = 0.0;
    std::uint64_t observeOps = 0;
    double arptSeconds = 0.0;
    std::uint64_t arptOps = 0;
    std::uint64_t hybridTotal = 0;
    std::uint64_t hybridCorrect = 0;
    std::uint64_t hybridArpt = 0;
    double profileSeconds = 0.0;
    std::uint64_t profileInsts = 0;
    double planSeconds = 0.0;
    std::uint64_t planInsts = 0;
    std::uint64_t planTimed = 0;
    std::uint64_t clusters = 0;
    double telemetryOverheadPct = 0.0;
};

/** One memory reference of a recorded stream, as the probes need it. */
struct MemRef
{
    Addr pc = 0;
    Addr addr = 0;
    Word gbh = 0;
    Word cid = 0;
    Word value = 0;
    bool load = false;
    bool stack = false;
    /** A load writing an integer register (value-prediction input). */
    bool intDest = false;
};

std::vector<MemRef>
extractRefs(const trace::InMemoryTrace &t)
{
    std::vector<MemRef> refs;
    for (const trace::TraceRecord &record : t.records) {
        const trace::RecordClass cls = trace::classifyRecord(record);
        if (!cls.isMem)
            continue;
        MemRef ref;
        ref.pc = record.pc;
        ref.addr = record.effAddr;
        ref.gbh = record.gbh;
        ref.cid = record.cid;
        ref.value = record.result;
        ref.load = cls.isLoad;
        ref.stack = record.region == static_cast<std::uint8_t>(
                                         vm::Region::Stack);
        ref.intDest = cls.isLoad && record.dest < isa::FprBase;
        refs.push_back(ref);
    }
    return refs;
}

/** Memory the recorded trace holds, from its vectors' capacities. */
double
traceMemBytes(const trace::InMemoryTrace &t)
{
    return static_cast<double>(
        t.records.capacity() * sizeof(trace::TraceRecord) +
        t.decoded.capacity() * sizeof(isa::DecodedInst) +
        t.checkpoints.capacity() * sizeof(trace::ArchCheckpoint));
}

cache::MemPipe
pipeOf(const MemRef &ref)
{
    return ref.stack ? cache::MemPipe::Lvc : cache::MemPipe::DCache;
}

class TracedRun
{
  public:
    TracedRun(const Workload &wl_, const Options &opt_, SpanLog &log_)
        : wl(wl_), opt(opt_), log(log_)
    {
    }

    /** Run every program of the workload through every layer. */
    void
    run()
    {
        for (std::size_t i = 0; i < wl.spec.workloads.size(); ++i)
            program(i);
    }

    LayerTotals totals;
    Digest digest;
    Ops ops;

  private:
    /** Records the workload's own call needs of program @p w. */
    InstCount
    need(const sweep::WorkloadSpec &w) const
    {
        if (wl.kind == Kind::Region)
            return w.studyInsts;
        return w.timed ? w.warmup + w.timed : 0;
    }

    void
    program(std::size_t i)
    {
        const sweep::WorkloadSpec &w = wl.spec.workloads[i];
        const auto &prog = wl.programs[i];
        SpanLog::Scope span(log, "bench.program", w.name);
        const InstCount n = need(w);

        std::shared_ptr<const trace::InMemoryTrace> t;
        {
            SpanLog::Scope s(log, "trace.record", w.name);
            t = trace::recordToMemory(prog, n);
            s.insts(t->size());
            totals.recordSeconds += s.end();
        }
        totals.recordInsts += t->size();
        totals.memBytes += traceMemBytes(*t);
        {
            SpanLog::Scope s(log, "sim.step", w.name);
            sim::Simulator sim(prog);
            sim::StepInfo step;
            InstCount steps = 0;
            while ((n == 0 || steps < n) && sim.step(step))
                ++steps;
            s.insts(steps);
            totals.stepSeconds += s.end();
            totals.stepInsts += steps;
        }
        t = codecRoundTrip(w, std::move(t));
        const double drain = replay(w, t);

        const std::vector<MemRef> refs = [&] {
            SpanLog::Scope s(log, "trace.extract", w.name);
            return extractRefs(*t);
        }();
        cacheProbes(w, refs);
        {
            SpanLog::Scope s(log, "ooo.vp", w.name);
            ooo::ValuePredictor vp;
            std::uint64_t calls = 0;
            for (const MemRef &ref : refs) {
                if (!ref.intDest)
                    continue;
                vp.predict(ref.pc);
                vp.train(ref.pc, ref.value);
                ++calls;
            }
            totals.vpSeconds += s.end();
            totals.vpOps += 2 * calls;
        }
        {
            SpanLog::Scope s(log, "predict.arpt", w.name);
            predict::Arpt arpt(ooo::MachineConfig{}.arpt);
            for (const MemRef &ref : refs) {
                arpt.predictStack(ref.pc, ref.gbh, ref.cid);
                arpt.update(ref.pc, ref.gbh, ref.cid, ref.stack);
            }
            totals.arptSeconds += s.end();
            totals.arptOps += 2 * refs.size();
        }
        regionPass(w, t, drain, refs.size());
        sample(i, t);
        oooRuns(i, t);
        if (i == 0)
            telemetryProbe(i, t);
    }

    /** v2 encode to the work directory, then decode it back; later
     *  probes use the decoded copy (the recorded one is released). */
    std::shared_ptr<const trace::InMemoryTrace>
    codecRoundTrip(const sweep::WorkloadSpec &w,
                   std::shared_ptr<const trace::InMemoryTrace> t)
    {
        const std::string path = opt.workDir + "/codec.arlt";
        const InstCount records = t->size();
        {
            SpanLog::Scope s(log, "trace.encode", w.name);
            totals.diskBytes += static_cast<double>(
                trace::saveTrace(path, *t, trace::TraceFormat::V2));
            s.insts(records);
            totals.encodeSeconds += s.end();
        }
        t.reset();
        {
            SpanLog::Scope s(log, "trace.decode", w.name);
            t = trace::loadTrace(path);
            s.insts(records);
            totals.decodeSeconds += s.end();
        }
        std::filesystem::remove(path);
        totals.codecInsts += records;
        if (!t || t->size() != records)
            fatal("%s: the v2 round trip lost records", w.name.c_str());
        return t;
    }

    /** Drain a ReplaySource; @return the seconds it took. */
    double
    replay(const sweep::WorkloadSpec &w,
           const std::shared_ptr<const trace::InMemoryTrace> &t)
    {
        SpanLog::Scope s(log, "trace.replay", w.name);
        trace::ReplaySource source(t);
        sim::StepInfo step;
        InstCount steps = 0;
        while (source.next(step))
            ++steps;
        s.insts(steps);
        const double seconds = s.end();
        totals.replaySeconds += seconds;
        totals.replayInsts += steps;
        return seconds;
    }

    void
    cacheProbes(const sweep::WorkloadSpec &w, const std::vector<MemRef> &refs)
    {
        {
            SpanLog::Scope s(log, "cache.access", w.name);
            cache::HierarchyConfig ideal = wl.probeConfig.hierarchy;
            ideal.contention = {};
            cache::Hierarchy plain(ideal);
            for (const MemRef &ref : refs)
                if (!plain.access(pipeOf(ref), ref.addr, !ref.load).l1Hit)
                    ++totals.cacheMisses;
            totals.cacheSeconds += s.end();
            totals.cacheAccesses += refs.size();
        }
        {
            SpanLog::Scope s(log, "cache.timed", w.name);
            ooo::MachineConfig contended = ooo::MachineConfig::nPlusM(3, 3);
            contended.applyContention(contendedKnobs());
            cache::Hierarchy hierarchy(contended.hierarchy);
            Cycle now = 0;
            for (const MemRef &ref : refs)
                hierarchy.timedAccess(pipeOf(ref), ref.addr, !ref.load,
                                      now++);
            totals.timedSeconds += s.end();
            totals.timedAccesses += refs.size();
        }
    }

    /**
     * The region study's pass, split per layer: every scheme observes
     * the stream, then the profilers do; each probe's rate is net of
     * the ReplaySource drain it rides on.  In region_study the two
     * passes are the workload's results and join the digest.
     */
    void
    regionPass(const sweep::WorkloadSpec &w,
               const std::shared_ptr<const trace::InMemoryTrace> &t,
               double drain, std::size_t mem_refs)
    {
        const std::vector<sweep::SchemeSpec> schemes = regionSchemes();
        RegionResult result;
        {
            SpanLog::Scope s(log, "predict.observe", w.name);
            std::vector<std::unique_ptr<predict::RegionPredictor>> preds;
            for (const sweep::SchemeSpec &scheme : schemes)
                preds.push_back(std::make_unique<predict::RegionPredictor>(
                    scheme.config));
            trace::ReplaySource source(t);
            sim::StepInfo step;
            while (source.next(step))
                for (auto &pred : preds)
                    pred->observe(step);
            s.insts(t->size());
            totals.observeSeconds += std::max(s.end() - drain, 0.0);
            totals.observeOps += mem_refs * preds.size();
            for (auto &pred : preds)
                result.schemes.push_back(pred->report());
        }
        const predict::PredictorReport &hybrid = result.schemes[kHybrid32K];
        totals.hybridTotal += hybrid.total;
        totals.hybridCorrect += hybrid.correct;
        totals.hybridArpt += hybrid.totalBySource[static_cast<unsigned>(
            predict::PredictionSource::Arpt)];
        {
            SpanLog::Scope s(log, "profile.observe", w.name);
            profile::RegionProfiler profiler;
            profile::WindowProfiler win32(32);
            profile::WindowProfiler win64(64);
            trace::ReplaySource source(t);
            sim::StepInfo step;
            while (source.next(step)) {
                profiler.observe(step);
                win32.observe(step);
                win64.observe(step);
                ++result.instructions;
            }
            result.profile = profiler.profile();
            s.insts(result.instructions);
            totals.profileSeconds += std::max(s.end() - drain, 0.0);
            totals.profileInsts += result.instructions;
        }
        if (wl.kind != Kind::Region)
            return;
        ops.check(w.name + " traced region pass",
                  checkRegion(result, w.studyInsts));
        digestRegion(digest, result);
    }

    /**
     * Plan the program's timed population and run every
     * representative, as the sweep's sampled mode does.  For long_run
     * this is call A and its estimate joins the digest.
     */
    void
    sample(std::size_t i, const std::shared_ptr<const trace::InMemoryTrace> &t)
    {
        const sweep::WorkloadSpec &w = wl.spec.workloads[i];
        sampling::SamplingConfig sc;
        sc.intervalInsts = wl.spec.samplingInterval;
        sc.clusters = wl.spec.samplingClusters;
        sc.warmupInsts = wl.spec.samplingWarmup;
        sampling::SamplingPlan plan;
        {
            SpanLog::Scope s(log, "sampling.plan", w.name);
            std::string error;
            const bool ok =
                sampling::buildPlan(*t, sc, w.warmup, w.timed, plan, &error);
            s.insts(plan.totalInsts);
            totals.planSeconds += s.end();
            if (!ok) {
                // A corpus program shorter than its warmup prefix has no
                // population to sample; the sweep never samples it.
                if (wl.kind == Kind::LongRun)
                    fatal("long_run: %s", error.c_str());
                return;
            }
        }
        totals.planInsts += plan.totalInsts;
        totals.planTimed += plan.timedInsts();
        totals.clusters += plan.reps.size();

        std::vector<sampling::RepMeasurement> meas;
        for (const sampling::Representative &rep : plan.reps) {
            SpanLog::Scope s(log, "ooo.sample", w.name,
                             wl.probeConfig.name);
            auto source = std::make_shared<trace::ReplaySource>(t);
            if (rep.warmupStart)
                source->seekTo(rep.warmupStart);
            ooo::OooCore core(wl.probeConfig, wl.programs[i], source);
            const InstCount warm = rep.start - rep.warmupStart;
            if (warm > rep.detail)
                core.warmup(warm - rep.detail, 0);
            const ooo::OooStats stats = core.runSample(rep.length, rep.detail);
            meas.push_back({stats.cycles, stats.instructions});
            s.insts(stats.instructions);
            totals.sampleSeconds += s.end();
        }
        if (wl.kind != Kind::LongRun)
            return;
        const sampling::SampledEstimate est =
            sampling::extrapolate(plan, meas);
        ooo::OooStats point;
        point.cycles = static_cast<Cycle>(std::llround(est.cycles));
        point.instructions = plan.totalInsts;
        digestTiming(digest, point);
        sampledEstimate = point;
    }

    /** One OoO run: warmup then the timed window, each a span. */
    ooo::OooStats
    oooRun(std::size_t i, const std::shared_ptr<const trace::InMemoryTrace> &t,
           ooo::MachineConfig config, InstCount budget)
    {
        const sweep::WorkloadSpec &w = wl.spec.workloads[i];
        if (wl.spec.cpiStack)
            config.cpiStack = true;
        auto source = std::make_shared<trace::ReplaySource>(t);
        ooo::OooCore core(config, wl.programs[i], source);
        const InstCount warm = std::min<InstCount>(w.warmup, t->size());
        {
            SpanLog::Scope s(log, "ooo.warmup", w.name, config.name);
            if (warm)
                core.warmup(warm);
            s.insts(warm);
            totals.warmupSeconds += s.end();
            totals.warmupInsts += warm;
        }
        SpanLog::Scope s(log, "ooo.run", w.name, config.name);
        const ooo::OooStats stats = core.run(budget);
        s.insts(stats.instructions);
        totals.runSeconds += s.end();
        totals.runInsts += stats.instructions;
        totals.runCycles += stats.cycles;
        return stats;
    }

    /** The workload's timing points (region_study: a bounded probe). */
    void
    oooRuns(std::size_t i, const std::shared_ptr<const trace::InMemoryTrace> &t)
    {
        const sweep::WorkloadSpec &w = wl.spec.workloads[i];
        if (wl.kind == Kind::Region) {
            oooRun(i, t, wl.probeConfig, kRegionOooProbeInsts);
            return;
        }
        for (const ooo::MachineConfig &config : wl.spec.configs) {
            const ooo::OooStats stats = oooRun(i, t, config, w.timed);
            ops.check(w.name + " " + config.name + " traced",
                      checkTiming(stats, w.timed,
                                  wl.spec.cpiStack || config.cpiStack));
            if (wl.kind == Kind::LongRun)
                ops.check("long_run traced sampling error",
                          samplingErrorPct(sampledEstimate, stats) <=
                                  kMaxSamplingErrorPct
                              ? ""
                              : "sampling error above the gate");
            digestTiming(digest, stats);
        }
    }

    /**
     * Paired, interleaved OooCore::run on one window, with and without
     * a TelemetryScope; the overhead is the relative gap of the medians.
     */
    void
    telemetryProbe(std::size_t i,
                   const std::shared_ptr<const trace::InMemoryTrace> &t)
    {
        const sweep::WorkloadSpec &w = wl.spec.workloads[i];
        const std::string path = opt.workDir + "/probe-telemetry.jsonl";
        std::filesystem::remove(path);
        obs::TelemetryOptions options;
        options.intervalInsts = kTelemetryProbeInterval;
        std::string error;
        auto channel = obs::TelemetryChannel::open(path, options, &error);
        if (!channel)
            fatal("telemetry probe: %s", error.c_str());
        const InstCount warm = std::min<InstCount>(w.warmup, t->size());
        std::vector<double> plain, beating;
        for (int pair = 0; pair < 2 * kTelemetryProbePairs; ++pair) {
            // Alternate which side of each pair runs first.
            const bool with = (pair % 2) != (pair / 2 % 2);
            obs::Hooks hooks;
            obs::TelemetryScope scope(channel.get(), pair, w.name,
                                      wl.probeConfig.name, -1,
                                      kTelemetryProbeInsts);
            if (with)
                hooks.telemetry = &scope;
            auto source = std::make_shared<trace::ReplaySource>(t);
            ooo::OooCore core(wl.probeConfig, wl.programs[i], source);
            core.attachObs(&hooks);
            if (warm)
                core.warmup(warm);
            SpanLog::Scope s(log, with ? "obs.run_telemetry" : "obs.run_plain",
                             w.name, wl.probeConfig.name);
            if (with)
                scope.start();
            const ooo::OooStats stats = core.run(kTelemetryProbeInsts);
            if (with)
                scope.done(stats.instructions, stats.cycles);
            s.insts(stats.instructions);
            (with ? beating : plain).push_back(s.end());
        }
        channel.reset();
        std::filesystem::remove(path);
        totals.telemetryOverheadPct =
            100.0 * ratio(median(beating) - median(plain), median(plain));
    }

    const Workload &wl;
    const Options &opt;
    SpanLog &log;
    ooo::OooStats sampledEstimate;
};

// ------------------------------------------------------------- output

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printDetail(const Options &opt, const std::string &digest,
            const std::string &expected, const Ops &ops,
            const std::vector<std::pair<std::string, double>> &numbers,
            const std::vector<std::pair<std::string, std::vector<double>>>
                &series)
{
    std::string line = "{\"workload\": \"" + obs::jsonEscape(opt.workload) +
                       "\", \"seed\": " + std::to_string(opt.seed) +
                       ", \"smoke\": " + (opt.smoke ? "true" : "false") +
                       ", \"traced\": " +
                       (opt.traceFile.empty() ? "false" : "true") +
                       ", \"sim_digest\": \"" + digest +
                       "\", \"expected_digest\": \"" + expected +
                       "\", \"ops_attempted\": " +
                       std::to_string(ops.attempted) +
                       ", \"ops_failed\": " + std::to_string(ops.failed);
    for (const auto &[name, value] : numbers)
        line += ", \"" + name + "\": " + obs::jsonNumber(value);
    for (const auto &[name, values] : series) {
        line += ", \"" + name + "\": [";
        for (std::size_t i = 0; i < values.size(); ++i)
            line += (i ? ", " : "") + obs::jsonNumber(values[i]);
        line += "]";
    }
    std::printf("%s}\n", line.c_str());
}

void
printSummary(const Ops &ops, const std::vector<Metric> &metrics)
{
    std::string line = std::string("{\"correct\": ") +
                       (ops.failed == 0 ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(ops.attempted) +
                       ", \"failed\": " + std::to_string(ops.failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                obs::jsonNumber(m.value) + ", \"unit\": \"" + m.unit +
                "\"}";
    }
    std::printf("%s}}\n", line.c_str());
    std::fflush(stdout);
}

/**
 * Compare @p digest with the stored seed-0 digest; a mismatch fails
 * every attempted operation.  @return the expected digest ("" when
 * the seed is not 0).
 */
std::string
gateDigest(const Options &opt, std::uint32_t digest, Ops &ops)
{
    if (opt.seed != 0)
        return "";
    const std::string expected = expectedDigest(opt);
    if (expected != hex(digest)) {
        std::fprintf(stderr,
                     "arl_benchmark: FAILED sim_digest %s != expected "
                     "'%s'\n",
                     hex(digest).c_str(), expected.c_str());
        ops.failed = ops.attempted;
    }
    return expected;
}

/**
 * One setup window: build the workload repeatedly for
 * kSetupWindowSeconds, appending each build's time to @p times.
 * @return the last workload built.
 */
Workload
timeSetups(const Options &opt, std::vector<double> &times)
{
    Workload wl;
    const Clock::time_point window = Clock::now();
    for (std::size_t n = 0; n < kSetupMinRepeats ||
                            secondsSince(window) < kSetupWindowSeconds;
         ++n) {
        const Clock::time_point start = Clock::now();
        Workload next = setup(opt, nullptr);
        times.push_back(secondsSince(start));
        wl = std::move(next);
    }
    return wl;
}

int
runUntraced(const Options &opt)
{
    std::vector<double> setups;
    const Workload wl = timeSetups(opt, setups);

    std::vector<Call> calls;
    std::vector<double> walls;
    Clock::time_point start = Clock::now();
    do {
        calls.push_back(timedCall(wl, opt));
        walls.push_back(calls.back().wallSeconds);
        timeSetups(opt, setups);
    } while (secondsSince(start) + median(walls) <= opt.seconds);

    Ops ops;
    for (const Call &call : calls) {
        ops.merge(call.ops);
        if (call.digest != calls[0].digest) {
            std::fprintf(stderr,
                         "arl_benchmark: FAILED a repeated call changed "
                         "sim_digest (%s != %s)\n",
                         hex(call.digest).c_str(),
                         hex(calls[0].digest).c_str());
            ops.failed += call.ops.attempted - call.ops.failed;
        }
    }
    spotChecks(wl, opt, calls[0], ops);
    const std::string expected = gateDigest(opt, calls[0].digest, ops);

    std::vector<double> cpus, rss;
    for (const Call &call : calls) {
        cpus.push_back(call.cpuSeconds);
        rss.push_back(call.peakRssMb);
    }
    const double cpu = median(cpus);
    std::vector<std::pair<std::string, double>> numbers = {
        {"stated_insts", calls[0].statedInsts},
        {"wall_s", median(walls)},
        {"sim_mips_wall", ratio(calls[0].statedInsts / 1e6, median(walls))},
        {"setup_reps", static_cast<double>(setups.size())},
        {"setup_s_min", *std::min_element(setups.begin(), setups.end())},
        {"setup_s_max", *std::max_element(setups.begin(), setups.end())}};
    for (const auto &entry : calls[0].detail)
        numbers.push_back(entry);
    printDetail(opt, hex(calls[0].digest), expected, ops, numbers,
                {{"wall_s_all", walls},
                 {"cpu_s_all", cpus},
                 {"peak_rss_mb_all", rss}});
    printSummary(ops,
                 {{"setup_s", median(setups), "s"},
                  {"cpu_s", cpu, "s"},
                  {"cpu_mips", ratio(calls[0].statedInsts / 1e6, cpu),
                   "MIPS"},
                  {"peak_rss_mb",
                   calls[0].peakRssMb > 0.0 ? calls[0].peakRssMb
                                            : obs::peakRssKb() / 1024.0,
                   "MB"}});
    return 0;
}

int
runTraced(const Options &opt)
{
    SpanLog log;
    const Workload wl = [&] {
        SpanLog::Scope s(log, "bench.setup", opt.workload);
        return setup(opt, &log);
    }();

    SpanLog::Scope root(log, "bench.traced", opt.workload);
    Call call;
    {
        SpanLog::Scope s(log, "sweep.call", opt.workload);
        call = timedCall(wl, opt);
    }
    TracedRun traced(wl, opt, log);
    traced.run();
    const double traced_wall = root.end();

    Ops ops = call.ops;
    ops.merge(traced.ops);
    if (traced.digest.value() != call.digest) {
        std::fprintf(stderr,
                     "arl_benchmark: FAILED the traced run's sim_digest %s "
                     "differs from the sweep's %s\n",
                     hex(traced.digest.value()).c_str(),
                     hex(call.digest).c_str());
        ops.failed += traced.ops.attempted - traced.ops.failed;
    }
    const std::string expected = gateDigest(opt, call.digest, ops);

    // Layer self time inside the traced root (everything after setup);
    // bench.* spans are this program's own glue.
    double covered = 0.0;
    const std::vector<SpanLog::Span> &spans = log.all();
    bool in_root = false;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        in_root = in_root || spans[i].name == "bench.traced";
        if (in_root && spans[i].name.compare(0, 6, "bench.") != 0)
            covered += log.selfSeconds(i);
    }
    double build_seconds = 0.0;
    for (const SpanLog::Span &span : spans)
        if (span.name == "workloads.build" || span.name == "corpus.assemble")
            build_seconds += span.dur;

    if (!log.writeChromeTrace(opt.traceFile)) {
        std::fprintf(stderr, "arl_benchmark: cannot write '%s'\n",
                     opt.traceFile.c_str());
        return 1;
    }

    const LayerTotals &t = traced.totals;
    const double records = static_cast<double>(t.recordInsts);
    const std::vector<Metric> metrics = {
        {"workloads.build_s", build_seconds, "s"},
        {"sim.step_mips", ratio(t.stepInsts / 1e6, t.stepSeconds), "MIPS"},
        {"trace.record_s", t.recordSeconds, "s"},
        {"trace.record_mips", ratio(records / 1e6, t.recordSeconds), "MIPS"},
        {"trace.mem_bytes_per_inst", ratio(t.memBytes, records), "B/inst"},
        {"trace.replay_mips", ratio(t.replayInsts / 1e6, t.replaySeconds),
         "MIPS"},
        {"trace.encode_s", t.encodeSeconds, "s"},
        {"trace.encode_mbps", ratio(t.diskBytes / 1e6, t.encodeSeconds),
         "MB/s"},
        {"trace.decode_s", t.decodeSeconds, "s"},
        {"trace.decode_mbps", ratio(t.diskBytes / 1e6, t.decodeSeconds),
         "MB/s"},
        {"trace.disk_bytes_per_inst",
         ratio(t.diskBytes, static_cast<double>(t.codecInsts)), "B/inst"},
        {"ooo.warmup_s", t.warmupSeconds, "s"},
        {"ooo.warmup_mips", ratio(t.warmupInsts / 1e6, t.warmupSeconds),
         "MIPS"},
        {"ooo.run_s", t.runSeconds, "s"},
        {"ooo.run_mips", ratio(t.runInsts / 1e6, t.runSeconds), "MIPS"},
        {"ooo.host_ns_per_cycle",
         ratio(t.runSeconds * 1e9, static_cast<double>(t.runCycles)), "ns"},
        {"ooo.cycles", static_cast<double>(t.runCycles), "count"},
        {"ooo.insts", static_cast<double>(t.runInsts), "count"},
        {"ooo.sample_s", t.sampleSeconds, "s"},
        {"ooo.vp_mops", ratio(t.vpOps / 1e6, t.vpSeconds), "Mops/s"},
        {"cache.access_mops", ratio(t.cacheAccesses / 1e6, t.cacheSeconds),
         "Mops/s"},
        {"cache.accesses", static_cast<double>(t.cacheAccesses), "count"},
        {"cache.timed_mops", ratio(t.timedAccesses / 1e6, t.timedSeconds),
         "Mops/s"},
        {"cache.l1_miss_pct",
         100.0 * ratio(static_cast<double>(t.cacheMisses),
                       static_cast<double>(t.cacheAccesses)),
         "%"},
        {"predict.observe_mops", ratio(t.observeOps / 1e6, t.observeSeconds),
         "Mops/s"},
        {"predict.arpt_mops", ratio(t.arptOps / 1e6, t.arptSeconds),
         "Mops/s"},
        {"predict.accuracy_pct",
         100.0 * ratio(static_cast<double>(t.hybridCorrect),
                       static_cast<double>(t.hybridTotal)),
         "%"},
        {"predict.arpt_resolved_pct",
         100.0 * ratio(static_cast<double>(t.hybridArpt),
                       static_cast<double>(t.hybridTotal)),
         "%"},
        {"profile.observe_mips", ratio(t.profileInsts / 1e6, t.profileSeconds),
         "MIPS"},
        {"sampling.plan_s", t.planSeconds, "s"},
        {"sampling.plan_mips", ratio(t.planInsts / 1e6, t.planSeconds),
         "MIPS"},
        {"sampling.coverage_pct",
         100.0 * ratio(static_cast<double>(t.planTimed),
                       static_cast<double>(t.planInsts)),
         "%"},
        {"sampling.clusters", static_cast<double>(t.clusters), "count"},
        {"sweep.parallel_eff",
         ratio(call.serialSeconds, call.sweepWall * wl.spec.jobs), "ratio"},
        {"sweep.serial_s", call.serialSeconds, "s"},
        {"sweep.trace_cache_hits", static_cast<double>(call.cacheHits),
         "count"},
        {"obs.telemetry_overhead_pct", t.telemetryOverheadPct, "%"},
        {"bench.trace_overhead_pct",
         100.0 * ratio(log.bookkeepingSeconds(), traced_wall), "%"},
        {"bench.span_coverage_pct", 100.0 * ratio(covered, traced_wall),
         "%"},
    };
    printDetail(opt, hex(call.digest), expected, ops,
                {{"traced_wall_s", traced_wall},
                 {"traced_digest_matches",
                  traced.digest.value() == call.digest ? 1.0 : 0.0}},
                {});
    printSummary(ops, metrics);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);
    kindOf(opt.workload);
    if (mkdir(opt.workDir.c_str(), 0777) != 0 && errno != EEXIST) {
        std::fprintf(stderr, "arl_benchmark: cannot create '%s'\n",
                     opt.workDir.c_str());
        return 1;
    }
    setLogLevel(LogLevel::Error);
    return opt.traceFile.empty() ? runUntraced(opt) : runTraced(opt);
}
