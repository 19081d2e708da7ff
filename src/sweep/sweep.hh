/**
 * @file
 * Parallel experiment sweep engine.
 *
 * Every §3/§4 reproduction is a grid walk: workloads × machine
 * configurations (timing, Fig 8 and the ablations) or workloads ×
 * predictor schemes (region studies, Figs 4/5).  Run serially, each
 * grid point re-builds and re-simulates its workload from scratch;
 * this engine instead
 *
 *  1. builds each workload's Program once and, when something needs
 *     a recording (a sampling plan, or a trace cache on a timing
 *     grid), records its dynamic instruction trace once, held as its
 *     v2 encoding (about 5 B per instruction; optionally persisted as
 *     a v2 trace file in an on-disk cache) — every other row is a
 *     *live row* and records nothing — then
 *  2. shards the grid across a thread pool in *groups*: a group is
 *     one row plus a contiguous range of its configs, whose OooCores
 *     (each with its own obs::StatsRegistry) advance in lock-step
 *     over one shared instruction stream.  The group produces the
 *     stream once, a block at a time into a small ring — from a
 *     functional simulator of its own on a live row, else by decoding
 *     the row's recording — and each core reads the ring, pausing
 *     when it runs short (ooo/core.hh).  A row's region pass streams
 *     on its own the same two ways.  No decoded trace is ever held:
 *     past the recorded rows' encodings, memory grows neither with
 *     trace length nor with the number of rows — and
 *  3. merges results in declaration (workload-major, config-minor)
 *     order, so the output is byte-identical no matter how many
 *     worker threads ran — `--jobs 1` and `--jobs N` produce the
 *     same report (tests/test_differential.cc asserts this, and
 *     tests/golden/ pins the numbers).
 *
 * Every timing number the tools print comes from here: `arl_sim
 * time` is a one-row sweep, and its sinks and interval sampler ride
 * on caller-owned per-point Hooks (SweepSpec::hooks).
 *
 * Determinism rests on three facts: trace recording is
 * bit-reproducible, trace replay into an OooCore or a region pass is
 * bit-identical to live co-simulation, and a core paused and resumed
 * on a short stream ends exactly where an unpaused one does, so no
 * result depends on how configs are grouped (the differential and
 * OoO tests cover all three).  Wall-clock figures (which
 * legitimately vary run to run) are kept out of toReport() and
 * exposed separately via addTimingStats() under the sweep.* prefix.
 */

#ifndef ARL_SWEEP_SWEEP_HH
#define ARL_SWEEP_SWEEP_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "obs/report.hh"
#include "obs/stats_registry.hh"
#include "obs/telemetry.hh"
#include "ooo/config.hh"
#include "ooo/core.hh"
#include "predict/compiler_hints.hh"
#include "predict/region_predictor.hh"
#include "profile/region_profiler.hh"
#include "profile/window_profiler.hh"
#include "sim/step_source.hh"
#include "trace/trace.hh"

namespace arl::obs
{
struct Hooks;
}

namespace arl::sweep
{

/** One workload row of the grid. */
struct WorkloadSpec
{
    /** Registered workload name (workloads::buildWorkload), or the
     *  display name of a corpus program when sourcePath is set. */
    std::string name;
    /**
     * When non-empty, assemble this `.s` file (the --workload-dir
     * corpus axis) instead of consulting the workload registry.
     * Trace-cache entries are keyed by the source bytes' CRC32, so
     * editing the file invalidates its cache entry.
     */
    std::string sourcePath;
    unsigned scale = 1;
    /** Functional fast-forward before the timed window (§4). */
    InstCount warmup = 0;
    /** Timed instruction budget (0 = to completion). */
    InstCount timed = 0;
    /** Region-study instruction cap (0 = full execution). */
    InstCount studyInsts = 0;
    /**
     * Warm microarchitectural state only from the last N fast-forward
     * instructions (0 = all of them, the classic methodology).  The
     * whole prefix still streams; the records before the window only
     * advance the stream.  A bounded window changes results.
     */
    InstCount warmupWindow = 0;
};

/** One named predictor scheme column of a region-study grid. */
struct SchemeSpec
{
    std::string name;
    predict::RegionPredictorConfig config;
};

/** The declarative grid. */
struct SweepSpec
{
    std::vector<WorkloadSpec> workloads;
    /** Timing grid: one OoO run per workload × config. */
    std::vector<ooo::MachineConfig> configs;
    /**
     * Region-study grid: one pass per workload feeds every scheme
     * (the §3 methodology evaluates all schemes in one pass).  The
     * pass replays the workload's recording when the row records
     * one; otherwise it streams from a live functional simulator of
     * its own.  When any scheme sets
     * useCompilerHints, a training pass over the same study window
     * first builds the row's profile hints (§3.5.2).
     */
    std::vector<SchemeSpec> schemes;
    /**
     * Worker threads; 0 = hardware concurrency, 1 = serial.  Each
     * row's configs split into min(configs, ceil(jobs / workloads))
     * groups — enough to keep every worker busy, and no more, since
     * each group produces its stream once.  Results never depend on
     * the split.
     */
    unsigned jobs = 1;
    /**
     * Directory for the on-disk trace cache ("" = in-memory only).
     * Entries are v2 files keyed by workload, scale and window
     * length; recording is bit-reproducible, so hits are
     * byte-equivalent to fresh recordings.  Only grids with timing
     * configs use it: a cache makes every row of such a grid record
     * (or load) its trace, while a region-only sweep never reads or
     * writes the cache.
     */
    std::string traceCacheDir;
    /**
     * Force per-cycle stall attribution (ooo.cpi_stack.* and the
     * load-to-use histogram) on every timing config, ideal ones
     * included; contended configs account regardless.  Observation
     * only — timing numbers are unchanged, reports gain keys.
     */
    bool cpiStack = false;
    /**
     * Phase-sampled timing (src/sampling): fingerprint the trace in
     * fixed-length intervals, cluster the intervals into phases, and
     * detail-simulate only each phase's representative window,
     * extrapolating whole-run CPI with a confidence interval.  The
     * population per point is the timed window after the workload's
     * warmup prefix — exactly the records an unsampled timing point
     * measures — so estimates are comparable with full-run goldens,
     * and a verify run repeats the unsampled flow (functional
     * warmup, then the timed window) for the measured error.
     * Deterministic and byte-identical across --jobs values, like
     * the exact path.
     */
    bool sampling = false;
    /** Sampling interval length in instructions. */
    InstCount samplingInterval = 10000;
    /** Requested phase count k (clamped to distinct intervals). */
    unsigned samplingClusters = 6;
    /** Warmup before each representative window (the tail runs
     *  through the detailed pipeline, the rest is functional). */
    InstCount samplingWarmup = 5000;
    /**
     * Also run the full population per sampled timing point and
     * record the measured CPI error next to the estimate.  Costs
     * what sampling saved; for tests and walkthroughs.
     */
    bool samplingVerify = false;
    /**
     * Optional shared telemetry channel (non-owning; the CLI owns
     * it and its lifetime spans the sweep).  The coordinator emits
     * per-job start/done records, every timing job streams
     * heartbeats through its own TelemetryScope — sampled points
     * per representative — and a watchdog thread flags jobs whose
     * heartbeat stalls longer than telemetryStallSec.  Observation
     * only: results and reports are byte-identical with or without
     * a channel attached.
     */
    obs::TelemetryChannel *telemetry = nullptr;
    /** Watchdog stall threshold in seconds (0 = no watchdog). */
    double telemetryStallSec = 30.0;
    /**
     * Optional caller-owned observability contexts (non-owning), one
     * per exact timing point in result order (workload-major,
     * config-minor); empty by default, when every job keeps a
     * private Hooks.  A point given one registers its core's stats
     * into it, arms its interval sampler after warmup, and finishes
     * it after the run (the sinks' process name is "<workload>
     * <config>"), leaving the final snapshot in place for
     * obs::RunRecord::fromHooks — so the sinks opened on it
     * beforehand see exactly the timed window.  Exact sweeps only: a
     * sampled sweep given hooks is fatal.
     */
    std::vector<obs::Hooks *> hooks;
};

/** Result of one timing grid point. */
struct TimingPoint
{
    std::string workload;
    std::string config;
    ooo::OooStats stats;
    /** Frozen per-job registry (the --stats-json record body). */
    obs::StatsRegistry::Snapshot snapshot;
    /** Phase-sampling audit trail (enabled only in sampled mode). */
    obs::SamplingReport sampling;
};

/** Result of one workload's region-study pass. */
struct RegionPoint
{
    std::string workload;
    InstCount instructions = 0;
    profile::RegionProfile profile;
    profile::WindowStats window32;
    profile::WindowStats window64;
    /** Per-scheme accuracy reports, in SweepSpec::schemes order. */
    std::vector<std::pair<std::string, predict::PredictorReport>>
        schemes;
    obs::StatsRegistry::Snapshot snapshot;
};

/** Merged sweep output plus engine-level metering. */
struct SweepResult
{
    /** Timing points, workload-major then config order. */
    std::vector<TimingPoint> timing;
    /** Region points, workload order. */
    std::vector<RegionPoint> region;
    /** Configs per workload row (timing stride). */
    std::size_t numConfigs = 0;

    // --- engine metering (varies run to run; never in toReport) ---
    unsigned jobs = 1;
    double wallSeconds = 0.0;
    /** Sum of per-job times: what a serial run would have cost. */
    double serialSecondsEstimate = 0.0;
    /**
     * Instructions recorded per workload, summed; a live row counts
     * the longest stretch any of its readers streamed, which is what
     * recording it would have captured.
     */
    std::uint64_t traceInstructions = 0;
    std::uint64_t traceCacheHits = 0;
    std::uint64_t traceCacheMisses = 0;
    /** On-disk bytes of cache entries read or written this run. */
    std::uint64_t traceDiskBytes = 0;
    /** Wall time spent loading + decoding cache hits. */
    double traceDecodeSeconds = 0.0;

    /** Timing point (wi, ci). */
    const TimingPoint &
    at(std::size_t wi, std::size_t ci) const
    {
        return timing[wi * numConfigs + ci];
    }

    /** Parallel speedup vs the serial estimate. */
    double
    speedup() const
    {
        return wallSeconds > 0.0 ? serialSecondsEstimate / wallSeconds
                                 : 0.0;
    }

    /**
     * How many times smaller the cache entries are than the same
     * records as raw 32-byte TraceRecords (0 without a cache).  A grid
     * that touches the cache records or loads every row, so
     * traceInstructions counts exactly the cached records.
     */
    double compressionRatio() const;

    /**
     * One RunRecord per grid point plus a "sweep"/"summary" record of
     * grid-shape stats.  Fully deterministic: byte-identical across
     * --jobs values, cache hits vs misses, and repeated runs.
     */
    obs::Report toReport(const std::string &command = "sweep") const;

    /**
     * Register the run-to-run metering (sweep.wall_seconds,
     * sweep.speedup, sweep.jobs, trace-cache hit counts) into @p
     * registry.  Kept out of toReport() so determinism checks stay
     * byte-exact.
     */
    void addTimingStats(obs::StatsRegistry &registry) const;
};

/**
 * Run the grid.  Deterministic: the returned points depend only on
 * the spec, never on jobs/threads/cache state.
 */
SweepResult runSweep(const SweepSpec &spec);

/**
 * One §3 region pass: pull instructions from @p source until it ends
 * or @p study_insts have been studied (0 = no cap), feeding the
 * region profiler, the 32- and 64-instruction window profilers, and
 * one RegionPredictor per scheme.  Every region study runs through
 * here: both sweep paths (live and replayed), `arl_sim profile` over
 * a live simulator and `arl_sim replay` over a trace file, each of
 * which writes the point's snapshot as its report.
 *
 * @param hints compiler hints for schemes whose config sets
 *        useCompilerHints (required by those, ignored by the rest).
 * @param hooks optional observability: the pass reports the studied
 *        instructions and their access mix to it (Hooks::progress),
 *        which beats its telemetry scope.
 */
RegionPoint runRegionPass(const std::string &workload,
                          sim::StepSource &source,
                          const std::vector<SchemeSpec> &schemes,
                          InstCount study_insts = 0,
                          const predict::CompilerHints *hints = nullptr,
                          obs::Hooks *hooks = nullptr);

/** The worker count a --jobs value asks for: 0 = one per core. */
unsigned resolveJobs(unsigned jobs);

/**
 * Run fn(0..count) on up to @p jobs worker threads, the pool every
 * sweep runs on.  Work items are claimed from an atomic cursor, so
 * scheduling is dynamic, but every item writes only its own result
 * slot — output order never depends on the interleaving.  jobs <= 1
 * runs inline on the caller.
 */
void runJobs(std::size_t count, unsigned jobs,
             const std::function<void(std::size_t)> &fn);

/**
 * Convenience: all registered workloads as WorkloadSpecs at @p scale
 * with their registry warmups and a @p timed budget per point.
 */
std::vector<WorkloadSpec> allWorkloadSpecs(unsigned scale,
                                           InstCount timed);

} // namespace arl::sweep

#endif // ARL_SWEEP_SWEEP_HH
