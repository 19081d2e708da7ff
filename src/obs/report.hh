/**
 * @file
 * Machine-readable run reports: the one JSON/CSV schema of every
 * `arl_sim --stats-json` (every simulating subcommand, `figure`
 * included) and `--stats-csv` document.
 *
 * Schema (schema_version 1):
 *
 *   {
 *     "schema_version": 1,
 *     "tool": "arl_sim",
 *     "command": "time",            // subcommand
 *     "runs": [
 *       {
 *         "workload": "compress_like",
 *         "config": "(2+0)",
 *         "stats": { "ooo.cycles": ..., "ooo.ipc": ..., ... },
 *         "intervals": {            // only with interval sampling
 *           "every": 100000,
 *           "names": [...],
 *           "samples": [ {"at": ..., "values": [...]}, ... ],
 *           "deltas":  [ {"at": ..., "values": [...]}, ... ]
 *         },
 *         "sampling": {             // only for phase-sampled runs
 *           "interval_insts": ..., "clusters": ...,
 *           "clusters_requested": ..., "intervals": ...,
 *           "total_insts": ..., "simulated_insts": ...,
 *           "coverage_pct": ..., "est_cpi": ...,
 *           "est_error_pct": ..., "measured_error_pct": ...,
 *           "representatives": [
 *             {"cluster": ..., "start": ..., "length": ...,
 *              "warmup": ..., "weight": ..., "cycles": ...,
 *              "cpi": ...}, ... ]
 *         }
 *       }
 *     ]
 *   }
 */

#ifndef ARL_OBS_REPORT_HH
#define ARL_OBS_REPORT_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/host_meta.hh"
#include "obs/sampler.hh"
#include "obs/stats_registry.hh"

namespace arl::obs
{

struct Hooks;

/** Interval-sampling section of one run. */
struct IntervalReport
{
    std::uint64_t every = 0;  ///< 0 = sampling was disabled
    std::vector<std::string> names;
    std::vector<IntervalSampler::Sample> samples;
    std::vector<IntervalSampler::Sample> deltas;
};

/**
 * Phase-sampling section of one run (src/sampling).  Everything a
 * reader needs to audit the estimate: the knobs, the coverage, the
 * chosen representatives, and the estimated vs measured error.
 */
struct SamplingReport
{
    bool enabled = false;  ///< false = section omitted from JSON
    std::uint64_t intervalInsts = 0;
    std::uint64_t clusters = 0;           ///< effective k
    std::uint64_t clustersRequested = 0;  ///< CLI k before clamping
    std::uint64_t intervals = 0;
    std::uint64_t totalInsts = 0;      ///< extrapolation population
    std::uint64_t simulatedInsts = 0;  ///< timed + warmup actually run
    double coveragePct = 0.0;          ///< timed / population
    double estCpi = 0.0;
    /** Dispersion-based confidence interval, percent (heuristic). */
    double estErrorPct = 0.0;
    /** |sampled - full| / full CPI, percent; < 0 = not verified. */
    double measuredErrorPct = -1.0;
    struct Representative
    {
        std::uint64_t cluster = 0;
        std::uint64_t start = 0;   ///< first timed record
        std::uint64_t length = 0;  ///< timed records
        std::uint64_t warmup = 0;  ///< warmup records before start
        double weight = 0.0;       ///< cluster population share
        double cycles = 0.0;       ///< measured cycles
        double cpi = 0.0;          ///< measured CPI
    };
    std::vector<Representative> representatives;
};

/** One (workload, config) run. */
struct RunRecord
{
    std::string workload;
    std::string config;
    StatsRegistry::Snapshot stats;
    IntervalReport intervals;
    SamplingReport sampling;

    /** Capture registry snapshot + sampler state from @p hooks. */
    static RunRecord fromHooks(const std::string &workload,
                               const std::string &config,
                               const Hooks &hooks);
};

/** A full report: tool identity plus one record per run. */
struct Report
{
    std::string tool = "arl_sim";
    std::string command;
    std::vector<RunRecord> runs;

    /**
     * Optional self-description: git SHA, build type, compiler,
     * wall timestamp (injectable clock), arl version.  Stamped by
     * the CLI sinks; never by SweepResult::toReport(), which
     * is how golden files stay meta-free and byte-deterministic.
     */
    bool hasMeta = false;
    HostMeta meta;

    /** Fill the meta block from the running host (hostMeta()). */
    void
    stampMeta()
    {
        meta = obs::hostMeta();
        hasMeta = true;
    }

    /** Serialize the schema above. */
    void writeJson(std::ostream &os) const;

    /**
     * Flat CSV: one "workload,config,stat,value" row per stat of
     * every run (intervals are JSON-only).
     */
    void writeCsv(std::ostream &os) const;

    /**
     * Write the JSON document to @p path.
     * @return false (with a warning) when the file cannot be written.
     */
    bool writeJsonFile(const std::string &path) const;

    /** Write the CSV rendering to @p path. */
    bool writeCsvFile(const std::string &path) const;
};

} // namespace arl::obs

#endif // ARL_OBS_REPORT_HH
