/**
 * @file
 * Phase-sampled timing: plan construction and extrapolation.
 *
 * The paper's SPEC95 runs cover 220-684 M instructions; full OoO
 * timing at that depth is ~100x our budget.  Phase sampling closes
 * the gap the SimPoint way, tuned for this memory study ("Memory
 * Access Vectors", PAPERS.md): fingerprint fixed-length trace
 * intervals with region-access feature vectors (features.hh),
 * cluster them into phases with deterministic k-means (kmeans.hh),
 * detail-simulate only each phase's representative interval behind a
 * functional warmup window, and extrapolate the whole-run CPI stack
 * as the cluster-population-weighted sum of the representatives.
 *
 * The split of labour with the sweep engine: buildPlan() here is
 * pure planning (records in, representative windows out), the sweep
 * runs each representative's window as one timing window of its row,
 * one job per config (byte-identical across --jobs values, like every
 * other grid job), and
 * extrapolate() folds the measurements back into one estimate with a
 * dispersion-based confidence interval.  Everything is deterministic
 * in (trace bytes, config).
 */

#ifndef ARL_SAMPLING_SAMPLING_HH
#define ARL_SAMPLING_SAMPLING_HH

#include <string>
#include <vector>

#include "obs/report.hh"
#include "obs/stats_registry.hh"
#include "sampling/kmeans.hh"

namespace arl::sampling
{

/** Phase-sampling knobs (CLI: --sampling --interval-insts --clusters). */
struct SamplingConfig
{
    /** Interval length in instructions. */
    InstCount intervalInsts = 10000;
    /** Requested phase count k (clamped to distinct intervals). */
    unsigned clusters = 6;
    /**
     * Warmup consumed before each representative's timed window
     * (clamped to the records preceding it).  The tail of the window
     * (detailInsts) runs through the detailed pipeline; the rest is
     * functional.
     */
    InstCount warmupInsts = 5000;
    /**
     * Detailed (timed-pipeline, but unmeasured) warmup instructions
     * taken from the tail of the warmup window.  Functional warmup
     * alone leaves each window to start from an empty ROB and cold
     * contention state, which inflates measured CPI by a
     * per-window transient; running the last slice of the warmup
     * through the real pipeline and fencing the statistics
     * afterwards (OooCore::runSample) removes it, SMARTS-style.
     */
    InstCount detailInsts = 3000;
    /** k-means seed. */
    std::uint64_t seed = 0xA8C7;
};

/** One cluster's representative interval, ready to simulate. */
struct Representative
{
    /** Cluster this interval stands for. */
    std::uint32_t cluster = 0;
    /** Interval index within the feature pass. */
    std::size_t interval = 0;
    /** First timed record. */
    InstCount start = 0;
    /** Timed records (== interval length, short for the tail). */
    InstCount length = 0;
    /** Record the warmup window starts at (seek target). */
    InstCount warmupStart = 0;
    /**
     * Instructions of the warmup tail run through the detailed
     * pipeline (start - detail .. start); the prefix from
     * warmupStart is functional.
     */
    InstCount detail = 0;
    /** Instructions across all member intervals of the cluster. */
    std::uint64_t clusterInsts = 0;
    /** clusterInsts / population instructions. */
    double weight = 0.0;
    /** Cluster dispersion (kmeans.hh) — the error-bound input. */
    double dispersion = 0.0;
};

/** The full sampling decision for one workload population. */
struct SamplingPlan
{
    /** First record of the population (the workload's warmup skip). */
    InstCount startInst = 0;
    /** Population: instructions the estimate extrapolates to. */
    InstCount totalInsts = 0;
    InstCount intervalInsts = 0;
    unsigned clustersRequested = 0;
    /** Intervals fingerprinted. */
    std::size_t intervals = 0;
    /** One entry per effective cluster, cluster order. */
    std::vector<Representative> reps;

    /** Timed instructions across representatives. */
    std::uint64_t timedInsts() const;
    /** Detailed-pipeline instructions (timed + detailed warmup). */
    std::uint64_t simulatedInsts() const;
    /** Functional-warmup instructions across representatives. */
    std::uint64_t warmupInsts() const;
    /** timedInsts / totalInsts, percent. */
    double coveragePct() const;
};

/**
 * Build the plan for records [@p start, @p start + @p limit) of
 * @p t (@p limit = 0: to the end of the trace).  @p start is the
 * workload's warmup prefix, so the population matches exactly what a
 * full (non-sampled) timing run measures, and early intervals can
 * warm from the prefix.  @return false with a user-facing message in
 * @p error when the population is empty or the config is degenerate;
 * never fatals.
 */
bool buildPlan(const trace::InMemoryTrace &t,
               const SamplingConfig &config, InstCount start,
               InstCount limit, SamplingPlan &out, std::string *error);

/**
 * buildPlan() for a trace that is not held decoded: @p features are
 * what a FeatureStream(config.intervalInsts, @p start, @p limit)
 * gathered while the trace's @p recorded records went past, so no
 * pass decodes the trace just to plan.  Same checks, same plan.
 */
bool buildPlan(const std::vector<IntervalFeatures> &features,
               const std::string &program, InstCount recorded,
               const SamplingConfig &config, InstCount start,
               InstCount limit, SamplingPlan &out, std::string *error);

/**
 * The config checks buildPlan() starts with (interval length and
 * cluster count), for callers that must reject a config before any
 * record exists.  @return false with buildPlan()'s message.
 */
bool checkConfig(const SamplingConfig &config, std::string *error);

/** What the sweep measured for one representative. */
struct RepMeasurement
{
    Cycle cycles = 0;
    InstCount instructions = 0;
};

/** The extrapolated whole-run estimate. */
struct SampledEstimate
{
    /** Estimated whole-population cycles. */
    double cycles = 0.0;
    double cpi = 0.0;
    double ipc = 0.0;
    /**
     * Dispersion-weighted relative confidence interval, percent: a
     * heuristic error *estimate* from cluster homogeneity, reported
     * alongside (never instead of) the measured error the
     * differential tests pin.
     */
    double estErrorPct = 0.0;
    /** Machine-readable report section (obs/report.hh). */
    obs::SamplingReport report;
};

/**
 * Fold per-representative measurements (plan order) back into a
 * whole-population estimate.  Each cluster's cycles are scaled by
 * clusterInsts / measured instructions, so the CPI stack leaves
 * extrapolated with the same factors still sum to estimated cycles.
 */
SampledEstimate extrapolate(const SamplingPlan &plan,
                            const std::vector<RepMeasurement> &reps);

/**
 * Merge per-representative registry snapshots into the sampled run's
 * snapshot: extrapolated ooo.cycles / ooo.ipc / ooo.cpi_stack.*
 * plus the sampling.* summary keys.  Raw per-representative counters
 * are deliberately not summed — a sampled run reports the estimate,
 * not a misleading partial census.
 */
obs::StatsRegistry::Snapshot
mergeSnapshots(const SamplingPlan &plan, const SampledEstimate &est,
               const std::vector<RepMeasurement> &meas,
               const std::vector<obs::StatsRegistry::Snapshot> &reps);

} // namespace arl::sampling

#endif // ARL_SAMPLING_SAMPLING_HH
