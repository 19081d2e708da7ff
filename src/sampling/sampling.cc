#include "sampling/sampling.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace arl::sampling
{

std::uint64_t
SamplingPlan::timedInsts() const
{
    std::uint64_t sum = 0;
    for (const Representative &rep : reps)
        sum += rep.length;
    return sum;
}

std::uint64_t
SamplingPlan::simulatedInsts() const
{
    std::uint64_t sum = 0;
    for (const Representative &rep : reps)
        sum += rep.length + rep.detail;
    return sum;
}

std::uint64_t
SamplingPlan::warmupInsts() const
{
    std::uint64_t sum = 0;
    for (const Representative &rep : reps)
        sum += (rep.start - rep.warmupStart) - rep.detail;
    return sum;
}

double
SamplingPlan::coveragePct() const
{
    return totalInsts
               ? 100.0 * static_cast<double>(timedInsts()) / totalInsts
               : 0.0;
}

namespace
{

bool
fail(std::string *error, const std::string &msg)
{
    if (error)
        *error = msg;
    return false;
}

/**
 * The checks every plan passes before it looks at a record: a sane
 * config and a non-empty population.  @p total receives the
 * population size.
 */
bool
checkPopulation(const std::string &program, InstCount recorded,
                const SamplingConfig &config, InstCount start,
                InstCount limit, InstCount &total, std::string *error)
{
    if (!checkConfig(config, error))
        return false;
    if (recorded == 0)
        return fail(error, "cannot sample an empty trace (workload '" +
                               program + "' recorded 0 instructions)");
    InstCount end = recorded;
    if (limit && start + limit < end)
        end = start + limit;
    if (start >= end)
        return fail(error, "cannot sample workload '" + program +
                               "': the warmup prefix consumes every "
                               "recorded instruction");
    total = end - start;
    return true;
}

/** Cluster @p features (population [start, start + total)). */
void
planFromFeatures(const std::vector<IntervalFeatures> &features,
                 const SamplingConfig &config, InstCount start,
                 InstCount total, SamplingPlan &out)
{
    KMeansConfig kc;
    kc.k = config.clusters;
    kc.seed = config.seed;
    KMeansResult clusters = cluster(features, kc);

    out = SamplingPlan{};
    out.startInst = start;
    out.totalInsts = total;
    out.intervalInsts = config.intervalInsts;
    out.clustersRequested = config.clusters;
    out.intervals = features.size();
    out.reps.reserve(clusters.k);
    for (unsigned c = 0; c < clusters.k; ++c) {
        const IntervalFeatures &iv =
            features[clusters.representatives[c]];
        Representative rep;
        rep.cluster = c;
        rep.interval = clusters.representatives[c];
        rep.start = iv.start;
        rep.length = iv.length;
        rep.warmupStart = iv.start > config.warmupInsts
                              ? iv.start - config.warmupInsts
                              : 0;
        rep.detail = std::min<InstCount>(rep.start - rep.warmupStart,
                                         config.detailInsts);
        for (std::size_t i = 0; i < features.size(); ++i)
            if (clusters.assignment[i] == c)
                rep.clusterInsts += features[i].length;
        rep.weight =
            static_cast<double>(rep.clusterInsts) / total;
        rep.dispersion = clusters.dispersion[c];
        out.reps.push_back(rep);
    }
}

} // namespace

bool
checkConfig(const SamplingConfig &config, std::string *error)
{
    if (config.intervalInsts == 0)
        return fail(error, "sampling interval must be > 0 instructions");
    if (config.clusters == 0)
        return fail(error, "sampling cluster count must be > 0");
    return true;
}

bool
buildPlan(const trace::InMemoryTrace &t, const SamplingConfig &config,
          InstCount start, InstCount limit, SamplingPlan &out,
          std::string *error)
{
    InstCount total = 0;
    if (!checkPopulation(t.program, t.size(), config, start, limit,
                         total, error))
        return false;
    planFromFeatures(
        extractFeatures(t, config.intervalInsts, start, total), config,
        start, total, out);
    return true;
}

bool
buildPlan(const std::vector<IntervalFeatures> &features,
          const std::string &program, InstCount recorded,
          const SamplingConfig &config, InstCount start, InstCount limit,
          SamplingPlan &out, std::string *error)
{
    InstCount total = 0;
    if (!checkPopulation(program, recorded, config, start, limit, total,
                         error))
        return false;
    planFromFeatures(features, config, start, total, out);
    return true;
}

SampledEstimate
extrapolate(const SamplingPlan &plan,
            const std::vector<RepMeasurement> &reps)
{
    if (reps.size() != plan.reps.size())
        fatal("sampling: %zu measurements for %zu representatives",
              reps.size(), plan.reps.size());
    SampledEstimate est;
    double err2 = 0.0;
    for (std::size_t c = 0; c < reps.size(); ++c) {
        InstCount insts = reps[c].instructions;
        if (insts == 0)
            fatal("sampling: representative %zu retired 0 "
                  "instructions", c);
        double scale = static_cast<double>(plan.reps[c].clusterInsts) /
                       static_cast<double>(insts);
        double cycles = scale * static_cast<double>(reps[c].cycles);
        est.cycles += cycles;
        // Cluster dispersion (normalised feature distance) as a
        // relative-error proxy for the cluster's cycle contribution.
        err2 += cycles * plan.reps[c].dispersion *
                (cycles * plan.reps[c].dispersion);
    }
    est.cpi = plan.totalInsts
                  ? est.cycles / static_cast<double>(plan.totalInsts)
                  : 0.0;
    est.ipc = est.cycles > 0.0
                  ? static_cast<double>(plan.totalInsts) / est.cycles
                  : 0.0;
    est.estErrorPct =
        est.cycles > 0.0 ? 100.0 * std::sqrt(err2) / est.cycles : 0.0;

    obs::SamplingReport &report = est.report;
    report.enabled = true;
    report.intervalInsts = plan.intervalInsts;
    report.clusters = plan.reps.size();
    report.clustersRequested = plan.clustersRequested;
    report.intervals = plan.intervals;
    report.totalInsts = plan.totalInsts;
    report.simulatedInsts = plan.simulatedInsts();
    report.coveragePct = plan.coveragePct();
    report.estCpi = est.cpi;
    report.estErrorPct = est.estErrorPct;
    for (std::size_t c = 0; c < reps.size(); ++c) {
        obs::SamplingReport::Representative rep;
        rep.cluster = plan.reps[c].cluster;
        rep.start = plan.reps[c].start;
        rep.length = plan.reps[c].length;
        rep.warmup = plan.reps[c].start - plan.reps[c].warmupStart;
        rep.weight = plan.reps[c].weight;
        rep.cycles = static_cast<double>(reps[c].cycles);
        rep.cpi = reps[c].instructions
                      ? static_cast<double>(reps[c].cycles) /
                            static_cast<double>(reps[c].instructions)
                      : 0.0;
        report.representatives.push_back(rep);
    }
    return est;
}

obs::StatsRegistry::Snapshot
mergeSnapshots(const SamplingPlan &plan, const SampledEstimate &est,
               const std::vector<RepMeasurement> &meas,
               const std::vector<obs::StatsRegistry::Snapshot> &reps)
{
    obs::StatsRegistry registry;
    registry.gauge("ooo.cycles") = est.cycles;
    registry.counter("ooo.instructions") = plan.totalInsts;
    registry.gauge("ooo.ipc") = est.ipc;
    registry.gauge("ooo.cpi") = est.cpi;
    // CPI-stack leaves scale with the same per-cluster factors as
    // cycles, so the extrapolated leaves still sum to ooo.cycles (up
    // to floating-point rounding).
    constexpr const char *StackPrefix = "ooo.cpi_stack.";
    for (std::size_t c = 0; c < reps.size(); ++c) {
        double scale = static_cast<double>(plan.reps[c].clusterInsts) /
                       static_cast<double>(meas[c].instructions);
        for (const auto &[name, value] : reps[c])
            if (name.rfind(StackPrefix, 0) == 0)
                registry.gauge(name) += scale * value;
    }
    registry.counter("sampling.clusters") = plan.reps.size();
    registry.counter("sampling.clusters_requested") =
        plan.clustersRequested;
    registry.counter("sampling.intervals") = plan.intervals;
    registry.counter("sampling.interval_insts") = plan.intervalInsts;
    registry.counter("sampling.total_insts") = plan.totalInsts;
    registry.counter("sampling.timed_insts") = plan.timedInsts();
    registry.counter("sampling.simulated_insts") =
        plan.simulatedInsts();
    registry.counter("sampling.warmup_insts") = plan.warmupInsts();
    registry.gauge("sampling.coverage_pct") = plan.coveragePct();
    registry.gauge("sampling.est_error_pct") = est.estErrorPct;
    registry.gauge("sampling.insts_speedup") =
        plan.simulatedInsts()
            ? static_cast<double>(plan.totalInsts) /
                  static_cast<double>(plan.simulatedInsts())
            : 0.0;
    return registry.snapshot();
}

} // namespace arl::sampling
