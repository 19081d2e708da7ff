/**
 * @file
 * The sampling test pyramid's lower floors: unit tests for the
 * deterministic k-means clusterer and the interval fingerprints,
 * plan-construction edge cases (empty traces, degenerate knobs), and
 * the differential layer the tentpole promises:
 *
 *  - phase-sampled CPI within 2% of the full-run number on *every*
 *    fig8 grid point, measured by the sweep's own --sampling-verify
 *    path, while detail-simulating at least 5x fewer instructions;
 *  - sampled reports byte-identical between jobs=1 and jobs=8.
 *
 * Everything is seeded; there is no wall-clock or host dependence
 * anywhere in the sampled pipeline.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "core/experiment.hh"
#include "ooo/config.hh"
#include "sampling/features.hh"
#include "sampling/kmeans.hh"
#include "sampling/sampling.hh"
#include "sweep/sweep.hh"
#include "trace/replay.hh"
#include "workloads/workloads.hh"

using namespace arl;

namespace
{

/** Synthetic feature vectors drawn from @p phases well-separated
 *  phase centres, perturbed by a seeded rng. */
std::vector<sampling::IntervalFeatures>
syntheticIntervals(std::size_t n, unsigned phases, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<sampling::IntervalFeatures> out;
    for (std::size_t i = 0; i < n; ++i) {
        sampling::IntervalFeatures iv;
        iv.start = static_cast<InstCount>(i) * 1000;
        iv.length = 1000;
        const unsigned phase = static_cast<unsigned>(i) % phases;
        for (unsigned f = 0; f < sampling::NumFeatures; ++f)
            iv.f[f] = static_cast<double>((phase + 1) * (f + 1)) /
                          (phases * sampling::NumFeatures) +
                      0.001 * rng.nextDouble();
        out.push_back(iv);
    }
    return out;
}

void
expectValidClustering(const std::vector<sampling::IntervalFeatures> &ivs,
                      const sampling::KMeansResult &r)
{
    ASSERT_EQ(r.assignment.size(), ivs.size());
    ASSERT_EQ(r.centroids.size(), r.k);
    ASSERT_EQ(r.sizes.size(), r.k);
    ASSERT_EQ(r.representatives.size(), r.k);
    ASSERT_EQ(r.dispersion.size(), r.k);
    std::vector<std::uint64_t> counted(r.k, 0);
    for (std::uint32_t a : r.assignment) {
        ASSERT_LT(a, r.k);
        ++counted[a];
    }
    for (unsigned c = 0; c < r.k; ++c) {
        EXPECT_EQ(counted[c], r.sizes[c]) << "cluster " << c;
        EXPECT_GT(r.sizes[c], 0u) << "empty cluster " << c;
        ASSERT_LT(r.representatives[c], ivs.size());
        EXPECT_EQ(r.assignment[r.representatives[c]], c)
            << "representative outside its own cluster";
        EXPECT_GE(r.dispersion[c], 0.0);
    }
}

bool
sameClustering(const sampling::KMeansResult &a,
               const sampling::KMeansResult &b)
{
    return a.k == b.k && a.iterations == b.iterations &&
           a.assignment == b.assignment && a.sizes == b.sizes &&
           a.representatives == b.representatives &&
           a.centroids == b.centroids && a.dispersion == b.dispersion;
}

} // namespace

TEST(KMeans, FixedSeedIsDeterministic)
{
    auto ivs = syntheticIntervals(60, 4, 0x5EED);
    sampling::KMeansConfig config;
    config.k = 4;
    sampling::KMeansResult first = sampling::cluster(ivs, config);
    sampling::KMeansResult second = sampling::cluster(ivs, config);
    expectValidClustering(ivs, first);
    EXPECT_TRUE(sameClustering(first, second))
        << "same input + same seed must reproduce bit-identically";
    // A different seed must still produce a *valid* clustering (it
    // may or may not coincide with the first).
    config.seed = 0xBADC0DE;
    expectValidClustering(ivs, sampling::cluster(ivs, config));
}

TEST(KMeans, FewerIntervalsThanKClampsK)
{
    auto ivs = syntheticIntervals(3, 3, 7);
    sampling::KMeansConfig config;
    config.k = 8;
    sampling::KMeansResult r = sampling::cluster(ivs, config);
    EXPECT_LE(r.k, 3u);
    EXPECT_GE(r.k, 1u);
    expectValidClustering(ivs, r);
}

TEST(KMeans, AllIdenticalVectorsCollapseToOneCluster)
{
    std::vector<sampling::IntervalFeatures> ivs(10);
    for (std::size_t i = 0; i < ivs.size(); ++i) {
        ivs[i].start = static_cast<InstCount>(i) * 100;
        ivs[i].length = 100;
        ivs[i].f.fill(0.25);
    }
    sampling::KMeansConfig config;
    config.k = 6;
    sampling::KMeansResult r = sampling::cluster(ivs, config);
    EXPECT_EQ(r.k, 1u);
    expectValidClustering(ivs, r);
    EXPECT_EQ(r.sizes[0], ivs.size());
    EXPECT_DOUBLE_EQ(r.dispersion[0], 0.0);
}

TEST(KMeans, SingleInterval)
{
    auto ivs = syntheticIntervals(1, 1, 1);
    sampling::KMeansConfig config;
    config.k = 6;
    sampling::KMeansResult r = sampling::cluster(ivs, config);
    EXPECT_EQ(r.k, 1u);
    EXPECT_EQ(r.representatives[0], 0u);
    expectValidClustering(ivs, r);
}

TEST(KMeans, EmptyInputYieldsEmptyResult)
{
    sampling::KMeansResult r =
        sampling::cluster({}, sampling::KMeansConfig{});
    EXPECT_EQ(r.k, 0u);
    EXPECT_TRUE(r.assignment.empty());
    EXPECT_TRUE(r.representatives.empty());
}

namespace
{

std::shared_ptr<const trace::InMemoryTrace>
recordWorkload(const char *name, InstCount insts)
{
    auto program = workloads::buildWorkload(name, 1);
    return trace::recordToMemory(program, insts,
                                 trace::DefaultBlockRecords);
}

} // namespace

TEST(Features, SlicesIntervalsWithTrueTailLength)
{
    auto t = recordWorkload("li_like", 25000);
    ASSERT_EQ(t->records.size(), 25000u);
    auto ivs = sampling::extractFeatures(*t, 10000);
    ASSERT_EQ(ivs.size(), 3u);
    EXPECT_EQ(ivs[0].start, 0u);
    EXPECT_EQ(ivs[0].length, 10000u);
    EXPECT_EQ(ivs[2].start, 20000u);
    EXPECT_EQ(ivs[2].length, 5000u);
    for (const auto &iv : ivs)
        for (unsigned f = 0; f < sampling::NumFeatures; ++f) {
            EXPECT_GE(iv.f[f], 0.0);
            EXPECT_LE(iv.f[f], 1.0) << sampling::featureName(f);
        }
}

TEST(Features, StartOffsetShiftsThePopulation)
{
    auto t = recordWorkload("li_like", 25000);
    auto ivs = sampling::extractFeatures(*t, 10000, 5000);
    ASSERT_EQ(ivs.size(), 2u);
    EXPECT_EQ(ivs[0].start, 5000u);
    EXPECT_EQ(ivs[1].start, 15000u);
    EXPECT_EQ(ivs[1].length, 10000u);
    // A bounded population keeps the same absolute indexing.
    auto bounded = sampling::extractFeatures(*t, 10000, 5000, 12000);
    ASSERT_EQ(bounded.size(), 2u);
    EXPECT_EQ(bounded[1].start, 15000u);
    EXPECT_EQ(bounded[1].length, 2000u);
}

TEST(Features, StreamedFeaturesEqualExtractFeatures)
{
    // A window starting inside a block and, when bounded, ending
    // mid-interval: [1500, 24956) in 10000-record intervals.
    constexpr InstCount kBlock = 1024, kStart = 1500, kLimit = 23456;
    constexpr InstCount kInterval = 10000;
    auto program = workloads::buildWorkload("li_like", 1);
    auto decoded = trace::recordToMemory(program, 30000, kBlock);
    const std::string path =
        ::testing::TempDir() + "arl_streamed_features.arlt";
    trace::saveTrace(path, *decoded);

    auto expect_same = [](const std::vector<sampling::IntervalFeatures> &a,
                          const std::vector<sampling::IntervalFeatures> &b) {
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].start, b[i].start) << i;
            EXPECT_EQ(a[i].length, b[i].length) << i;
            EXPECT_EQ(a[i].f, b[i].f) << i;
        }
    };
    for (InstCount limit : {kLimit, InstCount{0}}) {
        SCOPED_TRACE("limit " + std::to_string(limit));
        auto want =
            sampling::extractFeatures(*decoded, kInterval, kStart, limit);
        ASSERT_EQ(want.size(), 3u);
        EXPECT_EQ(want.back().length, limit ? 3456u : 8500u);

        // Fingerprinted while recording...
        sampling::FeatureStream recorded(kInterval, kStart, limit);
        auto encoded =
            trace::recordEncoded(program, 30000, kBlock, &recorded);
        auto streamed = recorded.finish();
        expect_same(streamed, want);
        // ...and while validating a cached copy.
        sampling::FeatureStream validated(kInterval, kStart, limit);
        ASSERT_NE(trace::loadEncoded(path, nullptr, &validated), nullptr);
        expect_same(validated.finish(), want);

        // Either set of features plans the same representatives.
        sampling::SamplingConfig config;
        config.intervalInsts = kInterval;
        config.clusters = 2;
        sampling::SamplingPlan from_trace, from_stream;
        std::string error;
        ASSERT_TRUE(sampling::buildPlan(*decoded, config, kStart, limit,
                                        from_trace, &error))
            << error;
        ASSERT_TRUE(sampling::buildPlan(streamed, encoded->program,
                                        encoded->size(), config, kStart,
                                        limit, from_stream, &error))
            << error;
        EXPECT_EQ(from_stream.totalInsts, from_trace.totalInsts);
        EXPECT_EQ(from_stream.intervals, from_trace.intervals);
        ASSERT_EQ(from_stream.reps.size(), from_trace.reps.size());
        for (std::size_t r = 0; r < from_trace.reps.size(); ++r) {
            EXPECT_EQ(from_stream.reps[r].start, from_trace.reps[r].start);
            EXPECT_EQ(from_stream.reps[r].clusterInsts,
                      from_trace.reps[r].clusterInsts);
        }
    }
    std::remove(path.c_str());
}

TEST(Plan, EmptyTraceIsRejectedWithAUserError)
{
    trace::InMemoryTrace empty;
    empty.program = "hollow";
    sampling::SamplingPlan plan;
    std::string error;
    EXPECT_FALSE(sampling::buildPlan(empty, sampling::SamplingConfig{},
                                     0, 0, plan, &error));
    EXPECT_NE(error.find("recorded 0 instructions"), std::string::npos)
        << error;
}

TEST(Plan, WarmupPrefixConsumingEverythingIsRejected)
{
    auto t = recordWorkload("li_like", 8000);
    sampling::SamplingPlan plan;
    std::string error;
    EXPECT_FALSE(sampling::buildPlan(*t, sampling::SamplingConfig{},
                                     8000, 0, plan, &error));
    EXPECT_NE(error.find("warmup prefix"), std::string::npos) << error;
}

TEST(Plan, DegenerateKnobsAreRejected)
{
    auto t = recordWorkload("li_like", 8000);
    sampling::SamplingPlan plan;
    std::string error;
    sampling::SamplingConfig config;
    config.intervalInsts = 0;
    EXPECT_FALSE(
        sampling::buildPlan(*t, config, 0, 0, plan, &error));
    config = sampling::SamplingConfig{};
    config.clusters = 0;
    EXPECT_FALSE(
        sampling::buildPlan(*t, config, 0, 0, plan, &error));
}

TEST(Plan, RepresentativeWindowsAreWellFormed)
{
    auto t = recordWorkload("go_like", 120000);
    sampling::SamplingConfig config;
    config.intervalInsts = 10000;
    config.clusters = 4;
    config.warmupInsts = 5000;
    sampling::SamplingPlan plan;
    std::string error;
    ASSERT_TRUE(
        sampling::buildPlan(*t, config, 10000, 0, plan, &error))
        << error;
    EXPECT_EQ(plan.startInst, 10000u);
    EXPECT_EQ(plan.totalInsts, 110000u);
    EXPECT_EQ(plan.intervals, 11u);
    ASSERT_FALSE(plan.reps.empty());
    std::uint64_t cluster_insts = 0;
    for (const auto &rep : plan.reps) {
        EXPECT_GE(rep.start, plan.startInst);
        EXPECT_LE(rep.warmupStart, rep.start);
        EXPECT_LE(rep.start - rep.warmupStart, config.warmupInsts);
        EXPECT_LE(rep.detail, rep.start - rep.warmupStart);
        EXPECT_LE(rep.detail, config.detailInsts);
        EXPECT_GT(rep.length, 0u);
        cluster_insts += rep.clusterInsts;
    }
    // Cluster populations partition the whole population.
    EXPECT_EQ(cluster_insts, plan.totalInsts);
    EXPECT_GT(plan.coveragePct(), 0.0);
}

// ---------------------------------------------------------------
// Differential layer: the sampled estimate against the full run.
// ---------------------------------------------------------------

namespace
{

/** The pinned knobs the walkthrough and the CI smoke also use. */
void
applySampling(sweep::SweepSpec &spec)
{
    spec.sampling = true;
    spec.samplingInterval = 10000;
    spec.samplingClusters = 6;
    spec.samplingWarmup = 5000;
}

sweep::SweepSpec
sampledSpec(InstCount timed, bool full_grid)
{
    sweep::SweepSpec spec;
    for (const char *name : {"go_like", "li_like"}) {
        const auto &info = workloads::workloadByName(name);
        sweep::WorkloadSpec w;
        w.name = info.name;
        w.warmup = info.warmupInsts;
        w.timed = timed;
        spec.workloads.push_back(std::move(w));
    }
    if (full_grid) {
        spec.configs = ooo::MachineConfig::figure8Suite();
    } else {
        spec.configs = {ooo::MachineConfig::nPlusM(2, 0),
                        ooo::MachineConfig::nPlusM(3, 3),
                        ooo::MachineConfig::nPlusM(16, 0)};
    }
    applySampling(spec);
    return spec;
}

std::string
reportJson(const sweep::SweepResult &result)
{
    std::ostringstream os;
    result.toReport().writeJson(os);
    return os.str();
}

} // namespace

TEST(SamplingDifferential, Fig8GridWithinTwoPercentAtFiveXFewerInsts)
{
    sweep::SweepSpec spec = sampledSpec(400000, true);
    spec.samplingVerify = true;
    spec.jobs = 8;
    sweep::SweepResult result = sweep::runSweep(spec);
    ASSERT_EQ(result.timing.size(),
              spec.workloads.size() * spec.configs.size());
    for (const auto &point : result.timing) {
        SCOPED_TRACE(point.workload + " " + point.config);
        const obs::SamplingReport &s = point.sampling;
        ASSERT_TRUE(s.enabled);
        ASSERT_GE(s.measuredErrorPct, 0.0)
            << "verify pass did not record a measured error";
        EXPECT_LT(s.measuredErrorPct, 2.0)
            << "sampled CPI " << s.estCpi << " strays from the full "
            << "run by " << s.measuredErrorPct << "%";
        // The speedup claim: at least 5x fewer detailed-pipeline
        // instructions than the full window.
        EXPECT_GE(s.totalInsts, 5 * s.simulatedInsts)
            << "simulated " << s.simulatedInsts << " of "
            << s.totalInsts;
    }
}

TEST(SamplingDifferential, SampledReportByteIdenticalAcrossJobs)
{
    sweep::SweepSpec spec = sampledSpec(200000, false);
    spec.samplingVerify = true;
    spec.jobs = 1;
    std::string serial = reportJson(sweep::runSweep(spec));
    // More workers than representative jobs on some rows, so the
    // pool interleaves rows no matter how it schedules.
    spec.jobs = 8;
    std::string parallel = reportJson(sweep::runSweep(spec));
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}
