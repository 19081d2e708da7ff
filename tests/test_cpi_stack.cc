/**
 * @file
 * Cycle-accounting observability tests: Log2Histogram percentile
 * math at the edges, CPI-stack accumulation and its sums-to-cycles
 * invariant through real timing runs, interval sampling over
 * contention stats, and the Chrome Trace Event exporter's output
 * shape.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/chrome_trace.hh"
#include "obs/cpi_stack.hh"
#include "obs/histogram.hh"
#include "obs/hooks.hh"
#include "obs/json.hh"
#include "obs/stats_registry.hh"
#include "ooo/config.hh"
#include "sweep/sweep.hh"

using namespace arl;

namespace
{

/** The PR-4 contention knob set the contended golden pins. */
ooo::ContentionKnobs
testKnobs()
{
    ooo::ContentionKnobs knobs;
    knobs.banks = 2;
    knobs.mshrs = 4;
    knobs.wbBuffer = 2;
    knobs.busCycles = 2;
    knobs.tlbMissLatency = 20;
    return knobs;
}

/**
 * Time li_like (5,000 warmup, 20,000 timed instructions) under each
 * of @p configs, every point reporting into its entry of @p hooks.
 */
sweep::SweepResult
timeLiLike(const std::vector<ooo::MachineConfig> &configs,
           std::vector<obs::Hooks *> hooks)
{
    sweep::WorkloadSpec w;
    w.name = "li_like";
    w.warmup = 5'000;
    w.timed = 20'000;
    sweep::SweepSpec spec;
    spec.workloads = {w};
    spec.configs = configs;
    spec.hooks = std::move(hooks);
    return sweep::runSweep(spec);
}

/** Sum of every "<prefix>." leaf except "<prefix>.total". */
double
stackLeafSum(const obs::StatsRegistry::Snapshot &snapshot,
             const std::string &prefix)
{
    double sum = 0.0;
    for (const auto &[name, value] : snapshot)
        if (name.rfind(prefix + ".", 0) == 0 &&
            name != prefix + ".total")
            sum += value;
    return sum;
}

double
snapshotValue(const obs::StatsRegistry::Snapshot &snapshot,
              const std::string &name)
{
    for (const auto &[key, value] : snapshot)
        if (key == name)
            return value;
    ADD_FAILURE() << "missing stat " << name;
    return 0.0;
}

bool
snapshotHasSubstring(const obs::StatsRegistry::Snapshot &snapshot,
                     const std::string &needle)
{
    for (const auto &[name, value] : snapshot)
        if (name.find(needle) != std::string::npos)
            return true;
    return false;
}

} // namespace

TEST(Log2Histogram, EmptyHistogramIsAllZeros)
{
    obs::Log2Histogram hist;
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_EQ(hist.sum(), 0u);
    EXPECT_EQ(hist.min(), 0u);
    EXPECT_EQ(hist.max(), 0u);
    EXPECT_EQ(hist.mean(), 0.0);
    EXPECT_EQ(hist.p50(), 0.0);
    EXPECT_EQ(hist.p99(), 0.0);
}

TEST(Log2Histogram, SingleSampleIsExactAtEveryPercentile)
{
    obs::Log2Histogram hist;
    hist.add(7);  // mid-bucket: [4, 8) — clamping must recover 7
    EXPECT_EQ(hist.count(), 1u);
    EXPECT_EQ(hist.min(), 7u);
    EXPECT_EQ(hist.max(), 7u);
    EXPECT_EQ(hist.p50(), 7.0);
    EXPECT_EQ(hist.p90(), 7.0);
    EXPECT_EQ(hist.p99(), 7.0);
}

TEST(Log2Histogram, ZeroValuesLandInBucketZero)
{
    obs::Log2Histogram hist;
    hist.add(0);
    hist.add(0);
    EXPECT_EQ(hist.bucketCount(0), 2u);
    EXPECT_EQ(hist.p50(), 0.0);
    EXPECT_EQ(hist.max(), 0u);
}

TEST(Log2Histogram, BucketBoundaries)
{
    // Bucket 0 = {0}, bucket i = [2^(i-1), 2^i).
    EXPECT_EQ(obs::Log2Histogram::bucketOf(0), 0u);
    EXPECT_EQ(obs::Log2Histogram::bucketOf(1), 1u);
    EXPECT_EQ(obs::Log2Histogram::bucketOf(2), 2u);
    EXPECT_EQ(obs::Log2Histogram::bucketOf(3), 2u);
    EXPECT_EQ(obs::Log2Histogram::bucketOf(4), 3u);
    EXPECT_EQ(obs::Log2Histogram::bucketOf(1023), 10u);
    EXPECT_EQ(obs::Log2Histogram::bucketOf(1024), 11u);
    EXPECT_EQ(obs::Log2Histogram::bucketLow(3), 4u);
    EXPECT_EQ(obs::Log2Histogram::bucketHigh(3), 7u);
    EXPECT_EQ(obs::Log2Histogram::bucketHigh(0), 0u);
}

TEST(Log2Histogram, SamplesAtOneBoundaryClampExactly)
{
    // Every sample at a bucket's low edge: interpolation inside
    // [4, 7] must clamp to the observed min == max == 4.
    obs::Log2Histogram hist;
    for (int i = 0; i < 4; ++i)
        hist.add(4);
    EXPECT_EQ(hist.p50(), 4.0);
    EXPECT_EQ(hist.p99(), 4.0);
}

TEST(Log2Histogram, PercentilesMonotonicAndBounded)
{
    obs::Log2Histogram hist;
    for (std::uint64_t v = 1; v <= 100; ++v)
        hist.add(v);
    EXPECT_EQ(hist.count(), 100u);
    EXPECT_EQ(hist.sum(), 5050u);
    EXPECT_EQ(hist.min(), 1u);
    EXPECT_EQ(hist.max(), 100u);
    const double p50 = hist.p50(), p90 = hist.p90(), p99 = hist.p99();
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    EXPECT_GE(p50, 1.0);
    EXPECT_LE(p99, 100.0);
    // Rank 50 lands in bucket [32, 64); the estimate must too.
    EXPECT_GE(p50, 32.0);
    EXPECT_LT(p50, 64.0);
}

TEST(Log2Histogram, SingleCountBucketReportsItsLowEdge)
{
    // Rank 2 of {1, 4, 100} falls in bucket [4, 7], which holds one
    // sample.  The estimate must stay at the bucket's low edge: the
    // old rank/n interpolation returned the high edge (7.0) for any
    // single-count bucket, overshooting every sparse distribution.
    obs::Log2Histogram hist;
    hist.add(1);
    hist.add(4);
    hist.add(100);
    EXPECT_EQ(hist.p50(), 4.0);
}

TEST(Log2Histogram, ExtremeRanksReturnExactMinMax)
{
    // Rank 1 is the tracked min and rank count is the tracked max —
    // exact values, not bucket-edge interpolations (100 lives in
    // [64, 127]; neither edge is the right answer for p99).
    obs::Log2Histogram hist;
    hist.add(3);
    hist.add(9);
    hist.add(100);
    EXPECT_EQ(hist.percentile(0.01), 3.0);
    EXPECT_EQ(hist.p99(), 100.0);
}

TEST(Log2Histogram, InBucketRanksSpanTheBucketEdges)
{
    // Both samples share bucket [8, 15]: the first in-bucket rank
    // sits at the low edge, the last at the high edge — here both
    // coincide with the exact tracked min/max.
    obs::Log2Histogram hist;
    hist.add(8);
    hist.add(15);
    EXPECT_EQ(hist.p50(), 8.0);
    EXPECT_EQ(hist.p99(), 15.0);
}

TEST(Log2Histogram, RegistryExpandsToSevenLeaves)
{
    obs::StatsRegistry reg;
    obs::Log2Histogram hist;
    hist.add(1);
    hist.add(2);
    hist.add(4);
    reg.addLog2Histogram("lat", &hist, "test latencies");
    const obs::StatsRegistry::Snapshot snapshot = reg.snapshot();
    std::vector<std::string> names;
    for (const auto &[name, value] : snapshot)
        names.push_back(name);
    EXPECT_EQ(names, (std::vector<std::string>{
                         "lat.count", "lat.max", "lat.mean", "lat.min",
                         "lat.p50", "lat.p90", "lat.p99"}));
    EXPECT_EQ(snapshotValue(snapshot, "lat.count"), 3.0);
    EXPECT_EQ(snapshotValue(snapshot, "lat.min"), 1.0);
    EXPECT_EQ(snapshotValue(snapshot, "lat.max"), 4.0);
    EXPECT_NEAR(snapshotValue(snapshot, "lat.mean"), 7.0 / 3.0, 1e-12);
    EXPECT_EQ(snapshotValue(snapshot, "lat.p50"), hist.p50());
    hist.add(8);  // live pointer: updates flow through
    EXPECT_EQ(snapshotValue(reg.snapshot(), "lat.count"), 4.0);
}

TEST(CpiStack, AccumulatesPerCausePerPipe)
{
    obs::CpiStack stack;
    stack.add(obs::StallCause::Commit);
    stack.add(obs::StallCause::Commit);
    stack.add(obs::StallCause::BankConflict, 0);
    stack.add(obs::StallCause::BankConflict, 1);
    stack.add(obs::StallCause::FrontendEmpty);
    EXPECT_EQ(stack.of(obs::StallCause::Commit), 2u);
    EXPECT_EQ(stack.of(obs::StallCause::BankConflict, 0), 1u);
    EXPECT_EQ(stack.of(obs::StallCause::BankConflict, 1), 1u);
    EXPECT_EQ(stack.of(obs::StallCause::BankConflict), 2u);
    EXPECT_EQ(stack.total(), 5u);
}

TEST(CpiStack, RegistryLeavesSumToTotal)
{
    obs::CpiStack stack;
    for (unsigned c = 0;
         c < static_cast<unsigned>(obs::StallCause::NumCauses); ++c)
        for (unsigned pipe = 0; pipe < 2; ++pipe)
            for (unsigned n = 0; n <= c; ++n)
                stack.add(static_cast<obs::StallCause>(c), pipe);
    obs::StatsRegistry reg;
    stack.registerStats(reg, "cpi");
    auto snapshot = reg.snapshot();
    EXPECT_EQ(stackLeafSum(snapshot, "cpi"),
              static_cast<double>(stack.total()));
    EXPECT_EQ(snapshotValue(snapshot, "cpi.total"),
              static_cast<double>(stack.total()));
}

TEST(CpiStackIntegration, ContendedStackSumsToTotalCycles)
{
    ooo::MachineConfig config = ooo::MachineConfig::nPlusM(2, 0);
    config.applyContention(testKnobs());
    obs::Hooks hooks;
    auto result = timeLiLike({config}, {&hooks});
    const ooo::OooStats &stats = result.timing[0].stats;
    auto snapshot = hooks.finalSnapshot;
    // The caller's hooks keep the point's final snapshot.
    EXPECT_EQ(snapshot, result.timing[0].snapshot);
    const double cycles = snapshotValue(snapshot, "ooo.cycles");
    EXPECT_GT(cycles, 0.0);
    EXPECT_EQ(snapshotValue(snapshot, "ooo.cpi_stack.total"), cycles);
    EXPECT_EQ(stackLeafSum(snapshot, "ooo.cpi_stack"), cycles);
    EXPECT_EQ(static_cast<double>(stats.cycles), cycles);
    // The load-to-use histogram saw every completed load.
    EXPECT_GT(snapshotValue(snapshot, "ooo.mem.load_to_use.count"),
              0.0);
}

TEST(CpiStackIntegration, ForcedIdealStackSumsToTotalCycles)
{
    ooo::MachineConfig config = ooo::MachineConfig::nPlusM(3, 1);
    config.cpiStack = true;  // observation-only force on an ideal run
    ooo::MachineConfig plain = ooo::MachineConfig::nPlusM(3, 1);
    obs::Hooks hooks, plain_hooks;
    auto result = timeLiLike({config, plain}, {&hooks, &plain_hooks});
    const ooo::OooStats &stats = result.timing[0].stats;
    EXPECT_EQ(stackLeafSum(hooks.finalSnapshot, "ooo.cpi_stack"),
              static_cast<double>(stats.cycles));

    // Forcing the stack must not change a single timing number.
    const ooo::OooStats &plain_stats = result.timing[1].stats;
    EXPECT_EQ(plain_stats.cycles, stats.cycles);
    EXPECT_EQ(plain_stats.instructions, stats.instructions);
    EXPECT_FALSE(
        snapshotHasSubstring(plain_hooks.finalSnapshot, "cpi_stack"));
}

TEST(CpiStackIntegration, IdealRunRegistersNoStackKeys)
{
    ooo::MachineConfig config = ooo::MachineConfig::nPlusM(2, 0);
    obs::Hooks hooks;
    timeLiLike({config}, {&hooks});
    EXPECT_FALSE(snapshotHasSubstring(hooks.finalSnapshot, "cpi_stack"));
    EXPECT_FALSE(
        snapshotHasSubstring(hooks.finalSnapshot, "load_to_use"));
}

TEST(IntervalSampler, SamplesContentionStatsOnlyWhenKnobsSet)
{
    ooo::MachineConfig contended = ooo::MachineConfig::nPlusM(2, 0);
    contended.applyContention(testKnobs());
    ooo::MachineConfig ideal = ooo::MachineConfig::nPlusM(2, 0);
    obs::Hooks hooks, ideal_hooks;
    hooks.intervalEvery = 5'000;
    ideal_hooks.intervalEvery = 5'000;
    timeLiLike({contended, ideal}, {&hooks, &ideal_hooks});

    ASSERT_NE(hooks.sampler, nullptr);
    const auto &names = hooks.sampler->rows().names;
    auto has = [&](const std::string &name) {
        for (const auto &n : names)
            if (n == name)
                return true;
        return false;
    };
    EXPECT_TRUE(has("ooo.cycles"));
    EXPECT_TRUE(has("cache.l1.bank_conflicts"));
    EXPECT_TRUE(has("ooo.cpi_stack.total"));
    ASSERT_FALSE(hooks.sampler->rows().samples.empty());
    // Counter columns are cumulative: non-decreasing sample to sample.
    std::size_t cycles_col = names.size();
    for (std::size_t i = 0; i < names.size(); ++i)
        if (names[i] == "ooo.cycles")
            cycles_col = i;
    ASSERT_LT(cycles_col, names.size());
    const auto &samples = hooks.sampler->rows().samples;
    for (std::size_t s = 1; s < samples.size(); ++s)
        EXPECT_GE(samples[s].values[cycles_col],
                  samples[s - 1].values[cycles_col]);
    // Armed after warmup and flushed after the run: one row per
    // 5,000 timed instructions, the last one at the final commit.
    EXPECT_EQ(samples.size(), 4u);
    EXPECT_EQ(samples.back().at, 20'000u);

    // Zero knobs: no contention or cpi_stack columns to sample.
    ASSERT_NE(ideal_hooks.sampler, nullptr);
    for (const auto &name : ideal_hooks.sampler->rows().names) {
        EXPECT_EQ(name.find("cpi_stack"), std::string::npos) << name;
        EXPECT_EQ(name.find("bank_conflicts"), std::string::npos)
            << name;
    }
}

TEST(ChromeTrace, SyntheticTraceIsValidAndSorted)
{
    std::ostringstream out;
    obs::ChromeTracer tracer(out);
    using PE = obs::PipeEvent;
    // Two overlapping instructions on different pipes.
    tracer.event(10, 1, 0x1000, PE::Dispatch, "");
    tracer.event(10, 1, 0x1000, PE::SteerLsq, "");
    tracer.event(12, 1, 0x1000, PE::Issue, "");
    tracer.event(13, 1, 0x1000, PE::MemAccess, "hit");
    tracer.event(15, 1, 0x1000, PE::Writeback, "");
    tracer.event(16, 1, 0x1000, PE::Commit, "");
    tracer.event(11, 2, 0x1004, PE::Dispatch, "");
    tracer.event(11, 2, 0x1004, PE::SteerLvaq, "");
    tracer.event(13, 2, 0x1004, PE::Issue, "");
    tracer.event(14, 2, 0x1004, PE::Forward, "");
    tracer.event(17, 2, 0x1004, PE::Writeback, "");
    tracer.event(18, 2, 0x1004, PE::Commit, "");
    tracer.counter(20, "ipc", 3.5);
    tracer.finish("unit test");
    EXPECT_EQ(tracer.emitted(), 2u);
    EXPECT_EQ(tracer.dropped(), 0u);

    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::jsonParse(out.str(), doc, &error)) << error;
    const obs::JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_FALSE(events->array.empty());

    double last_ts = 0.0;
    std::size_t spans = 0, counters = 0, metadata = 0;
    for (const obs::JsonValue &ev : events->array) {
        ASSERT_TRUE(ev.isObject());
        const obs::JsonValue *ph = ev.find("ph");
        ASSERT_NE(ph, nullptr);
        ASSERT_TRUE(ph->isString());
        for (const char *key : {"pid", "tid", "ts"}) {
            const obs::JsonValue *field = ev.find(key);
            ASSERT_NE(field, nullptr) << key;
            EXPECT_TRUE(field->isNumber()) << key;
        }
        EXPECT_GE(ev.find("ts")->number, last_ts);
        last_ts = ev.find("ts")->number;
        if (ph->string == "X") {
            ASSERT_NE(ev.find("dur"), nullptr);
            ++spans;
        } else if (ph->string == "C") {
            ++counters;
        } else if (ph->string == "M") {
            ++metadata;
        }
    }
    // Two lifecycle spans + exec children + the load's mem child.
    EXPECT_GE(spans, 4u);
    EXPECT_EQ(counters, 1u);
    // One thread_name per used lane (dcache, lvc) + process_name.
    EXPECT_EQ(metadata, 3u);
}

TEST(ChromeTrace, InstructionCapDropsNewDispatches)
{
    std::ostringstream out;
    obs::ChromeTracer tracer(out, 1);
    using PE = obs::PipeEvent;
    tracer.event(10, 1, 0x1000, PE::Dispatch, "");
    tracer.event(11, 2, 0x1004, PE::Dispatch, "");  // over the cap
    tracer.event(12, 1, 0x1000, PE::Commit, "");
    tracer.event(13, 2, 0x1004, PE::Commit, "");  // for a dropped seq
    tracer.finish("cap test");
    EXPECT_EQ(tracer.emitted(), 1u);
    EXPECT_EQ(tracer.dropped(), 1u);

    obs::JsonValue doc;
    ASSERT_TRUE(obs::jsonParse(out.str(), doc));
    const obs::JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::size_t spans = 0;
    for (const obs::JsonValue &ev : events->array)
        if (ev.find("ph")->string == "X")
            ++spans;
    EXPECT_EQ(spans, 1u);
}
