/**
 * @file
 * Tests for the host-side self-profiler (obs/profiler.hh) and its
 * profile-document validator, host metadata (obs/host_meta.hh),
 * report meta stamping, and the interval sampler's end-of-run flush.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <thread>

#include "obs/host_meta.hh"
#include "obs/json.hh"
#include "obs/profiler.hh"
#include "obs/report.hh"
#include "obs/sampler.hh"
#include "obs/stats_registry.hh"
#include "sweep/sweep.hh"
#include "workloads/workloads.hh"

using namespace arl;

namespace
{

/** RAII: profiling off when a test exits, however it exits. */
struct ProfilerOff
{
    ~ProfilerOff() { obs::Profiler::instance().disable(); }
};

const obs::Profiler::Node *
findChild(const std::vector<obs::Profiler::Node> &nodes,
          const std::string &name)
{
    for (const obs::Profiler::Node &node : nodes)
        if (node.name == name)
            return &node;
    return nullptr;
}

void
spinFor(std::chrono::microseconds duration)
{
    auto start = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - start < duration) {
    }
}

sweep::SweepSpec
smallSweepSpec(unsigned jobs)
{
    sweep::SweepSpec spec;
    spec.jobs = jobs;
    for (const char *name : {"compress_like", "li_like"}) {
        const auto &info = workloads::workloadByName(name);
        sweep::WorkloadSpec w;
        w.name = info.name;
        w.scale = 1;
        w.warmup = info.warmupInsts;
        w.timed = 20000;
        spec.workloads.push_back(std::move(w));
    }
    spec.configs = {ooo::MachineConfig::nPlusM(2, 0),
                    ooo::MachineConfig::nPlusM(3, 1)};
    return spec;
}

} // namespace

TEST(Profiler, DisabledScopesAreInert)
{
    obs::Profiler::instance().disable();
    {
        obs::ProfScope scope("never");
        scope.addGuestInsts(123);
    }
    obs::Profiler::instance().enable();
    ProfilerOff off;
    obs::Profiler::Report report = obs::Profiler::instance().report();
    EXPECT_TRUE(report.phases.empty());
    EXPECT_EQ(report.guestInsts, 0u);
}

TEST(Profiler, NestedScopeAttributionSumsToParent)
{
    obs::Profiler::instance().enable();
    ProfilerOff off;
    {
        obs::ProfScope outer("outer");
        outer.addGuestInsts(1000);
        {
            obs::ProfScope inner("step_a");
            spinFor(std::chrono::microseconds(2000));
        }
        {
            obs::ProfScope inner("step_b");
            inner.addGuestInsts(500);
            spinFor(std::chrono::microseconds(2000));
        }
    }
    obs::Profiler::Report report = obs::Profiler::instance().report();

    const obs::Profiler::Node *outer =
        findChild(report.phases, "outer");
    ASSERT_NE(outer, nullptr);
    EXPECT_EQ(outer->calls, 1u);
    EXPECT_EQ(outer->guestInsts, 1000u);
    // Inclusive guest work folds in the children.
    EXPECT_EQ(outer->inclusiveGuestInsts(), 1500u);

    const obs::Profiler::Node *a = findChild(outer->children, "step_a");
    const obs::Profiler::Node *b = findChild(outer->children, "step_b");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->guestInsts, 500u);
    // The parent's wall clock is inclusive, so it must cover the sum
    // of its children's.
    EXPECT_GE(outer->seconds(), a->seconds() + b->seconds());
    EXPECT_GT(a->seconds(), 0.0);
    EXPECT_EQ(report.guestInsts, 1500u);
}

TEST(Profiler, AbsoluteScopesMergeUnderOneRoot)
{
    obs::Profiler::instance().enable();
    ProfilerOff off;
    {
        obs::ProfScope worker("root/work",
                              obs::ProfScope::Mode::Absolute);
    }
    {
        obs::ProfScope worker("root/work",
                              obs::ProfScope::Mode::Absolute);
    }
    obs::Profiler::Report report = obs::Profiler::instance().report();
    const obs::Profiler::Node *root = findChild(report.phases, "root");
    ASSERT_NE(root, nullptr);
    const obs::Profiler::Node *work = findChild(root->children, "work");
    ASSERT_NE(work, nullptr);
    EXPECT_EQ(work->calls, 2u);
}

TEST(Profiler, MergesPerThreadLogsFromParallelSweep)
{
    obs::Profiler::instance().enable();
    ProfilerOff off;
    sweep::SweepResult result = sweep::runSweep(smallSweepSpec(8));
    obs::Profiler::Report report = obs::Profiler::instance().report();

    const obs::Profiler::Node *sweep_node =
        findChild(report.phases, "sweep");
    ASSERT_NE(sweep_node, nullptr);
    const obs::Profiler::Node *simulate =
        findChild(sweep_node->children, "simulate");
    ASSERT_NE(simulate, nullptr);
    // One simulate scope per grid point, merged across the 8 worker
    // threads' private logs.
    EXPECT_EQ(simulate->calls, result.timing.size());
    EXPECT_GT(simulate->guestInsts, 0u);
    EXPECT_GT(simulate->seconds(), 0.0);
    // Acceptance bar: attributed phase wall covers >=95% of the
    // enable()..report() window on a sweep run.
    ASSERT_GT(report.totalSeconds, 0.0);
    EXPECT_GE(report.phaseSeconds(), 0.95 * report.totalSeconds);
}

TEST(Profiler, ProfilingDoesNotPerturbSweepReports)
{
    obs::Profiler::instance().disable();
    std::ostringstream plain;
    sweep::runSweep(smallSweepSpec(2)).toReport().writeJson(plain);

    obs::Profiler::instance().enable();
    ProfilerOff off;
    std::ostringstream profiled;
    sweep::runSweep(smallSweepSpec(2)).toReport().writeJson(profiled);

    // Byte-identical: the profiler only reads the host clock, so
    // simulated numbers (and golden files) cannot move.
    EXPECT_EQ(plain.str(), profiled.str());
}

TEST(Profiler, JsonDocumentValidates)
{
    obs::Profiler::instance().enable();
    ProfilerOff off;
    {
        obs::ProfScope outer("phase");
        obs::ProfScope inner("sub");
    }
    std::ostringstream os;
    obs::Profiler::instance().report().writeJson(os, "test");

    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::jsonParse(os.str(), doc, &error)) << error;
    EXPECT_TRUE(obs::validateProfileDoc(doc, &error)) << error;
}

namespace
{

/** A profile document whose single root phase nests @p levels deep. */
std::string
profileDocWithDepth(unsigned levels)
{
    std::string tree = "[]";
    for (unsigned i = 0; i < levels; ++i)
        tree = "[{\"name\": \"p\", \"seconds\": 0, \"calls\": 1, "
               "\"children\": " + tree + "}]";
    return "{\"kind\": \"profile\", \"meta\": {}, "
           "\"total_seconds\": 1, \"phases\": " + tree + "}";
}

} // namespace

TEST(Profiler, ValidatorRejectsMalformedDocuments)
{
    const std::string rejected[] = {
        // kind other than "profile"
        "{\"kind\": \"report\", \"meta\": {}, \"total_seconds\": 1, "
        "\"phases\": []}",
        // no meta
        "{\"kind\": \"profile\", \"total_seconds\": 1, "
        "\"phases\": []}",
        // non-numeric total_seconds
        "{\"kind\": \"profile\", \"meta\": {}, "
        "\"total_seconds\": \"1\", \"phases\": []}",
        // a phase without children
        "{\"kind\": \"profile\", \"meta\": {}, \"total_seconds\": 1, "
        "\"phases\": [{\"name\": \"p\", \"seconds\": 0, "
        "\"calls\": 1}]}",
        // a phase whose seconds is a string
        "{\"kind\": \"profile\", \"meta\": {}, \"total_seconds\": 1, "
        "\"phases\": [{\"name\": \"p\", \"seconds\": \"0\", "
        "\"calls\": 1, \"children\": []}]}",
        // one level past the depth limit
        profileDocWithDepth(33),
    };

    // The depth limit itself is still accepted.
    obs::JsonValue deepest;
    std::string error;
    ASSERT_TRUE(obs::jsonParse(profileDocWithDepth(32), deepest, &error));
    EXPECT_TRUE(obs::validateProfileDoc(deepest, &error)) << error;

    for (const std::string &text : rejected) {
        obs::JsonValue doc;
        error.clear();
        ASSERT_TRUE(obs::jsonParse(text, doc, &error)) << error;
        EXPECT_FALSE(obs::validateProfileDoc(doc, &error)) << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

TEST(Profiler, AddStatsFlattensPhaseTree)
{
    obs::Profiler::instance().enable();
    ProfilerOff off;
    {
        obs::ProfScope outer("phase");
        obs::ProfScope inner("sub");
    }
    obs::StatsRegistry reg;
    obs::Profiler::instance().report().addStats(reg, "prof");
    bool found = false;
    for (const auto &[name, value] : reg.snapshot())
        if (name == "prof.phase.sub.calls") {
            found = true;
            EXPECT_EQ(value, 1.0);
        }
    EXPECT_TRUE(found);
}

TEST(HostMeta, InjectedClockWinsAndResets)
{
    obs::setMetaClock([]() -> std::uint64_t { return 1234567890; });
    EXPECT_EQ(obs::metaNow(), 1234567890u);
    EXPECT_EQ(obs::hostMeta().timestamp, 1234567890u);
    obs::setMetaClock(nullptr);
    EXPECT_NE(obs::metaNow(), 1234567890u);
}

TEST(HostMeta, DescribesBuild)
{
    obs::HostMeta meta = obs::hostMeta();
    EXPECT_FALSE(meta.version.empty());
    EXPECT_FALSE(meta.gitSha.empty());
    EXPECT_FALSE(meta.compiler.empty());
    EXPECT_GE(meta.cpus, 1u);
    EXPECT_GT(obs::peakRssKb(), 0u);
}

TEST(ReportMeta, StampedOnRequestOnly)
{
    obs::setMetaClock([]() -> std::uint64_t { return 42; });
    obs::Report report;
    report.command = "test";
    std::ostringstream bare;
    report.writeJson(bare);
    EXPECT_EQ(bare.str().find("\"meta\""), std::string::npos);

    report.stampMeta();
    std::ostringstream stamped;
    report.writeJson(stamped);
    EXPECT_NE(stamped.str().find("\"meta\""), std::string::npos);
    EXPECT_NE(stamped.str().find("\"timestamp\": 42"),
              std::string::npos);
    obs::setMetaClock(nullptr);
}

TEST(IntervalSampler, FlushCapturesFinalPartialInterval)
{
    obs::StatsRegistry reg;
    std::uint64_t work = 0;
    reg.addCounter("work", &work);
    obs::IntervalSampler sampler(reg, 100);
    for (std::uint64_t i = 1; i <= 250; ++i) {
        work = i;
        sampler.tick(i);
    }
    EXPECT_EQ(sampler.rows().samples.size(), 2u);  // at 100 and 200
    sampler.flush(250);
    // ceil(250/100) = 3 rows; the tail row carries the final values.
    ASSERT_EQ(sampler.rows().samples.size(), 3u);
    EXPECT_EQ(sampler.rows().samples.back().at, 250u);
    EXPECT_EQ(sampler.rows().samples.back().values[0], 250.0);
}

TEST(IntervalSampler, BoundaryEndWithoutFinalTickStillYieldsCeilRows)
{
    // The run ends exactly on an interval boundary but the loop
    // breaks before a tick() at the final count is delivered: flush()
    // must supply the missing row — and only that row, never a
    // zero-width duplicate (ceil(200/100) = 2, not 3).
    obs::StatsRegistry reg;
    std::uint64_t work = 0;
    reg.addCounter("work", &work);
    obs::IntervalSampler sampler(reg, 100);
    for (std::uint64_t i = 1; i <= 199; ++i) {
        work = i;
        sampler.tick(i);
    }
    ASSERT_EQ(sampler.rows().samples.size(), 1u);  // at 100
    work = 200;
    sampler.flush(200);
    ASSERT_EQ(sampler.rows().samples.size(), 2u);
    EXPECT_EQ(sampler.rows().samples.back().at, 200u);
}

TEST(IntervalSampler, FlushIsIdempotent)
{
    // A second end-of-run notification at the same count (defensive
    // callers, finalize-twice paths) must not add a duplicate row.
    obs::StatsRegistry reg;
    std::uint64_t work = 0;
    reg.addCounter("work", &work);
    obs::IntervalSampler sampler(reg, 100);
    for (std::uint64_t i = 1; i <= 150; ++i) {
        work = i;
        sampler.tick(i);
    }
    sampler.flush(150);
    ASSERT_EQ(sampler.rows().samples.size(), 2u);
    sampler.flush(150);
    EXPECT_EQ(sampler.rows().samples.size(), 2u);
    EXPECT_EQ(sampler.rows().samples.back().at, 150u);
}

TEST(IntervalSampler, BurstCrossingEndingOnBoundaryTakesOneRow)
{
    // A batched commit burst that lands exactly on a boundary takes
    // one sample for the whole burst; the flush right after it is a
    // no-op (rows stay at ceil(300/100), never ceil + 1).
    obs::StatsRegistry reg;
    std::uint64_t work = 0;
    reg.addCounter("work", &work);
    obs::IntervalSampler sampler(reg, 100);
    work = 90;
    sampler.tick(90);
    work = 300;
    sampler.tick(300);  // crosses 100, 200, and 300 at once
    ASSERT_EQ(sampler.rows().samples.size(), 1u);
    EXPECT_EQ(sampler.rows().samples.back().at, 300u);
    sampler.flush(300);
    EXPECT_EQ(sampler.rows().samples.size(), 1u);
}

TEST(IntervalSampler, FlushIsNoOpOnExactMultipleOrNoProgress)
{
    obs::StatsRegistry reg;
    std::uint64_t work = 0;
    reg.addCounter("work", &work);
    obs::IntervalSampler sampler(reg, 100);
    for (std::uint64_t i = 1; i <= 200; ++i) {
        work = i;
        sampler.tick(i);
    }
    ASSERT_EQ(sampler.rows().samples.size(), 2u);
    sampler.flush(200);  // exact multiple: row already taken
    EXPECT_EQ(sampler.rows().samples.size(), 2u);
    sampler.flush(0);  // no progress at all
    EXPECT_EQ(sampler.rows().samples.size(), 2u);

    // A run shorter than one interval still yields its single row.
    obs::IntervalSampler short_run(reg, 100);
    short_run.flush(42);
    ASSERT_EQ(short_run.rows().samples.size(), 1u);
    EXPECT_EQ(short_run.rows().samples[0].at, 42u);
}
