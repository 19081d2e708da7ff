/**
 * @file
 * Workload suite tests, parameterized over all twelve SPEC95
 * substitutes: each runs to completion with exit code 0, produces a
 * bit-exact golden checksum (full-run determinism across the ISA,
 * VM, heap, and builder layers), and exhibits the region character
 * its paper counterpart demands (e.g. no heap in go/swim/mgrid,
 * stack dominance in vortex).
 */

#include <gtest/gtest.h>

#include <map>

#include "profile/region_profiler.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace arl;
using workloads::WorkloadInfo;

namespace
{

/** Golden outputs at scale 1 (print_int of each program's checksum). */
const std::map<std::string, std::string> kGoldenOutput = {
    {"go_like", "-54"},
    {"m88ksim_like", "-20984615"},
    {"gcc_like", "1908189311"},
    {"compress_like", "345370238"},
    {"li_like", "566746"},
    {"ijpeg_like", "1663907428"},
    {"perl_like", "-2049844258"},
    {"vortex_like", "-504562742"},
    {"tomcatv_like", "-2125"},
    {"swim_like", "824039447"},
    {"su2cor_like", "360667"},
    {"mgrid_like", "13696"},
};

struct RunResult
{
    InstCount instructions = 0;
    Word exitCode = 0;
    std::string output;
    profile::RegionProfile profile;
};

RunResult
runWorkload(const WorkloadInfo &info, unsigned scale)
{
    auto prog = info.build(scale);
    sim::Simulator simulator(prog);
    profile::RegionProfiler profiler;
    RunResult result;
    result.instructions =
        simulator.run(100'000'000, [&](const sim::StepInfo &step) {
            profiler.observe(step);
        });
    EXPECT_TRUE(simulator.halted()) << info.name << " did not halt";
    result.exitCode = simulator.process().exitCode;
    result.output = simulator.process().output;
    result.profile = profiler.profile();
    return result;
}

class WorkloadTest : public ::testing::TestWithParam<WorkloadInfo>
{
};

} // namespace

TEST_P(WorkloadTest, RunsToCompletionWithGoldenChecksum)
{
    const WorkloadInfo &info = GetParam();
    RunResult result = runWorkload(info, 1);
    EXPECT_EQ(result.exitCode, 0u);
    EXPECT_GT(result.instructions, 500'000u) << "suspiciously short";
    auto golden = kGoldenOutput.find(info.name);
    ASSERT_NE(golden, kGoldenOutput.end());
    EXPECT_EQ(result.output, golden->second)
        << info.name << " checksum drifted — determinism broken or "
        << "workload changed (update the golden value deliberately)";
}

TEST_P(WorkloadTest, WarmupShorterThanRun)
{
    const WorkloadInfo &info = GetParam();
    RunResult result = runWorkload(info, 1);
    EXPECT_LT(info.warmupInsts, result.instructions)
        << "warmup would consume the whole run";
}

TEST_P(WorkloadTest, RegionCharacterMatchesPaperCounterpart)
{
    const WorkloadInfo &info = GetParam();
    RunResult result = runWorkload(info, 1);
    const auto &profile = result.profile;
    double total = static_cast<double>(profile.dynamicTotal());
    ASSERT_GT(total, 0.0);
    double data_pct = profile.regionRefs[0] / total;
    double heap_pct = profile.regionRefs[1] / total;
    double stack_pct = profile.regionRefs[2] / total;

    if (info.name == "go_like" || info.name == "swim_like" ||
        info.name == "mgrid_like") {
        EXPECT_EQ(profile.regionRefs[1], 0u)
            << info.paperAnalog << " has no heap accesses";
    }
    if (info.name == "vortex_like") {
        EXPECT_GT(stack_pct, 0.6) << "vortex is stack-dominant";
    }
    if (info.name == "compress_like" || info.name == "mgrid_like" ||
        info.name == "su2cor_like") {
        EXPECT_GT(data_pct, stack_pct)
            << info.paperAnalog << " is data-dominant";
        EXPECT_GT(data_pct, heap_pct);
    }
    if (info.name == "li_like") {
        EXPECT_GT(heap_pct, 0.15) << "li is cons-cell heavy";
        EXPECT_GT(stack_pct, heap_pct) << "li recursion tops its heap";
    }
    if (info.name == "m88ksim_like" || info.name == "perl_like" ||
        info.name == "tomcatv_like") {
        EXPECT_GT(profile.dynamicMultiRegion(), 0u)
            << info.paperAnalog << " has multi-region instructions";
    }
    // Universal: loads+stores between 15% and 55% of instructions.
    double mem_frac = total / result.instructions;
    EXPECT_GT(mem_frac, 0.15) << info.name;
    EXPECT_LT(mem_frac, 0.55) << info.name;
    // Over 50% of static memory instructions are stack-only (§3.2).
    double stack_static =
        static_cast<double>(profile.staticCounts[static_cast<unsigned>(
            profile::RegionClass::S)]) /
        static_cast<double>(profile.staticTotal());
    EXPECT_GT(stack_static, 0.5) << info.name;
}

TEST_P(WorkloadTest, ScaleGrowsWork)
{
    const WorkloadInfo &info = GetParam();
    auto small = info.build(1);
    auto big = info.build(2);
    sim::Simulator s1(small), s2(big);
    InstCount n1 = s1.run(100'000'000);
    InstCount n2 = s2.run(200'000'000);
    EXPECT_GT(n2, n1 + n1 / 4) << "scale barely increases work";
    EXPECT_TRUE(s2.halted());
}

TEST_P(WorkloadTest, RunsPastItsWarmupAtTheLargestScale)
{
    // At MaxScale every loop count still fits its 32-bit immediate, so
    // the program keeps running past its initialisation instead of
    // wrapping into a short pass that halts.
    const WorkloadInfo &info = GetParam();
    sim::Simulator simulator(info.build(workloads::MaxScale));
    const InstCount budget = info.warmupInsts + 1'000'000;
    EXPECT_EQ(simulator.run(budget), budget) << info.name;
    EXPECT_FALSE(simulator.halted()) << info.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllTwelve, WorkloadTest,
    ::testing::ValuesIn(workloads::allWorkloads()),
    [](const ::testing::TestParamInfo<WorkloadInfo> &info) {
        return info.param.name;
    });

TEST(WorkloadRegistry, TwelveEntriesMatchingPaperTable1)
{
    const auto &all = workloads::allWorkloads();
    ASSERT_EQ(all.size(), 12u);
    unsigned fp_count = 0;
    for (const auto &info : all)
        fp_count += info.floatingPoint ? 1 : 0;
    EXPECT_EQ(fp_count, 4u);  // tomcatv, swim, su2cor, mgrid
    EXPECT_EQ(workloads::workloadByName("compress_like").paperAnalog,
              "129.compress");
}

TEST(WorkloadRegistryDeath, UnknownNameIsFatal)
{
    EXPECT_DEATH(workloads::workloadByName("no_such_thing"),
                 "unknown workload");
}

TEST(WorkloadRegistryDeath, ScaleOutsideItsRangeIsFatal)
{
    EXPECT_EQ(workloads::MaxScale, 17895u);
    EXPECT_DEATH(workloads::buildWorkload("m88ksim_like",
                                          workloads::MaxScale + 1),
                 "outside 1..17895");
    EXPECT_DEATH(workloads::buildWorkload("tomcatv_like", 0),
                 "outside 1..17895");
}
