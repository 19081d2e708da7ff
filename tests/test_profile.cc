/**
 * @file
 * Profiler tests: region-class bookkeeping (Fig 2) and the
 * sliding-window interleaving statistics (Table 2), checked against
 * hand-computed values on synthetic step streams.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <deque>

#include "common/random.hh"
#include "profile/region_profiler.hh"
#include "profile/window_profiler.hh"

using namespace arl;
using namespace arl::profile;

namespace
{

sim::StepInfo
memStep(Addr pc, vm::Region region, bool load = true)
{
    sim::StepInfo step;
    step.isMem = true;
    step.isLoad = load;
    step.pc = pc;
    step.region = region;
    step.memSize = 4;
    return step;
}

sim::StepInfo
aluStep(Addr pc)
{
    sim::StepInfo step;
    step.pc = pc;
    return step;
}

} // namespace

TEST(RegionClass, MaskMapping)
{
    EXPECT_EQ(regionClassFromMask(0b001), RegionClass::D);
    EXPECT_EQ(regionClassFromMask(0b010), RegionClass::H);
    EXPECT_EQ(regionClassFromMask(0b100), RegionClass::S);
    EXPECT_EQ(regionClassFromMask(0b011), RegionClass::DH);
    EXPECT_EQ(regionClassFromMask(0b101), RegionClass::DS);
    EXPECT_EQ(regionClassFromMask(0b110), RegionClass::HS);
    EXPECT_EQ(regionClassFromMask(0b111), RegionClass::DHS);
}

TEST(RegionClass, Names)
{
    EXPECT_EQ(regionClassName(RegionClass::D), "D");
    EXPECT_EQ(regionClassName(RegionClass::DHS), "D/H/S");
}

TEST(RegionProfiler, SingleAndMultiRegionInstructions)
{
    RegionProfiler profiler;
    // PC 0x100 only touches data; PC 0x104 touches data then stack.
    profiler.observe(memStep(0x100, vm::Region::Data));
    profiler.observe(memStep(0x100, vm::Region::Data));
    profiler.observe(memStep(0x104, vm::Region::Data));
    profiler.observe(memStep(0x104, vm::Region::Stack, false));
    profiler.observe(memStep(0x108, vm::Region::Heap));
    profiler.observe(aluStep(0x10c));

    RegionProfile profile = profiler.profile();
    EXPECT_EQ(profile.totalInstructions, 6u);
    EXPECT_EQ(profile.dynamicLoads, 4u);
    EXPECT_EQ(profile.dynamicStores, 1u);
    EXPECT_EQ(profile.staticTotal(), 3u);
    EXPECT_EQ(profile.dynamicTotal(), 5u);
    EXPECT_EQ(
        profile.staticCounts[static_cast<unsigned>(RegionClass::D)], 1u);
    EXPECT_EQ(
        profile.staticCounts[static_cast<unsigned>(RegionClass::DS)], 1u);
    EXPECT_EQ(
        profile.staticCounts[static_cast<unsigned>(RegionClass::H)], 1u);
    EXPECT_EQ(profile.staticMultiRegion(), 1u);
    EXPECT_EQ(profile.dynamicMultiRegion(), 2u);
    EXPECT_NEAR(profile.staticMultiRegionPct(), 100.0 / 3.0, 1e-9);
    EXPECT_NEAR(profile.dynamicMultiRegionPct(), 40.0, 1e-9);
    EXPECT_EQ(profile.regionRefs[0], 3u);  // data
    EXPECT_EQ(profile.regionRefs[1], 1u);  // heap
    EXPECT_EQ(profile.regionRefs[2], 1u);  // stack
}

TEST(RegionProfiler, MaskAccessors)
{
    RegionProfiler profiler;
    profiler.observe(memStep(0x200, vm::Region::Heap));
    profiler.observe(memStep(0x200, vm::Region::Stack));
    EXPECT_EQ(profiler.maskForPc(0x200), 0b110u);
    EXPECT_EQ(profiler.maskForPc(0x999), 0u);
}

TEST(WindowProfiler, ExactSmallWindow)
{
    // Window of 4; stream: D D - S | D - - - (sampling starts once
    // the window is full).
    WindowProfiler profiler(4);
    profiler.observe(memStep(0, vm::Region::Data));
    profiler.observe(memStep(4, vm::Region::Data));
    profiler.observe(aluStep(8));
    // Window fills here: contents {D, D, -, S}: first sample.
    profiler.observe(memStep(12, vm::Region::Stack));
    // Second sample: {D, -, S, D} -> D=2, S=1.
    profiler.observe(memStep(16, vm::Region::Data));
    // Third: {-, S, D, -} -> D=1, S=1.
    profiler.observe(aluStep(20));

    WindowStats stats = profiler.stats_summary();
    EXPECT_EQ(stats.windowSize, 4u);
    EXPECT_EQ(stats.samples, 3u);
    // Data counts per sample: 2, 2, 1 -> mean 5/3.
    EXPECT_NEAR(stats.mean[0], 5.0 / 3.0, 1e-12);
    // Stack counts: 1, 1, 1 -> mean 1, sd 0.
    EXPECT_NEAR(stats.mean[2], 1.0, 1e-12);
    EXPECT_NEAR(stats.stddev[2], 0.0, 1e-12);
    EXPECT_NEAR(stats.mean[1], 0.0, 1e-12);
}

TEST(WindowProfiler, BurstyPredicate)
{
    // 64 instructions: one burst of 8 stack refs then 56 ALU ops.
    WindowProfiler profiler(8);
    for (int i = 0; i < 8; ++i)
        profiler.observe(memStep(static_cast<Addr>(i * 4),
                                 vm::Region::Stack));
    for (int i = 0; i < 56; ++i)
        profiler.observe(aluStep(static_cast<Addr>(0x1000 + i * 4)));
    WindowStats stats = profiler.stats_summary();
    // Long quiet tail => small mean, burst => large deviation.
    EXPECT_TRUE(stats.strictlyBursty(2));
    EXPECT_FALSE(stats.strictlyBursty(0));  // no data refs at all
}

TEST(WindowProfiler, SteadyStreamIsNotBursty)
{
    // Every other instruction is a data ref: perfectly steady.
    WindowProfiler profiler(8);
    for (int i = 0; i < 200; ++i) {
        if (i % 2 == 0)
            profiler.observe(memStep(static_cast<Addr>(i),
                                     vm::Region::Data));
        else
            profiler.observe(aluStep(static_cast<Addr>(i)));
    }
    WindowStats stats = profiler.stats_summary();
    EXPECT_NEAR(stats.mean[0], 4.0, 1e-9);
    EXPECT_FALSE(stats.strictlyBursty(0));
}

TEST(WindowProfiler, NoSamplesBeforeWindowFills)
{
    WindowProfiler profiler(32);
    for (int i = 0; i < 31; ++i)
        profiler.observe(aluStep(static_cast<Addr>(i)));
    EXPECT_EQ(profiler.stats_summary().samples, 0u);
    profiler.observe(aluStep(31));
    EXPECT_EQ(profiler.stats_summary().samples, 1u);
}

TEST(WindowProfiler, EmptyIsAllZeros)
{
    // No sample yet: every mean and σ reads 0, not 0/0.
    WindowProfiler profiler(4);
    for (int i = 0; i < 3; ++i)
        profiler.observe(memStep(static_cast<Addr>(i * 4),
                                 vm::Region::Stack));
    WindowStats stats = profiler.stats_summary();
    EXPECT_EQ(stats.samples, 0u);
    for (unsigned r = 0; r < vm::NumDataRegions; ++r) {
        EXPECT_EQ(stats.mean[r], 0.0);
        EXPECT_EQ(stats.stddev[r], 0.0);
    }
}

TEST(WindowProfiler, MeanAndPopulationStddev)
{
    // A one-instruction window samples each record's own region: D D
    // S - D D - -.  Data reads 1,1,0,0,1,1,0,0 (mean 1/2, σ 1/2) and
    // stack 0,0,1,0,0,0,0,0 (mean 1/8, σ √7/8).
    WindowProfiler profiler(1);
    for (int round = 0; round < 2; ++round) {
        profiler.observe(memStep(0, vm::Region::Data));
        profiler.observe(memStep(4, vm::Region::Data));
        if (round == 0)
            profiler.observe(memStep(8, vm::Region::Stack));
        else
            profiler.observe(aluStep(8));
        profiler.observe(aluStep(12));
    }
    WindowStats stats = profiler.stats_summary();
    EXPECT_EQ(stats.samples, 8u);
    EXPECT_DOUBLE_EQ(stats.mean[0], 0.5);
    EXPECT_DOUBLE_EQ(stats.stddev[0], 0.5);
    EXPECT_DOUBLE_EQ(stats.mean[2], 0.125);
    EXPECT_DOUBLE_EQ(stats.stddev[2], std::sqrt(7.0) / 8.0);
}

TEST(WindowProfiler, MatchesScalarWelfordBitForBit)
{
    // Over a seeded stream, each window's mean and σ must equal, to
    // the bit, Welford's recurrence with an integer count run per
    // region on counts taken from an explicit window.
    for (unsigned size : {1u, 4u, 32u, 64u}) {
        WindowProfiler profiler(size);
        std::deque<int> window;  // region index, -1 = no reference
        std::uint64_t n = 0;
        std::array<double, vm::NumDataRegions> mean{}, m2{};
        Rng rng(1234 + size);
        for (int i = 0; i < 20000; ++i) {
            // Bursts: a region keeps its share for a stretch.
            int region = static_cast<int>(rng.nextBounded(5)) - 2;
            if (i % 500 < 100)
                region = region < 0 ? 2 : region;
            const Addr pc = static_cast<Addr>(4 * (i % 64));
            if (region < 0)
                profiler.observe(aluStep(pc));
            else
                profiler.observe(
                    memStep(pc, static_cast<vm::Region>(region)));
            window.push_back(region);
            if (window.size() > size)
                window.pop_front();
            if (window.size() < size)
                continue;
            ++n;
            for (unsigned r = 0; r < vm::NumDataRegions; ++r) {
                double x = 0.0;
                for (int w : window)
                    x += w == static_cast<int>(r);
                double delta = x - mean[r];
                mean[r] += delta / static_cast<double>(n);
                m2[r] += delta * (x - mean[r]);
            }
        }
        WindowStats stats = profiler.stats_summary();
        EXPECT_EQ(stats.samples, n) << "window " << size;
        for (unsigned r = 0; r < vm::NumDataRegions; ++r) {
            EXPECT_EQ(stats.mean[r], mean[r])
                << "window " << size << " region " << r;
            EXPECT_EQ(stats.stddev[r],
                      std::sqrt(m2[r] / static_cast<double>(n)))
                << "window " << size << " region " << r;
        }
    }
}
