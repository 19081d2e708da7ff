/**
 * @file
 * Cache model tests: hits/misses/LRU/writebacks, probe semantics,
 * hierarchy latency composition (parameterized over both pipelines),
 * the TLB's per-page stack bit, and the contention backend (bank
 * scheduling, MSHR merge/stall, writeback buffer, shared bus) —
 * including the load-bearing invariant that timedAccess with every
 * knob at zero is cycle-identical to the ideal access path.
 */

#include <gtest/gtest.h>

#include "cache/bank.hh"
#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "cache/mshr.hh"
#include "cache/tlb.hh"
#include "common/random.hh"
#include "vm/layout.hh"

using namespace arl;
using namespace arl::cache;

TEST(Cache, HitAfterMiss)
{
    Cache cache(CacheGeometry{"t", 1024, 32, 2});
    EXPECT_FALSE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x101c, false).hit);   // same line
    EXPECT_FALSE(cache.access(0x1020, false).hit);  // next line
    EXPECT_EQ(cache.hits, 2u);
    EXPECT_EQ(cache.misses, 2u);
}

TEST(Cache, LruReplacement)
{
    // 2-way, 16 sets of 32B lines: addresses 0, 512, 1024 share set 0.
    Cache cache(CacheGeometry{"t", 1024, 32, 2});
    cache.access(0, false);
    cache.access(512, false);
    cache.access(0, false);      // refresh line 0
    cache.access(1024, false);   // evicts 512 (LRU)
    EXPECT_TRUE(cache.access(0, false).hit);
    EXPECT_FALSE(cache.access(512, false).hit);
}

TEST(Cache, WritebackOnDirtyEviction)
{
    Cache cache(CacheGeometry{"t", 64, 32, 1});  // 2 sets, direct
    cache.access(0, true);                       // dirty line
    auto outcome = cache.access(64, false);      // same set: evicts
    EXPECT_TRUE(outcome.writeback);
    EXPECT_EQ(cache.writebacks, 1u);
    // Clean eviction has no writeback.
    cache.access(128, false);
    EXPECT_EQ(cache.writebacks, 1u);
}

TEST(Cache, ProbeDoesNotAllocate)
{
    Cache cache(CacheGeometry{"t", 1024, 32, 2});
    EXPECT_FALSE(cache.probe(0x2000));
    EXPECT_EQ(cache.misses, 0u);
    cache.access(0x2000, false);
    EXPECT_TRUE(cache.probe(0x2000));
}

TEST(Cache, HitRateAccounting)
{
    Cache cache(CacheGeometry{"t", 1024, 32, 2});
    EXPECT_EQ(cache.hitRatePct(), 100.0);  // vacuous
    cache.access(0, false);
    cache.access(0, false);
    cache.access(0, false);
    cache.access(32, false);
    EXPECT_NEAR(cache.hitRatePct(), 50.0, 1e-9);
}

TEST(CacheDeath, BadGeometryRejected)
{
    EXPECT_DEATH(Cache(CacheGeometry{"bad", 1000, 24, 2}),
                 "powers");
}

/** Hierarchy latency composition for both first-level pipes. */
class HierarchyLatency : public ::testing::TestWithParam<MemPipe>
{
  protected:
    HierarchyConfig
    config() const
    {
        HierarchyConfig c;
        c.hasLvc = true;
        return c;
    }
};

TEST_P(HierarchyLatency, ComposesMissLatencies)
{
    HierarchyConfig c = config();
    Hierarchy hierarchy(c);
    MemPipe pipe = GetParam();
    std::uint32_t first = (pipe == MemPipe::Lvc) ? c.lvcHitLatency
                                                 : c.l1HitLatency;

    // Cold: first-level miss + L2 miss -> full memory latency.
    auto cold = hierarchy.access(pipe, 0x10000000, false);
    EXPECT_FALSE(cold.l1Hit);
    EXPECT_EQ(cold.latency, first + c.l2HitLatency + c.memoryLatency);

    // Hot: first-level hit.
    auto hot = hierarchy.access(pipe, 0x10000000, false);
    EXPECT_TRUE(hot.l1Hit);
    EXPECT_EQ(hot.latency, first);
}

INSTANTIATE_TEST_SUITE_P(BothPipes, HierarchyLatency,
                         ::testing::Values(MemPipe::DCache,
                                           MemPipe::Lvc),
                         [](const auto &info) {
                             return info.param == MemPipe::Lvc
                                        ? "Lvc"
                                        : "DCache";
                         });

TEST(Hierarchy, L2CatchesL1Evictions)
{
    HierarchyConfig c;
    c.l1.sizeBytes = 64;   // tiny L1: 2 lines direct... 1 set 2-way
    c.l1.assoc = 2;
    Hierarchy hierarchy(c);
    hierarchy.access(MemPipe::DCache, 0x10000000, false);  // cold
    hierarchy.access(MemPipe::DCache, 0x10001000, false);
    hierarchy.access(MemPipe::DCache, 0x10002000, false);  // evicts 1st
    // The first line is gone from L1 but still in L2.
    auto again = hierarchy.access(MemPipe::DCache, 0x10000000, false);
    EXPECT_FALSE(again.l1Hit);
    EXPECT_EQ(again.latency, c.l1HitLatency + c.l2HitLatency);
}

TEST(Hierarchy, LvcAndL1ShareL2)
{
    HierarchyConfig c;
    c.hasLvc = true;
    Hierarchy hierarchy(c);
    Addr addr = vm::layout::StackTop - 64;
    hierarchy.access(MemPipe::Lvc, addr, true);   // fills LVC and L2
    // The same line through the D-cache pipe misses L1 but hits L2.
    auto via_l1 = hierarchy.access(MemPipe::DCache, addr, false);
    EXPECT_EQ(via_l1.latency, c.l1HitLatency + c.l2HitLatency);
}

TEST(HierarchyDeath, LvcAccessWithoutLvc)
{
    HierarchyConfig c;
    c.hasLvc = false;
    Hierarchy hierarchy(c);
    EXPECT_DEATH(hierarchy.access(MemPipe::Lvc, 0x1000, false),
                 "without an LVC");
}

TEST(Tlb, StackBitFromRegionMap)
{
    vm::RegionMap regions(0x10004000);
    Tlb tlb(64, regions);
    auto stack = tlb.translate(vm::layout::StackTop - 128);
    EXPECT_FALSE(stack.hit);  // cold
    EXPECT_TRUE(stack.stackPage);
    auto stack_again = tlb.translate(vm::layout::StackTop - 64);
    EXPECT_TRUE(stack_again.hit);  // same page
    EXPECT_TRUE(stack_again.stackPage);
    auto data = tlb.translate(vm::layout::DataBase);
    EXPECT_FALSE(data.stackPage);
    auto heap = tlb.translate(0x10004000);
    EXPECT_FALSE(heap.stackPage);
    EXPECT_EQ(tlb.misses, 3u);
    EXPECT_EQ(tlb.hits, 1u);
}

TEST(Tlb, ConflictEvictionRefills)
{
    vm::RegionMap regions(0x10004000);
    Tlb tlb(1, regions);  // single entry: every new page evicts
    tlb.translate(vm::layout::DataBase);
    tlb.translate(vm::layout::StackTop - 4);
    auto back = tlb.translate(vm::layout::DataBase);
    EXPECT_FALSE(back.hit);
    EXPECT_FALSE(back.stackPage);
    EXPECT_EQ(tlb.misses, 3u);
}

// ---------------------------------------------------------------------
// Contention backend
// ---------------------------------------------------------------------

TEST(BankSet, SerializesSameBankAndCounts)
{
    BankSet banks(2, 32);  // lines 0,2,4.. -> bank 0; 1,3,5.. -> bank 1
    EXPECT_TRUE(banks.enabled());
    EXPECT_EQ(banks.bankOf(0x00), 0u);
    EXPECT_EQ(banks.bankOf(0x20), 1u);
    EXPECT_EQ(banks.bankOf(0x40), 0u);

    // Two same-cycle accesses to bank 0 serialize; bank 1 is free.
    EXPECT_EQ(banks.schedule(0x00, 5), 5u);
    EXPECT_EQ(banks.schedule(0x40, 5), 6u);   // conflict: +1
    EXPECT_EQ(banks.schedule(0x20, 5), 5u);   // other bank
    EXPECT_EQ(banks.conflicts, 1u);
    EXPECT_EQ(banks.conflictCycles, 1u);

    // A later cycle finds the bank free again.
    EXPECT_EQ(banks.schedule(0x00, 10), 10u);
    EXPECT_EQ(banks.conflicts, 1u);

    banks.reset();
    EXPECT_EQ(banks.schedule(0x00, 0), 0u);   // busy time forgotten
}

TEST(BankSet, DisabledIsIdentity)
{
    BankSet banks(0, 32);
    EXPECT_FALSE(banks.enabled());
    for (Cycle at : {0u, 3u, 3u, 3u})
        EXPECT_EQ(banks.schedule(0x1000, at), at);
    EXPECT_EQ(banks.conflicts, 0u);
}

TEST(Mshr, TracksRetireMergeAndOccupancy)
{
    MshrFile file(2);
    EXPECT_TRUE(file.enabled());
    file.allocate(10, 64);
    file.allocate(11, 80);
    EXPECT_TRUE(file.full());
    EXPECT_EQ(file.inFlight(10), 64u);
    EXPECT_EQ(file.inFlight(12), 0u);
    EXPECT_EQ(file.earliestReady(), 64u);
    EXPECT_EQ(file.peakOccupancy, 2u);

    file.retire(64);   // first fill returned
    EXPECT_FALSE(file.full());
    EXPECT_EQ(file.occupancy(), 1u);
    EXPECT_EQ(file.inFlight(10), 0u);

    file.reset();
    EXPECT_EQ(file.occupancy(), 0u);
}

namespace
{

/** A hierarchy config with every contention knob engaged. */
HierarchyConfig
contendedConfig()
{
    HierarchyConfig c;
    c.hasLvc = true;
    c.contention.l1Banks = 2;
    c.contention.lvcBanks = 2;
    c.contention.mshrs = 4;
    c.contention.wbBufEntries = 2;
    c.contention.busCyclesPerTransfer = 0;  // tests enable as needed
    return c;
}

} // namespace

TEST(TimedAccess, ZeroKnobsMatchIdealPathExactly)
{
    // The load-bearing golden-compatibility invariant: with the
    // all-zero ContentionConfig default, timedAccess must return the
    // identical (latency, l1Hit) as access() for any access stream.
    HierarchyConfig c;
    c.hasLvc = true;
    Hierarchy ideal(c);
    Hierarchy timed(c);
    Rng rng(0xc0ffee);
    Cycle now = 0;
    for (int i = 0; i < 5000; ++i) {
        Addr addr = static_cast<Addr>(rng.nextBounded(1 << 20)) * 4;
        bool is_write = rng.nextBounded(3) == 0;
        MemPipe pipe =
            rng.nextBounded(4) == 0 ? MemPipe::Lvc : MemPipe::DCache;
        now += rng.nextBounded(3);
        auto a = ideal.access(pipe, addr, is_write);
        auto b = timed.timedAccess(pipe, addr, is_write, now);
        ASSERT_EQ(a.latency, b.latency) << "access " << i;
        ASSERT_EQ(a.l1Hit, b.l1Hit) << "access " << i;
    }
    EXPECT_EQ(timed.l1Banks().conflicts, 0u);
    EXPECT_EQ(timed.busBusy(), 0u);
}

TEST(TimedAccess, SameCycleSameBankSerializes)
{
    HierarchyConfig c = contendedConfig();
    Hierarchy hierarchy(c);
    // Warm two lines that share bank 0 (banks=2, 32B lines: line
    // addresses 0 and 2) plus one on bank 1.
    hierarchy.timedAccess(MemPipe::DCache, 0x00, false, 0);
    hierarchy.timedAccess(MemPipe::DCache, 0x40, false, 0);
    hierarchy.timedAccess(MemPipe::DCache, 0x20, false, 0);
    hierarchy.resetContention();

    auto first = hierarchy.timedAccess(MemPipe::DCache, 0x00, false, 100);
    auto second = hierarchy.timedAccess(MemPipe::DCache, 0x40, false, 100);
    EXPECT_EQ(first.latency, c.l1HitLatency);
    EXPECT_EQ(second.latency, c.l1HitLatency + 1);  // lost arbitration
    EXPECT_EQ(hierarchy.l1Banks().conflicts, 1u);
    EXPECT_EQ(hierarchy.l1Banks().conflictCycles, 1u);

    // Different banks in the same cycle do not interfere.
    auto other = hierarchy.timedAccess(MemPipe::DCache, 0x20, false, 100);
    EXPECT_EQ(other.latency, c.l1HitLatency);
    EXPECT_EQ(hierarchy.l1Banks().conflicts, 1u);
}

TEST(TimedAccess, SecondaryMissMergesIntoOutstandingFill)
{
    HierarchyConfig c = contendedConfig();
    Hierarchy hierarchy(c);
    const std::uint32_t miss_latency =
        c.l1HitLatency + c.l2HitLatency + c.memoryLatency;

    auto primary = hierarchy.timedAccess(MemPipe::DCache, 0x1000,
                                         false, 0);
    EXPECT_FALSE(primary.l1Hit);
    EXPECT_EQ(primary.latency, miss_latency);
    EXPECT_EQ(hierarchy.l1Mshrs().allocations, 1u);

    // Same line one cycle later: the tag array says hit (the line
    // was allocated), but the data only arrives with the fill.
    auto secondary = hierarchy.timedAccess(MemPipe::DCache, 0x1004,
                                           false, 1);
    EXPECT_TRUE(secondary.l1Hit);
    EXPECT_EQ(secondary.latency, miss_latency - 1);
    EXPECT_EQ(hierarchy.l1Mshrs().merges, 1u);

    // After the fill returns, the same line is a plain hit.
    auto later = hierarchy.timedAccess(
        MemPipe::DCache, 0x1008, false, miss_latency + 10);
    EXPECT_EQ(later.latency, c.l1HitLatency);
    EXPECT_EQ(hierarchy.l1Mshrs().merges, 1u);
}

TEST(TimedAccess, FullMshrFileStallsPrimaryMiss)
{
    HierarchyConfig c = contendedConfig();
    c.contention.mshrs = 1;
    c.contention.l1Banks = 0;  // isolate the MSHR effect
    c.contention.lvcBanks = 0;
    Hierarchy hierarchy(c);
    const std::uint32_t miss_latency =
        c.l1HitLatency + c.l2HitLatency + c.memoryLatency;

    auto first = hierarchy.timedAccess(MemPipe::DCache, 0x1000,
                                       false, 0);
    EXPECT_EQ(first.latency, miss_latency);  // fill returns at 64

    // A second primary miss one cycle later finds the only MSHR
    // busy: it waits for the outstanding fill, then starts over.
    auto second = hierarchy.timedAccess(MemPipe::DCache, 0x2000,
                                        false, 1);
    EXPECT_EQ(second.latency, (miss_latency - 1) + miss_latency);
    EXPECT_EQ(hierarchy.l1Mshrs().fullStalls, 1u);
    EXPECT_EQ(hierarchy.l1Mshrs().stallCycles,
              static_cast<std::uint64_t>(miss_latency) - 1);
}

TEST(TimedAccess, FullWritebackBufferStallsEvictingMiss)
{
    HierarchyConfig c;
    c.l1 = CacheGeometry{"L1D", 64, 32, 1};  // 2 sets, direct-mapped
    c.contention.wbBufEntries = 1;
    Hierarchy hierarchy(c);
    const std::uint32_t miss_latency =
        c.l1HitLatency + c.l2HitLatency + c.memoryLatency;

    // Dirty set 0, then evict it twice in the same cycle: the second
    // eviction finds the single buffer slot still draining.
    hierarchy.timedAccess(MemPipe::DCache, 0, true, 0);        // dirty
    auto evict1 = hierarchy.timedAccess(MemPipe::DCache, 64, true, 0);
    EXPECT_EQ(evict1.latency, miss_latency);  // buffered, no stall
    EXPECT_EQ(hierarchy.wbEnqueuedCount(), 1u);

    auto evict2 = hierarchy.timedAccess(MemPipe::DCache, 128, false, 0);
    // Stalled until the first victim drains at l2HitLatency.
    EXPECT_EQ(evict2.latency, c.l2HitLatency + miss_latency);
    EXPECT_EQ(hierarchy.wbFullStallCount(), 1u);
    EXPECT_EQ(hierarchy.wbStallCycleCount(), c.l2HitLatency);
    EXPECT_EQ(hierarchy.wbEnqueuedCount(), 2u);
}

TEST(TimedAccess, SharedBusSerializesRefills)
{
    HierarchyConfig c;
    c.contention.busCyclesPerTransfer = 4;
    Hierarchy hierarchy(c);
    const std::uint32_t fill_ready =
        c.l1HitLatency + c.l2HitLatency + c.memoryLatency;

    // Two same-cycle misses: both fills are ready at the same time,
    // but the second must wait for the bus.
    auto first = hierarchy.timedAccess(MemPipe::DCache, 0x1000,
                                       false, 0);
    auto second = hierarchy.timedAccess(MemPipe::DCache, 0x2000,
                                        false, 0);
    EXPECT_EQ(first.latency, fill_ready + 4);
    EXPECT_EQ(second.latency, fill_ready + 8);
    EXPECT_EQ(hierarchy.busBusy(), 8u);
}

TEST(TimedAccess, ResetContentionForgetsTransientState)
{
    HierarchyConfig c = contendedConfig();
    c.contention.busCyclesPerTransfer = 4;
    Hierarchy hierarchy(c);
    // Generate bank, MSHR, and bus pressure.
    for (Addr addr = 0; addr < 0x800; addr += 0x20)
        hierarchy.timedAccess(MemPipe::DCache, addr, true, 0);
    ASSERT_GT(hierarchy.l1Banks().conflicts, 0u);
    ASSERT_GT(hierarchy.busBusy(), 0u);

    hierarchy.resetContention();
    EXPECT_EQ(hierarchy.l1Banks().conflicts, 0u);
    EXPECT_EQ(hierarchy.l1Mshrs().allocations, 0u);
    EXPECT_EQ(hierarchy.busBusy(), 0u);
    EXPECT_EQ(hierarchy.wbEnqueuedCount(), 0u);

    // And cycle-0 time is usable again: a hit sees no stale bank
    // busy time from the pre-reset cycle-0 burst.
    auto hit = hierarchy.timedAccess(MemPipe::DCache, 0x00, false, 0);
    EXPECT_EQ(hit.latency, c.l1HitLatency);
}
