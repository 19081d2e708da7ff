/**
 * @file
 * Predictor tests: context formation, ARPT learning/aliasing/
 * occupancy, the combined region predictor's resolution order and
 * accounting, and profile-derived compiler hints.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "predict/arpt.hh"
#include "predict/compiler_hints.hh"
#include "predict/context.hh"
#include "predict/region_predictor.hh"

using namespace arl;
using namespace arl::predict;

namespace
{

sim::StepInfo
memStep(Addr pc, vm::Region region, RegIndex base, Word gbh = 0,
        Word cid = 0)
{
    sim::StepInfo step;
    step.isMem = true;
    step.isLoad = true;
    step.pc = pc;
    step.region = region;
    step.gbh = gbh;
    step.cid = cid;
    step.inst.op = isa::Opcode::Lw;
    step.inst.rs = base;
    step.memSize = 4;
    return step;
}

} // namespace

TEST(Context, Formation)
{
    ContextConfig none{ContextKind::None, 8, 24};
    EXPECT_EQ(makeContext(none, 0xffffffff, 0xffffffff), 0u);

    ContextConfig gbh{ContextKind::Gbh, 8, 24};
    EXPECT_EQ(makeContext(gbh, 0x1abcd, 0), 0xcdu);

    ContextConfig cid{ContextKind::Cid, 8, 24};
    // CID skips the two aligned-zero bits.
    EXPECT_EQ(makeContext(cid, 0, 0x00400104), 0x00400104u >> 2);

    ContextConfig hybrid{ContextKind::Hybrid, 8, 7};
    std::uint32_t expected = ((0x1abcdu & 0xff) << 7) |
                             ((0x00400104u >> 2) & 0x7f);
    EXPECT_EQ(makeContext(hybrid, 0x1abcd, 0x00400104), expected);
}

TEST(ContextNames, Exist)
{
    EXPECT_EQ(contextKindName(ContextKind::None), "none");
    EXPECT_EQ(contextKindName(ContextKind::Hybrid), "hybrid");
}

TEST(Arpt, OneBitLearnsLastRegion)
{
    ArptConfig config;
    config.entries = 1024;
    Arpt arpt(config);
    Addr pc = 0x00400100;
    // Cold entry predicts non-stack (rule 4's default).
    EXPECT_FALSE(arpt.predictStack(pc, 0, 0));
    arpt.update(pc, 0, 0, true);
    EXPECT_TRUE(arpt.predictStack(pc, 0, 0));
    arpt.update(pc, 0, 0, false);
    EXPECT_FALSE(arpt.predictStack(pc, 0, 0));  // 1-bit: no hysteresis
}

TEST(Arpt, TwoBitHasHysteresis)
{
    ArptConfig config;
    config.entries = 1024;
    config.counterBits = 2;
    Arpt arpt(config);
    Addr pc = 0x00400100;
    arpt.update(pc, 0, 0, true);
    arpt.update(pc, 0, 0, true);
    arpt.update(pc, 0, 0, true);   // counter saturates at 3
    EXPECT_TRUE(arpt.predictStack(pc, 0, 0));
    arpt.update(pc, 0, 0, false);  // 3 -> 2: still predicts stack
    EXPECT_TRUE(arpt.predictStack(pc, 0, 0));
    arpt.update(pc, 0, 0, false);  // 2 -> 1: flips
    EXPECT_FALSE(arpt.predictStack(pc, 0, 0));
}

TEST(Arpt, TaglessAliasing)
{
    ArptConfig config;
    config.entries = 16;  // tiny: pc and pc+16*4 alias
    Arpt arpt(config);
    Addr pc_a = 0x00400000;
    Addr pc_b = 0x00400000 + 16 * 4;
    arpt.update(pc_a, 0, 0, true);
    EXPECT_TRUE(arpt.predictStack(pc_b, 0, 0));  // shares the entry
    EXPECT_EQ(arpt.occupiedEntries(), 1u);
}

TEST(Arpt, ContextSeparatesInstances)
{
    // Unlimited table with GBH context: the same PC under different
    // histories trains different entries (the paper's fix for
    // "SNSNSN" instructions).
    ArptConfig config;
    config.entries = 0;
    config.context.kind = ContextKind::Gbh;
    config.context.gbhBits = 8;
    Arpt arpt(config);
    Addr pc = 0x00400200;
    arpt.update(pc, 0b01, 0, true);
    arpt.update(pc, 0b10, 0, false);
    EXPECT_TRUE(arpt.predictStack(pc, 0b01, 0));
    EXPECT_FALSE(arpt.predictStack(pc, 0b10, 0));
    EXPECT_EQ(arpt.occupiedEntries(), 2u);
}

TEST(Arpt, UnlimitedOccupancyCountsPairs)
{
    ArptConfig config;
    config.entries = 0;
    Arpt arpt(config);
    for (Addr pc = 0x00400000; pc < 0x00400000 + 40; pc += 4)
        arpt.update(pc, 0, 0, false);
    EXPECT_EQ(arpt.occupiedEntries(), 10u);
    arpt.reset();
    EXPECT_EQ(arpt.occupiedEntries(), 0u);
}

TEST(Arpt, FusedProbeMatchesPredictThenUpdate)
{
    // predictAndUpdate() must return what predictStack() would have
    // said before update(), and leave the same occupancy, for 1- and
    // 2-bit entries, limited (aliasing) and unlimited tables, and
    // every context.
    const ContextKind kinds[] = {ContextKind::None, ContextKind::Gbh,
                                 ContextKind::Cid, ContextKind::Hybrid};
    for (unsigned bits : {1u, 2u}) {
        for (std::uint32_t entries : {0u, 64u, 32u * 1024}) {
            for (ContextKind kind : kinds) {
                ArptConfig config;
                config.entries = entries;
                config.counterBits = bits;
                config.context = {kind, 8, entries ? 7u : 24u};
                Arpt separate(config);
                Arpt fused(config);
                Rng rng(bits * 1000 + entries + static_cast<unsigned>(kind));
                for (int i = 0; i < 5000; ++i) {
                    const Addr pc =
                        0x00400000 + 4 * static_cast<Addr>(rng.nextBounded(300));
                    const Word gbh = rng.next32();
                    const Word cid = 0x00400800 +
                                     4 * static_cast<Word>(rng.nextBounded(40));
                    // Mostly one region per PC, with noise.
                    const bool stack = ((pc >> 2) % 3 == 0) !=
                                       (rng.nextBounded(10) == 0);
                    const bool want = separate.predictStack(pc, gbh, cid);
                    separate.update(pc, gbh, cid, stack);
                    ASSERT_EQ(fused.predictAndUpdate(pc, gbh, cid, stack),
                              want)
                        << "bits " << bits << " entries " << entries
                        << " context " << contextKindName(kind)
                        << " step " << i;
                }
                EXPECT_EQ(fused.occupiedEntries(),
                          separate.occupiedEntries());
                EXPECT_GT(fused.occupiedEntries(), 0u);
            }
        }
    }
}

TEST(Arpt, StorageBytes)
{
    ArptConfig config;
    config.entries = 32 * 1024;
    config.counterBits = 1;
    Arpt arpt(config);
    EXPECT_EQ(arpt.storageBytes(), 4096u);  // the paper's "only 4 KB"
}

TEST(ArptDeath, RejectsBadConfig)
{
    ArptConfig config;
    config.entries = 1000;  // not a power of two
    EXPECT_DEATH(Arpt{config}, "power of two");
}

TEST(RegionPredictor, AddrModeBypassesArpt)
{
    RegionPredictorConfig config;
    config.arpt.entries = 1024;
    RegionPredictor predictor(config);

    // $sp-based access: conclusive, never trains the table.
    auto sp_step = memStep(0x00400000, vm::Region::Stack, isa::reg::Sp);
    for (int i = 0; i < 10; ++i)
        predictor.observe(sp_step);
    auto report = predictor.report();
    EXPECT_EQ(report.total, 10u);
    EXPECT_EQ(report.correct, 10u);
    EXPECT_EQ(report.totalBySource[static_cast<unsigned>(
                  PredictionSource::AddrMode)],
              10u);
    EXPECT_EQ(report.arptOccupancy, 0u);  // nothing recorded
}

TEST(RegionPredictor, ArptLearnsRule4StackAccesses)
{
    RegionPredictorConfig config;
    config.arpt.entries = 1024;
    RegionPredictor predictor(config);

    // A pointer-based (rule 4) access that actually hits the stack:
    // first observation mispredicts, later ones are corrected.
    auto step = memStep(0x00400010, vm::Region::Stack, isa::reg::T0);
    predictor.observe(step);
    predictor.observe(step);
    predictor.observe(step);
    auto report = predictor.report();
    EXPECT_EQ(report.total, 3u);
    EXPECT_EQ(report.correct, 2u);  // cold miss once
    EXPECT_EQ(report.arptOccupancy, 1u);
}

TEST(RegionPredictor, StaticSchemeNeverLearns)
{
    RegionPredictorConfig config;
    config.useArpt = false;
    RegionPredictor predictor(config);
    auto step = memStep(0x00400010, vm::Region::Stack, isa::reg::T0);
    for (int i = 0; i < 5; ++i)
        predictor.observe(step);
    // Rule 4 predicts non-stack forever: always wrong here.
    EXPECT_EQ(predictor.report().correct, 0u);
    EXPECT_EQ(predictor.report().accuracyPct(), 0.0);
}

TEST(RegionPredictor, HintsBypassEverything)
{
    CompilerHints hints;
    auto stack_step =
        memStep(0x00400010, vm::Region::Stack, isa::reg::T0);
    hints.observe(stack_step);  // profiled as stack-only

    RegionPredictorConfig config;
    config.arpt.entries = 1024;
    config.useCompilerHints = true;
    RegionPredictor predictor(config, &hints);
    predictor.observe(stack_step);
    auto report = predictor.report();
    EXPECT_EQ(report.correct, 1u);
    EXPECT_EQ(report.totalBySource[static_cast<unsigned>(
                  PredictionSource::CompilerHint)],
              1u);
    EXPECT_EQ(report.hintResolvedPct(), 100.0);
    EXPECT_EQ(report.arptOccupancy, 0u);
}

TEST(RegionPredictorDeath, HintsRequiredWhenEnabled)
{
    RegionPredictorConfig config;
    config.useCompilerHints = true;
    EXPECT_DEATH(RegionPredictor(config, nullptr), "hints");
}

TEST(CompilerHints, TagsFollowProfiledRegions)
{
    CompilerHints hints;
    hints.observe(memStep(0x100, vm::Region::Stack, isa::reg::T0));
    hints.observe(memStep(0x104, vm::Region::Data, isa::reg::T0));
    hints.observe(memStep(0x108, vm::Region::Heap, isa::reg::T0));
    hints.observe(memStep(0x10c, vm::Region::Data, isa::reg::T0));
    hints.observe(memStep(0x10c, vm::Region::Heap, isa::reg::T0));
    hints.observe(memStep(0x110, vm::Region::Data, isa::reg::T0));
    hints.observe(memStep(0x110, vm::Region::Stack, isa::reg::T0));

    EXPECT_EQ(hints.tag(0x100), HintTag::Stack);
    EXPECT_EQ(hints.tag(0x104), HintTag::NonStack);
    EXPECT_EQ(hints.tag(0x108), HintTag::NonStack);
    // D/H: multiple regions => the paper's profile protocol leaves
    // it unknown (even though both are non-stack).
    EXPECT_EQ(hints.tag(0x10c), HintTag::Unknown);
    EXPECT_EQ(hints.tag(0x110), HintTag::Unknown);
    EXPECT_EQ(hints.tag(0xdead), HintTag::Unknown);
    EXPECT_EQ(hints.staticInstructions(), 5u);
    EXPECT_EQ(hints.classifiedInstructions(), 3u);
}

TEST(RegionPredictor, AlternatingRegionsNeedContext)
{
    // "SNSNSN...": 1BIT mispredicts every time after warmup; a GBH
    // context that mirrors the alternation fixes it.
    auto stack = memStep(0x00400020, vm::Region::Stack, isa::reg::T0,
                         /*gbh=*/0b1);
    auto data = memStep(0x00400020, vm::Region::Data, isa::reg::T0,
                        /*gbh=*/0b0);

    RegionPredictorConfig no_ctx;
    no_ctx.arpt.entries = 0;
    RegionPredictor plain(no_ctx);

    RegionPredictorConfig with_ctx;
    with_ctx.arpt.entries = 0;
    with_ctx.arpt.context.kind = ContextKind::Gbh;
    RegionPredictor contextual(with_ctx);

    for (int i = 0; i < 50; ++i) {
        plain.observe(stack);
        plain.observe(data);
        contextual.observe(stack);
        contextual.observe(data);
    }
    // 1BIT: last-region always wrong once alternation starts.
    EXPECT_LT(plain.report().accuracyPct(), 10.0);
    // Context separates the two personalities: only cold misses.
    EXPECT_GT(contextual.report().accuracyPct(), 95.0);
}
