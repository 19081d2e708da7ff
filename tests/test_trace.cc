/**
 * @file
 * Trace record/replay tests: record conversion fidelity, file
 * round-tripping, header validation, and the key methodology
 * property — a replayed trace drives the §3 profilers and predictors
 * to bit-identical results versus live simulation.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "profile/region_profiler.hh"
#include "trace/replay.hh"
#include "profile/window_profiler.hh"
#include "predict/region_predictor.hh"
#include "sim/simulator.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

using namespace arl;

namespace
{

/** Temp file path helper (removed by the fixture). */
class TraceFile : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path = ::testing::TempDir() + "arl_trace_test_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name() +
               ".trace";
    }

    void TearDown() override { std::remove(path.c_str()); }

    std::string path;
};

std::string
fileBytes(const std::string &p)
{
    std::ifstream in(p, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

/** recordTrace() that must succeed; @return instructions recorded. */
InstCount
recordFile(std::shared_ptr<const vm::Program> prog, const std::string &p,
           InstCount max_insts,
           std::uint32_t block_records = trace::DefaultBlockRecords)
{
    InstCount n = 0;
    std::uint64_t bytes = 0;
    EXPECT_TRUE(trace::recordTrace(std::move(prog), p, max_insts,
                                   block_records, n, bytes))
        << p;
    return n;
}

/** TraceReader::open() that must succeed. */
void
openReader(trace::TraceReader &reader, const std::string &p)
{
    std::string err;
    EXPECT_TRUE(reader.open(p, err)) << p << ": " << err;
}

/** Drain @p a and @p b in lockstep: every step and count must agree. */
void
expectSameSteps(sim::StepSource &a, sim::StepSource &b)
{
    sim::StepInfo x, y;
    for (;;) {
        ASSERT_EQ(a.delivered(), b.delivered());
        ASSERT_EQ(a.exhausted(), b.exhausted()) << a.delivered();
        const bool more = a.next(x);
        ASSERT_EQ(more, b.next(y)) << a.delivered();
        if (!more)
            return;
        ASSERT_EQ(x.pc, y.pc);
        ASSERT_EQ(x.seq, y.seq);
        ASSERT_TRUE(x.inst == y.inst) << x.seq;
        ASSERT_EQ(x.isMem, y.isMem);
        ASSERT_EQ(x.isLoad, y.isLoad);
        ASSERT_EQ(x.effAddr, y.effAddr);
        ASSERT_EQ(x.memSize, y.memSize);
        ASSERT_EQ(x.region, y.region);
        ASSERT_EQ(x.isBranch, y.isBranch);
        ASSERT_EQ(x.branchTaken, y.branchTaken);
        ASSERT_EQ(x.isCall, y.isCall);
        ASSERT_EQ(x.isReturn, y.isReturn);
        ASSERT_EQ(x.nextPc, y.nextPc);
        ASSERT_EQ(x.gbh, y.gbh);
        ASSERT_EQ(x.cid, y.cid);
        ASSERT_EQ(x.dest, y.dest);
        ASSERT_EQ(x.result, y.result);
        ASSERT_EQ(x.storeValue, y.storeValue);
    }
}

} // namespace

TEST(TraceRecordConversion, RoundTripsAllFields)
{
    sim::StepInfo step;
    step.pc = 0x00400123 & ~3u;
    step.inst.op = isa::Opcode::Sw;
    step.inst.rd = 7;
    step.inst.rs = isa::reg::Sp;
    step.inst.imm = 16;
    step.isMem = true;
    step.isLoad = false;
    step.effAddr = 0x7fffa000;
    step.memSize = 4;
    step.region = vm::Region::Stack;
    step.gbh = 0xabcd;
    step.cid = 0x00400200;
    step.storeValue = 0xdeadbeef;
    step.dest = isa::NoReg;

    trace::TraceRecord record = trace::toRecord(step);
    sim::StepInfo back = trace::fromRecord(record, 42);
    EXPECT_EQ(back.pc, step.pc);
    EXPECT_EQ(back.seq, 42u);
    EXPECT_EQ(back.inst, step.inst);
    EXPECT_TRUE(back.isMem);
    EXPECT_FALSE(back.isLoad);
    EXPECT_EQ(back.effAddr, step.effAddr);
    EXPECT_EQ(back.memSize, step.memSize);
    EXPECT_EQ(back.region, step.region);
    EXPECT_EQ(back.gbh, step.gbh);
    EXPECT_EQ(back.cid, step.cid);
    EXPECT_EQ(back.storeValue, step.storeValue);
    EXPECT_EQ(back.dest, isa::NoReg);
}

TEST_F(TraceFile, ReplayDrivesProfilersIdentically)
{
    auto prog = workloads::buildWorkload("li_like", 1);
    ASSERT_EQ(recordFile(prog, path, 300000), 300000u);

    // Live pass.
    profile::RegionProfiler live_profiler;
    profile::WindowProfiler live_window(32);
    predict::RegionPredictorConfig config;
    config.arpt.entries = 32 * 1024;
    config.arpt.context.kind = predict::ContextKind::Hybrid;
    predict::RegionPredictor live_predictor(config);
    {
        sim::Simulator simulator(prog);
        simulator.run(300000, [&](const sim::StepInfo &step) {
            live_profiler.observe(step);
            live_window.observe(step);
            live_predictor.observe(step);
        });
    }

    // Replay pass.
    profile::RegionProfiler replay_profiler;
    profile::WindowProfiler replay_window(32);
    predict::RegionPredictor replay_predictor(config);
    {
        trace::TraceReader reader;
        openReader(reader, path);
        sim::StepInfo step;
        while (reader.next(step)) {
            replay_profiler.observe(step);
            replay_window.observe(step);
            replay_predictor.observe(step);
        }
        EXPECT_EQ(reader.error(), "");
    }

    auto live_profile = live_profiler.profile();
    auto replay_profile = replay_profiler.profile();
    EXPECT_EQ(live_profile.staticCounts, replay_profile.staticCounts);
    EXPECT_EQ(live_profile.dynamicCounts, replay_profile.dynamicCounts);
    EXPECT_EQ(live_profile.regionRefs, replay_profile.regionRefs);
    EXPECT_DOUBLE_EQ(live_window.stats_summary().mean[2],
                     replay_window.stats_summary().mean[2]);
    EXPECT_EQ(live_predictor.report().correct,
              replay_predictor.report().correct);
    EXPECT_EQ(live_predictor.report().arptOccupancy,
              replay_predictor.report().arptOccupancy);
}

TEST(TrySaveTrace, UnwritablePathFailsWithoutAborting)
{
    auto prog = workloads::buildWorkload("li_like", 1);
    auto trace = trace::recordToMemory(prog, 1000);
    auto encoded = trace::recordEncoded(prog, 1000);
    // A path whose directory does not exist: open fails, the run
    // continues, and nothing is left behind.
    const std::string bad =
        ::testing::TempDir() + "arl_no_such_dir/trace.tmp";
    std::uint64_t bytes = 123;
    EXPECT_FALSE(trace::trySaveTrace(bad, *trace, bytes));
    EXPECT_FALSE(trace::trySaveEncoded(bad, *encoded, bytes));
    InstCount recorded = 0;
    EXPECT_FALSE(trace::recordTrace(prog, bad, 1000,
                                    trace::DefaultBlockRecords, recorded,
                                    bytes));
    std::ifstream probe(bad, std::ios::binary);
    EXPECT_FALSE(probe.good());
}

TEST_F(TraceFile, RejectsGarbageFiles)
{
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is not a trace file at all, not even close....";
    }
    trace::TraceReader reader;
    std::string err;
    EXPECT_FALSE(reader.open(path, err));
    EXPECT_NE(err, "");
    EXPECT_FALSE(reader.open(path + ".missing", err));
    EXPECT_EQ(err, "cannot open file");
}

// ---------------------------------------------------------------------
// Format v2: delta+varint blocks with a seekable index.
// ---------------------------------------------------------------------

TEST_F(TraceFile, V2StreamsIdenticallyToLiveSimulation)
{
    auto prog = workloads::buildWorkload("go_like", 1);
    // Small blocks so the 50k records span many block boundaries.
    InstCount recorded = recordFile(prog, path, 50000, 4096);
    EXPECT_EQ(recorded, 50000u);

    trace::TraceReader reader;
    openReader(reader, path);
    EXPECT_EQ(reader.programName(), "go_like");

    sim::Simulator live(prog);
    sim::StepInfo live_step, replay_step;
    InstCount compared = 0;
    while (reader.next(replay_step)) {
        ASSERT_TRUE(live.step(live_step));
        ASSERT_EQ(replay_step.pc, live_step.pc) << compared;
        ASSERT_EQ(replay_step.inst, live_step.inst) << compared;
        ASSERT_EQ(replay_step.effAddr, live_step.effAddr) << compared;
        ASSERT_EQ(replay_step.memSize, live_step.memSize) << compared;
        ASSERT_EQ(replay_step.region, live_step.region) << compared;
        ASSERT_EQ(replay_step.gbh, live_step.gbh) << compared;
        ASSERT_EQ(replay_step.cid, live_step.cid) << compared;
        ASSERT_EQ(replay_step.dest, live_step.dest) << compared;
        ASSERT_EQ(replay_step.result, live_step.result) << compared;
        ASSERT_EQ(replay_step.storeValue, live_step.storeValue)
            << compared;
        ++compared;
    }
    EXPECT_EQ(compared, recorded);
    EXPECT_EQ(reader.error(), "");
}

TEST_F(TraceFile, V2CompressesAtLeastFourTimes)
{
    auto prog = workloads::buildWorkload("li_like", 1);
    ASSERT_EQ(recordFile(prog, path, 200000), 200000u);
    const std::uint64_t raw_bytes = 200000u * sizeof(trace::TraceRecord);
    const std::uint64_t v2_bytes = fileBytes(path).size();
    EXPECT_GE(raw_bytes, 4 * v2_bytes)
        << "v2 compression regressed: " << raw_bytes
        << " B of 32-byte records vs " << v2_bytes << " B";
}

TEST_F(TraceFile, V2SeekEquivalentToSequentialSkip)
{
    auto prog = workloads::buildWorkload("compress_like", 1);
    ASSERT_EQ(recordFile(prog, path, 30000, 2048), 30000u);
    // Block-aligned, unaligned, zero, near-end, and past-end targets.
    for (InstCount n : {0u, 1u, 2048u, 5000u, 12345u, 29999u, 30000u,
                        40000u}) {
        SCOPED_TRACE("seek " + std::to_string(n));
        trace::TraceReader skipper;
        openReader(skipper, path);
        sim::StepInfo want, got;
        InstCount remaining_want = 0;
        for (InstCount i = 0; i < n && skipper.next(want); ++i) {
        }
        while (skipper.next(want))
            ++remaining_want;

        trace::TraceReader seeker;
        openReader(seeker, path);
        seeker.seek(n);
        InstCount remaining_got = 0;
        bool first = true;
        while (seeker.next(got)) {
            if (first) {
                // First delivered record matches the skip path's.
                trace::TraceReader ref;
                openReader(ref, path);
                sim::StepInfo ref_step;
                for (InstCount i = 0; i <= n; ++i)
                    ASSERT_TRUE(ref.next(ref_step));
                EXPECT_EQ(got.pc, ref_step.pc);
                EXPECT_EQ(got.effAddr, ref_step.effAddr);
                EXPECT_EQ(got.result, ref_step.result);
                first = false;
            }
            ++remaining_got;
        }
        EXPECT_EQ(remaining_got, remaining_want);
    }
}

TEST_F(TraceFile, V2DeterministicFiles)
{
    auto prog = workloads::buildWorkload("compress_like", 1);
    std::string path2 = path + ".second";
    InstCount n1 = 0, n2 = 0;
    std::uint64_t bytes1 = 0, bytes2 = 0;
    ASSERT_TRUE(trace::recordTrace(prog, path, 20000,
                                   trace::DefaultBlockRecords, n1, bytes1));
    ASSERT_TRUE(trace::recordTrace(prog, path2, 20000,
                                   trace::DefaultBlockRecords, n2, bytes2));
    EXPECT_EQ(n1, 20000u);
    EXPECT_EQ(n2, n1);
    const std::string content_a = fileBytes(path);
    EXPECT_EQ(content_a, fileBytes(path2));
    EXPECT_EQ(bytes1, content_a.size());
    EXPECT_EQ(bytes2, bytes1);
    std::remove(path2.c_str());
}

TEST_F(TraceFile, V2EmptyTraceYieldsNoSteps)
{
    trace::InMemoryTrace empty;
    empty.program = "empty";
    empty.complete = true;
    trace::saveTrace(path, empty);
    trace::TraceReader reader;
    openReader(reader, path);
    EXPECT_EQ(reader.programName(), "empty");
    sim::StepInfo step;
    EXPECT_FALSE(reader.next(step));
    reader.seek(0);
    EXPECT_FALSE(reader.next(step));
    EXPECT_EQ(reader.error(), "");
    EXPECT_EQ(fileBytes(path).substr(4, 4), std::string("\2\0\0\0", 4))
        << "the header must stamp version 2";
}

TEST_F(TraceFile, V2CheckpointsSurviveSaveAndLoad)
{
    auto prog = workloads::buildWorkload("li_like", 1);
    auto recorded = trace::recordToMemory(prog, 10000, 1024);
    ASSERT_EQ(recorded->size(), 10000u);
    ASSERT_EQ(recorded->checkpointEvery, 1024u);
    ASSERT_FALSE(recorded->checkpoints.empty());
    // Checkpoints land exactly on the cadence.
    for (const auto &cp : recorded->checkpoints)
        EXPECT_EQ(cp.index % 1024, 0u);

    const std::uint64_t bytes = trace::saveTrace(path, *recorded);
    trace::TraceLoadStats stats;
    auto loaded = trace::loadTrace(path, &stats);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(stats.fileBytes, bytes);
    ASSERT_EQ(loaded->size(), recorded->size());
    ASSERT_EQ(loaded->checkpoints.size(),
              recorded->checkpoints.size());
    for (std::size_t i = 0; i < recorded->checkpoints.size(); ++i) {
        const auto &want = recorded->checkpoints[i];
        const auto &got = loaded->checkpoints[i];
        EXPECT_EQ(got.index, want.index);
        EXPECT_EQ(got.pc, want.pc);
        EXPECT_EQ(got.gpr, want.gpr);
        EXPECT_EQ(got.fpr, want.fpr);
        EXPECT_EQ(got.memDigest, want.memDigest);
    }
    for (std::size_t i = 0; i < recorded->size(); ++i) {
        EXPECT_EQ(0, std::memcmp(&recorded->records[i],
                                 &loaded->records[i],
                                 sizeof(trace::TraceRecord)))
            << "record " << i;
    }
}

TEST_F(TraceFile, EncodedImageSavesTheBytesSaveTraceWrites)
{
    // One stream, four writers, one file: recordTrace() straight from
    // the simulator, saveTrace() and trySaveTrace() of the decoded
    // recording, and trySaveEncoded() of the encoded one.  150001
    // records: every block size leaves a short final block.
    constexpr InstCount kRecords = 150001;
    auto prog = workloads::buildWorkload("li_like", 1);
    const std::string other = path + ".other";
    for (InstCount block : {InstCount{64}, InstCount{1024},
                            InstCount{65536}}) {
        SCOPED_TRACE("block records " + std::to_string(block));
        auto decoded = trace::recordToMemory(prog, kRecords, block);
        auto encoded = trace::recordEncoded(prog, kRecords, block);
        ASSERT_EQ(encoded->size(), kRecords);
        ASSERT_EQ(encoded->image.blocks.size(),
                  (kRecords + block - 1) / block);
        const std::uint64_t saved = trace::saveTrace(path, *decoded);
        const std::string want = fileBytes(path);
        EXPECT_EQ(saved, want.size());

        std::uint64_t bytes = 0;
        InstCount recorded = 0;
        ASSERT_TRUE(trace::recordTrace(prog, other, kRecords,
                                       static_cast<std::uint32_t>(block),
                                       recorded, bytes));
        EXPECT_EQ(recorded, kRecords);
        EXPECT_EQ(bytes, want.size());
        EXPECT_TRUE(fileBytes(other) == want)
            << "recordTrace and saveTrace wrote different bytes";
        ASSERT_TRUE(trace::trySaveTrace(other, *decoded, bytes));
        EXPECT_EQ(bytes, want.size());
        EXPECT_TRUE(fileBytes(other) == want)
            << "trySaveTrace and saveTrace wrote different bytes";
        ASSERT_TRUE(trace::trySaveEncoded(other, *encoded, bytes));
        EXPECT_EQ(bytes, want.size());
        EXPECT_TRUE(fileBytes(other) == want)
            << "encoded image and saveTrace wrote different bytes";

        // Each loader accepts the other's file.
        auto loaded = trace::loadTrace(other);
        ASSERT_NE(loaded, nullptr);
        ASSERT_EQ(loaded->size(), kRecords);
        EXPECT_EQ(0, std::memcmp(loaded->records.data(),
                                 decoded->records.data(),
                                 kRecords * sizeof(trace::TraceRecord)));
        EXPECT_TRUE(loaded->decoded == decoded->decoded);
        EXPECT_EQ(loaded->checkpoints.size(),
                  decoded->checkpoints.size());
        auto reloaded = trace::loadEncoded(path);
        ASSERT_NE(reloaded, nullptr);
        EXPECT_EQ(reloaded->program, "li_like");
        ASSERT_TRUE(trace::trySaveEncoded(other, *reloaded, bytes));
        EXPECT_TRUE(fileBytes(other) == want)
            << "a loaded image does not write back the file it read";
    }
    std::remove(other.c_str());
}

TEST_F(TraceFile, EncodedEmptyTraceMatchesSaveTrace)
{
    // The empty stream through every writer but recordTrace(), which
    // cannot record one: a program executes at least its exit.
    trace::InMemoryTrace empty;
    empty.program = "empty";
    empty.complete = true;
    const std::uint64_t saved = trace::saveTrace(path, empty);
    const std::string want = fileBytes(path);
    EXPECT_EQ(saved, want.size());

    trace::v2::Writer writer(trace::DefaultBlockRecords);
    writer.finish(true);
    trace::EncodedTrace encoded;
    encoded.program = "empty";
    encoded.image = writer.takeImage();
    const std::string other = path + ".other";
    std::uint64_t bytes = 0;
    ASSERT_TRUE(trace::trySaveTrace(other, empty, bytes));
    EXPECT_EQ(bytes, want.size());
    EXPECT_EQ(fileBytes(other), want);
    ASSERT_TRUE(trace::trySaveEncoded(other, encoded, bytes));
    EXPECT_EQ(bytes, want.size());
    EXPECT_EQ(fileBytes(other), want);
    std::remove(other.c_str());

    auto loaded = trace::loadEncoded(path);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->size(), 0u);
    EXPECT_TRUE(loaded->image.complete);
    trace::BlockReplaySource source(loaded);
    sim::StepInfo step;
    EXPECT_TRUE(source.exhausted());
    EXPECT_FALSE(source.next(step));
    EXPECT_TRUE(source.seekTo(3));
    EXPECT_EQ(source.delivered(), 0u);
}

TEST(BlockReplay, MatchesReplaySourceAndSeeksLikeSkipping)
{
    constexpr InstCount kBlock = 1024;
    constexpr InstCount kRecords = 10 * kBlock + 37;
    auto prog = workloads::buildWorkload("li_like", 1);
    auto decoded = trace::recordToMemory(prog, kRecords, kBlock);
    auto encoded = trace::recordEncoded(prog, kRecords, kBlock);
    {
        trace::ReplaySource want(decoded);
        trace::BlockReplaySource got(encoded);
        expectSameSteps(want, got);
    }

    // seekTo(n) == skipping n records: at the start, at every block
    // boundary and one record either side, and at and past the end.
    std::vector<InstCount> targets = {0, 1, kRecords - 1, kRecords,
                                      kRecords + 5};
    for (InstCount b = 1; b <= kRecords / kBlock; ++b)
        for (InstCount n : {b * kBlock - 1, b * kBlock, b * kBlock + 1})
            targets.push_back(n);
    for (InstCount n : targets) {
        SCOPED_TRACE("seek " + std::to_string(n));
        trace::ReplaySource skipper(decoded);
        sim::StepInfo step;
        for (InstCount i = 0; i < n && skipper.next(step); ++i) {
        }
        trace::BlockReplaySource seeker(encoded);
        EXPECT_TRUE(seeker.seekTo(n));
        expectSameSteps(skipper, seeker);
    }
}
