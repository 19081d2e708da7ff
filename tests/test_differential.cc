/**
 * @file
 * Differential tests locking down the sweep engine's determinism
 * claims (src/sweep/sweep.hh):
 *
 *  1. a recorded trace replayed through trace::ReplaySource is a
 *     field-for-field substitute for the live functional stream;
 *  2. OoO timing from a replayed trace is bit-identical to timing
 *     from a live embedded functional simulator (every OooStats
 *     counter, not just cycles);
 *  3. functional simulation reaches the same architectural state
 *     whether or not a recording hook observes it;
 *  4. runSweep with jobs=1 and jobs=8 produces byte-identical
 *     stats-JSON reports;
 *  5. the trace cache is invisible to results: no-cache and cached
 *     sweeps (both cold and warm) serialize byte-identically, with
 *     v2 entries at least 4x smaller than the same records as raw
 *     32-byte TraceRecords;
 *  6. a region-only sweep, which streams each region pass from a
 *     live simulator, matches the replayed region rows of a mixed
 *     timing+region sweep and a direct live runRegionPass, and never
 *     touches the trace cache;
 *  7. how a row's configs are grouped to run in lock-step over one
 *     shared stream never changes a point — one group per row or one
 *     per config, exact, with a bounded warmup window, sampled, and
 *     sampled with verify, live or recorded, whichever grouping wrote
 *     the cache entry it reads.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "assembler/assembler.hh"
#include "core/experiment.hh"
#include "obs/report.hh"
#include "ooo/config.hh"
#include "ooo/core.hh"
#include "sim/simulator.hh"
#include "trace/replay.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

using namespace arl;

namespace
{

/** Three workloads spanning int/FP and heap/stack behaviours. */
const char *kWorkloads[] = {"compress_like", "li_like", "tomcatv_like"};

constexpr InstCount kStreamInsts = 100000;
constexpr InstCount kTimedInsts = 30000;

void
expectStepsEqual(const sim::StepInfo &live, const sim::StepInfo &replayed,
                 InstCount index)
{
    ASSERT_EQ(live.pc, replayed.pc) << "at instruction " << index;
    ASSERT_EQ(live.seq, replayed.seq) << "at instruction " << index;
    ASSERT_EQ(live.isMem, replayed.isMem) << "at instruction " << index;
    ASSERT_EQ(live.isLoad, replayed.isLoad) << "at instruction " << index;
    ASSERT_EQ(live.effAddr, replayed.effAddr)
        << "at instruction " << index;
    ASSERT_EQ(live.memSize, replayed.memSize)
        << "at instruction " << index;
    ASSERT_EQ(live.region, replayed.region) << "at instruction " << index;
    ASSERT_EQ(live.isBranch, replayed.isBranch)
        << "at instruction " << index;
    ASSERT_EQ(live.branchTaken, replayed.branchTaken)
        << "at instruction " << index;
    ASSERT_EQ(live.isCall, replayed.isCall) << "at instruction " << index;
    ASSERT_EQ(live.isReturn, replayed.isReturn)
        << "at instruction " << index;
    ASSERT_EQ(live.gbh, replayed.gbh) << "at instruction " << index;
    ASSERT_EQ(live.cid, replayed.cid) << "at instruction " << index;
    ASSERT_EQ(live.dest, replayed.dest) << "at instruction " << index;
    ASSERT_EQ(live.result, replayed.result) << "at instruction " << index;
    ASSERT_EQ(live.storeValue, replayed.storeValue)
        << "at instruction " << index;
}

void
expectStatsEqual(const ooo::OooStats &live, const ooo::OooStats &replay)
{
    EXPECT_EQ(live.cycles, replay.cycles);
    EXPECT_EQ(live.instructions, replay.instructions);
    EXPECT_EQ(live.loads, replay.loads);
    EXPECT_EQ(live.stores, replay.stores);
    for (unsigned r = 0; r < vm::NumDataRegions; ++r)
        EXPECT_EQ(live.regionRefs[r], replay.regionRefs[r]);
    EXPECT_EQ(live.lvaqSteered, replay.lvaqSteered);
    EXPECT_EQ(live.regionMispredictions, replay.regionMispredictions);
    EXPECT_EQ(live.forwardedLoads, replay.forwardedLoads);
    EXPECT_EQ(live.fastForwardedLoads, replay.fastForwardedLoads);
    EXPECT_EQ(live.vpOffered, replay.vpOffered);
    EXPECT_EQ(live.vpWrong, replay.vpWrong);
    EXPECT_EQ(live.vpSquashes, replay.vpSquashes);
    EXPECT_EQ(live.branches, replay.branches);
    EXPECT_EQ(live.branchMispredicts, replay.branchMispredicts);
    EXPECT_EQ(live.l1Hits, replay.l1Hits);
    EXPECT_EQ(live.l1Misses, replay.l1Misses);
    EXPECT_EQ(live.lvcHits, replay.lvcHits);
    EXPECT_EQ(live.lvcMisses, replay.lvcMisses);
    EXPECT_EQ(live.l2Hits, replay.l2Hits);
    EXPECT_EQ(live.l2Misses, replay.l2Misses);
    EXPECT_EQ(live.tlbMisses, replay.tlbMisses);
    EXPECT_EQ(live.robFullStalls, replay.robFullStalls);
    EXPECT_EQ(live.queueFullStalls, replay.queueFullStalls);
}

std::string
reportJson(const sweep::SweepResult &result)
{
    std::ostringstream os;
    result.toReport().writeJson(os);
    return os.str();
}

} // namespace

TEST(Differential, ReplayStreamMatchesLiveSimulation)
{
    for (const char *name : kWorkloads) {
        SCOPED_TRACE(name);
        auto program = workloads::buildWorkload(name, 1);
        auto trace = trace::recordToMemory(program, kStreamInsts);
        ASSERT_GT(trace->size(), 0u);

        sim::Simulator live(program);
        trace::ReplaySource replay(trace);
        sim::StepInfo live_step, replayed_step;
        InstCount compared = 0;
        while (replay.next(replayed_step)) {
            ASSERT_TRUE(live.step(live_step));
            expectStepsEqual(live_step, replayed_step, compared);
            ++compared;
        }
        EXPECT_EQ(compared, trace->size());
        EXPECT_TRUE(replay.exhausted());
    }
}

TEST(Differential, OooTimingIdenticalLiveVsReplay)
{
    std::vector<ooo::MachineConfig> configs = {
        ooo::MachineConfig::nPlusM(2, 0), ooo::MachineConfig::nPlusM(3, 3)};
    for (const char *name : kWorkloads) {
        const auto &info = workloads::workloadByName(name);
        auto program = workloads::buildWorkload(name, 1);
        auto trace = trace::recordToMemory(
            program, info.warmupInsts + kTimedInsts);
        for (const auto &config : configs) {
            SCOPED_TRACE(std::string(name) + " " + config.name);

            ooo::OooCore live_core(config, program);
            if (info.warmupInsts)
                live_core.warmup(info.warmupInsts);
            ooo::OooStats live_stats = live_core.run(kTimedInsts);

            ooo::OooCore replay_core(
                config, program,
                std::make_shared<trace::ReplaySource>(trace));
            if (info.warmupInsts)
                replay_core.warmup(info.warmupInsts);
            ooo::OooStats replay_stats = replay_core.run(kTimedInsts);

            expectStatsEqual(live_stats, replay_stats);
        }
    }
}

TEST(Differential, RecordingDoesNotPerturbArchitecturalState)
{
    for (const char *name : kWorkloads) {
        SCOPED_TRACE(name);
        auto program = workloads::buildWorkload(name, 1);

        sim::Simulator plain(program);
        plain.run(kStreamInsts);

        // Same budget, but every step observed by a recording hook.
        sim::Simulator recorded(program);
        auto trace = std::make_shared<trace::InMemoryTrace>();
        recorded.run(kStreamInsts, [&](const sim::StepInfo &step) {
            trace->records.push_back(trace::toRecord(step));
        });

        EXPECT_EQ(plain.instCount(), recorded.instCount());
        EXPECT_EQ(plain.process().pc, recorded.process().pc);
        EXPECT_EQ(plain.process().gpr, recorded.process().gpr);
        EXPECT_EQ(plain.process().fpr, recorded.process().fpr);
        EXPECT_EQ(plain.process().halted, recorded.process().halted);
        EXPECT_EQ(plain.process().exitCode,
                  recorded.process().exitCode);
        EXPECT_EQ(plain.process().output, recorded.process().output);
        EXPECT_EQ(plain.process().heap.bytesInUse(),
                  recorded.process().heap.bytesInUse());
    }
}

TEST(Differential, SweepReportByteIdenticalAcrossJobs)
{
    sweep::SweepSpec spec;
    for (const char *name : kWorkloads) {
        const auto &info = workloads::workloadByName(name);
        sweep::WorkloadSpec w;
        w.name = info.name;
        w.warmup = info.warmupInsts;
        w.timed = kTimedInsts;
        w.studyInsts = kStreamInsts;
        spec.workloads.push_back(std::move(w));
    }
    spec.configs = {ooo::MachineConfig::nPlusM(2, 0),
                    ooo::MachineConfig::nPlusM(3, 3)};
    spec.schemes = core::toSweepSchemes(core::figure4Schemes());

    spec.jobs = 1;
    std::string serial = reportJson(sweep::runSweep(spec));
    // More workers than grid rows, so several land on shared traces
    // concurrently no matter how the pool schedules them.
    spec.jobs = 8;
    std::string parallel = reportJson(sweep::runSweep(spec));

    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

namespace
{

/** The fig8 small grid the golden test also pins. */
sweep::SweepSpec
fig8SmallSpec()
{
    sweep::SweepSpec spec;
    for (const char *name : {"go_like", "li_like"}) {
        const auto &info = workloads::workloadByName(name);
        sweep::WorkloadSpec w;
        w.name = info.name;
        w.warmup = info.warmupInsts;
        w.timed = 20000;
        spec.workloads.push_back(std::move(w));
    }
    spec.configs = {ooo::MachineConfig::nPlusM(2, 0),
                    ooo::MachineConfig::nPlusM(3, 3),
                    ooo::MachineConfig::nPlusM(16, 0)};
    spec.jobs = 2;
    return spec;
}

/** Scoped temp directory for cache-backed sweeps. */
class TempCacheDir
{
  public:
    explicit TempCacheDir(const std::string &tag)
        : dir(::testing::TempDir() + "arl_diff_" + tag)
    {
        std::filesystem::remove_all(dir);
    }
    ~TempCacheDir() { std::filesystem::remove_all(dir); }

    const std::string dir;
};

std::uint64_t
directoryBytes(const std::string &dir)
{
    std::uint64_t total = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        total += std::filesystem::file_size(entry.path());
    return total;
}

} // namespace

TEST(Differential, SweepReportIdenticalAcrossCacheFormats)
{
    // Reference: no cache at all.
    sweep::SweepSpec spec = fig8SmallSpec();
    std::string baseline = reportJson(sweep::runSweep(spec));
    ASSERT_FALSE(baseline.empty());

    TempCacheDir cache("cache_v2");
    sweep::SweepSpec cached = fig8SmallSpec();
    cached.traceCacheDir = cache.dir;

    // Cold pass records the cache entries; warm pass replays from
    // them.  Both must match the cache-less report.
    sweep::SweepResult cold = sweep::runSweep(cached);
    EXPECT_EQ(cold.traceCacheMisses, 2u);
    EXPECT_EQ(reportJson(cold), baseline);
    sweep::SweepResult warm = sweep::runSweep(cached);
    EXPECT_EQ(warm.traceCacheHits, 2u);
    EXPECT_EQ(reportJson(warm), baseline);

    // The headline claim: the cache is at least 4x smaller than the
    // same records as raw 32-byte TraceRecords on the fig8 small grid.
    const std::uint64_t v2_bytes = directoryBytes(cache.dir);
    ASSERT_GT(v2_bytes, 0u);
    EXPECT_EQ(cold.traceDiskBytes, v2_bytes);
    const std::uint64_t raw_bytes =
        sizeof(trace::TraceRecord) * cold.traceInstructions;
    EXPECT_GE(raw_bytes, 4 * v2_bytes)
        << "v2 compression regressed: " << raw_bytes
        << " B of 32-byte records vs " << v2_bytes << " B";
    EXPECT_DOUBLE_EQ(cold.compressionRatio(),
                     static_cast<double>(raw_bytes) / v2_bytes);
}

namespace
{

void
expectRegionEqual(const sweep::RegionPoint &a, const sweep::RegionPoint &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.profile.staticCounts, b.profile.staticCounts);
    EXPECT_EQ(a.profile.dynamicCounts, b.profile.dynamicCounts);
    EXPECT_EQ(a.profile.regionRefs, b.profile.regionRefs);
    EXPECT_EQ(a.profile.totalInstructions, b.profile.totalInstructions);
    EXPECT_EQ(a.profile.dynamicLoads, b.profile.dynamicLoads);
    EXPECT_EQ(a.profile.dynamicStores, b.profile.dynamicStores);
    EXPECT_EQ(a.window32.mean, b.window32.mean);
    EXPECT_EQ(a.window32.stddev, b.window32.stddev);
    EXPECT_EQ(a.window32.samples, b.window32.samples);
    EXPECT_EQ(a.window64.mean, b.window64.mean);
    EXPECT_EQ(a.window64.stddev, b.window64.stddev);
    EXPECT_EQ(a.window64.samples, b.window64.samples);
    ASSERT_EQ(a.schemes.size(), b.schemes.size());
    for (std::size_t i = 0; i < a.schemes.size(); ++i) {
        SCOPED_TRACE(a.schemes[i].first);
        const predict::PredictorReport &x = a.schemes[i].second;
        const predict::PredictorReport &y = b.schemes[i].second;
        EXPECT_EQ(a.schemes[i].first, b.schemes[i].first);
        EXPECT_EQ(x.total, y.total);
        EXPECT_EQ(x.correct, y.correct);
        EXPECT_EQ(x.totalBySource, y.totalBySource);
        EXPECT_EQ(x.correctBySource, y.correctBySource);
        EXPECT_EQ(x.arptOccupancy, y.arptOccupancy);
    }
    EXPECT_EQ(a.snapshot, b.snapshot);
}

/**
 * Region rows with caps below (compress_like, li_like) and above
 * (rec_fib) their program's length, plus one uncapped corpus row.
 */
std::vector<sweep::WorkloadSpec>
regionRows()
{
    std::vector<sweep::WorkloadSpec> rows;
    for (const auto &[name, cap] :
         {std::pair<const char *, InstCount>{"compress_like", 60000},
          {"li_like", 90000},
          // Stops before some instructions reach a second region, so
          // hints trained past the cap would classify them.
          {"perl_like", 2000}}) {
        sweep::WorkloadSpec w;
        w.name = name;
        w.studyInsts = cap;
        rows.push_back(std::move(w));
    }
    for (const auto &[name, cap] :
         {std::pair<const char *, InstCount>{"rec_fib", 1'000'000},
          {"ptr_list_sum", 0}}) {
        sweep::WorkloadSpec w;
        w.name = name;
        w.sourcePath = std::string(ARL_CORPUS_DIR) + "/" + name + ".s";
        w.studyInsts = cap;
        rows.push_back(std::move(w));
    }
    // A timed window no longer than any row, so the mixed sweep's
    // trace holds exactly what the region pass studies.
    for (sweep::WorkloadSpec &w : rows)
        w.timed = 2000;
    return rows;
}

std::shared_ptr<const vm::Program>
programOf(const sweep::WorkloadSpec &w)
{
    if (w.sourcePath.empty())
        return workloads::buildWorkload(w.name, w.scale);
    std::ifstream file(w.sourcePath, std::ios::binary);
    std::ostringstream text;
    text << file.rdbuf();
    assembler::AsmResult result = assembler::assemble(text.str(), w.name);
    EXPECT_TRUE(result.ok()) << w.sourcePath;
    return result.program;
}

} // namespace

TEST(Differential, StreamedRegionEqualsReplayedRegion)
{
    // Plain and hinted scheme sets: a hinted row first trains profile
    // hints over its study window (predict::profileHints), whether
    // its pass then streams from a live simulator or a recording.
    for (bool hinted : {false, true}) {
        SCOPED_TRACE(hinted ? "hinted" : "plain");
        sweep::SweepSpec streamed;
        streamed.workloads = regionRows();
        streamed.schemes = core::toSweepSchemes(core::figure4Schemes());
        for (sweep::SchemeSpec &scheme : streamed.schemes)
            scheme.config.useCompilerHints = hinted;
        streamed.jobs = 4;
        TempCacheDir cache("region_stream");
        streamed.traceCacheDir = cache.dir;

        sweep::SweepSpec mixed = streamed;
        mixed.traceCacheDir.clear();
        mixed.configs = {ooo::MachineConfig::nPlusM(2, 0)};

        sweep::SweepResult live = sweep::runSweep(streamed);
        sweep::SweepResult replayed = sweep::runSweep(mixed);
        ASSERT_EQ(live.region.size(), streamed.workloads.size());
        ASSERT_EQ(replayed.region.size(), streamed.workloads.size());
        EXPECT_TRUE(live.timing.empty());

        for (std::size_t wi = 0; wi < streamed.workloads.size(); ++wi) {
            const sweep::WorkloadSpec &w = streamed.workloads[wi];
            SCOPED_TRACE(w.name);
            expectRegionEqual(live.region[wi], replayed.region[wi]);
            if (w.studyInsts) {
                EXPECT_LE(live.region[wi].instructions, w.studyInsts);
            }
            // Hints resolve references only when the schemes ask.
            EXPECT_EQ(live.region[wi].schemes.back().second
                              .hintResolvedPct() > 0.0,
                      hinted);

            // A direct live pass, with hints trained the same way.
            std::shared_ptr<const vm::Program> program = programOf(w);
            predict::CompilerHints hints;
            if (hinted)
                hints = predict::profileHints(program, w.studyInsts);
            sim::Simulator simulator(program);
            sim::SimulatorSource source(simulator);
            sweep::RegionPoint study = sweep::runRegionPass(
                program->name, source, streamed.schemes, w.studyInsts,
                hinted ? &hints : nullptr);
            expectRegionEqual(study, live.region[wi]);
        }
        // The rec_fib cap lies above its length: the pass ran to the
        // end.
        EXPECT_LT(live.region[3].instructions,
                  streamed.workloads[3].studyInsts);

        // Studied instructions stand in for the trace a streamed row
        // never recorded.
        EXPECT_EQ(live.traceInstructions, replayed.traceInstructions);

        // A region-only sweep neither reads nor writes the trace cache.
        EXPECT_EQ(live.traceCacheHits, 0u);
        EXPECT_EQ(live.traceCacheMisses, 0u);
        EXPECT_EQ(live.traceDiskBytes, 0u);
        if (std::filesystem::exists(cache.dir)) {
            for (const auto &entry :
                 std::filesystem::directory_iterator(cache.dir)) {
                EXPECT_NE(entry.path().extension(), ".arlt")
                    << entry.path();
            }
        }
    }
}

namespace
{

/**
 * The (wi, ci) point of @p result as a one-run report; with
 * @p drop_verify, without what only a verify run adds.
 */
std::string
pointJson(const sweep::SweepResult &result, std::size_t wi,
          std::size_t ci, bool drop_verify)
{
    const sweep::TimingPoint &point = result.at(wi, ci);
    obs::RunRecord record;
    record.workload = point.workload;
    record.config = point.config;
    record.sampling = point.sampling;
    for (const auto &[name, value] : point.snapshot)
        if (!drop_verify || (name != "sampling.full_cycles" &&
                             name != "sampling.full_cpi" &&
                             name != "sampling.measured_error_pct"))
            record.stats.emplace_back(name, value);
    if (drop_verify)
        record.sampling.measuredErrorPct = -1.0;
    obs::Report report;
    report.runs.push_back(std::move(record));
    std::ostringstream os;
    report.writeJson(os);
    return os.str();
}

} // namespace

TEST(Differential, GroupedRowsMatchAcrossGroupings)
{
    // A sweep runs each row's configs in lock-step groups over one
    // shared stream: at --jobs 1 the two-config grid runs one group
    // per row, at --jobs 8 one group per config.  Every grouping must
    // give the same points, from cold and warm caches, with either
    // grouping reading entries the other one wrote; so must the
    // one-config grid's (3+3) points and, unsampled, the uncached
    // grids, whose rows are live and record nothing.  The window case
    // warms only from the last 2048 fast-forward records, so its
    // live, cold-cache and warm-cache rows must agree on a bounded
    // warming too.
    struct Case
    {
        const char *name;
        bool window;
        bool sampled;
        bool verify;
    };
    const Case cases[] = {{"exact", false, false, false},
                          {"window", true, false, false},
                          {"sampled", false, true, false},
                          {"sampledverify", false, true, true}};
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        sweep::SweepSpec wide = fig8SmallSpec();
        wide.configs = {ooo::MachineConfig::nPlusM(2, 0),
                        ooo::MachineConfig::nPlusM(3, 3)};
        if (c.window)
            for (auto &w : wide.workloads)
                w.warmupWindow = 2048;
        if (c.sampled) {
            wide.sampling = true;
            wide.samplingVerify = true;
            wide.samplingInterval = 5000;
            wide.samplingClusters = 3;
            for (auto &w : wide.workloads)
                w.timed = 60000;
        }
        sweep::SweepSpec one = wide;
        one.configs = {ooo::MachineConfig::nPlusM(3, 3)};
        one.samplingVerify = c.verify;
        const bool drop_verify = c.sampled && !c.verify;

        TempCacheDir cache(std::string("rows_") + c.name);
        one.traceCacheDir = wide.traceCacheDir = cache.dir;
        // Each run with the grid column of its (3+3) points.
        std::vector<std::pair<sweep::SweepResult, std::size_t>> runs;
        std::vector<std::string> wide_reports;
        for (unsigned cold_jobs : {1u, 8u}) {
            std::filesystem::remove_all(cache.dir);
            wide.jobs = cold_jobs;
            sweep::SweepResult cold = sweep::runSweep(wide);
            EXPECT_EQ(cold.traceCacheMisses, 2u);
            wide.jobs = cold_jobs == 1 ? 8 : 1;
            sweep::SweepResult warm = sweep::runSweep(wide);
            EXPECT_EQ(warm.traceCacheHits, 2u)
                << "a grouping missed the other's cache entry";
            for (sweep::SweepResult *r : {&cold, &warm}) {
                wide_reports.push_back(reportJson(*r));
                runs.emplace_back(std::move(*r), 1);
            }
        }
        sweep::SweepResult single = sweep::runSweep(one);
        EXPECT_EQ(single.traceCacheHits, 2u);
        runs.emplace_back(std::move(single), 0);
        if (!c.sampled) {
            // Uncached, nothing needs a recording: every row is live,
            // each group streams from a functional simulator of its
            // own, and the row counts the instructions it streamed.
            for (sweep::SweepSpec *spec : {&wide, &one}) {
                for (unsigned jobs : {1u, 8u}) {
                    sweep::SweepSpec live = *spec;
                    live.traceCacheDir.clear();
                    live.jobs = jobs;
                    sweep::SweepResult streamed = sweep::runSweep(live);
                    EXPECT_EQ(streamed.traceCacheHits, 0u);
                    EXPECT_EQ(streamed.traceCacheMisses, 0u);
                    EXPECT_EQ(streamed.traceDiskBytes, 0u);
                    if (spec == &wide)
                        wide_reports.push_back(reportJson(streamed));
                    runs.emplace_back(std::move(streamed),
                                      spec == &wide ? 1 : 0);
                }
            }
        }
        for (std::size_t r = 1; r < wide_reports.size(); ++r)
            EXPECT_EQ(wide_reports[r], wide_reports[0])
                << "wide report " << r;
        for (std::size_t r = 1; r < runs.size(); ++r)
            EXPECT_EQ(runs[r].first.traceInstructions,
                      runs[0].first.traceInstructions)
                << "run " << r;
        for (std::size_t wi = 0; wi < wide.workloads.size(); ++wi) {
            const std::string want =
                pointJson(runs[0].first, wi, runs[0].second, drop_verify);
            for (std::size_t r = 1; r < runs.size(); ++r)
                EXPECT_EQ(pointJson(runs[r].first, wi, runs[r].second,
                                    drop_verify),
                          want)
                    << "run " << r << " workload " << wi;
        }
    }
}
