/**
 * @file
 * Telemetry channel, scope, and flight-recorder tests:
 *
 *  - deterministic heartbeat/rate math with an injected clock and RSS
 *    provider (no wall-clock dependence);
 *  - the stats-fence epoch guard (a counter reset re-bases instead of
 *    underflowing the next delta);
 *  - crash durability: a forked child dies from SIGSEGV (and, in a
 *    second test, from an ARL_ASSERT-style abort) mid-stream, and the
 *    parent verifies every completed record survived plus a parseable
 *    black-box postamble that replays the ring in order;
 *  - obs::Hooks' one schedule: the lower of the row and heartbeat
 *    thresholds, and silent phases;
 *  - the IntervalCsv sink (CSV rows as they are taken, O(1) memory);
 *  - a telemetered region-only sweep, whose rows stream from live
 *    simulators: a well-formed stream whose beats carry the access
 *    mix, and an unchanged report.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "obs/flight_recorder.hh"
#include "obs/hooks.hh"
#include "obs/json.hh"
#include "obs/report.hh"
#include "obs/telemetry.hh"
#include "sweep/sweep.hh"

using namespace arl;
using obs::TelemetryChannel;
using obs::TelemetryFrame;
using obs::TelemetryOptions;
using obs::TelemetryScope;

namespace
{

std::string
tmpPath(const char *stem)
{
    return testing::TempDir() + "arl_telemetry_" + stem + "_" +
           std::to_string(::getpid()) + ".jsonl";
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

/** Parse one JSONL line, failing the test with context on error. */
obs::JsonValue
parseLine(const std::string &line)
{
    obs::JsonValue v;
    std::string err;
    EXPECT_TRUE(obs::jsonParse(line, v, &err))
        << "unparseable telemetry line: " << line << " (" << err << ")";
    return v;
}

double
numField(const obs::JsonValue &v, const char *key)
{
    const obs::JsonValue *f = v.find(key);
    EXPECT_NE(f, nullptr) << "missing field " << key;
    EXPECT_TRUE(f && f->isNumber()) << "non-numeric field " << key;
    return f && f->isNumber() ? f->number : 0.0;
}

std::string
strField(const obs::JsonValue &v, const char *key)
{
    const obs::JsonValue *f = v.find(key);
    EXPECT_NE(f, nullptr) << "missing field " << key;
    return f && f->isString() ? f->string : std::string();
}

/** Channel with a scripted clock/RSS so every rate is exact. */
struct FakeClockChannel
{
    std::uint64_t now = 0;
    std::unique_ptr<TelemetryChannel> channel;
    std::string path;

    explicit FakeClockChannel(const char *stem,
                              std::uint64_t intervalInsts = 1000,
                              std::uint64_t intervalWallMs = 0,
                              std::size_t ringSize = 64)
        : path(tmpPath(stem))
    {
        std::remove(path.c_str());
        TelemetryOptions opt;
        opt.intervalInsts = intervalInsts;
        opt.intervalWallMs = intervalWallMs;
        opt.ringSize = ringSize;
        opt.clockMs = [this] { return now; };
        opt.rssKb = [] { return std::uint64_t(4242); };
        std::string err;
        channel = TelemetryChannel::open(path, opt, &err);
        EXPECT_NE(channel, nullptr) << err;
    }

    ~FakeClockChannel() { channel.reset(); std::remove(path.c_str()); }
};

TEST(TelemetryChannel, MetaJobFinalRecordsAreWellFormed)
{
    FakeClockChannel fx("meta");
    fx.channel->emitMeta("arl_sim", "run");
    fx.now = 7;
    fx.channel->emitJobStart(0, "wl", "cfg", -1, 5000);
    fx.channel->emitJobDone(0, "wl", "cfg", -1, 5000, 9000);
    fx.channel->emitFinal(5000);

    auto lines = readLines(fx.path);
    ASSERT_EQ(lines.size(), 4u);

    obs::JsonValue meta = parseLine(lines[0]);
    EXPECT_EQ(numField(meta, "telemetry_schema"), obs::kTelemetrySchema);
    EXPECT_EQ(strField(meta, "kind"), "meta");
    EXPECT_EQ(strField(meta, "tool"), "arl_sim");
    EXPECT_EQ(strField(meta, "command"), "run");
    EXPECT_EQ(numField(meta, "interval_insts"), 1000);
    EXPECT_EQ(numField(meta, "ring"), 64);

    obs::JsonValue start = parseLine(lines[1]);
    EXPECT_EQ(strField(start, "kind"), "job");
    EXPECT_EQ(strField(start, "event"), "start");
    EXPECT_EQ(numField(start, "total_insts"), 5000);
    EXPECT_EQ(numField(start, "wall_ms"), 7);

    obs::JsonValue done = parseLine(lines[2]);
    EXPECT_EQ(strField(done, "event"), "done");
    EXPECT_EQ(numField(done, "insts"), 5000);
    EXPECT_EQ(numField(done, "cycles"), 9000);

    obs::JsonValue fin = parseLine(lines[3]);
    EXPECT_EQ(strField(fin, "kind"), "final");
    EXPECT_EQ(numField(fin, "insts"), 5000);
    // meta + 2 job records had been written when final was formatted.
    EXPECT_EQ(numField(fin, "records"), 3);
    EXPECT_GT(numField(fin, "bytes"), 0);
}

TEST(TelemetryScope, HeartbeatRatesAreExactWithInjectedClock)
{
    FakeClockChannel fx("rates", /*intervalInsts=*/1000);
    TelemetryScope scope(fx.channel.get(), 0, "wl", "cfg", -1, 10'000);
    scope.start();
    obs::Hooks hooks;
    hooks.telemetry = &scope;
    EXPECT_EQ(hooks.arm(0), 1000u);

    // 999 insts: below the interval — no heartbeat.
    fx.now = 50;
    TelemetryFrame f;
    f.insts = 999;
    f.cycles = 1500;
    EXPECT_EQ(hooks.progress(f), 1000u);
    EXPECT_EQ(fx.channel->recordsEmitted(), 1u); // job start only

    // 2000 insts at t=100 ms: one heartbeat covering the whole span.
    fx.now = 100;
    f.insts = 2000;
    f.cycles = 4000;
    f.loads = 600;
    f.stores = 300;
    f.refsData = 900;
    f.refsHeap = 500;
    f.refsStack = 400;
    f.lvaqSteered = 120;
    f.contentionStalls = 77;
    EXPECT_EQ(hooks.progress(f), 3000u);
    ASSERT_EQ(fx.channel->recordsEmitted(), 2u);

    auto lines = readLines(fx.path);
    obs::JsonValue hb = parseLine(lines.back());
    EXPECT_EQ(strField(hb, "kind"), "hb");
    EXPECT_EQ(numField(hb, "seq"), 1);
    EXPECT_EQ(numField(hb, "insts"), 2000);
    EXPECT_EQ(numField(hb, "d_insts"), 2000);
    EXPECT_EQ(numField(hb, "d_cycles"), 4000);
    EXPECT_EQ(numField(hb, "wall_ms"), 100);
    EXPECT_DOUBLE_EQ(numField(hb, "ipc"), 0.5);
    // 2000 insts over 100 ms = 0.02 M insts / s.
    EXPECT_DOUBLE_EQ(numField(hb, "mips"), 0.02);
    // 8000 insts left at 20 insts/ms (= 20000 insts/s) = 0.4 s.
    EXPECT_DOUBLE_EQ(numField(hb, "eta_s"), 0.4);
    EXPECT_EQ(numField(hb, "d_loads"), 600);
    EXPECT_EQ(numField(hb, "d_stores"), 300);
    EXPECT_EQ(numField(hb, "d_refs_data"), 900);
    EXPECT_EQ(numField(hb, "d_refs_heap"), 500);
    EXPECT_EQ(numField(hb, "d_refs_stack"), 400);
    EXPECT_EQ(numField(hb, "d_lvaq"), 120);
    EXPECT_EQ(numField(hb, "d_contention"), 77);
    EXPECT_EQ(numField(hb, "rss_kb"), 4242);

    // Second beat: deltas are relative to the first, not cumulative.
    fx.now = 150;
    TelemetryFrame g = f;
    g.insts = 3000;
    g.cycles = 5000;
    g.loads = 700;
    hooks.progress(g);
    lines = readLines(fx.path);
    obs::JsonValue hb2 = parseLine(lines.back());
    EXPECT_EQ(numField(hb2, "seq"), 2);
    EXPECT_EQ(numField(hb2, "d_insts"), 1000);
    EXPECT_EQ(numField(hb2, "d_cycles"), 1000);
    EXPECT_EQ(numField(hb2, "d_loads"), 100);
    EXPECT_DOUBLE_EQ(numField(hb2, "ipc"), 1.0);

    scope.done(3000, 5000);
}

TEST(TelemetryScope, EpochGuardRebasesOnCounterReset)
{
    FakeClockChannel fx("epoch", /*intervalInsts=*/1000);
    TelemetryScope scope(fx.channel.get(), 0, "wl", "cfg", -1, 0);
    scope.start();
    obs::Hooks hooks;
    hooks.telemetry = &scope;
    EXPECT_EQ(hooks.arm(0), 1000u);

    fx.now = 10;
    TelemetryFrame f;
    f.insts = 2000;
    f.cycles = 2000;
    EXPECT_EQ(hooks.progress(f), 3000u);
    ASSERT_EQ(fx.channel->recordsEmitted(), 2u);

    // Stats fence: the producer re-arms at its new count, and the
    // schedule restarts from the new epoch.
    EXPECT_EQ(hooks.arm(100), 1100u);

    // Counters are below the last frame at the first check.  No
    // record may be emitted (an underflowed delta would be garbage).
    fx.now = 20;
    TelemetryFrame reset;
    reset.insts = 1100;
    reset.cycles = 1100;
    EXPECT_EQ(hooks.progress(reset), 2100u);
    EXPECT_EQ(fx.channel->recordsEmitted(), 2u);

    // The next beat's delta is measured from the re-based frame.
    fx.now = 30;
    TelemetryFrame g;
    g.insts = 2200;
    g.cycles = 2200;
    hooks.progress(g);
    ASSERT_EQ(fx.channel->recordsEmitted(), 3u);
    obs::JsonValue hb = parseLine(readLines(fx.path).back());
    EXPECT_EQ(numField(hb, "d_insts"), 1100);
    EXPECT_EQ(numField(hb, "d_cycles"), 1100);
}

TEST(TelemetryScope, WallClockTriggerBeatsWithoutInstProgress)
{
    FakeClockChannel fx("wall", /*intervalInsts=*/0,
                        /*intervalWallMs=*/100);
    TelemetryScope scope(fx.channel.get(), 0, "wl", "cfg", -1, 0);
    scope.start();
    // Wall-clock-only channels still need periodic checks: the hooks
    // ask the producer back every 64Ki instructions.
    obs::Hooks hooks;
    hooks.telemetry = &scope;
    EXPECT_EQ(hooks.arm(0), 65536u);

    TelemetryFrame f;
    f.insts = 65536;
    fx.now = 50;
    EXPECT_EQ(hooks.progress(f), 131072u);
    EXPECT_EQ(fx.channel->recordsEmitted(), 1u); // too soon

    f.insts = 131072;
    fx.now = 120;
    hooks.progress(f);
    ASSERT_EQ(fx.channel->recordsEmitted(), 2u);
    obs::JsonValue hb = parseLine(readLines(fx.path).back());
    EXPECT_EQ(numField(hb, "wall_ms"), 120);
    EXPECT_EQ(numField(hb, "d_insts"), 131072);
}

TEST(TelemetryChannel, WatchdogTracksPerJobBeats)
{
    FakeClockChannel fx("watchdog");
    EXPECT_EQ(fx.channel->msSinceBeat(0), UINT64_MAX); // not started
    // Start at t=5: a beat timestamp of 0 is the "idle" sentinel.
    fx.now = 5;
    fx.channel->emitJobStart(0, "wl", "cfg", -1, 0);
    fx.now = 255;
    EXPECT_EQ(fx.channel->msSinceBeat(0), 250u);
    EXPECT_EQ(fx.channel->msSinceBeat(1), UINT64_MAX);
    fx.channel->emitJobDone(0, "wl", "cfg", -1, 1, 1);
    EXPECT_EQ(fx.channel->msSinceBeat(0), UINT64_MAX); // finished
}

TEST(TelemetryChannel, BlackBoxDumpReplaysRingInOrder)
{
    FakeClockChannel fx("ring", 1000, 0, /*ringSize=*/4);
    fx.channel->emitMeta("arl_sim", "run");
    for (int j = 0; j < 6; ++j)
        fx.channel->emitJobStart(j, "wl", "cfg", -1, 0);
    // 7 records through a 4-deep ring: the dump replays the last 4.
    fx.channel->dumpBlackBox(SIGSEGV);

    auto lines = readLines(fx.path);
    // 7 durable records + 1 blank (leading newline guard) + header +
    // 4 replayed lines.
    ASSERT_EQ(lines.size(), 13u);
    EXPECT_TRUE(lines[7].empty());
    obs::JsonValue head = parseLine(lines[8]);
    EXPECT_EQ(strField(head, "kind"), "blackbox");
    EXPECT_EQ(numField(head, "signal"), SIGSEGV);
    EXPECT_EQ(numField(head, "lines"), 4);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(lines[9 + i], lines[3 + i]) << "ring replay line " << i;
}

/**
 * Run @p die in a forked child after it has armed the flight recorder
 * and emitted a few records, then verify in the parent that the child
 * was killed by @p expectSig and the telemetry file ends with a
 * parseable black-box postamble replaying every completed record.
 */
void
crashRoundTrip(const std::string &path, int expectSig,
               void (*die)(TelemetryChannel *))
{
    std::remove(path.c_str());
    pid_t pid = fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
        // Child: quiet stderr (the abort path logs), open + arm, emit
        // a short stream, then die mid-run.  _exit on any failure so
        // gtest state is never touched from the child.
        if (!freopen("/dev/null", "w", stderr))
            _exit(97);
        TelemetryOptions opt;
        opt.intervalInsts = 1000;
        auto ch = TelemetryChannel::open(path, opt);
        if (!ch)
            _exit(98);
        obs::armFlightRecorder(ch.get());
        ch->emitMeta("test", "crash");
        TelemetryScope scope(ch.get(), 0, "wl", "cfg", -1, 100'000);
        scope.start();
        TelemetryFrame f;
        for (int i = 1; i <= 5; ++i) {
            f.insts = static_cast<std::uint64_t>(i) * 1000;
            f.cycles = f.insts * 2;
            scope.check(f);
        }
        die(ch.get());
        _exit(99); // not reached
    }

    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status))
        << "child did not die from a signal (status " << status << ")";
    EXPECT_EQ(WTERMSIG(status), expectSig);

    // meta + job start + 5 heartbeats, then the postamble.
    auto lines = readLines(path);
    ASSERT_EQ(lines.size(), 16u) << "unexpected telemetry line count";
    std::size_t blank = 7;
    EXPECT_TRUE(lines[blank].empty());
    obs::JsonValue head = parseLine(lines[blank + 1]);
    EXPECT_EQ(numField(head, "telemetry_schema"), obs::kTelemetrySchema);
    EXPECT_EQ(strField(head, "kind"), "blackbox");
    EXPECT_EQ(numField(head, "signal"), expectSig);
    EXPECT_EQ(numField(head, "lines"), 7);
    // The ring replay reproduces the durable stream byte for byte,
    // ending with the last completed record before the crash.
    for (std::size_t i = 0; i < 7; ++i) {
        EXPECT_EQ(lines[blank + 2 + i], lines[i]);
        parseLine(lines[blank + 2 + i]);
    }
    obs::JsonValue lastHb = parseLine(lines[blank + 2 + 6]);
    EXPECT_EQ(strField(lastHb, "kind"), "hb");
    EXPECT_EQ(numField(lastHb, "insts"), 5000);
    std::remove(path.c_str());
}

TEST(FlightRecorder, SegfaultMidRunLeavesBlackBoxPostamble)
{
    crashRoundTrip(tmpPath("segv"), SIGSEGV, [](TelemetryChannel *) {
        ::raise(SIGSEGV);
    });
}

TEST(FlightRecorder, AssertAbortLeavesBlackBoxPostamble)
{
    // ARL_ASSERT/panic end in abort(); the SIGABRT handler covers
    // assertion failures.  abort() directly exercises the same path
    // without tripping gtest's death-test machinery on the message.
    crashRoundTrip(tmpPath("abrt"), SIGABRT, [](TelemetryChannel *) {
        std::abort();
    });
}

TEST(FlightRecorder, DisarmedChannelStillReRaises)
{
    std::string path = tmpPath("disarm");
    std::remove(path.c_str());
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        TelemetryOptions opt;
        auto ch = TelemetryChannel::open(path, opt);
        if (!ch)
            _exit(98);
        obs::armFlightRecorder(ch.get());
        ch->emitMeta("test", "disarm");
        ch.reset(); // ~TelemetryChannel disarms
        ::raise(SIGSEGV);
        _exit(99);
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGSEGV);
    // No postamble: the channel was gone when the signal hit.
    for (const auto &line : readLines(path))
        EXPECT_EQ(line.find("blackbox"), std::string::npos) << line;
    std::remove(path.c_str());
}

TEST(Hooks, OneThresholdSchedulesRowsAndHeartbeats)
{
    // Rows every 100 instructions, heartbeats every 150: the producer
    // is handed the lower of the two thresholds each time.
    FakeClockChannel fx("schedule", /*intervalInsts=*/150);
    obs::Hooks hooks;
    hooks.intervalEvery = 100;
    std::uint64_t &commits = hooks.registry.counter("core.commits");
    TelemetryScope scope(fx.channel.get(), 0, "wl", "cfg", -1, 0);
    scope.start();
    hooks.telemetry = &scope;
    EXPECT_EQ(hooks.arm(0), 100u);

    TelemetryFrame f;
    commits = 10;
    f.insts = 100;
    EXPECT_EQ(hooks.progress(f), 150u);  // row at 100
    f.insts = 151;
    EXPECT_EQ(hooks.progress(f), 200u);  // beat; next check at 301
    f.insts = 230;
    EXPECT_EQ(hooks.progress(f), 300u);  // row at 230
    EXPECT_EQ(fx.channel->recordsEmitted(), 2u);  // start + one beat
    ASSERT_EQ(hooks.sampler->rows().samples.size(), 2u);
    EXPECT_EQ(hooks.sampler->rows().samples[1].at, 230u);

    // A phase armed without beats samples rows but stays silent.
    EXPECT_EQ(hooks.arm(230, /*beats=*/false), 300u);
    f.insts = 460;
    EXPECT_EQ(hooks.progress(f), 500u);
    EXPECT_EQ(fx.channel->recordsEmitted(), 2u);
    EXPECT_EQ(hooks.sampler->rows().samples.size(), 3u);

    // Nothing to sample or beat: the producer never calls again.
    obs::Hooks idle;
    EXPECT_EQ(idle.arm(0), obs::Hooks::kNever);
}

TEST(IntervalCsv, WritesRowsAsTakenAndTheReportKeepsNone)
{
    const std::string path = tmpPath("rows");
    obs::Hooks hooks;
    hooks.intervalEvery = 100;
    std::uint64_t &commits = hooks.registry.counter("core.commits");
    ASSERT_TRUE(hooks.open<obs::IntervalCsv>(path));
    EXPECT_EQ(hooks.arm(0), 100u);

    TelemetryFrame f;
    commits = 40;
    f.insts = 100;
    EXPECT_EQ(hooks.progress(f), 200u);
    commits = 90;
    f.insts = 200;
    EXPECT_EQ(hooks.progress(f), 300u);
    commits = 130;
    hooks.finish(250);  // final partial interval

    // O(1) memory: the sink took the rows, so none are kept and the
    // report omits its intervals section.
    EXPECT_TRUE(hooks.sampler->rows().samples.empty());
    EXPECT_TRUE(hooks.sampler->rows().deltas.empty());
    EXPECT_EQ(obs::RunRecord::fromHooks("w", "c", hooks).intervals.every,
              0u);

    EXPECT_EQ(readLines(path), (std::vector<std::string>{
                                   "at,core.commits", "100,40", "200,90",
                                   "250,130"}));
    std::remove(path.c_str());
}

TEST(IntervalCsv, FlushWithoutNewProgressWritesNoDuplicateRow)
{
    const std::string path = tmpPath("flush");
    obs::Hooks hooks;
    hooks.intervalEvery = 100;
    std::uint64_t &commits = hooks.registry.counter("core.commits");
    ASSERT_TRUE(hooks.open<obs::IntervalCsv>(path));
    hooks.arm(0);
    commits = 50;
    TelemetryFrame f;
    f.insts = 100;
    hooks.progress(f);
    hooks.finish(100);  // boundary already sampled
    EXPECT_EQ(readLines(path),
              (std::vector<std::string>{"at,core.commits", "100,50"}));
    std::remove(path.c_str());
}

TEST(TelemetrySweep, StreamedRegionRowsEmitValidStream)
{
    // A capped and an uncapped row.  The uncapped one cannot know its
    // length before it ends: total_insts 0 and no ETA.
    sweep::SweepSpec spec;
    sweep::WorkloadSpec capped;
    capped.name = "li_like";
    capped.studyInsts = 300000;
    sweep::WorkloadSpec uncapped;
    uncapped.name = "go_like";
    spec.workloads = {capped, uncapped};
    spec.schemes = core::toSweepSchemes(core::figure4Schemes());
    spec.jobs = 4;

    auto report_of = [](const sweep::SweepSpec &s) {
        std::ostringstream os;
        sweep::runSweep(s).toReport().writeJson(os);
        return os.str();
    };
    const std::string plain = report_of(spec);

    const std::string path = tmpPath("region_sweep");
    std::remove(path.c_str());
    TelemetryOptions opt;
    opt.intervalInsts = 100000;
    std::string err;
    auto channel = TelemetryChannel::open(path, opt, &err);
    ASSERT_NE(channel, nullptr) << err;
    channel->emitMeta("test", "sweep");
    spec.telemetry = channel.get();
    EXPECT_EQ(report_of(spec), plain)
        << "telemetry changed the region-only sweep report";
    channel.reset();

    // The checks `arl_sim validate` applies: start/done pairing and
    // monotone per-job heartbeats.
    std::map<int, std::string> state;
    std::map<int, std::uint64_t> last_insts, last_seq, totals;
    std::size_t beats = 0;
    for (const std::string &line : readLines(path)) {
        obs::JsonValue v = parseLine(line);
        const std::string kind = strField(v, "kind");
        if (kind == "meta")
            continue;
        ASSERT_TRUE(kind == "job" || kind == "hb") << line;
        const int job = static_cast<int>(numField(v, "job"));
        EXPECT_EQ(strField(v, "config"), "regionstudy");
        if (kind == "job") {
            const std::string event = strField(v, "event");
            if (event == "start") {
                EXPECT_EQ(state.count(job), 0u) << "job restarted";
                state[job] = "start";
                totals[job] =
                    static_cast<std::uint64_t>(numField(v, "total_insts"));
                EXPECT_EQ(totals[job], strField(v, "workload") == "li_like"
                                           ? 300000u
                                           : 0u);
            } else {
                EXPECT_EQ(state[job], "start") << "done without start";
                state[job] = "done";
            }
            continue;
        }
        ++beats;
        EXPECT_EQ(state[job], "start") << "heartbeat outside its job";
        const auto insts = static_cast<std::uint64_t>(numField(v, "insts"));
        const auto seq = static_cast<std::uint64_t>(numField(v, "seq"));
        EXPECT_GE(insts, last_insts[job]);
        EXPECT_GT(seq, last_seq[job]);
        last_insts[job] = insts;
        last_seq[job] = seq;
        // Each beat carries the pass's access mix: every load or store
        // of the interval references exactly one region.
        const double accesses =
            numField(v, "d_loads") + numField(v, "d_stores");
        EXPECT_GT(accesses, 0.0) << line;
        EXPECT_EQ(accesses, numField(v, "d_refs_data") +
                                numField(v, "d_refs_heap") +
                                numField(v, "d_refs_stack"))
            << line;
        if (totals[job] == 0) {
            EXPECT_EQ(numField(v, "eta_s"), -1.0);
        }
    }
    EXPECT_EQ(state.size(), 2u);
    for (const auto &[job, s] : state)
        EXPECT_EQ(s, "done") << "job " << job << " never finished";
    EXPECT_GT(beats, 10u);
    std::remove(path.c_str());
}

} // namespace
