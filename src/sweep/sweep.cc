#include "sweep/sweep.hh"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <thread>

#include "assembler/assembler.hh"
#include "common/crc32.hh"
#include "common/logging.hh"
#include "obs/hooks.hh"
#include "obs/profiler.hh"
#include "sampling/sampling.hh"
#include "sim/simulator.hh"
#include "trace/replay.hh"
#include "workloads/workloads.hh"

namespace arl::sweep
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Run fn(0..count) on up to @p jobs worker threads.  Work items are
 * claimed from an atomic cursor, so scheduling is dynamic, but every
 * item writes only its own result slot — output order never depends
 * on the interleaving.  jobs <= 1 runs inline on the caller.
 */
void
runJobs(std::size_t count, unsigned jobs,
        const std::function<void(std::size_t)> &fn)
{
    if (count == 0)
        return;
    unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(jobs, count));
    if (workers <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }
    std::atomic<std::size_t> cursor{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t) {
        pool.emplace_back([&] {
            for (std::size_t i = cursor.fetch_add(1); i < count;
                 i = cursor.fetch_add(1))
                fn(i);
        });
    }
    for (std::thread &worker : pool)
        worker.join();
}

/**
 * Records a timing grid captures for @p w (plus its region pass when
 * @p region_grid): 0 = full execution.
 */
InstCount
traceNeed(const WorkloadSpec &w, bool region_grid)
{
    bool full = w.timed == 0;
    InstCount need = full ? 0 : w.warmup + w.timed;
    if (region_grid) {
        if (w.studyInsts == 0)
            full = true;
        else
            need = std::max(need, w.studyInsts);
    }
    return full ? 0 : need;
}

/**
 * Cache file name, ending in the "-v2" tag of the trace format.
 * Corpus workloads (sourcePath set) carry the source bytes' CRC32 in
 * the key — the registry namespace is never aliased and editing the
 * `.s` file invalidates its entry.
 */
std::string
traceCacheKey(const WorkloadSpec &w, InstCount need,
              const std::string &source)
{
    std::string key;
    if (!w.sourcePath.empty()) {
        char crc[16];
        std::snprintf(crc, sizeof crc, "%08x",
                      crc32(source.data(), source.size()));
        key = "corpus-" + w.name + "-" + crc + "-";
    } else {
        key = w.name + "-s" + std::to_string(w.scale) + "-";
    }
    key += need ? "n" + std::to_string(need) : "full";
    return key + "-v2.arlt";
}

/**
 * Build one workload's Program: registry by name, or — for corpus
 * rows — read and assemble the spec's source file.  Assembly errors
 * are fatal here: the CLI front ends pre-validate corpus directories
 * (corpus::corpusWorkloadSpecs), so a failure at this point means
 * the file changed underneath a running sweep.
 */
std::shared_ptr<const vm::Program>
buildProgram(const WorkloadSpec &w, std::string *source_out)
{
    if (w.sourcePath.empty())
        return workloads::buildWorkload(w.name, w.scale);
    std::ifstream file(w.sourcePath, std::ios::binary);
    if (!file)
        fatal("sweep: cannot open workload source '%s'",
              w.sourcePath.c_str());
    std::ostringstream buffer;
    buffer << file.rdbuf();
    std::string source = buffer.str();
    assembler::AsmResult result = assembler::assemble(source, w.name);
    if (!result.ok())
        fatal("sweep: %s: %s", w.sourcePath.c_str(),
              result.errors.empty()
                  ? "assembly failed"
                  : result.errors[0].format().c_str());
    if (source_out)
        *source_out = std::move(source);
    return result.program;
}

/**
 * A row's recorded stream, in one of two representations: decoded
 * when several jobs read it end to end, so each replays at full
 * speed; else its v2 encoding, replayed a block at a time.  The grid
 * shape picks (runSweep); results are identical either way.
 */
struct RowTrace
{
    std::shared_ptr<const trace::InMemoryTrace> decoded;
    std::shared_ptr<const trace::EncodedTrace> encoded;

    explicit operator bool() const { return decoded || encoded; }

    InstCount
    size() const
    {
        return decoded ? decoded->size() : encoded->size();
    }

    const std::string &
    program() const
    {
        return decoded ? decoded->program : encoded->program;
    }

    InstCount
    checkpointAtOrBelow(InstCount n) const
    {
        return decoded ? decoded->checkpointAtOrBelow(n)
                       : encoded->checkpointAtOrBelow(n);
    }

    /** A fresh replay cursor over the stream. */
    std::shared_ptr<sim::StepSource>
    source() const
    {
        if (decoded)
            return std::make_shared<trace::ReplaySource>(decoded);
        return std::make_shared<trace::BlockReplaySource>(encoded);
    }

    /** Load cache entry @p path: encoded when @p encode, else decoded. */
    static RowTrace
    load(bool encode, const std::string &path,
         trace::TraceLoadStats &stats, trace::RecordVisitor *visitor)
    {
        RowTrace t;
        if (encode)
            t.encoded = trace::loadEncoded(path, &stats, visitor);
        else
            t.decoded = trace::loadTrace(path, &stats);
        return t;
    }

    /** Record @p program: encoded when @p encode, else decoded. */
    static RowTrace
    record(bool encode, std::shared_ptr<const vm::Program> program,
           InstCount need, InstCount every,
           trace::RecordVisitor *visitor)
    {
        RowTrace t;
        if (encode)
            t.encoded =
                trace::recordEncoded(program, need, every, visitor);
        else
            t.decoded = trace::recordToMemory(program, need, every);
        return t;
    }

    /** Write the stream to @p path (the same bytes either way). */
    bool
    trySave(const std::string &path, std::uint64_t &bytes) const
    {
        return decoded ? trace::trySaveTrace(path, *decoded, bytes)
                       : trace::trySaveEncoded(path, *encoded, bytes);
    }

    void
    reset()
    {
        decoded.reset();
        encoded.reset();
    }
};

/** Per-workload artifacts shared (read-only) by its grid jobs. */
struct Prepared
{
    std::shared_ptr<const vm::Program> program;
    RowTrace trace;
    /** Phase-sampling decision (sampled sweeps only). */
    sampling::SamplingPlan plan;
    double seconds = 0.0;
    bool cacheHit = false;
    std::uint64_t diskBytes = 0;
    double decodeSeconds = 0.0;
};

/**
 * One phase-2 work item of the timing grid.  In exact mode every
 * grid point is a single job (rep == Exact); in sampled mode a grid
 * point fans out into one job per cluster representative plus an
 * optional full-population verify job, merged deterministically by
 * the coordinator afterwards.
 */
struct TimingJob
{
    static constexpr std::ptrdiff_t Exact = -1;
    static constexpr std::ptrdiff_t Verify = -2;
    std::size_t wi = 0;
    std::size_t ci = 0;
    std::ptrdiff_t rep = Exact;
    /** Result slot: rep jobs index repRuns, verify jobs verifyRuns. */
    std::size_t slot = 0;
};

/**
 * Test hook: ARL_SWEEP_TEST_STALL_MS makes job 0 sleep that long
 * right after its job-start telemetry record, so the watchdog (and
 * `arl_sim monitor`) can be exercised against a deterministic stall
 * without a pathological workload.  Ignored without a channel.
 */
std::uint64_t
testStallMs()
{
    const char *env = std::getenv("ARL_SWEEP_TEST_STALL_MS");
    if (!env)
        return 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(env, &end, 10);
    return (end && *end == '\0') ? v : 0;
}

/** What one timing job measured. */
struct JobRun
{
    ooo::OooStats stats;
    obs::StatsRegistry::Snapshot snapshot;
    /** Instructions the job's stream delivered, warmup included. */
    InstCount delivered = 0;
};

/**
 * Run timing job @p tj of row @p row over @p trace, or, when @p trace
 * is empty (a live row), over the core's own functional simulator.
 * Every job is one sequence — seek, warm, time, finalize — over its
 * own window: an exact point or a verify run times the workload's
 * window after its warmup (seeking to a checkpoint first under
 * seekFastForward), and a phase representative seeks to its warmup
 * window, warms functionally and then through the pipeline, and
 * times only its interval.
 *
 * @param hooks the point's caller-owned context (SweepSpec::hooks),
 *        or null for a private one.
 */
JobRun
runTimingJob(const SweepSpec &spec, const Prepared &row,
             const RowTrace &trace, const TimingJob &tj, std::size_t job,
             obs::Hooks *hooks, std::atomic<std::uint64_t> &seek_skipped)
{
    const WorkloadSpec &w = spec.workloads[tj.wi];
    const bool sample = tj.rep >= 0;
    obs::ProfScope prof(sample                         ? "sweep/sample"
                        : tj.rep == TimingJob::Verify ? "sweep/verify"
                                                      : "sweep/simulate",
                        obs::ProfScope::Mode::Absolute);
    ooo::MachineConfig config = spec.configs[tj.ci];
    if (spec.cpiStack)
        config.cpiStack = true;

    // Skip `seek` records, warm the next `warm` functionally (state
    // only from the last `warm_last`; 0 = all), run `detail` through
    // the pipeline with the statistics fenced off, then time `timed`
    // (0 = to completion).
    InstCount seek = 0, warm = w.warmup, warm_last = w.warmupWindow;
    InstCount detail = 0, timed = w.timed;
    if (sample) {
        // The warmup window splits into a functional prefix and a
        // short detailed tail; runSample fences the statistics
        // between the tail and the timed interval, so the window
        // starts with a full ROB and live contention state but clean
        // counters.
        const sampling::Representative &rep =
            row.plan.reps[static_cast<std::size_t>(tj.rep)];
        seek = rep.warmupStart;
        detail = rep.detail;
        warm = rep.start - rep.warmupStart - rep.detail;
        warm_last = 0;
        timed = rep.length;
    } else if (spec.seekFastForward && w.warmupWindow &&
               w.warmupWindow < w.warmup) {
        // Checkpointed fast-forward: skip decoding the prefix up to
        // the nearest checkpoint that still leaves the full warming
        // window to consume.  Functional and seeked paths warm the
        // identical final records, so the timed window (and the
        // report) is bit-identical either way.
        seek = trace.checkpointAtOrBelow(w.warmup - w.warmupWindow);
        warm -= seek;
    }

    std::shared_ptr<sim::StepSource> source;
    if (trace) {
        source = trace.source();
        if (seek) {
            obs::ProfScope prof_seek("seek");
            source->seekTo(seek);
            seek_skipped.fetch_add(seek, std::memory_order_relaxed);
        }
    }
    ooo::OooCore core(config, row.program, source);
    obs::Hooks own;
    obs::Hooks &h = hooks ? *hooks : own;
    core.attachObs(&h);
    std::unique_ptr<obs::TelemetryScope> tscope;
    if (spec.telemetry) {
        // The rep index (a representative's, or Exact / Verify)
        // rides on every record of this job.  A live row run to
        // completion cannot know its length up front: total 0.
        std::uint64_t total = timed;
        if (!total && trace && trace.size() > w.warmup)
            total = trace.size() - w.warmup;
        tscope = std::make_unique<obs::TelemetryScope>(
            spec.telemetry, static_cast<int>(job), w.name, config.name,
            static_cast<int>(tj.rep), total);
        tscope->start();
        h.telemetry = tscope.get();
        if (job == 0 && testStallMs())
            std::this_thread::sleep_for(
                std::chrono::milliseconds(testStallMs()));
    }
    if (warm)
        core.warmup(warm, warm_last);
    // Sampling starts after warmup, so its baseline is the warmed
    // state and its frozen name set holds every stat the core
    // registered.
    h.startSampling();
    JobRun out;
    out.stats = sample ? core.runSample(timed, detail) : core.run(timed);
    h.finishSampling(out.stats.instructions);
    if (tscope)
        tscope->done(out.stats.instructions, out.stats.cycles);
    h.telemetry = nullptr;
    // The registry's live entries point into `core`, which dies at
    // return: freeze the values while it lives.
    h.finalize();
    out.snapshot = h.finalSnapshot;
    out.delivered = core.delivered();
    prof.addGuestInsts(warm + detail + out.stats.instructions);
    prof.addGuestCycles(out.stats.cycles);
    return out;
}

/** Insert @p name into the sorted snapshot @p snapshot. */
void
insertStat(obs::StatsRegistry::Snapshot &snapshot,
           const std::string &name, double value)
{
    auto it = std::lower_bound(
        snapshot.begin(), snapshot.end(), name,
        [](const auto &entry, const std::string &key) {
            return entry.first < key;
        });
    snapshot.insert(it, {name, value});
}

} // namespace

std::vector<WorkloadSpec>
allWorkloadSpecs(unsigned scale, InstCount timed)
{
    std::vector<WorkloadSpec> specs;
    for (const auto &info : workloads::allWorkloads()) {
        WorkloadSpec spec;
        spec.name = info.name;
        spec.scale = scale;
        spec.warmup = info.warmupInsts;
        spec.timed = timed;
        specs.push_back(std::move(spec));
    }
    return specs;
}

SweepResult
runSweep(const SweepSpec &spec)
{
    if (spec.workloads.empty())
        fatal("sweep: no workloads in the grid");
    if (spec.configs.empty() && spec.schemes.empty())
        fatal("sweep: neither machine configs nor predictor schemes "
              "in the grid");

    const std::size_t nw = spec.workloads.size();
    const std::size_t nc = spec.configs.size();
    const bool region_grid = !spec.schemes.empty();
    const bool hinted = std::any_of(
        spec.schemes.begin(), spec.schemes.end(),
        [](const SchemeSpec &s) { return s.config.useCompilerHints; });
    const bool sampled = spec.sampling && nc != 0;
    if (!spec.hooks.empty() && (sampled || spec.hooks.size() != nw * nc))
        fatal("sweep: hooks need one entry per exact timing point");
    // A row's full-window readers are its exact timing points, its
    // verify runs and its region pass; sampled representatives read
    // a block or two each and do not count.  A decoded copy pays off
    // only when read more than once, so below that a row keeps its
    // v2 encoding (about 5 B per instruction instead of 44).
    const std::size_t full_readers =
        (sampled ? (spec.samplingVerify ? nc : 0) : nc) +
        (region_grid ? 1 : 0);
    const bool encoded_rows = full_readers <= 1;
    sampling::SamplingConfig sc;
    sc.intervalInsts = spec.samplingInterval;
    sc.clusters = spec.samplingClusters;
    sc.warmupInsts = spec.samplingWarmup;
    if (sampled) {
        std::string err;
        if (!sampling::checkConfig(sc, &err))
            fatal("sweep: %s", err.c_str());
    }
    unsigned jobs = spec.jobs;
    if (jobs == 0)
        jobs = std::max(1u, std::thread::hardware_concurrency());

    // A missing cache directory is a usability trap, not an error:
    // create it (one level) before the workers race to fill it, and
    // fall back to uncached recording if that is impossible.
    std::string cache_dir = spec.traceCacheDir;
    if (!cache_dir.empty() &&
        mkdir(cache_dir.c_str(), 0777) != 0 && errno != EEXIST) {
        warn("sweep: cannot create trace cache dir '%s'; caching "
             "disabled for this run", cache_dir.c_str());
        cache_dir.clear();
    }

    // A row records its trace only when something reuses the
    // recording: several full-window readers, a sampling plan,
    // checkpointed fast-forward, or a trace cache on a timing grid.
    // Every other row is live: its one reader streams from a
    // functional simulator running beside it (a timing point's
    // OooCore embeds one), so nothing is recorded to be read once.
    const bool live_rows =
        full_readers <= 1 && !sampled &&
        (nc == 0 || (!spec.seekFastForward && cache_dir.empty()));

    SweepResult result;
    result.numConfigs = nc;
    result.jobs = jobs;
    Clock::time_point wall_start = Clock::now();
    // Coordinator-side root; workers file under it with Absolute
    // paths since they own fresh (empty) scope stacks.
    obs::ProfScope prof_sweep("sweep");

    // ---- Phase 1: build each program once, trace each stream once
    // (unless the rows are live).
    std::vector<Prepared> prep(nw);
    runJobs(nw, jobs, [&](std::size_t wi) {
        obs::ProfScope prof("sweep/prepare",
                            obs::ProfScope::Mode::Absolute);
        Clock::time_point start = Clock::now();
        const WorkloadSpec &w = spec.workloads[wi];
        Prepared p;
        std::string source;
        p.program = buildProgram(w, &source);
        if (live_rows) {
            p.seconds = secondsSince(start);
            prep[wi] = std::move(p);
            return;
        }
        InstCount need = traceNeed(w, region_grid);
        const InstCount every = spec.checkpointEvery
                                    ? spec.checkpointEvery
                                    : trace::DefaultBlockRecords;
        // An encoded row fingerprints its sampling intervals in the
        // one pass that records or validates its trace; each attempt
        // starts a fresh stream.
        std::unique_ptr<sampling::FeatureStream> features;
        auto fresh_features = [&]() -> trace::RecordVisitor * {
            if (sampled && encoded_rows)
                features = std::make_unique<sampling::FeatureStream>(
                    sc.intervalInsts, w.warmup, w.timed);
            return features.get();
        };
        std::string cache_path;
        if (!cache_dir.empty()) {
            cache_path =
                cache_dir + "/" + traceCacheKey(w, need, source);
            trace::TraceLoadStats load_stats;
            RowTrace cached = RowTrace::load(encoded_rows, cache_path,
                                             load_stats, fresh_features());
            if (cached && cached.program() == p.program->name) {
                p.trace = std::move(cached);
                p.cacheHit = true;
                p.diskBytes = load_stats.fileBytes;
                p.decodeSeconds = load_stats.seconds;
            }
        }
        if (!p.trace) {
            p.trace = RowTrace::record(encoded_rows, p.program, need,
                                       every, fresh_features());
            if (!cache_path.empty()) {
                // Write-then-rename keeps a concurrently reading
                // sweep from seeing a half-written cache entry.  The
                // cache is opportunistic: any failure (encode I/O or
                // the rename itself) is a warning, and the .tmp file
                // is unlinked so it cannot pile up in the cache dir.
                std::string tmp =
                    cache_path + ".tmp" + std::to_string(getpid());
                std::uint64_t bytes = 0;
                if (!p.trace.trySave(tmp, bytes)) {
                    warn("sweep: cannot write trace cache '%s'",
                         cache_path.c_str());
                } else if (std::rename(tmp.c_str(),
                                       cache_path.c_str()) != 0) {
                    warn("sweep: cannot move trace into cache '%s'",
                         cache_path.c_str());
                    std::remove(tmp.c_str());
                } else {
                    p.diskBytes = bytes;
                }
            }
        }
        if (sampled) {
            // Plan once per workload: the fingerprint/cluster pass
            // depends only on the record bytes, so every config of
            // this row reuses the same representatives.  The
            // population starts after the workload's warmup prefix,
            // so the estimate extrapolates to exactly the window a
            // full (non-sampled) timing point measures, and the
            // earliest intervals warm from the prefix instead of
            // starting cold.
            std::string err;
            const bool planned =
                features ? sampling::buildPlan(
                               features->finish(), p.trace.program(),
                               p.trace.size(), sc, w.warmup, w.timed,
                               p.plan, &err)
                         : sampling::buildPlan(*p.trace.decoded, sc,
                                               w.warmup, w.timed,
                                               p.plan, &err);
            if (!planned)
                fatal("sweep: %s", err.c_str());
        }
        p.seconds = secondsSince(start);
        prep[wi] = std::move(p);
    });

    for (const Prepared &p : prep) {
        result.serialSecondsEstimate += p.seconds;
        if (!p.trace)
            continue;  // live row: counted after its job
        result.traceInstructions += p.trace.size();
        result.traceDiskBytes += p.diskBytes;
        result.traceDecodeSeconds += p.decodeSeconds;
        if (p.cacheHit)
            ++result.traceCacheHits;
        else
            ++result.traceCacheMisses;
    }

    // ---- Phase 2: shard the grid.  Exact mode: one job per timing
    // point.  Sampled mode: each point fans out into one job per
    // cluster representative plus an optional full-population verify
    // job; the coordinator folds them back together afterwards, in
    // declaration order, so sampled reports keep the byte-identity
    // guarantee across --jobs values.  Region passes ride at the
    // end either way, replaying the trace or, in a live row,
    // streaming from a per-job live simulator.
    std::vector<TimingJob> tjobs;
    std::vector<sampling::RepMeasurement> rep_meas;
    std::vector<sampling::RepMeasurement> verify_meas;
    for (std::size_t wi = 0; wi < nw; ++wi) {
        for (std::size_t ci = 0; ci < nc; ++ci) {
            if (!sampled) {
                tjobs.push_back({wi, ci, TimingJob::Exact, 0});
                continue;
            }
            for (std::size_t r = 0; r < prep[wi].plan.reps.size();
                 ++r) {
                tjobs.push_back({wi, ci,
                                 static_cast<std::ptrdiff_t>(r),
                                 rep_meas.size()});
                rep_meas.emplace_back();
            }
            if (spec.samplingVerify) {
                tjobs.push_back(
                    {wi, ci, TimingJob::Verify, verify_meas.size()});
                verify_meas.emplace_back();
            }
        }
    }
    std::vector<obs::StatsRegistry::Snapshot> rep_snaps(
        rep_meas.size());
    const std::size_t timing_jobs = tjobs.size();
    const std::size_t total_jobs =
        timing_jobs + (region_grid ? nw : 0);
    result.timing.resize(nw * nc);
    if (region_grid)
        result.region.resize(nw);
    std::vector<double> job_seconds(total_jobs, 0.0);

    // Traces are dropped as soon as every job of their workload is
    // done, bounding peak memory below "all traces live at once"
    // while the grid drains.
    std::vector<std::atomic<std::size_t>> remaining(nw);
    for (std::size_t wi = 0; wi < nw; ++wi)
        remaining[wi] = region_grid ? 1 : 0;
    for (const TimingJob &tj : tjobs)
        remaining[tj.wi].fetch_add(1, std::memory_order_relaxed);
    std::atomic<std::uint64_t> seek_skipped{0};
    // Instructions the live rows' readers streamed.
    std::atomic<std::uint64_t> streamed{0};

    // Coordinator watchdog: while the grid drains, flag any started
    // job whose heartbeat has been silent longer than the stall
    // threshold (a stall record on the channel plus a warning on
    // stderr).  Observation only — it never touches job state.
    std::atomic<bool> grid_done{false};
    std::thread watchdog;
    if (spec.telemetry && spec.telemetryStallSec > 0.0) {
        watchdog = std::thread([&] {
            const std::uint64_t stall_ms = static_cast<std::uint64_t>(
                spec.telemetryStallSec * 1000.0);
            std::uint64_t poll_ms = stall_ms / 4;
            if (poll_ms == 0)
                poll_ms = 1;
            if (poll_ms > 200)
                poll_ms = 200;
            // Per-job idle level at which to emit the next stall
            // record (re-flag once per additional threshold).
            std::vector<std::uint64_t> next_flag(total_jobs,
                                                 stall_ms);
            while (!grid_done.load(std::memory_order_acquire)) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(poll_ms));
                for (std::size_t j = 0; j < total_jobs; ++j) {
                    std::uint64_t idle = spec.telemetry->msSinceBeat(
                        static_cast<int>(j));
                    if (idle == UINT64_MAX || idle < stall_ms) {
                        // Idle, done, or recovered: re-arm.
                        next_flag[j] = stall_ms;
                        continue;
                    }
                    if (idle >= next_flag[j]) {
                        next_flag[j] = idle + stall_ms;
                        spec.telemetry->emitStall(
                            static_cast<int>(j), idle);
                        warn("sweep: job %zu heartbeat stalled for "
                             "%llu ms", j,
                             static_cast<unsigned long long>(idle));
                    }
                }
            }
        });
    }

    runJobs(total_jobs, jobs, [&](std::size_t job) {
        Clock::time_point start = Clock::now();
        std::size_t wi =
            job < timing_jobs ? tjobs[job].wi : job - timing_jobs;
        const WorkloadSpec &w = spec.workloads[wi];
        RowTrace trace_handle = prep[wi].trace;

        if (job < timing_jobs) {
            const TimingJob &tj = tjobs[job];
            const std::size_t index = tj.wi * nc + tj.ci;
            JobRun run = runTimingJob(
                spec, prep[wi], trace_handle, tj, job,
                spec.hooks.empty() ? nullptr : spec.hooks[index],
                seek_skipped);
            if (tj.rep == TimingJob::Exact) {
                if (live_rows)
                    streamed.fetch_add(run.delivered,
                                       std::memory_order_relaxed);
                TimingPoint &point = result.timing[index];
                point.workload = w.name;
                point.config = spec.configs[tj.ci].name;
                point.stats = std::move(run.stats);
                point.snapshot = std::move(run.snapshot);
            } else if (tj.rep >= 0) {
                rep_meas[tj.slot] = {run.stats.cycles,
                                     run.stats.instructions};
                rep_snaps[tj.slot] = std::move(run.snapshot);
            } else {
                // Verify: the exact flow an unsampled timing point
                // runs, so the measured error compares the estimate
                // against the number the sampled run replaces.
                verify_meas[tj.slot] = {run.stats.cycles,
                                        run.stats.instructions};
            }
        } else {
            obs::ProfScope prof("sweep/regionstudy",
                                obs::ProfScope::Mode::Absolute);
            // Hinted schemes consult profile hints (§3.5.2) that a
            // training run over the same study window builds first,
            // as Experiment::regionStudy builds them.
            predict::CompilerHints hints;
            if (hinted) {
                sim::Simulator trainer(prep[wi].program);
                prof.addGuestInsts(trainer.run(
                    w.studyInsts,
                    [&](const sim::StepInfo &step) { hints.observe(step); }));
            }
            std::unique_ptr<sim::Simulator> live;
            std::shared_ptr<sim::StepSource> source;
            if (trace_handle) {
                source = trace_handle.source();
            } else {
                live = std::make_unique<sim::Simulator>(
                    prep[wi].program);
                source = std::make_shared<sim::SimulatorSource>(*live);
            }
            std::unique_ptr<obs::TelemetryScope> tscope;
            if (spec.telemetry) {
                // A streamed, uncapped row cannot know its length up
                // front: total 0 (no ETA).
                std::uint64_t total = w.studyInsts;
                if (!total && trace_handle)
                    total = trace_handle.size();
                tscope = std::make_unique<obs::TelemetryScope>(
                    spec.telemetry, static_cast<int>(job), w.name,
                    "regionstudy", static_cast<int>(TimingJob::Exact),
                    total);
            }
            RegionPoint point = runRegionPass(
                w.name, *source, spec.schemes, w.studyInsts,
                hinted ? &hints : nullptr, tscope.get());
            prof.addGuestInsts(point.instructions);
            if (live_rows)
                streamed.fetch_add(point.instructions,
                                   std::memory_order_relaxed);
            result.region[wi] = std::move(point);
        }

        job_seconds[job] = secondsSince(start);
        trace_handle.reset();
        if (remaining[wi].fetch_sub(1, std::memory_order_acq_rel) == 1)
            prep[wi].trace.reset();
    });

    grid_done.store(true, std::memory_order_release);
    if (watchdog.joinable())
        watchdog.join();

    {
        obs::ProfScope prof_merge("merge");
        for (double s : job_seconds)
            result.serialSecondsEstimate += s;
        result.seekSkippedRecords =
            seek_skipped.load(std::memory_order_relaxed);
        result.traceInstructions +=
            streamed.load(std::memory_order_relaxed);
        if (sampled) {
            // Fold per-representative measurements back into one
            // extrapolated point per grid cell.  Cursor order here
            // mirrors the job-construction loop exactly, so merged
            // output depends only on the spec.
            std::size_t rep_cursor = 0, verify_cursor = 0;
            for (std::size_t wi = 0; wi < nw; ++wi) {
                const sampling::SamplingPlan &plan = prep[wi].plan;
                const std::size_t nreps = plan.reps.size();
                for (std::size_t ci = 0; ci < nc; ++ci) {
                    std::vector<sampling::RepMeasurement> meas(
                        rep_meas.begin() + rep_cursor,
                        rep_meas.begin() + rep_cursor + nreps);
                    std::vector<obs::StatsRegistry::Snapshot> snaps(
                        rep_snaps.begin() + rep_cursor,
                        rep_snaps.begin() + rep_cursor + nreps);
                    rep_cursor += nreps;
                    sampling::SampledEstimate est =
                        sampling::extrapolate(plan, meas);
                    TimingPoint point;
                    point.workload = spec.workloads[wi].name;
                    point.config = spec.configs[ci].name;
                    point.stats.configName = spec.configs[ci].name;
                    point.stats.cycles = static_cast<Cycle>(
                        std::llround(est.cycles));
                    point.stats.instructions = plan.totalInsts;
                    point.snapshot = sampling::mergeSnapshots(
                        plan, est, meas, snaps);
                    point.sampling = est.report;
                    if (spec.samplingVerify) {
                        const sampling::RepMeasurement &full =
                            verify_meas[verify_cursor++];
                        double full_cpi =
                            full.instructions
                                ? static_cast<double>(full.cycles) /
                                      full.instructions
                                : 0.0;
                        double err =
                            full_cpi > 0.0
                                ? 100.0 *
                                      std::abs(est.cpi - full_cpi) /
                                      full_cpi
                                : 0.0;
                        point.sampling.measuredErrorPct = err;
                        insertStat(point.snapshot,
                                   "sampling.full_cycles",
                                   static_cast<double>(full.cycles));
                        insertStat(point.snapshot,
                                   "sampling.full_cpi", full_cpi);
                        insertStat(point.snapshot,
                                   "sampling.measured_error_pct",
                                   err);
                    }
                    result.timing[wi * nc + ci] = std::move(point);
                }
            }
        }
    }
    result.wallSeconds = secondsSince(wall_start);
    return result;
}

RegionPoint
runRegionPass(const std::string &workload, sim::StepSource &source,
              const std::vector<SchemeSpec> &schemes,
              InstCount study_insts, const predict::CompilerHints *hints,
              obs::TelemetryScope *telemetry)
{
    RegionPoint point;
    point.workload = workload;
    std::uint64_t tnext = UINT64_MAX;
    if (telemetry) {
        telemetry->start();
        tnext = telemetry->firstCheckAt(0);
    }
    profile::RegionProfiler region_profiler;
    profile::WindowProfiler win32(32);
    profile::WindowProfiler win64(64);
    std::vector<std::unique_ptr<predict::RegionPredictor>> predictors;
    predictors.reserve(schemes.size());
    for (const SchemeSpec &scheme : schemes)
        predictors.push_back(std::make_unique<predict::RegionPredictor>(
            scheme.config, hints));
    sim::StepInfo step;
    while ((!study_insts || point.instructions < study_insts) &&
           source.next(step)) {
        region_profiler.observe(step);
        win32.observe(step);
        win64.observe(step);
        for (auto &predictor : predictors)
            predictor->observe(step);
        ++point.instructions;
        if (point.instructions >= tnext) [[unlikely]] {
            obs::TelemetryFrame frame;
            frame.insts = point.instructions;
            tnext = telemetry->check(frame);
        }
    }
    if (telemetry)
        telemetry->done(point.instructions, 0);
    point.profile = region_profiler.profile();
    point.window32 = win32.stats_summary();
    point.window64 = win64.stats_summary();
    for (std::size_t i = 0; i < schemes.size(); ++i)
        point.schemes.emplace_back(schemes[i].name,
                                   predictors[i]->report());

    // Registry-owned mirror of the numbers, in the same shape
    // `arl_sim profile --stats-json` uses.
    obs::StatsRegistry registry;
    registry.counter("profile.instructions") = point.instructions;
    registry.counter("profile.loads") = point.profile.dynamicLoads;
    registry.counter("profile.stores") = point.profile.dynamicStores;
    const char *names[3] = {"data", "heap", "stack"};
    for (unsigned r = 0; r < 3; ++r) {
        registry.counter(std::string("profile.refs.") + names[r]) =
            point.profile.regionRefs[r];
        registry.gauge("profile.window32." + std::string(names[r]) +
                       ".mean") = point.window32.mean[r];
        registry.gauge("profile.window64." + std::string(names[r]) +
                       ".mean") = point.window64.mean[r];
    }
    for (const auto &[name, report] : point.schemes) {
        registry.gauge("profile.scheme." + name + ".accuracy_pct") =
            report.accuracyPct();
        registry.counter("profile.scheme." + name + ".arpt_entries") =
            report.arptOccupancy;
    }
    point.snapshot = registry.snapshot();
    return point;
}

obs::Report
SweepResult::toReport(const std::string &command) const
{
    obs::Report report;
    report.command = command;
    for (const TimingPoint &point : timing) {
        obs::RunRecord record;
        record.workload = point.workload;
        record.config = point.config;
        record.stats = point.snapshot;
        record.sampling = point.sampling;
        report.runs.push_back(std::move(record));
    }
    for (const RegionPoint &point : region) {
        obs::RunRecord record;
        record.workload = point.workload;
        record.config = "regionstudy";
        record.stats = point.snapshot;
        report.runs.push_back(std::move(record));
    }
    // Grid-shape summary.  Only deterministic quantities belong
    // here: wall-clock metering lives in addTimingStats() so this
    // report stays byte-identical across --jobs values.
    obs::StatsRegistry summary;
    summary.counter("sweep.grid.workloads") =
        timing.empty() ? region.size()
                       : (numConfigs ? timing.size() / numConfigs : 0);
    summary.counter("sweep.grid.configs") = numConfigs;
    summary.counter("sweep.grid.timing_points") = timing.size();
    summary.counter("sweep.grid.region_points") = region.size();
    summary.counter("sweep.trace.instructions") = traceInstructions;
    obs::RunRecord record;
    record.workload = "sweep";
    record.config = "summary";
    record.stats = summary.snapshot();
    report.runs.push_back(std::move(record));
    return report;
}

double
SweepResult::compressionRatio() const
{
    if (!traceDiskBytes)
        return 0.0;
    const double raw_bytes =
        static_cast<double>(sizeof(trace::TraceRecord) * traceInstructions);
    return raw_bytes / traceDiskBytes;
}

void
SweepResult::addTimingStats(obs::StatsRegistry &registry) const
{
    registry.counter("sweep.jobs") = jobs;
    registry.gauge("sweep.wall_seconds") = wallSeconds;
    registry.gauge("sweep.serial_seconds_estimate") =
        serialSecondsEstimate;
    registry.gauge("sweep.speedup") = speedup();
    registry.counter("sweep.trace.instructions") = traceInstructions;
    registry.counter("sweep.trace.cache_hits") = traceCacheHits;
    registry.counter("sweep.trace.cache_misses") = traceCacheMisses;
    registry.counter("sweep.trace.disk_bytes") = traceDiskBytes;
    registry.gauge("sweep.trace.compression_ratio") = compressionRatio();
    registry.gauge("sweep.trace.decode_mbps") =
        traceDecodeSeconds > 0.0
            ? traceDiskBytes / 1e6 / traceDecodeSeconds
            : 0.0;
    registry.counter("sweep.trace.seek_ff_skipped") =
        seekSkippedRecords;
}

} // namespace arl::sweep
