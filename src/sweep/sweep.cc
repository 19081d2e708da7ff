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

/** Per-workload artifacts shared (read-only) by its grid jobs. */
struct Prepared
{
    std::shared_ptr<const vm::Program> program;
    /**
     * The row's recording, held as its v2 encoding and decoded a
     * block at a time by each reader; null for a live row, whose
     * readers stream from functional simulators instead.
     */
    std::shared_ptr<const trace::EncodedTrace> trace;
    /** Phase-sampling decision (sampled sweeps only). */
    sampling::SamplingPlan plan;
    double seconds = 0.0;
    bool cacheHit = false;
    std::uint64_t diskBytes = 0;
    double decodeSeconds = 0.0;
};

/**
 * One timing job of the grid.  In exact mode every grid point is a
 * single job (rep == Exact); in sampled mode a grid point fans out
 * into one job per cluster representative plus an optional
 * full-population verify job, merged deterministically by the
 * coordinator afterwards.  A job's index in the job list is its
 * telemetry job id; phase 2 runs jobs in groups (runGroup).
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
 * A fresh reader of @p row's stream from record @p start: a decoder
 * over the row's recording, or a functional simulator of its own on
 * a live row (which cannot seek).
 */
struct RowReader
{
    std::unique_ptr<sim::Simulator> live;
    std::unique_ptr<sim::StepSource> source;

    explicit RowReader(const Prepared &row, InstCount start = 0)
    {
        if (row.trace) {
            source = std::make_unique<trace::BlockReplaySource>(row.trace);
            if (start) {
                obs::ProfScope prof_seek("seek");
                source->seekTo(start);
            }
        } else {
            ARL_ASSERT(start == 0, "a live row cannot seek");
            live = std::make_unique<sim::Simulator>(row.program);
            source = std::make_unique<sim::SimulatorSource>(*live);
        }
    }
};

/**
 * A group's instruction stream, produced once for all its cores.
 * The producer — a functional simulator for a live row, else a
 * decoder over the row's recording — appends one block per round to
 * a ring, filling in each record's producer distances once for all
 * the cores, and each core reads the ring through its own View.  A
 * core pauses once fewer than its issue width of records are left
 * unread (OooCore's pause contract), so a ring of one block plus the
 * widest issue width never overwrites a record a core has yet to
 * read.
 */
class GroupStream
{
  public:
    /** Records one round appends. */
    static constexpr InstCount BlockRecords = 4096;

    /**
     * @param start first record (a seek into a recording).
     * @param limit records a live row streams (0 = to the halt).
     * @param widest the largest issue width among the readers.
     */
    GroupStream(const Prepared &row, InstCount start, InstCount limit,
                unsigned widest)
        : producer(row, start), ring(BlockRecords + widest),
          limit(limit), begin(start), end(start)
    {
    }

    /** Append the next block, or what is left of the stream. */
    void
    produce()
    {
        InstCount n = BlockRecords;
        if (limit)
            n = std::min(n, limit - end);
        for (; n; --n) {
            if (!producer.source->next(ring[tail]))
                break;
            writers.fill(ring[tail]);
            if (++tail == ring.size())
                tail = 0;
            ++end;
        }
        ended = n != 0 || producer.source->exhausted() ||
                (limit && end == limit);
    }

    bool finished() const { return ended; }
    InstCount produced() const { return end; }

    /** One core's cursor over the stream. */
    class View final : public sim::StepSource
    {
      public:
        explicit View(const GroupStream &stream)
            : stream(stream), pos(stream.begin)
        {
        }

        bool
        next(sim::StepInfo &out) override
        {
            if (pos == stream.end) {
                ARL_ASSERT(stream.ended, "read past the produced stream");
                return false;
            }
            out = stream.ring[slot];
            if (++slot == stream.ring.size())
                slot = 0;
            ++pos;
            return true;
        }

        InstCount delivered() const override { return pos; }

        bool
        exhausted() const override
        {
            return stream.ended && pos == stream.end;
        }

        InstCount
        ready() const override
        {
            return stream.ended ? Unlimited : stream.end - pos;
        }

      private:
        const GroupStream &stream;
        InstCount pos;
        std::size_t slot = 0;
    };

  private:
    RowReader producer;
    /** Starts at `begin`, so it knows no writer before a seek. */
    sim::LastWriters writers;
    std::vector<sim::StepInfo> ring;
    std::size_t tail = 0;
    InstCount limit;
    InstCount begin;
    InstCount end;
    bool ended = false;
};

/**
 * Run timing jobs @p jobs of row @p row in lock-step over one shared
 * stream (GroupStream).  The jobs read the same window of the stream,
 * so each round produces the next block once and then advances every
 * unfinished job's core until it pauses or finishes.  Each job walks
 * the sequence a lone core would: warm, time, finish its Hooks.
 * Results do not depend on how jobs are grouped.
 *
 * @return one JobRun per entry of @p jobs.
 */
std::vector<JobRun>
runGroup(const SweepSpec &spec, const Prepared &row,
         const std::vector<TimingJob> &tjobs,
         const std::vector<std::size_t> &jobs)
{
    const TimingJob &lead = tjobs[jobs.front()];
    const WorkloadSpec &w = spec.workloads[lead.wi];
    const bool sample = lead.rep >= 0;
    obs::ProfScope prof(sample                          ? "sweep/sample"
                        : lead.rep == TimingJob::Verify ? "sweep/verify"
                                                        : "sweep/simulate",
                        obs::ProfScope::Mode::Absolute);
    // The group's jobs share one window: skip `seek` records, warm
    // the next `warm` functionally (state only from the last
    // `warm_last`; 0 = all), run `detail` through the pipeline with
    // the statistics fenced off, then time `timed` (0 = to
    // completion).  An exact point or a verify run streams from
    // record 0 and times the workload's window after its warmup; a
    // phase representative starts at its warmup window and times
    // only its interval.
    InstCount seek = 0, warm = w.warmup, warm_last = w.warmupWindow;
    InstCount detail = 0, timed = w.timed;
    if (sample) {
        // The warmup window splits into a functional prefix and a
        // short detailed tail; runSample fences the statistics
        // between the tail and the timed interval, so the window
        // starts with a full ROB and live contention state but clean
        // counters.
        const sampling::Representative &rep =
            row.plan.reps[static_cast<std::size_t>(lead.rep)];
        seek = rep.warmupStart;
        detail = rep.detail;
        warm = rep.start - rep.warmupStart - rep.detail;
        warm_last = 0;
        timed = rep.length;
    }
    unsigned widest = 0;
    for (std::size_t job : jobs)
        widest = std::max(widest, spec.configs[tjobs[job].ci].issueWidth);
    // A live row streams what a recording of it would hold.
    GroupStream stream(row, seek,
                       traceNeed(w, !spec.schemes.empty()), widest);

    /** One job's core and observability, alive while the group runs. */
    struct Member
    {
        Member(const ooo::MachineConfig &config,
               std::shared_ptr<const vm::Program> program,
               const GroupStream &stream)
            : core(config, std::move(program),
                   std::make_shared<GroupStream::View>(stream))
        {
        }

        ooo::OooCore core;
        obs::Hooks own;
        obs::Hooks *hooks = &own;
        std::unique_ptr<obs::TelemetryScope> tscope;
        bool timing = false;
        bool done = false;
    };
    std::vector<std::unique_ptr<Member>> members;
    members.reserve(jobs.size());
    for (std::size_t job : jobs) {
        const TimingJob &tj = tjobs[job];
        ooo::MachineConfig config = spec.configs[tj.ci];
        if (spec.cpiStack)
            config.cpiStack = true;
        auto m = std::make_unique<Member>(config, row.program, stream);
        if (!spec.hooks.empty())
            m->hooks = spec.hooks[tj.wi * spec.configs.size() + tj.ci];
        m->core.attachObs(m->hooks);
        if (spec.telemetry) {
            // The rep index (a representative's, or Exact / Verify)
            // rides on every record of this job.  A live row run to
            // completion cannot know its length up front: total 0.
            std::uint64_t total = timed;
            if (!total && row.trace && row.trace->size() > w.warmup)
                total = row.trace->size() - w.warmup;
            m->tscope = std::make_unique<obs::TelemetryScope>(
                spec.telemetry, static_cast<int>(job), w.name,
                config.name, static_cast<int>(tj.rep), total);
            m->tscope->start();
            m->hooks->telemetry = m->tscope.get();
            if (job == 0 && testStallMs())
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(testStallMs()));
        }
        if (warm)
            m->core.beginWarmup(warm, warm_last);
        members.push_back(std::move(m));
    }

    std::vector<JobRun> runs(jobs.size());
    // Run member @p i until it pauses (false) or finishes (true).
    auto advance = [&](std::size_t i) {
        Member &m = *members[i];
        while (m.core.resume()) {
            if (!m.timing) {
                // The timed phase's arm() starts sampling, after
                // warmup, so its baseline is the warmed state and its
                // frozen name set holds every stat the core
                // registered.
                m.timing = true;
                if (sample)
                    m.core.beginSample(timed, detail);
                else
                    m.core.beginRun(timed);
                continue;
            }
            JobRun &out = runs[i];
            out.stats = m.core.result();
            if (m.tscope)
                m.tscope->done(out.stats.instructions, out.stats.cycles);
            m.hooks->telemetry = nullptr;
            // The registry's live entries point into the core, which
            // dies with the group: freeze the values while it lives.
            m.hooks->finish(out.stats.instructions,
                            w.name + " " +
                                spec.configs[tjobs[jobs[i]].ci].name);
            out.snapshot = m.hooks->finalSnapshot;
            out.delivered = m.core.delivered();
            prof.addGuestInsts(warm + detail + out.stats.instructions);
            prof.addGuestCycles(out.stats.cycles);
            return true;
        }
        return false;
    };

    std::size_t open = members.size();
    while (open) {
        ARL_ASSERT(!stream.finished(), "group stalled at stream end");
#ifndef NDEBUG
        // A paused core has fewer than its issue width of records
        // left unread, which is what sizes the ring.
        for (std::size_t i = 0; i < members.size(); ++i)
            if (!members[i]->done)
                ARL_ASSERT(stream.produced() -
                                   members[i]->core.delivered() <
                               spec.configs[tjobs[jobs[i]].ci].issueWidth,
                           "paused core too far behind the stream");
#endif
        stream.produce();
        for (std::size_t i = 0; i < members.size(); ++i) {
            if (!members[i]->done && advance(i)) {
                members[i]->done = true;
                --open;
            }
        }
    }
    return runs;
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

unsigned
resolveJobs(unsigned jobs)
{
    return jobs ? jobs : std::max(1u, std::thread::hardware_concurrency());
}

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
    sampling::SamplingConfig sc;
    sc.intervalInsts = spec.samplingInterval;
    sc.clusters = spec.samplingClusters;
    sc.warmupInsts = spec.samplingWarmup;
    if (sampled) {
        std::string err;
        if (!sampling::checkConfig(sc, &err))
            fatal("sweep: %s", err.c_str());
    }
    const unsigned jobs = resolveJobs(spec.jobs);

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

    // A row records its trace only when something needs the
    // recording: a sampling plan or a trace cache on a timing grid.
    // Every other row is live: each group of its timing jobs, and its
    // region pass, streams from a functional simulator of its own.
    const bool record_rows = nc != 0 && (sampled || !cache_dir.empty());

    SweepResult result;
    result.numConfigs = nc;
    result.jobs = jobs;
    Clock::time_point wall_start = Clock::now();
    // Coordinator-side root; workers file under it with Absolute
    // paths since they own fresh (empty) scope stacks.
    obs::ProfScope prof_sweep("sweep");

    // ---- Phase 1: build each program once, and record each stream
    // once when the rows record.
    std::vector<Prepared> prep(nw);
    runJobs(nw, jobs, [&](std::size_t wi) {
        obs::ProfScope prof("sweep/prepare",
                            obs::ProfScope::Mode::Absolute);
        Clock::time_point start = Clock::now();
        const WorkloadSpec &w = spec.workloads[wi];
        Prepared p;
        std::string source;
        p.program = buildProgram(w, &source);
        if (!record_rows) {
            p.seconds = secondsSince(start);
            prep[wi] = std::move(p);
            return;
        }
        InstCount need = traceNeed(w, region_grid);
        // A sampled row fingerprints its intervals in the one pass
        // that records or validates its trace; each attempt starts a
        // fresh stream.
        std::unique_ptr<sampling::FeatureStream> features;
        auto fresh_features = [&]() -> trace::RecordVisitor * {
            if (sampled)
                features = std::make_unique<sampling::FeatureStream>(
                    sc.intervalInsts, w.warmup, w.timed);
            return features.get();
        };
        std::string cache_path;
        if (!cache_dir.empty()) {
            cache_path =
                cache_dir + "/" + traceCacheKey(w, need, source);
            trace::TraceLoadStats load_stats;
            auto cached = trace::loadEncoded(cache_path, &load_stats,
                                             fresh_features());
            if (cached && cached->program == p.program->name) {
                p.trace = std::move(cached);
                p.cacheHit = true;
                p.diskBytes = load_stats.fileBytes;
                p.decodeSeconds = load_stats.seconds;
            }
        }
        if (!p.trace) {
            p.trace = trace::recordEncoded(p.program, need,
                                           trace::DefaultBlockRecords,
                                           fresh_features());
            if (!cache_path.empty()) {
                // Write-then-rename keeps a concurrently reading
                // sweep from seeing a half-written cache entry.  The
                // cache is opportunistic: any failure (encode I/O or
                // the rename itself) is a warning, and the .tmp file
                // is unlinked so it cannot pile up in the cache dir.
                std::string tmp =
                    cache_path + ".tmp" + std::to_string(getpid());
                std::uint64_t bytes = 0;
                if (!trace::trySaveEncoded(tmp, *p.trace, bytes)) {
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
            if (!sampling::buildPlan(features->finish(), p.trace->program,
                                     p.trace->size(), sc, w.warmup,
                                     w.timed, p.plan, &err))
                fatal("sweep: %s", err.c_str());
        }
        p.seconds = secondsSince(start);
        prep[wi] = std::move(p);
    });

    for (const Prepared &p : prep) {
        result.serialSecondsEstimate += p.seconds;
        if (!p.trace)
            continue;  // live row: counted after its jobs
        result.traceInstructions += p.trace->size();
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
    // guarantee across --jobs values.
    //
    // Jobs run in groups, one work item each (runGroup): a row's
    // exact points or verify runs split into contiguous config
    // ranges, and each representative is a group of one.  A row gets
    // as many groups as keep every worker busy and no more, since
    // each group produces its stream once.  Region passes ride at the
    // end, one work item per row.
    const std::size_t row_groups =
        std::min<std::size_t>(nc, (jobs + nw - 1) / nw);
    std::vector<TimingJob> tjobs;
    std::vector<std::vector<std::size_t>> groups;
    // The row of each work item: the groups, then the region passes.
    std::vector<std::size_t> item_row;
    auto addGroups = [&](std::size_t wi,
                         const std::vector<std::size_t> &row_jobs) {
        const std::size_t n = row_jobs.size();
        for (std::size_t g = 0; g < row_groups; ++g) {
            std::vector<std::size_t> members(
                row_jobs.begin() + g * n / row_groups,
                row_jobs.begin() + (g + 1) * n / row_groups);
            if (members.empty())
                continue;
            groups.push_back(std::move(members));
            item_row.push_back(wi);
        }
    };
    std::vector<sampling::RepMeasurement> rep_meas;
    std::vector<sampling::RepMeasurement> verify_meas;
    for (std::size_t wi = 0; wi < nw; ++wi) {
        std::vector<std::size_t> row_jobs;
        for (std::size_t ci = 0; ci < nc; ++ci) {
            if (!sampled) {
                row_jobs.push_back(tjobs.size());
                tjobs.push_back({wi, ci, TimingJob::Exact, 0});
                continue;
            }
            for (std::size_t r = 0; r < prep[wi].plan.reps.size();
                 ++r) {
                groups.push_back({tjobs.size()});
                item_row.push_back(wi);
                tjobs.push_back({wi, ci,
                                 static_cast<std::ptrdiff_t>(r),
                                 rep_meas.size()});
                rep_meas.emplace_back();
            }
            if (spec.samplingVerify) {
                row_jobs.push_back(tjobs.size());
                tjobs.push_back(
                    {wi, ci, TimingJob::Verify, verify_meas.size()});
                verify_meas.emplace_back();
            }
        }
        addGroups(wi, row_jobs);
    }
    std::vector<obs::StatsRegistry::Snapshot> rep_snaps(
        rep_meas.size());
    const std::size_t timing_jobs = tjobs.size();
    const std::size_t total_jobs =
        timing_jobs + (region_grid ? nw : 0);
    if (region_grid)
        for (std::size_t wi = 0; wi < nw; ++wi)
            item_row.push_back(wi);
    const std::size_t items = item_row.size();
    result.timing.resize(nw * nc);
    if (region_grid)
        result.region.resize(nw);
    std::vector<double> item_seconds(items, 0.0);
    // Instructions each work item of a live row streamed.
    std::vector<std::uint64_t> item_streamed(items, 0);

    // Traces are dropped as soon as every work item of their
    // workload is done, bounding peak memory below "all traces live
    // at once" while the grid drains.
    std::vector<std::atomic<std::size_t>> remaining(nw);
    for (std::size_t wi : item_row)
        remaining[wi].fetch_add(1, std::memory_order_relaxed);

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

    runJobs(items, jobs, [&](std::size_t item) {
        Clock::time_point start = Clock::now();
        const bool timing = item < groups.size();
        const std::size_t wi = item_row[item];
        const WorkloadSpec &w = spec.workloads[wi];
        const Prepared &row = prep[wi];

        if (timing) {
            const std::vector<std::size_t> &members = groups[item];
            std::vector<JobRun> runs = runGroup(spec, row, tjobs, members);
            for (std::size_t i = 0; i < members.size(); ++i) {
                const TimingJob &tj = tjobs[members[i]];
                JobRun &run = runs[i];
                item_streamed[item] =
                    std::max<std::uint64_t>(item_streamed[item],
                                            run.delivered);
                if (tj.rep == TimingJob::Exact) {
                    TimingPoint &point = result.timing[tj.wi * nc + tj.ci];
                    point.workload = w.name;
                    point.config = spec.configs[tj.ci].name;
                    point.stats = std::move(run.stats);
                    point.snapshot = std::move(run.snapshot);
                } else if (tj.rep >= 0) {
                    rep_meas[tj.slot] = {run.stats.cycles,
                                         run.stats.instructions};
                    rep_snaps[tj.slot] = std::move(run.snapshot);
                } else {
                    // Verify: the exact flow an unsampled timing
                    // point runs, so the measured error compares the
                    // estimate against the number the sampled run
                    // replaces.
                    verify_meas[tj.slot] = {run.stats.cycles,
                                            run.stats.instructions};
                }
            }
        } else {
            obs::ProfScope prof("sweep/regionstudy",
                                obs::ProfScope::Mode::Absolute);
            // Hinted schemes consult profile hints (§3.5.2) that a
            // training run over the same study window builds first.
            predict::CompilerHints hints;
            if (hinted) {
                InstCount trained = 0;
                hints = predict::profileHints(row.program, w.studyInsts,
                                              &trained);
                prof.addGuestInsts(trained);
            }
            RowReader reader(row);
            obs::Hooks hooks;
            std::unique_ptr<obs::TelemetryScope> tscope;
            if (spec.telemetry) {
                // A streamed, uncapped row cannot know its length up
                // front: total 0 (no ETA).
                std::uint64_t total = w.studyInsts;
                if (!total && row.trace)
                    total = row.trace->size();
                tscope = std::make_unique<obs::TelemetryScope>(
                    spec.telemetry,
                    static_cast<int>(timing_jobs + wi), w.name,
                    "regionstudy", static_cast<int>(TimingJob::Exact),
                    total);
                tscope->start();
                hooks.telemetry = tscope.get();
            }
            RegionPoint point = runRegionPass(
                w.name, *reader.source, spec.schemes, w.studyInsts,
                hinted ? &hints : nullptr, &hooks);
            if (tscope)
                tscope->done(point.instructions, 0);
            prof.addGuestInsts(point.instructions);
            item_streamed[item] = point.instructions;
            result.region[wi] = std::move(point);
        }

        item_seconds[item] = secondsSince(start);
        if (remaining[wi].fetch_sub(1, std::memory_order_acq_rel) == 1)
            prep[wi].trace.reset();
    });

    grid_done.store(true, std::memory_order_release);
    if (watchdog.joinable())
        watchdog.join();

    {
        obs::ProfScope prof_merge("merge");
        for (double s : item_seconds)
            result.serialSecondsEstimate += s;
        // A live row counts what a recording of it would hold: the
        // longest stretch any of its readers streamed.
        std::vector<std::uint64_t> row_streamed(nw, 0);
        for (std::size_t item = 0; item < items; ++item)
            row_streamed[item_row[item]] = std::max(
                row_streamed[item_row[item]], item_streamed[item]);
        for (std::size_t wi = 0; wi < nw; ++wi)
            if (!record_rows)
                result.traceInstructions += row_streamed[wi];
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
              obs::Hooks *hooks)
{
    RegionPoint point;
    point.workload = workload;
    std::uint64_t next = hooks ? hooks->arm(0) : obs::Hooks::kNever;
    profile::RegionProfiler region_profiler;
    profile::WindowProfiler win32(32);
    profile::WindowProfiler win64(64);
    std::vector<std::unique_ptr<predict::RegionPredictor>> predictors;
    predictors.reserve(schemes.size());
    for (const SchemeSpec &scheme : schemes)
        predictors.push_back(std::make_unique<predict::RegionPredictor>(
            scheme.config, hints));
    sim::StepInfo step;
    obs::TelemetryFrame frame;
    while ((!study_insts || point.instructions < study_insts) &&
           source.next(step)) {
        region_profiler.observe(step);
        win32.observe(step);
        win64.observe(step);
        if (step.isMem) {
            const isa::AddrModeHint mode = isa::classifyAddrMode(step.inst);
            for (auto &predictor : predictors)
                predictor->observe(step, mode);
        }
        ++point.instructions;
        if (point.instructions >= next) [[unlikely]] {
            const profile::RegionProfile live = region_profiler.profile();
            frame.insts = point.instructions;
            frame.loads = live.dynamicLoads;
            frame.stores = live.dynamicStores;
            frame.refsData = live.regionRefs[0];
            frame.refsHeap = live.regionRefs[1];
            frame.refsStack = live.regionRefs[2];
            next = hooks->progress(frame);
        }
    }
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
}

} // namespace arl::sweep
