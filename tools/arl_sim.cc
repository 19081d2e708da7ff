/**
 * @file
 * arl_sim — command-line front end to the arl library, playing the
 * role SimpleScalar's sim-* binaries played for the paper.
 *
 *   arl_sim list
 *       Show the twelve SPEC95-substitute workloads.
 *
 *   arl_sim run <workload|file.s> [--scale N] [--max-insts N]
 *       Assemble (for .s files) or build, execute functionally,
 *       print the program output and basic run statistics.
 *
 *   arl_sim profile <workload|file.s> [--scale N] [--max-insts N]
 *       The paper's §3 characterisation: Figure-2 region classes,
 *       Table-2 window statistics, Figure-4 scheme accuracies.
 *
 *   arl_sim predict <workload|file.s> [--entries N] [--context
 *       none|gbh|cid|hybrid] [--gbh-bits N] [--cid-bits N]
 *       [--two-bit] [--hints none|profile|static] [--scale N]
 *       One predictor configuration in detail.
 *
 *   arl_sim time <workload> [--config "(N+M)"] [--l1-lat N]
 *       [--insts N] [--all-configs] [--scale N] [--no-vp] [--no-ff]
 *       [--warmup-window N] [--cpi-stack] [--workload-dir DIR]
 *       [contention flags]
 *       The paper's §4 timing methodology (warmup + timed window),
 *       run as a one-row sweep.  --warmup-window warms
 *       microarchitectural state only from the last N fast-forward
 *       instructions (0 = all), sampled or not.  --cpi-stack
 *       forces per-cycle stall attribution (ooo.cpi_stack.*) on
 *       ideal configs; contended configs always account.  With
 *       --workload-dir the target names a corpus program (by file
 *       stem) instead of a registry workload (no --scale).
 *       --all-configs runs the Figure-8 suite (no --config or
 *       --l1-lat).
 *
 *   arl_sim grade <dir> [--stats-json F] [--stats-csv F]
 *       Conformance-grade a workload corpus: assemble, run, and diff
 *       every `.s` against its sidecar JSON manifest (exit code,
 *       byte-exact output, instruction-count bounds, region-access
 *       fingerprint).  Exit 0 when every program conforms, 1 when
 *       the directory is unusable, 2 when any check fails (precise
 *       diffs on stderr).
 *
 *   arl_sim sweep <workload[,workload...]|all|none> [--jobs N]
 *       [--trace-cache DIR] [--warmup-window N [--seek-ff]]
 *       [--checkpoint-every N]
 *       [--configs fig8|"(N+M),..."|none]
 *       [--schemes fig4|none] [--insts N] [--study-insts N] [--scale N]
 *       [--timing-json F] [--workload-dir DIR]
 *       The parallel sweep engine: run the workload × config (and
 *       × scheme) grid across N worker threads, each row's configs
 *       in lock-step groups over one instruction stream produced
 *       once per group.  --stats-json output is byte-identical for
 *       every --jobs value; wall-clock/speedup metering (plus trace
 *       compression ratio and decode MB/s when a cache is used) goes
 *       to stdout and (optionally) the separate --timing-json file.
 *       --warmup-window N warms only from the last N fast-forward
 *       instructions, which changes results.  --seek-ff, which needs
 *       --warmup-window, then seeks each fast-forward to the nearest
 *       recorded checkpoint instead of replaying the prefix; reports
 *       are byte-identical to the same window without --seek-ff.
 *       --checkpoint-every N (1..16777216; 0 = 65536, the default)
 *       sets the checkpoint cadence, which is also the block size of
 *       the cache's trace files.
 *
 *   arl_sim figure <name|all> [--scale N] [--insts N] [--jobs N]
 *       [--trace-cache DIR]
 *       Reproduce one of the paper's tables and figures, or all of
 *       them: run its grid, print its table and "paper:" footer, and
 *       check its claims (one PASS or FAIL line each; exit 2 on any
 *       FAIL).  --insts is the timing figures' timed window.
 *
 *   arl_sim record <workload|file.s> [--out F] [--block-records N]
 *       [--max-insts N] [--scale N]
 *       Execute functionally and write the dynamic instruction stream
 *       to a trace file (default <target>.trace) in blocks of N
 *       records (1..16777216, default 65536).
 *
 *   arl_sim replay <file.trace> [--seek N]
 *       Run the §3 region and window profilers over a trace file,
 *       starting N records in.  A file that cannot be read, or fails
 *       any of the format's checks, is an input error (exit 2), as is
 *       a path `record` cannot write.
 *
 *   arl_sim monitor <file.jsonl> [--follow] [--refresh-ms N]
 *       [--stall-sec N] [--timeout-sec N]
 *       Render a --telemetry stream as a per-job progress table
 *       (progress bars, aggregate guest-MIPS, ETA, stall-flagged
 *       jobs).  Post-hoc by default; --follow polls the file and
 *       refreshes until the final record, a black-box crash
 *       postamble, or --timeout-sec.
 *
 *   arl_sim validate <file.json>
 *       Validate an emitted JSON document with the in-tree parser:
 *       Chrome traces (a "traceEvents" array — every event needs
 *       ph/pid/tid/ts, "X" events need dur, timestamps must be
 *       non-decreasing), --profile-json phase trees ("kind":
 *       "profile"), obs::Report documents (schema_version + runs),
 *       and telemetry JSONL streams ("telemetry_schema" per line:
 *       per-kind required fields, per-job monotone heartbeats).
 *       Exit 0 when valid, 2 when not.
 *
 * Telemetry flags, accepted by run, time, replay, and sweep:
 *
 *   --telemetry <file>        append JSONL heartbeat records (guest
 *                             insts/cycles, interval IPC, guest-MIPS,
 *                             ETA, access mix, contention deltas,
 *                             peak RSS), one durable write() per
 *                             line; a fatal signal dumps the last
 *                             records as a black-box postamble
 *   --telemetry-interval <N>  heartbeat period in guest instructions
 *                             (default 1000000)
 *   --telemetry-wall-ms <N>   additional wall-clock trigger
 *   --telemetry-stall-sec <N> sweep watchdog threshold (default 30)
 *
 *   arl_sim disasm <file.s>
 *       Assemble and disassemble.
 *
 * Memory-backend contention flags, accepted by time and sweep (all
 * default to 0 = the ideal backend; see DESIGN.md):
 *
 *   --banks <N>          L1/LVC banks (same-cycle same-bank serializes)
 *   --mshrs <N>          outstanding misses per first-level structure
 *   --wb-buffer <N>      writeback buffer entries
 *   --bus-cycles <N>     shared L2/memory bus cycles per line transfer
 *   --tlb-miss-lat <N>   cycles charged per TLB miss
 *
 * Flag parsing is strict: an unknown flag, a malformed or negative
 * numeric value, or a stray positional argument aborts with exit
 * code 1 instead of silently running with defaults.
 *
 * Observability flags, each accepted only where it is honoured (the
 * report sinks on every simulating subcommand, intervals on run,
 * predict and time, the tracers on unsampled time) and an unknown
 * flag anywhere else:
 *
 *   --stats-json <file>   write an obs::Report JSON document
 *   --stats-csv <file>    flat workload,config,stat,value CSV
 *                         ("-" writes either sink to stdout and
 *                         silences every human table/progress line,
 *                         so piped output is machine-clean even
 *                         without --quiet)
 *   --interval <N>        sample all stats every N instructions
 *                         (recorded in the JSON "intervals" section)
 *   --interval-stream <file>  stream sampled rows to a CSV file as
 *                         they are captured instead of holding them
 *                         in memory (needs --interval; the report's
 *                         "intervals" section is then omitted)
 *   --pipetrace <file>    pipeline event trace
 *   --pipetrace-max <N>   cap trace at N events (0 = unlimited)
 *   --chrome-trace <file> Chrome Trace Event timeline
 *   --chrome-trace-max <N> cap at N instruction spans (0 = unlimited)
 *   --quiet               suppress info/warn output AND the human
 *                         tables/headers, so piped --stats-csv -
 *                         output is machine-clean
 *   --log-level <name>    debug | info | warn | quiet
 *
 * Host self-profiling flags, accepted by every subcommand:
 *
 *   --profile             print the host phase tree (wall per phase,
 *                         guest MIPS, peak RSS) at exit
 *   --profile-json <file> write the tree as a "kind": "profile" JSON
 *                         document ("-" = stdout)
 *
 * Every --stats-json/--timing-json document the CLI writes carries a
 * "meta" block (arl version, git SHA, build type, compiler, CPU
 * count, timestamp).  The timestamp honours SOURCE_DATE_EPOCH, so
 * byte-exact rerun comparisons stay possible.
 *
 * Exit codes: 0 success, 1 usage error, 2 input error.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "assembler/assembler.hh"
#include "common/logging.hh"
#include "core/experiment.hh"
#include "corpus/corpus.hh"
#include "figures/figures.hh"
#include "isa/inst.hh"
#include "obs/flight_recorder.hh"
#include "obs/hooks.hh"
#include "obs/json.hh"
#include "obs/profiler.hh"
#include "obs/report.hh"
#include "obs/telemetry.hh"
#include "predict/static_classifier.hh"
#include "sim/simulator.hh"
#include "trace/format_v2.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

using namespace arl;

namespace
{

/** Reject the command line: message to stderr, exit 1. */
[[noreturn]] void
badUsage(const std::string &message)
{
    std::fprintf(stderr, "arl_sim: %s\n", message.c_str());
    std::fprintf(stderr,
                 "run 'arl_sim' without arguments for usage\n");
    std::exit(1);
}

/** Value shape a flag requires. */
enum class FlagKind : std::uint8_t
{
    String,  ///< --name <any value>
    Int,     ///< --name <non-negative integer>
    Bool     ///< --name (no value)
};

/** One entry of a subcommand's accepted-flag table. */
struct FlagSpec
{
    const char *name;
    FlagKind kind;
};

/** Non-empty, all digits, and small enough to never overflow long. */
bool
isNonNegativeInt(const std::string &value)
{
    if (value.empty() || value.size() > 18)
        return false;
    for (char c : value)
        if (c < '0' || c > '9')
            return false;
    return true;
}

/** The report sinks, accepted by every simulating subcommand. */
const std::vector<FlagSpec> kReportFlags = {
    {"stats-json", FlagKind::String}, {"stats-csv", FlagKind::String}};

/** Interval sampling, accepted by run, predict and time. */
const std::vector<FlagSpec> kIntervalFlags = {
    {"interval", FlagKind::Int}, {"interval-stream", FlagKind::String}};

/** The pipeline tracers, accepted by time only. */
const std::vector<FlagSpec> kTracerFlags = {
    {"pipetrace", FlagKind::String}, {"pipetrace-max", FlagKind::Int},
    {"chrome-trace", FlagKind::String}, {"chrome-trace-max", FlagKind::Int}};

/**
 * Strict flag parser for everything after the positionals.
 *
 * Each subcommand declares its own flags and the shared families it
 * honours via parse(); only the logging and profiling flags are
 * accepted everywhere, so no flag is ever silently ignored.  An
 * unknown flag, a missing or malformed value (integer flags demand a
 * non-negative integer), a repeated flag, or a stray positional is a
 * usage error: message + exit 1.  Strictness is deliberate — a typo
 * must never silently run with defaults, and a duplicated flag must
 * never silently drop one of the two values the user thought they
 * set.
 */
class Args
{
  public:
    Args(int argc, char **argv, int first)
    {
        for (int i = first; i < argc; ++i)
            raw_.push_back(argv[i]);
    }

    void
    parse(std::vector<FlagSpec> specs,
          std::initializer_list<const std::vector<FlagSpec> *> families =
              {})
    {
        static const std::vector<FlagSpec> log_specs = {
            {"quiet", FlagKind::Bool},
            {"log-level", FlagKind::String},
            {"profile", FlagKind::Bool},
            {"profile-json", FlagKind::String},
        };
        specs.insert(specs.end(), log_specs.begin(), log_specs.end());
        for (const std::vector<FlagSpec> *family : families)
            specs.insert(specs.end(), family->begin(), family->end());
        auto find = [&](const std::string &name) -> const FlagSpec * {
            for (const FlagSpec &spec : specs)
                if (name == spec.name)
                    return &spec;
            return nullptr;
        };

        for (std::size_t i = 0; i < raw_.size(); ++i) {
            const std::string &token = raw_[i];
            if (token.rfind("--", 0) != 0)
                badUsage("unexpected argument '" + token + "'");
            const FlagSpec *spec = find(token.substr(2));
            if (!spec)
                badUsage("unknown flag '" + token + "'");
            if (spec->kind == FlagKind::Bool) {
                if (has(spec->name))
                    badUsage("duplicate flag '" + token + "'");
                bools_.push_back(spec->name);
                continue;
            }
            if (hasValue(spec->name))
                badUsage("duplicate flag '" + token + "'");
            if (i + 1 >= raw_.size())
                badUsage("flag '" + token + "' needs a value");
            const std::string &value = raw_[++i];
            if (spec->kind == FlagKind::Int &&
                !isNonNegativeInt(value))
                badUsage("invalid value '" + value + "' for " + token +
                         " (expected a non-negative integer)");
            values_.emplace_back(spec->name, value);
        }
    }

    std::string
    flag(const std::string &name, const std::string &fallback) const
    {
        // At most one occurrence exists: parse() rejects duplicates.
        for (const auto &entry : values_)
            if (entry.first == name)
                return entry.second;
        return fallback;
    }

    long
    flagInt(const std::string &name, long fallback) const
    {
        std::string value = flag(name, "");
        return value.empty() ? fallback : std::atol(value.c_str());
    }

    bool
    has(const std::string &name) const
    {
        for (const std::string &flag_name : bools_)
            if (flag_name == name)
                return true;
        return false;
    }

  private:
    bool
    hasValue(const std::string &name) const
    {
        for (const auto &entry : values_)
            if (entry.first == name)
                return true;
        return false;
    }

    std::vector<std::string> raw_;
    std::vector<std::pair<std::string, std::string>> values_;
    std::vector<std::string> bools_;
};

/**
 * Set when a machine-readable sink streams to stdout ("-"): every
 * human table, progress line, and heartbeat then goes to stderr (or
 * is suppressed) so the piped document stays parseable without
 * requiring an explicit --quiet.
 */
bool machineStdout = false;

/** The observability flags shared by every simulating subcommand. */
struct ObsOptions
{
    std::string jsonPath;
    std::string csvPath;
    std::string tracePath;
    std::string chromePath;
    std::uint64_t interval = 0;
    std::uint64_t traceMax = 0;
    std::uint64_t chromeMax = 0;
    /** --interval-stream: incremental CSV sink for the sampler. */
    std::string intervalStreamPath;
    /** --telemetry: heartbeat JSONL sink ("" = disabled). */
    std::string telemetryPath;
    std::uint64_t telemetryInterval = 1'000'000;
    std::uint64_t telemetryWallMs = 0;

    static ObsOptions
    parse(const Args &args)
    {
        ObsOptions opts;
        opts.jsonPath = args.flag("stats-json", "");
        opts.csvPath = args.flag("stats-csv", "");
        opts.tracePath = args.flag("pipetrace", "");
        opts.chromePath = args.flag("chrome-trace", "");
        opts.interval =
            static_cast<std::uint64_t>(args.flagInt("interval", 0));
        opts.traceMax =
            static_cast<std::uint64_t>(args.flagInt("pipetrace-max", 0));
        opts.chromeMax = static_cast<std::uint64_t>(
            args.flagInt("chrome-trace-max", 0));
        opts.intervalStreamPath = args.flag("interval-stream", "");
        if (!opts.intervalStreamPath.empty() && opts.interval == 0)
            badUsage("--interval-stream requires --interval");
        opts.telemetryPath = args.flag("telemetry", "");
        opts.telemetryInterval = static_cast<std::uint64_t>(
            args.flagInt("telemetry-interval", 1'000'000));
        opts.telemetryWallMs = static_cast<std::uint64_t>(
            args.flagInt("telemetry-wall-ms", 0));
        if (opts.telemetryPath.empty()) {
            for (const char *name :
                 {"telemetry-interval", "telemetry-wall-ms",
                  "telemetry-stall-sec"})
                if (!args.flag(name, "").empty())
                    badUsage(std::string("--") + name +
                             " requires --telemetry");
        } else if (opts.telemetryInterval == 0 &&
                   opts.telemetryWallMs == 0) {
            badUsage("--telemetry-interval 0 needs a non-zero "
                     "--telemetry-wall-ms");
        }
        if (opts.jsonPath == "-" || opts.csvPath == "-")
            machineStdout = true;
        return opts;
    }

    bool wantsReport() const
    {
        return !jsonPath.empty() || !csvPath.empty();
    }
};

/** The telemetry flags (accepted by run, time, replay, and sweep). */
const std::vector<FlagSpec> kTelemetryFlags = {
    {"telemetry", FlagKind::String},
    {"telemetry-interval", FlagKind::Int},
    {"telemetry-wall-ms", FlagKind::Int},
};

/**
 * Open the --telemetry channel (when requested), emit its meta
 * record, and arm the flight recorder so a crash dumps the black-box
 * ring into the file.  @return the owning channel pointer (null when
 * telemetry is off); sets @p rc to 2 when the file cannot be opened.
 */
std::unique_ptr<obs::TelemetryChannel>
openTelemetry(const ObsOptions &opts, const char *command, int *rc)
{
    if (opts.telemetryPath.empty())
        return nullptr;
    obs::TelemetryOptions topt;
    topt.intervalInsts = opts.telemetryInterval;
    topt.intervalWallMs = opts.telemetryWallMs;
    std::string error;
    auto channel =
        obs::TelemetryChannel::open(opts.telemetryPath, topt, &error);
    if (!channel) {
        std::fprintf(stderr, "arl_sim: %s\n", error.c_str());
        *rc = 2;
        return nullptr;
    }
    channel->emitMeta("arl_sim", command);
    obs::armFlightRecorder(channel.get());
    return channel;
}

/**
 * Open --interval-stream and attach it to the armed sampler so rows
 * go to disk as they are captured (O(1) memory) instead of into the
 * report's "intervals" section.  Call after Hooks::startSampling();
 * the returned stream must outlive the run.  Sets @p rc to 2 when
 * the file cannot be opened.
 */
std::unique_ptr<std::ofstream>
openIntervalStream(const ObsOptions &opts, obs::Hooks &hooks, int *rc)
{
    if (opts.intervalStreamPath.empty())
        return nullptr;
    auto stream =
        std::make_unique<std::ofstream>(opts.intervalStreamPath);
    if (!stream->is_open()) {
        std::fprintf(stderr,
                     "arl_sim: cannot write interval stream '%s'\n",
                     opts.intervalStreamPath.c_str());
        *rc = 2;
        return nullptr;
    }
    // Attach to the live sampler when one is armed already; either
    // way record the sink so a sampler armed later attaches it too.
    hooks.intervalStream = stream.get();
    if (hooks.sampler)
        hooks.sampler->setStream(stream.get());
    return stream;
}

/**
 * Write the report to every requested sink; 0 on success, 2 on I/O.
 * A path of "-" streams to stdout — combined with --quiet (which
 * silences the human tables) the piped output is machine-clean.
 * Every CLI-emitted report is stamped with host metadata; the
 * timestamp honours SOURCE_DATE_EPOCH so reruns can be compared
 * byte-for-byte (golden files are meta-free: they are generated
 * through SweepResult::toReport() directly, not through here).
 */
int
emitReport(obs::Report &report, const ObsOptions &opts)
{
    report.stampMeta();
    bool ok = true;
    if (!opts.jsonPath.empty()) {
        if (opts.jsonPath == "-")
            report.writeJson(std::cout);
        else
            ok = report.writeJsonFile(opts.jsonPath) && ok;
    }
    if (!opts.csvPath.empty()) {
        if (opts.csvPath == "-")
            report.writeCsv(std::cout);
        else
            ok = report.writeCsvFile(opts.csvPath) && ok;
    }
    return ok ? 0 : 2;
}

/** True when --quiet (or --log-level quiet) asked for machine-clean
 *  stdout, or a "-" sink claimed stdout for machine output: human
 *  tables, headers, and meter lines are suppressed. */
bool
quietOutput()
{
    return logLevel() >= LogLevel::Error || machineStdout;
}

/** Load a target: registered workload name or an assembly file. */
std::shared_ptr<const vm::Program>
loadTarget(const std::string &target, unsigned scale)
{
    if (target.size() > 2 &&
        target.substr(target.size() - 2) == ".s") {
        std::ifstream file(target);
        if (!file) {
            std::fprintf(stderr, "arl_sim: cannot open %s\n",
                         target.c_str());
            std::exit(2);
        }
        std::ostringstream buffer;
        buffer << file.rdbuf();
        auto result = assembler::assemble(buffer.str(), target);
        if (!result.ok()) {
            for (const auto &error : result.errors)
                std::fprintf(stderr, "%s: %s\n", target.c_str(),
                             error.format().c_str());
            std::exit(2);
        }
        return result.program;
    }
    return workloads::buildWorkload(target, scale);
}

int
cmdList()
{
    std::printf("%-15s %-13s %-5s %s\n", "workload", "substitute for",
                "FP", "warmup insts");
    for (const auto &info : workloads::allWorkloads())
        std::printf("%-15s %-13s %-5s %llu\n", info.name.c_str(),
                    info.paperAnalog.c_str(),
                    info.floatingPoint ? "yes" : "no",
                    (unsigned long long)info.warmupInsts);
    return 0;
}

int
cmdRun(const std::string &target, Args &args)
{
    args.parse({{"scale", FlagKind::Int}, {"max-insts", FlagKind::Int}},
               {&kReportFlags, &kIntervalFlags, &kTelemetryFlags});
    ObsOptions opts = ObsOptions::parse(args);
    auto prog = loadTarget(target,
                           static_cast<unsigned>(args.flagInt("scale", 1)));
    sim::Simulator simulator(prog);

    obs::Hooks hooks;
    hooks.intervalEvery = opts.interval;
    simulator.registerStats(hooks.registry, "sim");
    hooks.startSampling();

    int rc = 0;
    auto telemetry = openTelemetry(opts, "run", &rc);
    if (rc)
        return rc;
    auto interval_stream = openIntervalStream(opts, hooks, &rc);
    if (rc)
        return rc;

    InstCount max_insts =
        static_cast<InstCount>(args.flagInt("max-insts", 0));
    std::unique_ptr<obs::TelemetryScope> tscope;
    std::uint64_t tnext = 0;
    if (telemetry) {
        tscope = std::make_unique<obs::TelemetryScope>(
            telemetry.get(), 0, prog->name, "functional", -1,
            max_insts);
        tscope->start();
        tnext = tscope->firstCheckAt(0);
    }
    InstCount executed;
    {
        obs::ProfScope prof("run/execute",
                            obs::ProfScope::Mode::Absolute);
        if (hooks.sampler || tscope) {
            obs::TelemetryFrame frame;
            executed =
                simulator.run(max_insts, [&](const sim::StepInfo &) {
                    std::uint64_t done = simulator.instCount();
                    hooks.tick(done);
                    if (tscope && done >= tnext) {
                        frame.insts = done;
                        tnext = tscope->check(frame);
                    }
                });
        } else {
            executed = simulator.run(max_insts);
        }
        hooks.finishSampling(simulator.instCount());
        prof.addGuestInsts(executed);
    }
    if (tscope) {
        tscope->done(simulator.instCount(), 0);
        telemetry->emitFinal(simulator.instCount());
    }
    if (!quietOutput()) {
        std::printf("program   : %s\n", prog->name.c_str());
        std::printf("executed  : %llu instructions\n",
                    (unsigned long long)executed);
        std::printf("halted    : %s (exit %u)\n",
                    simulator.halted() ? "yes" : "no (limit reached)",
                    simulator.process().exitCode);
        std::printf("output    : %s\n",
                    simulator.process().output.c_str());
        std::printf(
            "heap      : %llu bytes live in %zu blocks\n",
            (unsigned long long)simulator.process().heap.bytesInUse(),
            simulator.process().heap.liveBlocks());
    }

    if (!opts.wantsReport())
        return 0;
    obs::Report report;
    report.command = "run";
    report.runs.push_back(
        obs::RunRecord::fromHooks(prog->name, "functional", hooks));
    return emitReport(report, opts);
}

int
cmdProfile(const std::string &target, Args &args)
{
    args.parse({{"scale", FlagKind::Int}, {"max-insts", FlagKind::Int}},
               {&kReportFlags});
    ObsOptions opts = ObsOptions::parse(args);
    auto prog = loadTarget(target,
                           static_cast<unsigned>(args.flagInt("scale", 1)));
    core::Experiment experiment(
        std::const_pointer_cast<const vm::Program>(prog));
    auto result = experiment.regionStudy(
        core::figure4Schemes(), false,
        static_cast<InstCount>(args.flagInt("max-insts", 0)));

    const char *names[3] = {"data", "heap", "stack"};
    if (!quietOutput()) {
        std::printf("== %s: %llu instructions ==\n",
                    result.workload.c_str(),
                    (unsigned long long)result.instructions);
        std::printf("\nregion classes (Fig 2):\n");
        for (unsigned c = 0; c < profile::NumRegionClasses; ++c) {
            if (result.profile.staticCounts[c] == 0)
                continue;
            std::printf(
                "  %-6s static %6llu   dynamic %12llu\n",
                profile::regionClassName(
                    static_cast<profile::RegionClass>(c)).c_str(),
                (unsigned long long)result.profile.staticCounts[c],
                (unsigned long long)result.profile.dynamicCounts[c]);
        }
        std::printf("\nwindow statistics (Table 2), mean (sd):\n");
        for (unsigned r = 0; r < 3; ++r)
            std::printf(
                "  %-5s W32 %6.2f (%5.2f)   W64 %6.2f (%5.2f)\n",
                names[r], result.window32.mean[r],
                result.window32.stddev[r], result.window64.mean[r],
                result.window64.stddev[r]);
        std::printf("\nprediction schemes (Fig 4):\n");
        for (const auto &[name, report] : result.schemes)
            std::printf("  %-12s %8.4f%%   (ARPT entries %zu)\n",
                        name.c_str(), report.accuracyPct(),
                        report.arptOccupancy);
    }

    if (!opts.wantsReport())
        return 0;
    // The study ran to completion already; expose its results through
    // registry-owned stats so the report shares the common schema.
    obs::Hooks hooks;
    auto &reg = hooks.registry;
    reg.counter("profile.instructions") = result.instructions;
    reg.counter("profile.loads") = result.profile.dynamicLoads;
    reg.counter("profile.stores") = result.profile.dynamicStores;
    for (unsigned r = 0; r < 3; ++r) {
        std::string base = std::string("profile.refs.") + names[r];
        reg.counter(base) = result.profile.regionRefs[r];
        reg.gauge("profile.window32." + std::string(names[r]) +
                  ".mean") = result.window32.mean[r];
        reg.gauge("profile.window64." + std::string(names[r]) +
                  ".mean") = result.window64.mean[r];
    }
    for (const auto &[name, scheme_report] : result.schemes)
        reg.gauge("profile.scheme." + name + ".accuracy_pct") =
            scheme_report.accuracyPct();
    obs::Report report;
    report.command = "profile";
    report.runs.push_back(
        obs::RunRecord::fromHooks(result.workload, "figure4", hooks));
    return emitReport(report, opts);
}

int
cmdPredict(const std::string &target, Args &args)
{
    args.parse({{"entries", FlagKind::Int},
                {"context", FlagKind::String},
                {"gbh-bits", FlagKind::Int},
                {"cid-bits", FlagKind::Int},
                {"two-bit", FlagKind::Bool},
                {"hints", FlagKind::String},
                {"scale", FlagKind::Int}},
               {&kReportFlags, &kIntervalFlags});
    ObsOptions opts = ObsOptions::parse(args);
    unsigned scale = static_cast<unsigned>(args.flagInt("scale", 1));
    auto prog = loadTarget(target, scale);

    predict::RegionPredictorConfig config;
    config.useArpt = true;
    config.arpt.entries =
        static_cast<std::uint32_t>(args.flagInt("entries", 32 * 1024));
    config.arpt.counterBits = args.has("two-bit") ? 2 : 1;
    std::string context = args.flag("context", "hybrid");
    if (context == "none")
        config.arpt.context.kind = predict::ContextKind::None;
    else if (context == "gbh")
        config.arpt.context.kind = predict::ContextKind::Gbh;
    else if (context == "cid")
        config.arpt.context.kind = predict::ContextKind::Cid;
    else if (context == "hybrid")
        config.arpt.context.kind = predict::ContextKind::Hybrid;
    else {
        std::fprintf(stderr, "arl_sim: unknown context '%s'\n",
                     context.c_str());
        return 1;
    }
    config.arpt.context.gbhBits =
        static_cast<unsigned>(args.flagInt("gbh-bits", 8));
    config.arpt.context.cidBits =
        static_cast<unsigned>(args.flagInt("cid-bits", 7));

    std::string hints_kind = args.flag("hints", "none");
    predict::CompilerHints profile_hints;
    std::unique_ptr<predict::StaticClassifier> static_hints;
    const predict::HintSource *hints = nullptr;
    if (hints_kind == "profile") {
        sim::Simulator trainer(prog);
        trainer.run(0, [&](const sim::StepInfo &step) {
            profile_hints.observe(step);
        });
        hints = &profile_hints;
    } else if (hints_kind == "static") {
        static_hints =
            std::make_unique<predict::StaticClassifier>(*prog);
        hints = static_hints.get();
        if (!quietOutput())
            std::printf("static analysis: %zu/%zu memory instructions "
                        "tagged (%.1f%%)\n",
                        static_hints->classifiedInstructions(),
                        static_hints->memInstructions(),
                        static_hints->coveragePct());
    } else if (hints_kind != "none") {
        std::fprintf(stderr, "arl_sim: unknown hints '%s'\n",
                     hints_kind.c_str());
        return 1;
    }
    config.useCompilerHints = hints != nullptr;

    predict::RegionPredictor predictor(config, hints);
    sim::Simulator simulator(prog);

    obs::Hooks hooks;
    hooks.intervalEvery = opts.interval;
    predictor.registerStats(hooks.registry, "predict");
    simulator.registerStats(hooks.registry, "sim");
    hooks.startSampling();
    int rc = 0;
    auto interval_stream = openIntervalStream(opts, hooks, &rc);
    if (rc)
        return rc;

    simulator.run(0, [&](const sim::StepInfo &step) {
        predictor.observe(step);
        hooks.tick(simulator.instCount());
    });
    hooks.finishSampling(simulator.instCount());

    auto report = predictor.report();
    if (!quietOutput()) {
        std::printf("references   : %llu\n",
                    (unsigned long long)report.total);
        std::printf("accuracy     : %.4f%%\n", report.accuracyPct());
        std::printf("by source    : hints %.1f%%  addr-mode %.1f%%  "
                    "ARPT %.1f%%\n", report.hintResolvedPct(),
                    report.addrModeResolvedPct(),
                    report.arptResolvedPct());
        std::printf("ARPT entries : %zu occupied",
                    report.arptOccupancy);
        if (config.arpt.entries)
            std::printf(" of %u (%zu bytes of state)",
                        config.arpt.entries,
                        predictor.arpt().storageBytes());
        std::printf("\n");
    }

    if (!opts.wantsReport())
        return 0;
    obs::Report out;
    out.command = "predict";
    out.runs.push_back(obs::RunRecord::fromHooks(
        prog->name, context + (hints ? "+" + hints_kind : ""), hooks));
    return emitReport(out, opts);
}

/**
 * The v2 block size in flag @p name, or @p fallback when it is
 * absent.  A size above v2::MaxBlockRecords, which no reader accepts,
 * is a usage error, and so is 0 unless @p fallback is 0 too (a flag
 * whose 0 means "the default").
 */
std::uint32_t
blockRecordsFlag(const Args &args, const char *name, std::uint32_t fallback)
{
    const long value = args.flagInt(name, fallback);
    if ((value == 0 && fallback != 0) ||
        value > static_cast<long>(trace::v2::MaxBlockRecords))
        badUsage(std::string("--") + name + " must be " +
                 (fallback ? "1" : "0") + ".." +
                 std::to_string(trace::v2::MaxBlockRecords));
    return static_cast<std::uint32_t>(value);
}

/** The memory-backend contention flags shared by time and sweep. */
const std::vector<FlagSpec> kContentionFlags = {
    {"banks", FlagKind::Int},        {"mshrs", FlagKind::Int},
    {"wb-buffer", FlagKind::Int},    {"bus-cycles", FlagKind::Int},
    {"tlb-miss-lat", FlagKind::Int},
};

ooo::ContentionKnobs
parseContentionKnobs(const Args &args)
{
    ooo::ContentionKnobs knobs;
    knobs.banks = static_cast<unsigned>(args.flagInt("banks", 0));
    knobs.mshrs = static_cast<unsigned>(args.flagInt("mshrs", 0));
    knobs.wbBuffer =
        static_cast<unsigned>(args.flagInt("wb-buffer", 0));
    knobs.busCycles =
        static_cast<unsigned>(args.flagInt("bus-cycles", 0));
    knobs.tlbMissLatency =
        static_cast<unsigned>(args.flagInt("tlb-miss-lat", 0));
    return knobs;
}

/** The phase-sampling flags shared by time and sweep. */
const std::vector<FlagSpec> kSamplingFlags = {
    {"sampling", FlagKind::Bool},
    {"interval-insts", FlagKind::Int},
    {"clusters", FlagKind::Int},
    {"sampling-warmup", FlagKind::Int},
    {"sampling-verify", FlagKind::Bool},
};

/**
 * Fill @p spec's phase-sampling knobs from @p args.
 * @return 0 on success, 1 (message printed) on a bad combination.
 */
int
parseSamplingFlags(const Args &args, sweep::SweepSpec &spec)
{
    spec.sampling = args.has("sampling");
    if (!spec.sampling) {
        for (const char *name :
             {"interval-insts", "clusters", "sampling-warmup"})
            if (!args.flag(name, "").empty()) {
                std::fprintf(stderr,
                             "arl_sim: --%s requires --sampling\n",
                             name);
                return 1;
            }
        if (args.has("sampling-verify")) {
            std::fprintf(stderr, "arl_sim: --sampling-verify "
                                 "requires --sampling\n");
            return 1;
        }
        return 0;
    }
    spec.samplingInterval = static_cast<InstCount>(
        args.flagInt("interval-insts", 10000));
    spec.samplingClusters =
        static_cast<unsigned>(args.flagInt("clusters", 6));
    spec.samplingWarmup = static_cast<InstCount>(
        args.flagInt("sampling-warmup", 5000));
    spec.samplingVerify = args.has("sampling-verify");
    if (spec.samplingInterval == 0) {
        std::fprintf(stderr, "arl_sim: --interval-insts must be "
                             "> 0\n");
        return 1;
    }
    if (spec.samplingClusters == 0) {
        std::fprintf(stderr, "arl_sim: --clusters must be > 0\n");
        return 1;
    }
    return 0;
}

/** Per-point phase-sampling summary table (time and sweep). */
void
printSampledTable(const std::vector<sweep::TimingPoint> &points)
{
    std::printf("%-15s %-12s %3s %6s %7s %7s %8s\n", "workload",
                "config", "k", "cov%", "est+-%", "meas+-%",
                "speedup");
    for (const auto &point : points) {
        const obs::SamplingReport &s = point.sampling;
        if (!s.enabled)
            continue;
        double speedup =
            s.simulatedInsts ? static_cast<double>(s.totalInsts) /
                                   s.simulatedInsts
                             : 0.0;
        char measured[16];
        if (s.measuredErrorPct >= 0.0)
            std::snprintf(measured, sizeof measured, "%7.2f",
                          s.measuredErrorPct);
        else
            std::snprintf(measured, sizeof measured, "%7s", "-");
        std::printf("%-15s %-12s %3llu %5.1f%% %7.2f %s %7.1fx\n",
                    point.workload.c_str(), point.config.c_str(),
                    (unsigned long long)s.clusters, s.coveragePct,
                    s.estErrorPct, measured, speedup);
    }
}

/**
 * Time one workload: a one-row sweep over its (N+M) configs, exact or
 * phase-sampled.  Each exact point gets its own Hooks, so the tracers
 * and the interval sampler see the first config's timed window.
 */
int
cmdTime(const std::string &target, Args &args)
{
    std::vector<FlagSpec> accepted = {
        {"config", FlagKind::String},  {"l1-lat", FlagKind::Int},
        {"insts", FlagKind::Int},      {"all-configs", FlagKind::Bool},
        {"scale", FlagKind::Int},      {"no-vp", FlagKind::Bool},
        {"no-ff", FlagKind::Bool},     {"warmup-window", FlagKind::Int},
        {"verbose", FlagKind::Bool},   {"cpi-stack", FlagKind::Bool},
        {"workload-dir", FlagKind::String},
    };
    args.parse(accepted,
               {&kReportFlags, &kIntervalFlags, &kTracerFlags,
                &kContentionFlags, &kSamplingFlags, &kTelemetryFlags});
    ObsOptions opts = ObsOptions::parse(args);
    std::string workload_dir = args.flag("workload-dir", "");
    if (args.has("all-configs") &&
        (!args.flag("config", "").empty() ||
         !args.flag("l1-lat", "").empty()))
        badUsage("--config and --l1-lat do not apply to --all-configs "
                 "(the Figure-8 suite fixes both)");
    if (!workload_dir.empty() && !args.flag("scale", "").empty())
        badUsage("--scale does not apply to --workload-dir programs");

    sweep::SweepSpec spec;
    if (int rc = parseSamplingFlags(args, spec))
        return rc;
    if (spec.sampling && (!opts.tracePath.empty() ||
                          !opts.chromePath.empty() || opts.interval))
        badUsage("--pipetrace, --chrome-trace and --interval do not "
                 "apply to --sampling runs");

    sweep::WorkloadSpec w;
    w.timed = static_cast<InstCount>(args.flagInt("insts", 400000));
    w.warmupWindow =
        static_cast<InstCount>(args.flagInt("warmup-window", 0));
    if (!workload_dir.empty()) {
        // The target is resolved inside the corpus (by file stem)
        // instead of the compiled-in registry; the manifest supplies
        // the warmup prefix, and assembling it here turns a broken
        // program into a usage error before the sweep starts.
        std::vector<corpus::Entry> entries;
        std::string error;
        if (!corpus::discoverCorpus(workload_dir, entries, &error)) {
            std::fprintf(stderr, "arl_sim: %s\n", error.c_str());
            return 1;
        }
        const corpus::Entry *found = nullptr;
        for (const corpus::Entry &entry : entries)
            if (entry.name == target)
                found = &entry;
        if (!found) {
            std::fprintf(stderr,
                         "arl_sim: no workload '%s' in corpus '%s'\n",
                         target.c_str(), workload_dir.c_str());
            return 1;
        }
        if (!corpus::assembleEntry(*found, &error)) {
            std::fprintf(stderr, "arl_sim: %s\n", error.c_str());
            return 1;
        }
        w.name = found->name;
        w.sourcePath = found->sourcePath;
        w.warmup = found->manifest.warmupInsts;
    } else {
        const auto &info = workloads::workloadByName(target);
        w.name = info.name;
        w.scale = static_cast<unsigned>(args.flagInt("scale", 1));
        w.warmup = info.warmupInsts;
    }
    spec.workloads.push_back(w);

    if (args.has("all-configs")) {
        spec.configs = ooo::MachineConfig::figure8Suite();
    } else {
        std::string config = args.flag("config", "(2+0)");
        unsigned n = 2, m = 0;
        if (std::sscanf(config.c_str(), "(%u+%u)", &n, &m) != 2) {
            std::fprintf(stderr,
                         "arl_sim: bad --config '%s' (want \"(N+M)\")\n",
                         config.c_str());
            return 1;
        }
        spec.configs.push_back(ooo::MachineConfig::nPlusM(
            n, m, static_cast<unsigned>(args.flagInt("l1-lat", 2))));
    }
    ooo::ContentionKnobs knobs = parseContentionKnobs(args);
    for (auto &config : spec.configs) {
        if (args.has("no-vp"))
            config.valuePrediction = false;
        if (args.has("no-ff"))
            config.fastForwarding = false;
        if (args.has("cpi-stack"))
            config.cpiStack = true;
        config.applyContention(knobs);
    }

    int rc = 0;
    auto telemetry = openTelemetry(opts, "time", &rc);
    if (rc)
        return rc;
    spec.telemetry = telemetry.get();

    // Exact points report through their own Hooks; the tracers and
    // the interval stream attach to the first config's only.
    const std::string &first = spec.configs.front().name;
    if (!opts.tracePath.empty() && spec.configs.size() > 1)
        warn("--pipetrace with multiple configs: tracing only '%s'",
             first.c_str());
    if (!opts.chromePath.empty() && spec.configs.size() > 1)
        warn("--chrome-trace with multiple configs: tracing only '%s'",
             first.c_str());
    if (!opts.intervalStreamPath.empty() && spec.configs.size() > 1)
        warn("--interval-stream with multiple configs: streaming "
             "only '%s'", first.c_str());
    std::vector<obs::Hooks> hooks(spec.sampling ? 0
                                                : spec.configs.size());
    std::unique_ptr<std::ofstream> interval_stream;
    if (!hooks.empty()) {
        for (obs::Hooks &h : hooks) {
            h.intervalEvery = opts.interval;
            spec.hooks.push_back(&h);
        }
        if (!opts.tracePath.empty() &&
            !hooks[0].openTrace(opts.tracePath, opts.traceMax))
            return 1;
        if (!opts.chromePath.empty() &&
            !hooks[0].openChromeTrace(opts.chromePath, opts.chromeMax))
            return 1;
        interval_stream = openIntervalStream(opts, hooks[0], &rc);
        if (rc)
            return rc;
    }

    sweep::SweepResult result = sweep::runSweep(spec);

    obs::Report report;
    report.command = "time";
    std::uint64_t total_insts = 0;
    for (std::size_t i = 0; i < result.timing.size(); ++i) {
        const sweep::TimingPoint &point = result.timing[i];
        total_insts += point.stats.instructions;
        if (!hooks.empty()) {
            report.runs.push_back(obs::RunRecord::fromHooks(
                point.workload, point.config, hooks[i]));
            continue;
        }
        obs::RunRecord record;
        record.workload = point.workload;
        record.config = point.config;
        record.stats = point.snapshot;
        record.sampling = point.sampling;
        report.runs.push_back(std::move(record));
    }
    if (!hooks.empty())
        hooks[0].finishChromeTrace(w.name + " " + first);
    if (telemetry)
        telemetry->emitFinal(total_insts);

    if (quietOutput())
        return emitReport(report, opts);
    if (spec.sampling) {
        std::printf("%-12s %12s %6s\n", "config", "cycles(est)", "IPC");
        for (const auto &point : result.timing)
            std::printf("%-12s %12llu %6.2f\n", point.config.c_str(),
                        (unsigned long long)point.stats.cycles,
                        point.stats.ipc());
        printSampledTable(result.timing);
    } else if (args.has("verbose")) {
        for (const auto &point : result.timing)
            std::printf("%s\n", point.stats.dump().c_str());
    } else {
        std::printf("%-12s %10s %6s %8s %8s %8s\n", "config", "cycles",
                    "IPC", "LVAQ%", "regmis", "fwd");
        for (const auto &point : result.timing) {
            const ooo::OooStats &stats = point.stats;
            double mem_ops =
                static_cast<double>(stats.loads + stats.stores);
            std::printf("%-12s %10llu %6.2f %7.1f%% %8llu %8llu\n",
                        stats.configName.c_str(),
                        (unsigned long long)stats.cycles, stats.ipc(),
                        mem_ops ? 100.0 * stats.lvaqSteered / mem_ops
                                : 0.0,
                        (unsigned long long)stats.regionMispredictions,
                        (unsigned long long)stats.forwardedLoads);
        }
    }
    return emitReport(report, opts);
}

int
cmdSweep(const std::string &target, Args &args)
{
    std::vector<FlagSpec> accepted = {
        {"jobs", FlagKind::Int},
        {"trace-cache", FlagKind::String},
        {"seek-ff", FlagKind::Bool},
        {"warmup-window", FlagKind::Int},
        {"checkpoint-every", FlagKind::Int},
        {"configs", FlagKind::String},
        {"schemes", FlagKind::String},
        {"insts", FlagKind::Int},
        {"study-insts", FlagKind::Int},
        {"scale", FlagKind::Int},
        {"timing-json", FlagKind::String},
        {"cpi-stack", FlagKind::Bool},
        {"workload-dir", FlagKind::String},
        {"telemetry-stall-sec", FlagKind::Int},
    };
    args.parse(accepted, {&kReportFlags, &kContentionFlags,
                          &kSamplingFlags, &kTelemetryFlags});
    ObsOptions opts = ObsOptions::parse(args);
    unsigned scale = static_cast<unsigned>(args.flagInt("scale", 1));
    InstCount timed =
        static_cast<InstCount>(args.flagInt("insts", 400000));

    sweep::SweepSpec spec;
    spec.jobs = static_cast<unsigned>(args.flagInt("jobs", 1));
    spec.traceCacheDir = args.flag("trace-cache", "");
    spec.seekFastForward = args.has("seek-ff");
    spec.cpiStack = args.has("cpi-stack");
    if (int rc = parseSamplingFlags(args, spec))
        return rc;
    spec.checkpointEvery = blockRecordsFlag(args, "checkpoint-every", 0);
    // --seek-ff skips only the prefix before a bounded warming
    // window, and the window's size changes the results, so the user
    // chooses it; no window is a usage error, never a silent default.
    auto warmup_window =
        static_cast<InstCount>(args.flagInt("warmup-window", 0));
    if (spec.seekFastForward && warmup_window == 0)
        badUsage("--seek-ff needs --warmup-window N (a bounded warming "
                 "window changes results; pick one per study)");

    ooo::ContentionKnobs knobs = parseContentionKnobs(args);
    std::string configs_spec = args.flag("configs", "fig8");
    if (configs_spec == "fig8") {
        spec.configs = ooo::MachineConfig::figure8Suite();
    } else if (configs_spec != "none") {
        std::stringstream stream(configs_spec);
        std::string item;
        while (std::getline(stream, item, ',')) {
            unsigned n = 0, m = 0;
            if (std::sscanf(item.c_str(), "(%u+%u)", &n, &m) != 2) {
                std::fprintf(stderr,
                             "arl_sim: bad --configs entry '%s' "
                             "(want \"(N+M)\")\n", item.c_str());
                return 1;
            }
            spec.configs.push_back(ooo::MachineConfig::nPlusM(n, m));
        }
    }
    for (auto &config : spec.configs)
        config.applyContention(knobs);
    std::string schemes_spec = args.flag("schemes", "none");
    if (schemes_spec == "fig4") {
        spec.schemes = core::toSweepSchemes(core::figure4Schemes());
    } else if (schemes_spec != "none") {
        std::fprintf(stderr, "arl_sim: unknown --schemes '%s' "
                     "(want fig4 or none)\n", schemes_spec.c_str());
        return 1;
    }
    if (spec.configs.empty() && spec.schemes.empty()) {
        std::fprintf(stderr, "arl_sim: sweep needs --configs and/or "
                     "--schemes\n");
        return 1;
    }

    InstCount study =
        static_cast<InstCount>(args.flagInt("study-insts", 0));
    std::string workload_dir = args.flag("workload-dir", "");
    if (target == "all") {
        spec.workloads = sweep::allWorkloadSpecs(scale, timed);
        for (auto &w : spec.workloads)
            w.studyInsts = study;
    } else if (target == "none") {
        // Corpus-only grid: every workload row comes from
        // --workload-dir.
        if (workload_dir.empty()) {
            std::fprintf(stderr, "arl_sim: sweep target 'none' needs "
                         "--workload-dir\n");
            return 1;
        }
    } else {
        std::stringstream stream(target);
        std::string name;
        while (std::getline(stream, name, ',')) {
            const auto &info = workloads::workloadByName(name);
            sweep::WorkloadSpec w;
            w.name = info.name;
            w.scale = scale;
            w.warmup = info.warmupInsts;
            w.timed = timed;
            w.studyInsts = study;
            spec.workloads.push_back(std::move(w));
        }
    }
    if (!workload_dir.empty()) {
        // Corpus programs join the grid after the registry rows, in
        // filename order, so merged reports stay deterministic.
        std::size_t first_corpus = spec.workloads.size();
        std::string error;
        if (!corpus::corpusWorkloadSpecs(workload_dir, timed,
                                         spec.workloads, &error)) {
            std::fprintf(stderr, "arl_sim: %s\n", error.c_str());
            return 1;
        }
        for (std::size_t i = first_corpus; i < spec.workloads.size();
             ++i)
            spec.workloads[i].studyInsts = study;
    }
    for (auto &w : spec.workloads)
        w.warmupWindow = warmup_window;

    int trc = 0;
    auto telemetry = openTelemetry(opts, "sweep", &trc);
    if (trc)
        return trc;
    spec.telemetry = telemetry.get();
    spec.telemetryStallSec = static_cast<double>(
        args.flagInt("telemetry-stall-sec", 30));

    sweep::SweepResult result = sweep::runSweep(spec);

    if (telemetry) {
        std::uint64_t total = 0;
        for (const auto &point : result.timing)
            total += point.stats.instructions;
        for (const auto &point : result.region)
            total += point.instructions;
        telemetry->emitFinal(total);
    }

    if (!result.timing.empty() && !quietOutput()) {
        std::printf("%-15s %-12s %10s %6s\n", "workload", "config",
                    spec.sampling ? "cycles(est)" : "cycles", "IPC");
        for (const auto &point : result.timing)
            std::printf("%-15s %-12s %10llu %6.2f\n",
                        point.workload.c_str(), point.config.c_str(),
                        (unsigned long long)point.stats.cycles,
                        point.stats.ipc());
        if (spec.sampling)
            printSampledTable(result.timing);
    }
    if (!quietOutput()) {
        for (const auto &point : result.region) {
            std::printf("%-15s %-12s %10llu insts",
                        point.workload.c_str(), "regionstudy",
                        (unsigned long long)point.instructions);
            for (const auto &[name, report] : point.schemes)
                std::printf("  %s %.2f%%", name.c_str(),
                            report.accuracyPct());
            std::printf("\n");
        }
        std::printf("sweep: %zu grid points, %llu traced insts, "
                    "jobs %u, wall %.2fs, est. serial %.2fs, "
                    "speedup %.2fx, cache %llu hit / %llu miss\n",
                    result.timing.size() + result.region.size(),
                    (unsigned long long)result.traceInstructions,
                    result.jobs, result.wallSeconds,
                    result.serialSecondsEstimate, result.speedup(),
                    (unsigned long long)result.traceCacheHits,
                    (unsigned long long)result.traceCacheMisses);
        if (result.traceDiskBytes)
            std::printf("trace cache (v2): %.2f MB on disk, %.2fx "
                        "smaller than 32-byte records%s\n",
                        result.traceDiskBytes / 1e6,
                        result.compressionRatio(),
                        result.traceDecodeSeconds > 0.0 ? ""
                                                        : " (written)");
        if (spec.seekFastForward)
            std::printf("seek-ff: skipped %llu fast-forward records\n",
                        (unsigned long long)result.seekSkippedRecords);
    }

    // Run-varying metering goes to its own file so the --stats-json
    // document stays byte-identical across --jobs values.
    std::string timing_path = args.flag("timing-json", "");
    if (!timing_path.empty()) {
        obs::StatsRegistry registry;
        result.addTimingStats(registry);
        // With --profile active the phase tree rides along, flattened
        // into prof.* stats (the sweep is done; workers are joined).
        if (obs::Profiler::enabled())
            obs::Profiler::instance().report().addStats(registry,
                                                        "prof");
        obs::Report timing_report;
        timing_report.command = "sweep-timing";
        timing_report.stampMeta();
        obs::RunRecord record;
        record.workload = "sweep";
        record.config = "timing";
        record.stats = registry.snapshot();
        timing_report.runs.push_back(std::move(record));
        if (!timing_report.writeJsonFile(timing_path))
            return 2;
    }

    if (!opts.wantsReport())
        return 0;
    obs::Report stats_report = result.toReport("sweep");
    return emitReport(stats_report, opts);
}

/**
 * Reproduce one of the paper's tables or figures (or all of them):
 * run its grid, print its table, and check its claims.  Exit 2 when
 * any claim fails, so a regression in a reproduced result fails CI.
 */
int
cmdFigure(const std::string &target, Args &args)
{
    args.parse({{"scale", FlagKind::Int}, {"insts", FlagKind::Int},
                {"jobs", FlagKind::Int}, {"trace-cache", FlagKind::String}},
               {&kReportFlags});
    ObsOptions opts = ObsOptions::parse(args);
    std::vector<std::string> chosen;
    std::string known;
    for (const std::string &name : figures::names()) {
        known += " " + name;
        if (target == "all" || target == name)
            chosen.push_back(name);
    }
    if (chosen.empty())
        badUsage("unknown figure '" + target + "' (want all or one of:" +
                 known + ")");
    figures::Options fopts;
    fopts.scale = static_cast<unsigned>(args.flagInt("scale", 1));
    fopts.insts = static_cast<InstCount>(args.flagInt("insts", 400000));
    fopts.jobs = static_cast<unsigned>(args.flagInt("jobs", 1));
    fopts.traceCacheDir = args.flag("trace-cache", "");

    obs::Report report;
    report.command = "figure";
    std::size_t claims = 0;
    unsigned failed = 0;
    // Figures that read the same grid run it once.
    figures::GridCache grids;
    for (const std::string &name : chosen) {
        obs::ProfScope prof("figure");
        figures::Outcome outcome = figures::run(name, fopts, grids);
        claims += outcome.verdicts.size();
        failed += outcome.failed;
        if (!quietOutput()) {
            std::printf("%s%s", name == chosen.front() ? "" : "\n",
                        outcome.text.c_str());
            std::fflush(stdout);
        } else {
            for (const std::string &verdict : outcome.verdicts)
                if (verdict.rfind("FAIL", 0) == 0)
                    std::fprintf(stderr, "arl_sim: %s: %s\n",
                                 name.c_str(), verdict.c_str());
        }
        report.runs.insert(report.runs.end(), outcome.runs.begin(),
                           outcome.runs.end());
    }
    if (chosen.size() > 1 && !quietOutput())
        std::printf("\nfigure: %zu figures, %zu claims, %u failed\n",
                    chosen.size(), claims, failed);
    int rc = opts.wantsReport() ? emitReport(report, opts) : 0;
    return failed ? 2 : rc;
}

/**
 * Conformance-grade a corpus directory: assemble, run, and diff every
 * checked-in `.s` program against its sidecar manifest.  Exit 0 when
 * all programs conform, 1 when the directory itself is unusable
 * (missing, no workloads, orphan or mismatched manifests), 2 when any
 * program fails a check — with one precise diff line per failing
 * check on stderr.
 */
int
cmdGrade(const std::string &dir, Args &args)
{
    args.parse({}, {&kReportFlags});
    ObsOptions opts = ObsOptions::parse(args);

    std::vector<corpus::Entry> entries;
    std::string error;
    if (!corpus::discoverCorpus(dir, entries, &error)) {
        std::fprintf(stderr, "arl_sim: %s\n", error.c_str());
        return 1;
    }

    obs::Report report;
    report.command = "grade";
    std::vector<std::string> families;
    unsigned failed = 0;
    if (!quietOutput())
        std::printf("%-20s %-16s %9s %6s %6s %6s  %s\n", "program",
                    "family", "insts", "data%", "heap%", "stack%",
                    "result");
    for (const corpus::Entry &entry : entries) {
        obs::ProfScope prof("grade/program",
                            obs::ProfScope::Mode::Absolute);
        corpus::GradeResult grade = corpus::gradeEntry(entry);
        prof.addGuestInsts(grade.instructions);
        const bool pass = grade.pass();
        failed += !pass;
        if (std::find(families.begin(), families.end(),
                      grade.family) == families.end())
            families.push_back(grade.family);
        if (!quietOutput())
            std::printf("%-20s %-16s %9llu %6.1f %6.1f %6.1f  %s\n",
                        grade.name.c_str(), grade.family.c_str(),
                        (unsigned long long)grade.instructions,
                        grade.regionPct[0], grade.regionPct[1],
                        grade.regionPct[2], pass ? "PASS" : "FAIL");
        if (!pass)
            std::fputs(grade.failureDiff().c_str(), stderr);
        if (opts.wantsReport()) {
            obs::StatsRegistry registry;
            registry.counter("corpus.pass") = pass ? 1 : 0;
            registry.counter("corpus.instructions") =
                grade.instructions;
            registry.counter("corpus.exit_code") =
                static_cast<std::uint64_t>(grade.exitCode);
            registry.counter("corpus.checks") = grade.checks.size();
            std::uint64_t failing = 0;
            for (const corpus::Check &check : grade.checks)
                failing += !check.pass;
            registry.counter("corpus.checks_failed") = failing;
            static const char *names[vm::NumDataRegions] = {
                "data", "heap", "stack"};
            for (unsigned r = 0; r < vm::NumDataRegions; ++r)
                registry.gauge(std::string("corpus.refs_pct.") +
                               names[r]) = grade.regionPct[r];
            obs::RunRecord record;
            record.workload = grade.name;
            record.config = "grade";
            record.stats = registry.snapshot();
            report.runs.push_back(std::move(record));
        }
    }
    if (!quietOutput())
        std::printf("grade: %zu programs across %zu families, "
                    "%u failing\n",
                    entries.size(), families.size(), failed);

    int rc = 0;
    if (opts.wantsReport())
        rc = emitReport(report, opts);
    return failed ? 2 : rc;
}

/** One input failure: message to stderr, exit code 2. */
int
invalid(const std::string &path, const std::string &message)
{
    std::fprintf(stderr, "arl_sim: %s: %s\n", path.c_str(),
                 message.c_str());
    return 2;
}

int
cmdRecord(const std::string &target, Args &args)
{
    args.parse({{"out", FlagKind::String},
                {"block-records", FlagKind::Int},
                {"max-insts", FlagKind::Int},
                {"scale", FlagKind::Int}},
               {&kReportFlags});
    ObsOptions opts = ObsOptions::parse(args);
    std::string out_path = args.flag("out", target + ".trace");
    const std::uint32_t block_records = blockRecordsFlag(
        args, "block-records", trace::DefaultBlockRecords);
    auto prog = loadTarget(target,
                           static_cast<unsigned>(args.flagInt("scale", 1)));
    InstCount n = 0;
    std::uint64_t bytes = 0;
    if (!trace::recordTrace(
            prog, out_path,
            static_cast<InstCount>(args.flagInt("max-insts", 0)),
            block_records, n, bytes))
        return invalid(out_path, "cannot write the trace file");
    if (!quietOutput())
        std::printf("recorded %llu instructions of %s to %s "
                    "(v2, %.1f MB)\n",
                    (unsigned long long)n, prog->name.c_str(),
                    out_path.c_str(), bytes / 1e6);

    if (!opts.wantsReport())
        return 0;
    obs::Hooks hooks;
    hooks.registry.counter("trace.instructions") = n;
    hooks.registry.counter("trace.bytes") = bytes;
    obs::Report report;
    report.command = "record";
    report.runs.push_back(
        obs::RunRecord::fromHooks(prog->name, "record", hooks));
    return emitReport(report, opts);
}

int
cmdReplay(const std::string &trace_path, Args &args)
{
    args.parse({{"seek", FlagKind::Int}},
               {&kReportFlags, &kTelemetryFlags});
    ObsOptions opts = ObsOptions::parse(args);
    trace::TraceReader reader;
    std::string err;
    if (!reader.open(trace_path, err))
        return invalid(trace_path, err);
    auto skip = static_cast<InstCount>(args.flagInt("seek", 0));
    if (skip)
        reader.seek(skip);

    int rc = 0;
    auto telemetry = openTelemetry(opts, "replay", &rc);
    if (rc)
        return rc;
    std::unique_ptr<obs::TelemetryScope> tscope;
    std::uint64_t tnext = 0;
    if (telemetry) {
        // Replay passes have no core: the loop below drives the
        // interval check directly off the record count.
        tscope = std::make_unique<obs::TelemetryScope>(
            telemetry.get(), 0, reader.programName(), "replay", -1,
            0);
        tscope->start();
        tnext = tscope->firstCheckAt(0);
    }

    profile::RegionProfiler profiler;
    profile::WindowProfiler window32(32);
    sim::StepInfo step;
    {
        obs::ProfScope prof("replay");
        obs::TelemetryFrame frame;
        std::uint64_t replayed = 0;
        while (reader.next(step)) {
            profiler.observe(step);
            window32.observe(step);
            if (tscope && ++replayed >= tnext) {
                const auto &live = profiler.profile();
                frame.insts = replayed;
                frame.loads = live.dynamicLoads;
                frame.stores = live.dynamicStores;
                frame.refsData = live.regionRefs[0];
                frame.refsHeap = live.regionRefs[1];
                frame.refsStack = live.regionRefs[2];
                tnext = tscope->check(frame);
            } else if (!tscope) {
                ++replayed;
            }
        }
        prof.addGuestInsts(profiler.profile().totalInstructions);
        if (tscope) {
            tscope->done(replayed, 0);
            telemetry->emitFinal(replayed);
        }
    }
    if (!reader.error().empty())
        return invalid(trace_path, reader.error());
    auto profile = profiler.profile();
    if (!quietOutput()) {
        std::printf("trace      : %s (%s, v2)\n", trace_path.c_str(),
                    reader.programName().c_str());
        std::printf("instructions: %llu (loads %llu, stores %llu)\n",
                    (unsigned long long)profile.totalInstructions,
                    (unsigned long long)profile.dynamicLoads,
                    (unsigned long long)profile.dynamicStores);
        std::printf(
            "refs by region: data %llu, heap %llu, stack %llu\n",
            (unsigned long long)profile.regionRefs[0],
            (unsigned long long)profile.regionRefs[1],
            (unsigned long long)profile.regionRefs[2]);
        auto stats = window32.stats_summary();
        std::printf("window32   : D %.2f (%.2f)  H %.2f (%.2f)  "
                    "S %.2f (%.2f)\n", stats.mean[0], stats.stddev[0],
                    stats.mean[1], stats.stddev[1], stats.mean[2],
                    stats.stddev[2]);
    }

    if (!opts.wantsReport())
        return 0;
    obs::Hooks hooks;
    auto &reg = hooks.registry;
    reg.counter("profile.instructions") = profile.totalInstructions;
    reg.counter("profile.loads") = profile.dynamicLoads;
    reg.counter("profile.stores") = profile.dynamicStores;
    const char *names[3] = {"data", "heap", "stack"};
    for (unsigned r = 0; r < 3; ++r)
        reg.counter(std::string("profile.refs.") + names[r]) =
            profile.regionRefs[r];
    obs::Report report;
    report.command = "replay";
    report.runs.push_back(obs::RunRecord::fromHooks(
        reader.programName(), "replay", hooks));
    return emitReport(report, opts);
}

/** Numeric field helper for telemetry-line parsing. */
double
numField(const obs::JsonValue &v, const char *key, double fallback = 0.0)
{
    const obs::JsonValue *field = v.find(key);
    return field && field->isNumber() ? field->number : fallback;
}

/** String field helper for telemetry-line parsing. */
std::string
strField(const obs::JsonValue &v, const char *key)
{
    const obs::JsonValue *field = v.find(key);
    return field && field->isString() ? field->string : std::string();
}

/** The monitor's view of one telemetry job. */
struct MonitorJob
{
    std::string workload;
    std::string config;
    int rep = -1;
    std::uint64_t totalInsts = 0;
    std::uint64_t insts = 0;
    double mips = 0.0;
    double etaS = -1.0;
    /** Producer-clock timestamp of the job's last record. */
    std::uint64_t lastWallMs = 0;
    std::uint64_t stallEvents = 0;
    bool running = false;
    bool done = false;
    bool stalled = false;
};

/** Everything a telemetry JSONL file says about the run so far. */
struct MonitorState
{
    std::string tool = "?";
    std::string command = "?";
    std::map<int, MonitorJob> jobs;
    /** Max producer-clock timestamp across all records. */
    std::uint64_t lastWallMs = 0;
    std::uint64_t heartbeats = 0;
    std::uint64_t records = 0;
    std::uint64_t stallEvents = 0;
    bool sawFinal = false;
    std::uint64_t finalInsts = 0;
    bool sawBlackbox = false;
    std::uint64_t blackboxSignal = 0;
};

/**
 * Fold a telemetry JSONL stream into per-job state.  Unparseable
 * lines are skipped (a live file's last line may be mid-write).  A
 * job counts as stalled when the producer's watchdog said so (stall
 * record not yet followed by a heartbeat) or when it is running but
 * its last record is more than @p stallMs behind the stream's newest
 * timestamp — the latter works post-hoc and live alike because other
 * jobs' records keep advancing the stream clock.
 */
MonitorState
parseTelemetryStream(const std::string &content, std::uint64_t stallMs)
{
    MonitorState state;
    std::istringstream in(content);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        obs::JsonValue v;
        std::string error;
        if (!obs::jsonParse(line, v, &error) || !v.isObject())
            continue;
        std::string kind = strField(v, "kind");
        auto wall = static_cast<std::uint64_t>(numField(v, "wall_ms"));
        if (wall > state.lastWallMs)
            state.lastWallMs = wall;
        ++state.records;
        if (kind == "meta") {
            state.tool = strField(v, "tool");
            state.command = strField(v, "command");
        } else if (kind == "job") {
            auto job = static_cast<int>(numField(v, "job", -1));
            MonitorJob &j = state.jobs[job];
            j.workload = strField(v, "workload");
            j.config = strField(v, "config");
            j.rep = static_cast<int>(numField(v, "rep", -1));
            j.lastWallMs = wall;
            j.stalled = false;
            if (strField(v, "event") == "start") {
                j.totalInsts =
                    static_cast<std::uint64_t>(numField(v, "total_insts"));
                j.running = true;
                j.done = false;
            } else {
                j.insts = static_cast<std::uint64_t>(numField(v, "insts"));
                j.running = false;
                j.done = true;
            }
        } else if (kind == "hb") {
            auto job = static_cast<int>(numField(v, "job", -1));
            MonitorJob &j = state.jobs[job];
            ++state.heartbeats;
            j.insts = static_cast<std::uint64_t>(numField(v, "insts"));
            j.totalInsts = static_cast<std::uint64_t>(numField(
                v, "total_insts", static_cast<double>(j.totalInsts)));
            j.mips = numField(v, "mips");
            j.etaS = numField(v, "eta_s", -1.0);
            j.rep = static_cast<int>(numField(v, "rep", -1));
            j.lastWallMs = wall;
            j.stalled = false;
            if (j.workload.empty())
                j.workload = strField(v, "workload");
            if (j.config.empty())
                j.config = strField(v, "config");
            if (!j.done)
                j.running = true;
        } else if (kind == "stall") {
            auto job = static_cast<int>(numField(v, "job", -1));
            MonitorJob &j = state.jobs[job];
            ++j.stallEvents;
            ++state.stallEvents;
            j.stalled = true;
        } else if (kind == "final") {
            state.sawFinal = true;
            state.finalInsts =
                static_cast<std::uint64_t>(numField(v, "insts"));
        } else if (kind == "blackbox") {
            state.sawBlackbox = true;
            state.blackboxSignal =
                static_cast<std::uint64_t>(numField(v, "signal"));
        }
    }
    if (stallMs)
        for (auto &[id, j] : state.jobs)
            if (j.running && j.lastWallMs + stallMs < state.lastWallMs)
                j.stalled = true;
    return state;
}

/** One refresh of the monitor's progress table. */
void
renderMonitor(const MonitorState &state)
{
    std::size_t running = 0, done = 0, stalled = 0;
    double mips = 0.0, eta = -1.0;
    for (const auto &[id, j] : state.jobs) {
        running += j.running;
        done += j.done;
        stalled += j.stalled;
        if (j.running && !j.stalled) {
            mips += j.mips;
            if (j.etaS > eta)
                eta = j.etaS;
        }
    }
    std::printf("monitor: %s %s | %zu jobs: %zu running, %zu done, "
                "%zu stalled | %.2f MIPS",
                state.tool.c_str(), state.command.c_str(),
                state.jobs.size(), running, done, stalled, mips);
    if (eta >= 0.0)
        std::printf(" | eta %.0fs", eta);
    std::printf(" | t=%.1fs\n", state.lastWallMs / 1000.0);
    for (const auto &[id, j] : state.jobs) {
        double frac = 0.0;
        if (j.totalInsts)
            frac = static_cast<double>(j.insts) / j.totalInsts;
        if (j.done || frac > 1.0)
            frac = 1.0;
        char bar[21];
        int fill = static_cast<int>(frac * 20.0 + 0.5);
        for (int i = 0; i < 20; ++i)
            bar[i] = i < fill ? '#' : '-';
        bar[20] = '\0';
        const char *status = j.stalled  ? "STALL"
                             : j.done    ? "DONE "
                             : j.running ? "RUN  "
                                         : "WAIT ";
        std::string config = j.config;
        if (j.rep >= 0) {
            config += '#';
            config += std::to_string(j.rep);
        }
        std::printf("  job %3d %s [%s]", id, status, bar);
        if (j.totalInsts)
            std::printf(" %5.1f%%", 100.0 * frac);
        else
            std::printf(" %6s", "-");
        std::printf("  %-15s %-14s %10llu", j.workload.c_str(),
                    config.c_str(), (unsigned long long)j.insts);
        if (j.totalInsts)
            std::printf("/%llu", (unsigned long long)j.totalInsts);
        std::printf(" insts");
        if (j.mips > 0.0 && j.running)
            std::printf("  %.2f MIPS", j.mips);
        if (j.etaS >= 0.0 && j.running && !j.stalled)
            std::printf("  eta %.0fs", j.etaS);
        std::printf("\n");
    }
    if (state.stallEvents)
        std::printf("  stall events: %llu\n",
                    (unsigned long long)state.stallEvents);
    if (state.sawBlackbox)
        std::printf("  black box: crash postamble present (signal "
                    "%llu)\n",
                    (unsigned long long)state.blackboxSignal);
    if (state.sawFinal)
        std::printf("  final: %llu guest insts, %llu records\n",
                    (unsigned long long)state.finalInsts,
                    (unsigned long long)state.records);
}

/**
 * Tail a telemetry JSONL file as a refreshing progress table.
 * Post-hoc by default (one render); --follow polls until the final
 * record, a black-box postamble, or --timeout-sec.
 */
int
cmdMonitor(const std::string &path, Args &args)
{
    args.parse({{"follow", FlagKind::Bool},
                {"refresh-ms", FlagKind::Int},
                {"stall-sec", FlagKind::Int},
                {"timeout-sec", FlagKind::Int}});
    const bool follow = args.has("follow");
    long refresh_ms = args.flagInt("refresh-ms", 500);
    if (refresh_ms <= 0)
        refresh_ms = 1;
    const auto stall_ms =
        static_cast<std::uint64_t>(args.flagInt("stall-sec", 10)) * 1000;
    const long timeout_sec = args.flagInt("timeout-sec", 0);

    auto read_file = [&](std::string &out) -> bool {
        std::ifstream file(path, std::ios::binary);
        if (!file)
            return false;
        std::ostringstream buffer;
        buffer << file.rdbuf();
        out = buffer.str();
        return true;
    };

    const auto start = std::chrono::steady_clock::now();
    bool rendered = false;
    for (;;) {
        std::string content;
        if (read_file(content)) {
            MonitorState state =
                parseTelemetryStream(content, stall_ms);
            if (rendered)
                std::printf("\n");
            renderMonitor(state);
            std::fflush(stdout);
            rendered = true;
            if (!follow || state.sawFinal || state.sawBlackbox)
                return 0;
        } else if (!follow) {
            return invalid(path, "cannot open");
        }
        const double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (timeout_sec && elapsed >= static_cast<double>(timeout_sec)) {
            if (!rendered)
                return invalid(path, "cannot open");
            if (!quietOutput())
                std::printf("monitor: timeout after %lds\n",
                            timeout_sec);
            return 0;
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(refresh_ms));
    }
}

/**
 * Validate a Chrome Trace Event document: "traceEvents" must be an
 * array of objects each carrying ph/pid/tid/ts (and dur for complete
 * "X" events), with timestamps non-decreasing — the order finish()
 * guarantees and viewers rely on.
 */
int
validateChromeTrace(const std::string &path, const obs::JsonValue &doc)
{
    const obs::JsonValue *events = doc.find("traceEvents");
    if (!events || !events->isArray())
        return invalid(path, "\"traceEvents\" is not an array");
    double last_ts = 0.0;
    bool have_ts = false;
    std::size_t spans = 0, counters = 0;
    for (std::size_t i = 0; i < events->array.size(); ++i) {
        const obs::JsonValue &ev = events->array[i];
        const std::string at = "event " + std::to_string(i);
        if (!ev.isObject())
            return invalid(path, at + " is not an object");
        const obs::JsonValue *ph = ev.find("ph");
        if (!ph || !ph->isString() || ph->string.size() != 1)
            return invalid(path, at + ": bad or missing \"ph\"");
        for (const char *key : {"pid", "tid", "ts"}) {
            const obs::JsonValue *field = ev.find(key);
            if (!field || !field->isNumber())
                return invalid(path, at + ": bad or missing \"" +
                                         key + "\"");
        }
        const obs::JsonValue *name = ev.find("name");
        if (!name || !name->isString())
            return invalid(path, at + ": bad or missing \"name\"");
        const double ts = ev.find("ts")->number;
        if (have_ts && ts < last_ts)
            return invalid(path, at + ": timestamps not sorted");
        last_ts = ts;
        have_ts = true;
        if (ph->string == "X") {
            const obs::JsonValue *dur = ev.find("dur");
            if (!dur || !dur->isNumber())
                return invalid(path,
                               at + ": \"X\" event without \"dur\"");
            ++spans;
        } else if (ph->string == "C") {
            ++counters;
        }
    }
    if (!quietOutput())
        std::printf("%s: valid Chrome trace (%zu events: %zu spans, "
                    "%zu counter samples)\n", path.c_str(),
                    events->array.size(), spans, counters);
    return 0;
}

/**
 * Validate one run's "sampling" section: the numeric summary fields
 * and a non-empty representatives array whose length matches the
 * reported cluster count.  @return "" when valid, else the problem.
 */
std::string
checkSamplingSection(const obs::JsonValue &section)
{
    if (!section.isObject())
        return "\"sampling\" is not an object";
    for (const char *key :
         {"interval_insts", "clusters", "clusters_requested",
          "intervals", "total_insts", "simulated_insts",
          "coverage_pct", "est_cpi", "est_error_pct"}) {
        const obs::JsonValue *field = section.find(key);
        if (!field || !field->isNumber())
            return std::string("sampling: bad or missing \"") + key +
                   "\"";
    }
    const obs::JsonValue *reps = section.find("representatives");
    if (!reps || !reps->isArray())
        return "sampling: \"representatives\" is not an array";
    if (reps->array.empty())
        return "sampling: no representatives";
    if (section.find("clusters")->number !=
        static_cast<double>(reps->array.size()))
        return "sampling: \"clusters\" disagrees with the "
               "representatives array";
    for (std::size_t r = 0; r < reps->array.size(); ++r) {
        const obs::JsonValue &rep = reps->array[r];
        if (!rep.isObject())
            return "sampling: representative " + std::to_string(r) +
                   " is not an object";
        for (const char *key : {"cluster", "start", "length",
                                "warmup", "weight", "cycles", "cpi"}) {
            const obs::JsonValue *field = rep.find(key);
            if (!field || !field->isNumber())
                return "sampling: representative " +
                       std::to_string(r) + ": bad or missing \"" +
                       key + "\"";
        }
    }
    return "";
}

/** Validate an obs::Report document (schema_version + runs array). */
int
validateReport(const std::string &path, const obs::JsonValue &doc)
{
    const obs::JsonValue *runs = doc.find("runs");
    if (!runs || !runs->isArray())
        return invalid(path, "\"runs\" is not an array");
    std::size_t sampled = 0;
    for (std::size_t i = 0; i < runs->array.size(); ++i) {
        const obs::JsonValue &run = runs->array[i];
        const std::string at = "run " + std::to_string(i);
        if (!run.isObject())
            return invalid(path, at + " is not an object");
        for (const char *key : {"workload", "config"}) {
            const obs::JsonValue *field = run.find(key);
            if (!field || !field->isString())
                return invalid(path, at + ": bad or missing \"" +
                                         key + "\"");
        }
        const obs::JsonValue *stats = run.find("stats");
        if (!stats || !stats->isObject())
            return invalid(path, at + ": bad or missing \"stats\"");
        if (const obs::JsonValue *section = run.find("sampling")) {
            std::string problem = checkSamplingSection(*section);
            if (!problem.empty())
                return invalid(path, at + ": " + problem);
            ++sampled;
        }
    }
    if (!quietOutput()) {
        if (sampled)
            std::printf("%s: valid report (%zu runs, %zu sampled)\n",
                        path.c_str(), runs->array.size(), sampled);
        else
            std::printf("%s: valid report (%zu runs)\n", path.c_str(),
                        runs->array.size());
    }
    return 0;
}

/** Validate a --profile-json phase-tree document. */
int
validateProfile(const std::string &path, const obs::JsonValue &doc)
{
    std::string error;
    if (!obs::validateProfileDoc(doc, &error))
        return invalid(path, error);
    if (!quietOutput())
        std::printf("%s: valid profile document\n", path.c_str());
    return 0;
}

/**
 * Validate a telemetry JSONL stream line by line: every line must
 * parse as an object stamped with the telemetry schema and a known
 * kind carrying its required fields; each job's heartbeat sequence
 * numbers and cumulative instruction counts must be monotone
 * (re-based at every job start).  Lines after a black-box postamble
 * header are ring replays of earlier records and are parse-checked
 * only.
 */
int
validateTelemetry(const std::string &path, const std::string &content)
{
    std::istringstream in(content);
    std::string line;
    std::size_t lineno = 0, records = 0, heartbeats = 0;
    std::size_t stalls = 0, blackboxes = 0, finals = 0;
    std::map<int, std::uint64_t> job_insts;
    std::map<int, std::uint64_t> job_seq;
    bool in_blackbox = false;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue; // the black-box dump's partial-line guard
        const std::string at = "line " + std::to_string(lineno);
        obs::JsonValue v;
        std::string error;
        if (!obs::jsonParse(line, v, &error))
            return invalid(path, at + ": " + error);
        if (!v.isObject())
            return invalid(path, at + " is not an object");
        const obs::JsonValue *schema = v.find("telemetry_schema");
        if (!schema || !schema->isNumber() ||
            schema->number !=
                static_cast<double>(obs::kTelemetrySchema))
            return invalid(path,
                           at + ": bad or missing "
                                "\"telemetry_schema\"");
        const obs::JsonValue *kind = v.find("kind");
        if (!kind || !kind->isString())
            return invalid(path, at + ": bad or missing \"kind\"");
        ++records;
        const std::string &k = kind->string;
        auto needNum = [&](std::initializer_list<const char *> keys)
            -> std::string {
            for (const char *key : keys) {
                const obs::JsonValue *field = v.find(key);
                if (!field || !field->isNumber())
                    return at + ": \"" + k +
                           "\" record without numeric \"" + key + "\"";
            }
            return "";
        };
        std::string problem;
        if (k == "meta") {
            problem = needNum({"pid", "interval_insts",
                               "interval_wall_ms", "ring", "wall_ms"});
        } else if (k == "job") {
            const obs::JsonValue *event = v.find("event");
            if (!event || !event->isString() ||
                (event->string != "start" && event->string != "done"))
                return invalid(
                    path, at + ": \"job\" record without a "
                               "start/done \"event\"");
            problem = needNum({"job", "wall_ms"});
            if (problem.empty() && !in_blackbox &&
                event->string == "start") {
                auto job =
                    static_cast<int>(v.find("job")->number);
                // New job epoch: heartbeat monotonicity re-bases.
                job_insts[job] = 0;
                job_seq[job] = 0;
            }
        } else if (k == "hb") {
            ++heartbeats;
            problem = needNum({"seq", "job", "wall_ms", "insts",
                               "cycles", "total_insts", "d_insts",
                               "d_cycles", "ipc", "mips", "eta_s",
                               "d_loads", "d_stores", "d_refs_data",
                               "d_refs_heap", "d_refs_stack",
                               "d_lvaq", "d_contention", "rss_kb"});
            if (problem.empty() && !in_blackbox) {
                auto job = static_cast<int>(v.find("job")->number);
                auto insts = static_cast<std::uint64_t>(
                    v.find("insts")->number);
                auto seq = static_cast<std::uint64_t>(
                    v.find("seq")->number);
                if (insts < job_insts[job])
                    return invalid(
                        path, at + ": job " + std::to_string(job) +
                                  " instruction count went backwards");
                if (seq <= job_seq[job])
                    return invalid(
                        path, at + ": job " + std::to_string(job) +
                                  " heartbeat \"seq\" not increasing");
                job_insts[job] = insts;
                job_seq[job] = seq;
            }
        } else if (k == "stall") {
            ++stalls;
            problem = needNum({"job", "idle_ms", "wall_ms"});
        } else if (k == "final") {
            ++finals;
            problem =
                needNum({"insts", "records", "bytes", "wall_ms"});
        } else if (k == "blackbox") {
            ++blackboxes;
            problem = needNum({"signal", "lines"});
            in_blackbox = true;
        } else {
            return invalid(path,
                           at + ": unknown telemetry kind \"" + k +
                               "\"");
        }
        if (!problem.empty())
            return invalid(path, problem);
    }
    if (records == 0)
        return invalid(path, "no telemetry records");
    if (!quietOutput()) {
        std::printf("%s: valid telemetry stream (%zu records: %zu "
                    "heartbeats, %zu jobs, %zu stalls%s%s)\n",
                    path.c_str(), records, heartbeats,
                    job_insts.size(), stalls,
                    finals ? ", final" : "",
                    blackboxes ? ", black box" : "");
    }
    return 0;
}

int
cmdValidate(const std::string &path, Args &args)
{
    args.parse({});
    std::ifstream file(path);
    if (!file)
        return invalid(path, "cannot open");
    std::ostringstream buffer;
    buffer << file.rdbuf();

    // Telemetry files are JSONL, not one document: sniff the first
    // non-empty line before attempting a whole-file parse.
    {
        std::istringstream sniff_stream(buffer.str());
        std::string first;
        while (std::getline(sniff_stream, first) && first.empty()) {
        }
        obs::JsonValue head;
        if (!first.empty() && obs::jsonParse(first, head, nullptr) &&
            head.isObject() && head.find("telemetry_schema"))
            return validateTelemetry(path, buffer.str());
    }

    obs::JsonValue doc;
    std::string error;
    if (!obs::jsonParse(buffer.str(), doc, &error))
        return invalid(path, error);
    if (!doc.isObject())
        return invalid(path, "top-level value is not an object");
    if (doc.find("traceEvents"))
        return validateChromeTrace(path, doc);
    if (const obs::JsonValue *kind = doc.find("kind");
        kind && kind->isString() && kind->string == "profile")
        return validateProfile(path, doc);
    if (doc.find("schema_version"))
        return validateReport(path, doc);
    return invalid(path,
                   "not a Chrome trace (\"traceEvents\"), profile "
                   "(\"kind\"), telemetry JSONL (\"telemetry_schema\"), "
                   "or obs::Report (\"schema_version\")");
}

int
cmdDisasm(const std::string &target, Args &args)
{
    args.parse({});
    auto prog = loadTarget(target, 1);
    for (std::size_t i = 0; i < prog->text.size(); ++i) {
        Addr pc = prog->textBase + static_cast<Addr>(i * 4);
        isa::DecodedInst inst;
        isa::decode(prog->text[i], inst);
        // Annotate labels from the symbol table.
        for (const auto &[name, addr] : prog->symbols)
            if (addr == pc)
                std::printf("%s:\n", name.c_str());
        std::printf("  0x%08x  %08x  %s\n", pc, prog->text[i],
                    isa::disassemble(inst, pc).c_str());
    }
    return 0;
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: arl_sim <command> [target] [flags]\n"
        "  list                         show workloads\n"
        "  run <target>                 execute functionally\n"
        "  profile <target>             §3 characterisation\n"
        "  predict <target> [flags]     one predictor config\n"
        "  time <workload> [flags]      §4 timing study\n"
        "  sweep <w[,w...]|all|none> [flags] parallel experiment sweep\n"
        "    [--jobs N] [--trace-cache DIR] [--configs fig8|\"(N+M),..\"]\n"
        "    [--schemes fig4] [--insts N] [--study-insts N]\n"
        "    [--warmup-window N [--seek-ff]]\n"
        "    [--checkpoint-every N] [--timing-json F]\n"
        "    [--workload-dir DIR]  add corpus .s programs as workload\n"
        "                          rows (target 'none' = corpus only)\n"
        "  figure <name|all> [--scale N] [--insts N] [--jobs N]\n"
        "    [--trace-cache DIR]        a paper table/figure and its\n"
        "                               checked claims (exit 2 on FAIL)\n"
        "  grade <dir>                  conformance-grade a corpus dir\n"
        "    assemble + run every .s against its sidecar manifest;\n"
        "    exit 0 all pass, 1 unusable dir, 2 conformance failures\n"
        "  record <target> [--out F]    record a binary trace\n"
        "    [--block-records N] [--max-insts N] [--scale N]\n"
        "  replay <file.trace> [--seek N]  profile from a trace\n"
        "  monitor <file.jsonl>         render a --telemetry stream as\n"
        "    [--follow] [--refresh-ms N]  a progress table (live with\n"
        "    [--stall-sec N]              --follow; stops on the final\n"
        "    [--timeout-sec N]            record or the timeout)\n"
        "  validate <file.json>         check a Chrome trace, report,\n"
        "                               profile doc, or telemetry\n"
        "                               JSONL stream\n"
        "  disasm <file.s|workload>     disassemble\n"
        "targets: a registered workload name or an .s assembly file\n"
        "contention (time and sweep; 0 = ideal backend):\n"
        "  --banks N   --mshrs N   --wb-buffer N   --bus-cycles N\n"
        "  --tlb-miss-lat N\n"
        "cycle accounting (time and sweep):\n"
        "  --cpi-stack   force ooo.cpi_stack.* / load-to-use histogram\n"
        "                on ideal configs (contended always account)\n"
        "phase sampling (time and sweep):\n"
        "  --sampling                cluster trace intervals, simulate\n"
        "                            one representative per phase,\n"
        "                            extrapolate whole-run CPI\n"
        "  --interval-insts N        interval length (default 10000)\n"
        "  --clusters K              phase count k (default 6)\n"
        "  --sampling-warmup N       warmup before each representative\n"
        "                            window (default 5000)\n"
        "  --sampling-verify         also run the full population and\n"
        "                            report the measured CPI error\n"
        "reports (any simulating command; F = \"-\" for stdout):\n"
        "  --stats-json F   --stats-csv F\n"
        "interval sampling (run, predict, time):\n"
        "  --interval N   --interval-stream F   stream sampled rows as\n"
        "                 CSV (needs --interval; O(1) sampler memory)\n"
        "pipeline tracing (time only):\n"
        "  --pipetrace F [--pipetrace-max N]\n"
        "  --chrome-trace F [--chrome-trace-max N]\n"
        "logging (any command):\n"
        "  --quiet   --log-level debug|info|warn|quiet\n"
        "telemetry (run, time, replay, sweep):\n"
        "  --telemetry F             append heartbeat JSONL records\n"
        "                            (crash-safe; 'monitor' tails it)\n"
        "  --telemetry-interval N    heartbeat period in guest insts\n"
        "                            (default 1000000)\n"
        "  --telemetry-wall-ms N     also beat every N wall-clock ms\n"
        "  --telemetry-stall-sec N   sweep watchdog threshold\n"
        "                            (default 30, 0 = off)\n"
        "host self-profiling (any command):\n"
        "  --profile            print the host phase tree at exit\n"
        "  --profile-json F     write it as JSON (\"-\" = stdout)\n");
}

/**
 * Pre-scan --profile / --profile-json and arm the profiler before
 * dispatch so subcommand code sees Profiler::enabled() from the
 * first scope.  Returns the --profile-json path ("" = none).
 */
std::string
applyProfileFlags(int argc, char **argv)
{
    std::string json_path;
    bool enable = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--profile") == 0) {
            enable = true;
        } else if (std::strcmp(argv[i], "--profile-json") == 0 &&
                   i + 1 < argc) {
            json_path = argv[i + 1];
            enable = true;
        }
    }
    if (enable)
        obs::Profiler::instance().enable();
    return json_path;
}

/** End-of-command profile sinks: human tree + optional JSON file. */
int
finishProfile(const std::string &json_path, int rc)
{
    if (!obs::Profiler::enabled())
        return rc;
    obs::Profiler::Report report = obs::Profiler::instance().report();
    obs::Profiler::instance().disable();
    if (!quietOutput())
        std::fputs(report.render().c_str(), stdout);
    if (!json_path.empty()) {
        if (json_path == "-") {
            report.writeJson(std::cout, "arl_sim");
        } else {
            std::ofstream os(json_path);
            if (!os.is_open()) {
                warn("cannot write profile file '%s'",
                     json_path.c_str());
                return rc ? rc : 2;
            }
            report.writeJson(os, "arl_sim");
        }
    }
    return rc;
}

/** Apply --quiet / --log-level before dispatching the subcommand. */
void
applyLogFlags(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quiet") == 0) {
            setLogLevel(LogLevel::Error);
        } else if (std::strcmp(argv[i], "--log-level") == 0 &&
                   i + 1 < argc) {
            LogLevel level = LogLevel::Info;
            if (!parseLogLevel(argv[i + 1], level)) {
                std::fprintf(stderr,
                             "arl_sim: unknown log level '%s'\n",
                             argv[i + 1]);
                std::exit(1);
            }
            setLogLevel(level);
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    applyLogFlags(argc, argv);
    std::string profile_json = applyProfileFlags(argc, argv);
    std::string command = argv[1];
    if (command == "list") {
        Args list_args(argc, argv, 2);
        list_args.parse({});
        return finishProfile(profile_json, cmdList());
    }
    if (argc < 3) {
        usage();
        return 1;
    }
    std::string target = argv[2];
    if (target.rfind("--", 0) == 0)
        badUsage("command '" + command + "' needs a target before '" +
                 target + "'");
    Args args(argc, argv, 3);
    auto dispatch = [&]() -> int {
        if (command == "run")
            return cmdRun(target, args);
        if (command == "profile")
            return cmdProfile(target, args);
        if (command == "predict")
            return cmdPredict(target, args);
        if (command == "time")
            return cmdTime(target, args);
        if (command == "sweep")
            return cmdSweep(target, args);
        if (command == "figure")
            return cmdFigure(target, args);
        if (command == "grade")
            return cmdGrade(target, args);
        if (command == "record")
            return cmdRecord(target, args);
        if (command == "replay")
            return cmdReplay(target, args);
        if (command == "monitor")
            return cmdMonitor(target, args);
        if (command == "validate")
            return cmdValidate(target, args);
        if (command == "disasm")
            return cmdDisasm(target, args);
        usage();
        return 1;
    };
    return finishProfile(profile_json, dispatch());
}
