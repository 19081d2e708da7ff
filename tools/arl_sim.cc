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
 *       Table-2 window statistics, Figure-4 scheme accuracies.  One
 *       region pass (sweep::runRegionPass) over a live simulator; its
 *       --stats-json is that window's sweep region row.
 *
 *   arl_sim predict <workload|file.s> [--entries N] [--context
 *       none|gbh|cid|hybrid] [--gbh-bits N] [--cid-bits N]
 *       [--two-bit] [--hints none|profile|static] [--scale N]
 *       One predictor configuration in detail.
 *
 *   arl_sim time <workload> [--config "(N+M)"] [--l1-lat N]
 *       [--all-configs] [--no-vp] [--no-ff] [grid flags]
 *       [contention flags]
 *       The paper's §4 timing methodology (warmup + timed window),
 *       run as a one-row sweep.  With --workload-dir the target names
 *       a corpus program (by file stem) instead of a registry
 *       workload (no --scale).  --all-configs runs the Figure-8 suite
 *       (no --config or --l1-lat); its first config gets --pipetrace,
 *       --chrome-trace and --interval-stream.
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
 *       [--trace-cache DIR] [--configs fig8|"(N+M),..."|none]
 *       [--schemes fig4|none] [--study-insts N] [--timing-json F]
 *       [grid flags] [contention flags]
 *       The parallel sweep engine: run the workload × config (and
 *       × scheme) grid across N worker threads, each row's configs
 *       in lock-step groups over one instruction stream produced
 *       once per group.  --workload-dir programs join as rows after
 *       the registry ones (target none: corpus rows only); an empty
 *       item in either list is a usage error.  --stats-json output
 *       is byte-identical for every --jobs value; wall-clock/speedup
 *       metering (plus trace compression ratio and decode MB/s when
 *       a cache is used) goes to stdout and (optionally) the
 *       separate --timing-json file.
 *
 *   arl_sim figure <name|all> [--scale N] [--insts N] [--jobs N]
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
 *       Run the §3 region pass, without schemes, over a trace file,
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
 * Telemetry flags, accepted by run, time, replay, and sweep
 * (--telemetry-stall-sec by sweep only):
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
 *   --telemetry-stall-sec <N> sweep only: watchdog threshold
 *                             (default 30)
 *
 *   arl_sim disasm <file.s>
 *       Assemble and disassemble.
 *
 * Grid flags, accepted by time and sweep with one meaning each:
 *
 *   --insts <N>          timed window per point (default 400000)
 *   --scale <N>          registry workload scale, 1..17895 (default 1)
 *   --warmup-window <N>  warm microarchitectural state only from the
 *                        last N fast-forward instructions (0 = all),
 *                        sampled or not; a bounded window changes
 *                        results
 *   --cpi-stack          force per-cycle stall attribution
 *                        (ooo.cpi_stack.*) on ideal configs;
 *                        contended configs always account
 *   --workload-dir <DIR> a corpus of `.s` programs with manifests;
 *                        every program in it must assemble
 *
 * Memory-backend contention flags, accepted by time and sweep (all
 * default to 0 = the ideal backend; see DESIGN.md):
 *
 *   --banks <N>          L1/LVC banks (same-cycle same-bank serializes;
 *                        at most 1024)
 *   --mshrs <N>          outstanding misses per first-level structure
 *                        (at most 1024)
 *   --wb-buffer <N>      writeback buffer entries
 *   --bus-cycles <N>     shared L2/memory bus cycles per line transfer
 *   --tlb-miss-lat <N>   cycles charged per TLB miss
 *
 * Flag parsing is strict: an unknown flag, a malformed or negative
 * numeric value, an empty string value, a value too large for its
 * 32-bit field, or a stray positional argument aborts with exit code
 * 1 instead of silently running with defaults.  So does a `predict`
 * ARPT that cannot be built: --entries neither 0 nor a power of two,
 * or above 2^24 (256 times Figure 5's largest table; checked before
 * anything is allocated), or --gbh-bits and --cid-bits that one
 * 32-bit context word cannot hold.
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
 *   --quiet               suppress warnings AND the human
 *                         tables/headers, so piped --stats-csv -
 *                         output is machine-clean
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
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "assembler/assembler.hh"
#include "cache/bank.hh"
#include "cache/mshr.hh"
#include "common/bits.hh"
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
#include "sweep/sweep.hh"
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
 * honours via parse(); only --quiet and the profiling flags are
 * accepted everywhere, so no flag is ever silently ignored, and
 * parse() applies them.  An unknown flag, a missing or malformed
 * value (integer flags demand a non-negative integer, string flags a
 * non-empty one that does not begin with "--", since an empty value
 * would read as an absent flag and "--quiet" is a forgotten value,
 * not a file name), a repeated flag, or a stray positional is a
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
            if (value.empty())
                badUsage("flag '" + token + "' needs a non-empty value");
            if (value.rfind("--", 0) == 0)
                badUsage("flag '" + token + "' needs a value, got '" +
                         value + "'");
            values_.emplace_back(spec->name, value);
        }
        if (has("quiet"))
            setLogLevel(LogLevel::Error);
        // Armed before the subcommand's first scope.
        if (has("profile") || hasValue("profile-json"))
            obs::Profiler::instance().enable();
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

    /**
     * An integer flag that feeds a 32-bit field: a value above
     * UINT32_MAX is a usage error, never a silent wrap.
     */
    std::uint32_t
    flagU32(const std::string &name, std::uint32_t fallback) const
    {
        const long value = flagInt(name, fallback);
        if (value > static_cast<long>(UINT32_MAX))
            badUsage("value " + std::to_string(value) + " for --" + name +
                     " exceeds " + std::to_string(UINT32_MAX));
        return static_cast<std::uint32_t>(value);
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
 * Open the sinks the flags ask for on @p hooks: --pipetrace and
 * --chrome-trace (time only) and --interval-stream, whose rows then
 * go to disk as they are taken (O(1) memory) instead of into the
 * report's "intervals" section.  Call before Hooks::arm().
 * @return 0, or the exit code when a file cannot be opened: 1 for a
 *         tracer, 2 for the interval stream.
 */
int
openSinks(const ObsOptions &opts, obs::Hooks &hooks)
{
    auto failed = [](const std::string &path, int rc) {
        std::fprintf(stderr, "arl_sim: cannot open '%s'\n", path.c_str());
        return rc;
    };
    if (!opts.tracePath.empty() &&
        !hooks.open<obs::PipeTracer>(opts.tracePath, opts.traceMax))
        return failed(opts.tracePath, 1);
    if (!opts.chromePath.empty() &&
        !hooks.open<obs::ChromeTracer>(opts.chromePath, opts.chromeMax))
        return failed(opts.chromePath, 1);
    if (!opts.intervalStreamPath.empty() &&
        !hooks.open<obs::IntervalCsv>(opts.intervalStreamPath))
        return failed(opts.intervalStreamPath, 2);
    return 0;
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

/**
 * Write @p stats as @p command's one-run report, under @p workload
 * and config @p config.
 */
int
emitRunReport(const char *command, const std::string &workload,
              const char *config, const obs::StatsRegistry::Snapshot &stats,
              const ObsOptions &opts)
{
    obs::Report report;
    report.command = command;
    obs::RunRecord record;
    record.workload = workload;
    record.config = config;
    record.stats = stats;
    report.runs.push_back(std::move(record));
    return emitReport(report, opts);
}

/** True when --quiet asked for machine-clean stdout, or a "-" sink
 *  claimed stdout for machine output: human tables, headers, and
 *  meter lines are suppressed. */
bool
quietOutput()
{
    return logLevel() >= LogLevel::Error || machineStdout;
}

/**
 * Read all of @p path into @p out.  @return false when the path cannot
 * be read as a file: missing, unreadable, or a directory.
 */
bool
readFile(const std::string &path, std::string &out)
{
    std::error_code ec;
    if (std::filesystem::is_directory(path, ec))
        return false;
    std::ifstream file(path, std::ios::binary);
    if (!file)
        return false;
    std::ostringstream buffer;
    buffer << file.rdbuf();
    out = buffer.str();
    return true;
}

/**
 * --scale, read here alone: the registry workloads' loop-count
 * multiplier.  0, and any scale past workloads::MaxScale (where some
 * workload's 32-bit loop count would wrap into a short run), is a
 * usage error before anything is built.
 */
unsigned
scaleFlag(const Args &args)
{
    const std::uint32_t scale = args.flagU32("scale", 1);
    if (scale == 0 || scale > workloads::MaxScale)
        badUsage("--scale must be 1.." +
                 std::to_string(workloads::MaxScale) + ", got " +
                 std::to_string(scale));
    return scale;
}

/** Load a target: registered workload name or an assembly file. */
std::shared_ptr<const vm::Program>
loadTarget(const std::string &target, unsigned scale)
{
    if (target.size() > 2 &&
        target.substr(target.size() - 2) == ".s") {
        std::string source;
        if (!readFile(target, source)) {
            std::fprintf(stderr, "arl_sim: cannot open %s\n",
                         target.c_str());
            std::exit(2);
        }
        auto result = assembler::assemble(source, target);
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
    auto prog = loadTarget(target, scaleFlag(args));
    sim::Simulator simulator(prog);

    obs::Hooks hooks;
    hooks.intervalEvery = opts.interval;
    simulator.registerStats(hooks.registry, "sim");

    int rc = 0;
    auto telemetry = openTelemetry(opts, "run", &rc);
    if (rc)
        return rc;
    if ((rc = openSinks(opts, hooks)))
        return rc;

    InstCount max_insts =
        static_cast<InstCount>(args.flagInt("max-insts", 0));
    std::unique_ptr<obs::TelemetryScope> tscope;
    if (telemetry) {
        tscope = std::make_unique<obs::TelemetryScope>(
            telemetry.get(), 0, prog->name, "functional", -1,
            max_insts);
        tscope->start();
        hooks.telemetry = tscope.get();
    }
    InstCount executed;
    {
        obs::ProfScope prof("run/execute",
                            obs::ProfScope::Mode::Absolute);
        std::uint64_t next = hooks.arm(0);
        if (next != obs::Hooks::kNever) {
            obs::TelemetryFrame frame;
            executed =
                simulator.run(max_insts, [&](const sim::StepInfo &) {
                    frame.insts = simulator.instCount();
                    if (frame.insts >= next)
                        next = hooks.progress(frame);
                });
        } else {
            executed = simulator.run(max_insts);
        }
        hooks.finish(simulator.instCount());
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
    auto prog = loadTarget(target, scaleFlag(args));
    sim::Simulator simulator(prog);
    sim::SimulatorSource source(simulator);
    sweep::RegionPoint result = sweep::runRegionPass(
        prog->name, source, core::toSweepSchemes(core::figure4Schemes()),
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
    // The region pass's stats: the mirror its sweep row reports.
    return emitRunReport("profile", result.workload, "figure4",
                         result.snapshot, opts);
}

/** Largest limited ARPT `predict` builds: 256x Figure 5's 64K. */
constexpr std::uint32_t kMaxArptEntries = 1u << 24;

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

    predict::RegionPredictorConfig config;
    config.useArpt = true;
    config.arpt.entries = args.flagU32("entries", 32 * 1024);
    if (config.arpt.entries && !isPowerOf2(config.arpt.entries))
        badUsage("--entries must be 0 (unlimited) or a power of two");
    if (config.arpt.entries > kMaxArptEntries)
        badUsage("--entries must be at most 16777216 (2^24)");
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
    else
        badUsage("unknown context '" + context + "'");
    config.arpt.context.gbhBits = args.flagU32("gbh-bits", 8);
    config.arpt.context.cidBits = args.flagU32("cid-bits", 7);
    if (!predict::fitsContextWord(config.arpt.context))
        badUsage("--gbh-bits and --cid-bits must each be at most 32, "
                 "and a hybrid context's must sum to at most 32 with "
                 "--cid-bits at most 31");
    auto prog = loadTarget(target, scaleFlag(args));

    std::string hints_kind = args.flag("hints", "none");
    predict::CompilerHints profile_hints;
    std::unique_ptr<predict::StaticClassifier> static_hints;
    const predict::HintSource *hints = nullptr;
    if (hints_kind == "profile") {
        profile_hints = predict::profileHints(prog);
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
        badUsage("unknown hints '" + hints_kind + "'");
    }
    config.useCompilerHints = hints != nullptr;

    predict::RegionPredictor predictor(config, hints);
    sim::Simulator simulator(prog);

    obs::Hooks hooks;
    hooks.intervalEvery = opts.interval;
    predictor.registerStats(hooks.registry, "predict");
    simulator.registerStats(hooks.registry, "sim");
    if (int rc = openSinks(opts, hooks))
        return rc;

    std::uint64_t next = hooks.arm(0);
    obs::TelemetryFrame frame;
    simulator.run(0, [&](const sim::StepInfo &step) {
        predictor.observe(step);
        frame.insts = simulator.instCount();
        if (frame.insts >= next)
            next = hooks.progress(frame);
    });
    hooks.finish(simulator.instCount());

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
 * The machine an "(N+M)" value of flag @p flag names, with an L1 hit
 * latency of @p l1_latency.  Anything else — a sign, a stray
 * character, more than nine digits, or N = 0, a machine whose
 * non-stack accesses could never issue — is a usage error.
 */
ooo::MachineConfig
parseNPlusM(const char *flag, const std::string &text,
            unsigned l1_latency = 2)
{
    const std::size_t plus = text.find('+');
    const bool shaped = text.size() >= 5 && text.front() == '(' &&
                        text.back() == ')' && plus != std::string::npos;
    const std::string n = shaped ? text.substr(1, plus - 1) : "";
    const std::string m =
        shaped ? text.substr(plus + 1, text.size() - plus - 2) : "";
    if (!isNonNegativeInt(n) || !isNonNegativeInt(m) || n.size() > 9 ||
        m.size() > 9 || std::stoul(n) == 0)
        badUsage(std::string("bad ") + flag + " value '" + text +
                 "' (want \"(N+M)\" with N >= 1)");
    return ooo::MachineConfig::nPlusM(
        static_cast<unsigned>(std::stoul(n)),
        static_cast<unsigned>(std::stoul(m)), l1_latency);
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
    knobs.banks = args.flagU32("banks", 0);
    knobs.mshrs = args.flagU32("mshrs", 0);
    if (knobs.banks > cache::BankSet::kMaxBanks)
        badUsage("--banks must be at most " +
                 std::to_string(cache::BankSet::kMaxBanks));
    if (knobs.mshrs > cache::MshrFile::kMaxEntries)
        badUsage("--mshrs must be at most " +
                 std::to_string(cache::MshrFile::kMaxEntries));
    knobs.wbBuffer = args.flagU32("wb-buffer", 0);
    knobs.busCycles = args.flagU32("bus-cycles", 0);
    knobs.tlbMissLatency = args.flagU32("tlb-miss-lat", 0);
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

/** Fill @p spec's phase-sampling knobs from @p args. */
void
parseSamplingFlags(const Args &args, sweep::SweepSpec &spec)
{
    spec.sampling = args.has("sampling");
    if (!spec.sampling) {
        for (const char *name : {"interval-insts", "clusters",
                                 "sampling-warmup", "sampling-verify"})
            if (args.has(name) || !args.flag(name, "").empty())
                badUsage(std::string("--") + name + " requires --sampling");
        return;
    }
    spec.samplingInterval = static_cast<InstCount>(
        args.flagInt("interval-insts", 10000));
    spec.samplingClusters = args.flagU32("clusters", 6);
    spec.samplingWarmup = static_cast<InstCount>(
        args.flagInt("sampling-warmup", 5000));
    spec.samplingVerify = args.has("sampling-verify");
    if (spec.samplingInterval == 0)
        badUsage("--interval-insts must be > 0");
    if (spec.samplingClusters == 0)
        badUsage("--clusters must be > 0");
}

/** The grid flags time and sweep share, each with one meaning. */
const std::vector<FlagSpec> kGridFlags = {
    {"insts", FlagKind::Int},         {"scale", FlagKind::Int},
    {"warmup-window", FlagKind::Int}, {"cpi-stack", FlagKind::Bool},
    {"workload-dir", FlagKind::String},
};

/**
 * The items of a comma-separated list (none for an empty value).  An
 * empty item, as a leading, doubled or trailing comma leaves, is a
 * usage error.
 */
std::vector<std::string>
splitList(const char *what, const std::string &text)
{
    std::vector<std::string> items;
    for (std::size_t begin = 0; !text.empty();) {
        const std::size_t comma = text.find(',', begin);
        items.push_back(text.substr(begin, comma - begin));
        if (items.back().empty())
            badUsage(std::string("empty item in ") + what + " '" + text +
                     "'");
        if (comma == std::string::npos)
            break;
        begin = comma + 1;
    }
    return items;
}

/**
 * The grid's rows: each registry workload in @p names at --scale, then
 * every --workload-dir program in filename order, so merged reports
 * stay deterministic.  Every corpus program is assembled here, so a
 * broken one is a usage error before anything runs.
 */
std::vector<sweep::WorkloadSpec>
gridRows(const Args &args, const std::vector<std::string> &names)
{
    const unsigned scale = scaleFlag(args);
    std::vector<sweep::WorkloadSpec> rows;
    for (const std::string &name : names) {
        const auto &info = workloads::workloadByName(name);
        sweep::WorkloadSpec w;
        w.name = info.name;
        w.scale = scale;
        w.warmup = info.warmupInsts;
        rows.push_back(std::move(w));
    }
    const std::string dir = args.flag("workload-dir", "");
    std::string error;
    if (!dir.empty() && !corpus::corpusWorkloadSpecs(dir, 0, rows, &error))
        badUsage(error);
    return rows;
}

/**
 * A timing grid of time or sweep and the --telemetry channel it
 * streams to, from the flags to the final telemetry record.
 */
struct Grid
{
    sweep::SweepSpec spec;
    std::unique_ptr<obs::TelemetryChannel> telemetry;

    /**
     * Build @p command's grid over @p rows and @p configs.  Every row
     * gets the --insts timed window, the --warmup-window and
     * --study-insts (sweep only); every config the contention knobs
     * and --no-vp and --no-ff (time only); the spec the sampling knobs
     * and --cpi-stack.  Last, the --telemetry channel opens and the
     * spec streams to it, with the --telemetry-stall-sec watchdog
     * (sweep only).
     * @return 0, or 2 when the channel cannot be opened.
     */
    int
    build(const char *command, const Args &args, const ObsOptions &opts,
          std::vector<sweep::WorkloadSpec> rows,
          std::vector<ooo::MachineConfig> configs)
    {
        for (sweep::WorkloadSpec &w : rows) {
            w.timed = static_cast<InstCount>(args.flagInt("insts", 400000));
            w.warmupWindow =
                static_cast<InstCount>(args.flagInt("warmup-window", 0));
            w.studyInsts =
                static_cast<InstCount>(args.flagInt("study-insts", 0));
        }
        const ooo::ContentionKnobs knobs = parseContentionKnobs(args);
        for (ooo::MachineConfig &config : configs) {
            if (args.has("no-vp"))
                config.valuePrediction = false;
            if (args.has("no-ff"))
                config.fastForwarding = false;
            config.applyContention(knobs);
        }
        spec.workloads = std::move(rows);
        spec.configs = std::move(configs);
        parseSamplingFlags(args, spec);
        spec.cpiStack = args.has("cpi-stack");
        int rc = 0;
        telemetry = openTelemetry(opts, command, &rc);
        spec.telemetry = telemetry.get();
        spec.telemetryStallSec =
            static_cast<double>(args.flagInt("telemetry-stall-sec", 30));
        return rc;
    }

    /** Run the grid, then end its telemetry with the final record,
     *  which counts timing and region instructions alike. */
    sweep::SweepResult
    run() const
    {
        sweep::SweepResult result = sweep::runSweep(spec);
        if (telemetry) {
            std::uint64_t insts = 0;
            for (const sweep::TimingPoint &point : result.timing)
                insts += point.stats.instructions;
            for (const sweep::RegionPoint &point : result.region)
                insts += point.instructions;
            telemetry->emitFinal(insts);
        }
        return result;
    }
};

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
    args.parse({{"config", FlagKind::String}, {"l1-lat", FlagKind::Int},
                {"all-configs", FlagKind::Bool}, {"no-vp", FlagKind::Bool},
                {"no-ff", FlagKind::Bool}},
               {&kReportFlags, &kIntervalFlags, &kTracerFlags, &kGridFlags,
                &kContentionFlags, &kSamplingFlags, &kTelemetryFlags});
    ObsOptions opts = ObsOptions::parse(args);
    const std::string workload_dir = args.flag("workload-dir", "");
    if (args.has("all-configs") &&
        (!args.flag("config", "").empty() ||
         !args.flag("l1-lat", "").empty()))
        badUsage("--config and --l1-lat do not apply to --all-configs "
                 "(the Figure-8 suite fixes both)");
    if (!workload_dir.empty() && !args.flag("scale", "").empty())
        badUsage("--scale does not apply to --workload-dir programs");
    if (args.has("sampling") && (!opts.tracePath.empty() ||
                                 !opts.chromePath.empty() || opts.interval))
        badUsage("--pipetrace, --chrome-trace and --interval do not "
                 "apply to --sampling runs");

    // With --workload-dir the target names a corpus program (by file
    // stem) instead of a registry workload.
    std::vector<sweep::WorkloadSpec> rows =
        gridRows(args, workload_dir.empty() ? std::vector{target}
                                            : std::vector<std::string>{});
    std::erase_if(rows, [&](const sweep::WorkloadSpec &w) {
        return w.name != target;
    });
    if (rows.empty())
        badUsage("no workload '" + target + "' in corpus '" +
                 workload_dir + "'");
    std::vector<ooo::MachineConfig> configs;
    if (args.has("all-configs"))
        configs = ooo::MachineConfig::figure8Suite();
    else
        configs.push_back(parseNPlusM("--config",
                                      args.flag("config", "(2+0)"),
                                      args.flagU32("l1-lat", 2)));
    Grid grid;
    if (int rc = grid.build("time", args, opts, std::move(rows),
                            std::move(configs)))
        return rc;

    // Exact points report through their own Hooks; the sinks open
    // on the first config's only.
    std::vector<obs::Hooks> hooks(
        grid.spec.sampling ? 0 : grid.spec.configs.size());
    for (obs::Hooks &h : hooks) {
        h.intervalEvery = opts.interval;
        grid.spec.hooks.push_back(&h);
    }
    if (!hooks.empty())
        if (int rc = openSinks(opts, hooks[0]))
            return rc;

    const sweep::SweepResult result = grid.run();
    if (!quietOutput() && grid.spec.sampling) {
        std::printf("%-12s %12s %6s\n", "config", "cycles(est)", "IPC");
        for (const auto &point : result.timing)
            std::printf("%-12s %12llu %6.2f\n", point.config.c_str(),
                        (unsigned long long)point.stats.cycles,
                        point.stats.ipc());
        printSampledTable(result.timing);
    } else if (!quietOutput()) {
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

    if (!opts.wantsReport())
        return 0;
    // The sweep's report less its grid summary; an exact point's
    // record, interval rows included, comes from its Hooks.
    obs::Report report = result.toReport("time");
    report.runs.pop_back();
    for (std::size_t i = 0; i < hooks.size(); ++i) {
        obs::RunRecord &run = report.runs[i];
        run = obs::RunRecord::fromHooks(run.workload, run.config, hooks[i]);
    }
    return emitReport(report, opts);
}

int
cmdSweep(const std::string &target, Args &args)
{
    args.parse({{"jobs", FlagKind::Int},
                {"trace-cache", FlagKind::String},
                {"configs", FlagKind::String},
                {"schemes", FlagKind::String},
                {"study-insts", FlagKind::Int},
                {"timing-json", FlagKind::String},
                {"telemetry-stall-sec", FlagKind::Int}},
               {&kReportFlags, &kGridFlags, &kContentionFlags,
                &kSamplingFlags, &kTelemetryFlags});
    ObsOptions opts = ObsOptions::parse(args);

    std::vector<ooo::MachineConfig> configs;
    const std::string configs_spec = args.flag("configs", "fig8");
    if (configs_spec == "fig8")
        configs = ooo::MachineConfig::figure8Suite();
    else if (configs_spec != "none")
        for (const std::string &item : splitList("--configs", configs_spec))
            configs.push_back(parseNPlusM("--configs", item));
    const std::string schemes_spec = args.flag("schemes", "none");
    if (schemes_spec != "fig4" && schemes_spec != "none")
        badUsage("unknown --schemes '" + schemes_spec +
                 "' (want fig4 or none)");
    if (configs.empty() && schemes_spec == "none")
        badUsage("sweep needs --configs and/or --schemes");

    std::vector<std::string> names;
    if (target == "all") {
        for (const auto &info : workloads::allWorkloads())
            names.push_back(info.name);
    } else if (target == "none") {
        // Corpus-only grid: every row comes from --workload-dir.
        if (args.flag("workload-dir", "").empty())
            badUsage("sweep target 'none' needs --workload-dir");
    } else {
        names = splitList("the workload list", target);
    }
    Grid grid;
    grid.spec.jobs = args.flagU32("jobs", 1);
    grid.spec.traceCacheDir = args.flag("trace-cache", "");
    if (schemes_spec == "fig4")
        grid.spec.schemes = core::toSweepSchemes(core::figure4Schemes());
    if (int rc = grid.build("sweep", args, opts, gridRows(args, names),
                            std::move(configs)))
        return rc;

    const sweep::SweepResult result = grid.run();

    if (!result.timing.empty() && !quietOutput()) {
        std::printf("%-15s %-12s %10s %6s\n", "workload", "config",
                    grid.spec.sampling ? "cycles(est)" : "cycles", "IPC");
        for (const auto &point : result.timing)
            std::printf("%-15s %-12s %10llu %6.2f\n",
                        point.workload.c_str(), point.config.c_str(),
                        (unsigned long long)point.stats.cycles,
                        point.stats.ipc());
        if (grid.spec.sampling)
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
                {"jobs", FlagKind::Int}},
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
    fopts.scale = scaleFlag(args);
    fopts.insts = static_cast<InstCount>(args.flagInt("insts", 400000));
    fopts.jobs = args.flagU32("jobs", 1);

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
    // A block size the trace reader would refuse is a usage error,
    // not a file that fails to load later.
    const long block_records =
        args.flagInt("block-records", trace::DefaultBlockRecords);
    if (block_records == 0 ||
        block_records > static_cast<long>(trace::v2::MaxBlockRecords))
        badUsage("--block-records must be 1.." +
                 std::to_string(trace::v2::MaxBlockRecords));
    auto prog = loadTarget(target, scaleFlag(args));
    InstCount n = 0;
    std::uint64_t bytes = 0;
    if (!trace::recordTrace(
            prog, out_path,
            static_cast<InstCount>(args.flagInt("max-insts", 0)),
            static_cast<std::uint32_t>(block_records), n, bytes))
        return invalid(out_path, "cannot write the trace file");
    if (!quietOutput())
        std::printf("recorded %llu instructions of %s to %s "
                    "(v2, %.1f MB)\n",
                    (unsigned long long)n, prog->name.c_str(),
                    out_path.c_str(), bytes / 1e6);

    if (!opts.wantsReport())
        return 0;
    obs::StatsRegistry registry;
    registry.counter("trace.instructions") = n;
    registry.counter("trace.bytes") = bytes;
    return emitRunReport("record", prog->name, "record",
                         registry.snapshot(), opts);
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
    obs::Hooks hooks;
    std::unique_ptr<obs::TelemetryScope> tscope;
    if (telemetry) {
        tscope = std::make_unique<obs::TelemetryScope>(
            telemetry.get(), 0, reader.programName(), "replay", -1,
            0);
        tscope->start();
        hooks.telemetry = tscope.get();
    }

    sweep::RegionPoint point;
    {
        obs::ProfScope prof("replay");
        point = sweep::runRegionPass(reader.programName(), reader, {}, 0,
                                     nullptr, &hooks);
        prof.addGuestInsts(point.instructions);
        if (tscope) {
            tscope->done(point.instructions, 0);
            telemetry->emitFinal(point.instructions);
        }
    }
    if (!reader.error().empty())
        return invalid(trace_path, reader.error());
    const auto &profile = point.profile;
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
        const auto &stats = point.window32;
        std::printf("window32   : D %.2f (%.2f)  H %.2f (%.2f)  "
                    "S %.2f (%.2f)\n", stats.mean[0], stats.stddev[0],
                    stats.mean[1], stats.stddev[1], stats.mean[2],
                    stats.stddev[2]);
    }

    if (!opts.wantsReport())
        return 0;
    return emitRunReport("replay", point.workload, "replay", point.snapshot,
                         opts);
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

    const auto start = std::chrono::steady_clock::now();
    bool rendered = false;
    for (;;) {
        std::string content;
        if (readFile(path, content)) {
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
    std::string content;
    if (!readFile(path, content))
        return invalid(path, "cannot open");

    // Telemetry files are JSONL, not one document: sniff the first
    // non-empty line before attempting a whole-file parse.
    {
        std::istringstream sniff_stream(content);
        std::string first;
        while (std::getline(sniff_stream, first) && first.empty()) {
        }
        obs::JsonValue head;
        if (!first.empty() && obs::jsonParse(first, head, nullptr) &&
            head.isObject() && head.find("telemetry_schema"))
            return validateTelemetry(path, content);
    }

    obs::JsonValue doc;
    std::string error;
    if (!obs::jsonParse(content, doc, &error))
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
        "    [--entries N]  0 = unlimited, else a power of two\n"
        "                   of at most 16777216 (2^24)\n"
        "  time <workload> [flags]      §4 timing study\n"
        "    [--config \"(N+M)\"] [--l1-lat N] [--all-configs]\n"
        "    [--no-vp] [--no-ff]\n"
        "  sweep <w[,w...]|all|none> [flags] parallel experiment sweep\n"
        "    [--jobs N] [--trace-cache DIR]\n"
        "    [--configs fig8|\"(N+M),..\"|none]\n"
        "    [--schemes fig4|none] [--study-insts N] [--timing-json F]\n"
        "  figure <name|all> [--scale N] [--insts N] [--jobs N]\n"
        "                               a paper table/figure and its\n"
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
        "grid (time and sweep):\n"
        "  --insts N   --scale N (1..17895)   --warmup-window N\n"
        "  --workload-dir DIR   corpus .s programs: time's target names\n"
        "                       one, sweep adds them all as rows\n"
        "                       (target 'none' = corpus only)\n"
        "  --cpi-stack   force ooo.cpi_stack.* / load-to-use histogram\n"
        "                on ideal configs (contended always account)\n"
        "contention (time and sweep; 0 = ideal backend):\n"
        "  --banks N   --mshrs N (each at most 1024)\n"
        "  --wb-buffer N   --bus-cycles N   --tlb-miss-lat N\n"
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
        "pipeline tracing (time only; --all-configs: first config):\n"
        "  --pipetrace F [--pipetrace-max N]\n"
        "  --chrome-trace F [--chrome-trace-max N]\n"
        "logging (any command):\n"
        "  --quiet   silence warnings and the human tables\n"
        "telemetry (run, time, replay, sweep):\n"
        "  --telemetry F             append heartbeat JSONL records\n"
        "                            (crash-safe; 'monitor' tails it)\n"
        "  --telemetry-interval N    heartbeat period in guest insts\n"
        "                            (default 1000000)\n"
        "  --telemetry-wall-ms N     also beat every N wall-clock ms\n"
        "  --telemetry-stall-sec N   sweep only: watchdog threshold\n"
        "                            (default 30, 0 = off)\n"
        "host self-profiling (any command):\n"
        "  --profile            print the host phase tree at exit\n"
        "  --profile-json F     write it as JSON (\"-\" = stdout)\n");
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

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    std::string command = argv[1];
    if (command == "list") {
        Args list_args(argc, argv, 2);
        list_args.parse({});
        return finishProfile(list_args.flag("profile-json", ""), cmdList());
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
    const int rc = dispatch();
    return finishProfile(args.flag("profile-json", ""), rc);
}
