/**
 * @file
 * Host-side self-profiler: where does the *simulator's* wall clock
 * go?  The guest-side CPI stacks (obs/cpi_stack.hh) attribute guest
 * cycles; this attributes host nanoseconds to a tree of named phases
 * (record, decode, seek, simulate, merge, ...) so the ROADMAP's
 * raw-speed work has measurable targets.
 *
 * Design:
 *
 *  - RAII `ProfScope` marks a phase.  Scopes nest per thread; the
 *    phase identity is the '/'-joined path of active scope names
 *    ("sweep/record/decode").  A scope can also claim an Absolute
 *    path, which worker threads use so their phases merge under the
 *    same tree as the coordinating thread's.
 *
 *  - Accumulation is per-thread and lock-free on the hot path: each
 *    thread owns a path → {ns, calls, guest insts, guest cycles} map
 *    touched only by itself.  The global profiler keeps the threads'
 *    logs alive and merges them at report() time, so the report is
 *    valid once worker threads are joined (the sweep engine joins
 *    before returning).
 *
 *  - Disabled (the default) the whole machinery is one relaxed
 *    atomic-bool branch per scope: no clock reads, no allocation, no
 *    map touches.  Simulated numbers are never affected either way —
 *    the profiler only ever *reads* wall clock — so golden reports
 *    stay byte-identical with profiling on or off.
 *
 *  - Guest work is attributed with addGuestInsts()/addGuestCycles()
 *    on the innermost active scope, giving per-phase guest MIPS.
 */

#ifndef ARL_OBS_PROFILER_HH
#define ARL_OBS_PROFILER_HH

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/host_meta.hh"

namespace arl::obs
{

class StatsRegistry;
struct JsonValue;

/** Global registry of per-thread phase logs; one per process. */
class Profiler
{
  public:
    /** One merged phase of the report tree. */
    struct Node
    {
        /** Path segment ("decode"); the full path is positional. */
        std::string name;
        /** Wall nanoseconds accumulated at exactly this path
         *  (inclusive of nested scopes by construction). */
        std::uint64_t ns = 0;
        std::uint64_t calls = 0;
        /** Guest instructions attributed directly to this path. */
        std::uint64_t guestInsts = 0;
        std::uint64_t guestCycles = 0;
        /** Name-sorted children (deterministic). */
        std::vector<Node> children;

        double seconds() const { return ns / 1e9; }

        /** Own + descendant guest instructions. */
        std::uint64_t inclusiveGuestInsts() const;

        /** Guest MIPS of this phase (inclusive insts / own wall). */
        double mips() const;
    };

    /** Merged snapshot plus host metering. */
    struct Report
    {
        /** Name-sorted phase roots. */
        std::vector<Node> phases;
        /** Wall seconds from enable() to report(). */
        double totalSeconds = 0.0;
        /** All guest instructions attributed, across every phase. */
        std::uint64_t guestInsts = 0;
        std::uint64_t guestCycles = 0;
        std::uint64_t peakRssKb = 0;
        HostMeta meta;

        /** Sum of root-phase wall seconds (coverage vs total). */
        double phaseSeconds() const;

        /** Aggregate guest MIPS (attributed insts / total wall). */
        double
        aggregateMips() const
        {
            return totalSeconds > 0.0
                       ? guestInsts / 1e6 / totalSeconds
                       : 0.0;
        }

        /** Human-readable phase tree (the --profile output). */
        std::string render() const;

        /** The --profile-json document (kind "profile"). */
        void writeJson(std::ostream &os,
                       const std::string &tool) const;

        /**
         * Flatten into @p reg as "<prefix>.<path>.seconds/.calls/
         * .guest_insts/.mips" leaves ('/' becomes '.'), plus
         * "<prefix>.total_seconds" — the sweep --timing-json
         * profile section.
         */
        void addStats(StatsRegistry &reg,
                      const std::string &prefix) const;
    };

    static Profiler &instance();

    /** Hot-path gate; relaxed load, safe from any thread. */
    static bool
    enabled()
    {
        return enabledFlag.load(std::memory_order_relaxed);
    }

    /**
     * Reset all accumulated phases and start profiling.  Call from
     * the coordinating thread while no ProfScope is active anywhere.
     */
    void enable();

    /** Stop accumulating (logs are kept until the next enable()). */
    void disable();

    /**
     * Merge every thread's log into one deterministic tree.  Worker
     * threads must be quiescent (the sweep engine joins its pool
     * before returning, so end-of-run reporting is always safe).
     */
    Report report() const;

  private:
    friend class ProfScope;
    struct ThreadLog;
    struct Impl;

    Profiler();
    ~Profiler() = default;
    Profiler(const Profiler &) = delete;
    Profiler &operator=(const Profiler &) = delete;

    /** This thread's log, registered on first use. */
    ThreadLog &threadLog();

    static std::atomic<bool> enabledFlag;
    Impl *impl;
    std::uint64_t enableNs = 0;
};

/**
 * Schema-check a Report::writeJson document (kind "profile": meta
 * object, numeric total_seconds, phases nested at most 32 levels deep,
 * each with string name, numeric seconds/calls, and children).
 * @return false with a message in @p error on the first violation.
 */
bool validateProfileDoc(const JsonValue &doc,
                        std::string *error = nullptr);

/**
 * RAII phase marker.  Construction/destruction cost one branch when
 * profiling is disabled.  Non-copyable, stack-order nested per
 * thread (guaranteed by scoping).
 */
class ProfScope
{
  public:
    enum class Mode : std::uint8_t
    {
        /** Path = enclosing scopes' path + '/' + name. */
        Nested,
        /**
         * Path = name verbatim (may contain '/').  Worker threads
         * use this to file their phases under the coordinator's
         * tree ("sweep/simulate") without sharing its stack.
         */
        Absolute
    };

    explicit ProfScope(const char *name, Mode mode = Mode::Nested)
    {
        if (Profiler::enabled())
            begin(name, mode);
    }

    ~ProfScope()
    {
        if (started)
            end();
    }

    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

    /** Attribute guest instructions to the innermost active scope. */
    void
    addGuestInsts(std::uint64_t n)
    {
        if (started)
            addCount(n, 0);
    }

    /** Attribute guest cycles likewise. */
    void
    addGuestCycles(std::uint64_t n)
    {
        if (started)
            addCount(0, n);
    }

  private:
    void begin(const char *name, Mode mode);
    void end();
    void addCount(std::uint64_t insts, std::uint64_t cycles);

    bool started = false;
    std::uint64_t startNs = 0;
};

} // namespace arl::obs

#endif // ARL_OBS_PROFILER_HH
