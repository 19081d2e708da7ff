/**
 * @file
 * The bundle a simulation run threads through its components, and
 * the one place its observation is scheduled and fanned out: one
 * stats registry everybody registers into, the interval sampler, the
 * telemetry scope, and one list of sinks.
 *
 * A producer (the OoO core's cycle loop; the functional loops of
 * `arl_sim run` and `predict`; sweep::runRegionPass, which `replay`
 * runs) keeps one threshold from arm().  When its committed count
 * reaches it, it calls progress() with a TelemetryFrame, which takes
 * the interval row once, hands it to the report's rows and every
 * sink, checks the telemetry scope when a check is due (every
 * TelemetryChannel::checkEvery() instructions), and returns the next
 * threshold.
 *
 * Lifecycle: construct → open() sinks → components register stats
 * (attachObs / registerStats) → arm() (the first freezes the sampled
 * name set) → run (progress() at each threshold, event() per pipe
 * event) → finish() → serialize via obs::Report.
 */

#ifndef ARL_OBS_HOOKS_HH
#define ARL_OBS_HOOKS_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "obs/chrome_trace.hh"
#include "obs/pipetrace.hh"
#include "obs/sampler.hh"
#include "obs/stats_registry.hh"
#include "obs/telemetry.hh"

namespace arl::obs
{

/** Per-run observability context. */
struct Hooks
{
    StatsRegistry registry;

    /** Sampling period in committed instructions; 0 = disabled. */
    std::uint64_t intervalEvery = 0;

    std::unique_ptr<IntervalSampler> sampler;

    /**
     * Optional telemetry scope for this run's job (non-owning; the
     * CLI or sweep coordinator owns the scope and its channel).  Read
     * by arm() and progress().
     */
    TelemetryScope *telemetry = nullptr;

    /** A threshold no committed count reaches: nothing is due. */
    static constexpr std::uint64_t kNever = UINT64_MAX;

    /**
     * Open @p path and attach a sink S(file, @p args...) writing to
     * it, before the first arm().
     * @return false when the file cannot be opened.
     */
    template <class S, class... Args>
    bool
    open(const std::string &path, Args... args)
    {
        std::ostream *file = openFile(path);
        if (file)
            sinks.push_back(std::make_unique<S>(*file, args...));
        return file != nullptr;
    }

    /**
     * Start a producer's schedule at @p committed instructions; no
     * heartbeat is due unless @p beats.  The first call starts
     * sampling (when intervalEvery is set): it freezes the sampled
     * stat set and its baseline, so make it when the measured phase
     * begins, after every component has registered.
     * @return the first threshold (kNever when nothing is due).
     */
    std::uint64_t arm(std::uint64_t committed, bool beats = true);

    /** The producer reached its threshold; returns the next one. */
    std::uint64_t progress(const TelemetryFrame &frame);

    /** True when some sink writes pipe events. */
    bool tracing() const;

    /** Hand one pipeline event to every sink. */
    void event(std::uint64_t cycle, std::uint64_t seq, std::uint32_t pc,
               PipeEvent ev, const char *detail);

    /**
     * End of a run of @p committed instructions: take the sampler's
     * final partial row (so there are ceil(committed/every) rows),
     * capture the registry's values, finish every sink (the Chrome
     * trace is written now, under @p process_name) and close their
     * files.  Call it while the registered components are still
     * alive: live counter/gauge/formula entries point into them, so
     * a snapshot taken after they are destroyed reads freed memory.
     * A sweep timing job does, on its own Hooks or on the caller's
     * SweepSpec::hooks entry; RunRecord::fromHooks then uses the
     * captured values.
     */
    void finish(std::uint64_t committed,
                const std::string &process_name = "");

    /** The registry's values, captured by finish(). */
    StatsRegistry::Snapshot finalSnapshot;

  private:
    /** Open @p path for a sink; null on failure. */
    std::ostream *openFile(const std::string &path);

    /** The lower of the sampler's and the telemetry's thresholds. */
    std::uint64_t due() const;

    std::uint64_t beatAt = kNever;
    std::vector<std::unique_ptr<std::ostream>> files;
    std::vector<std::unique_ptr<Sink>> sinks;
};

} // namespace arl::obs

#endif // ARL_OBS_HOOKS_HH
