/**
 * @file
 * The bundle a simulation run threads through its components: one
 * stats registry everybody registers into, plus the optional interval
 * sampler and pipeline tracer the CLI flags enable.
 *
 * Lifecycle: construct → components register stats (attachObs /
 * registerStats) → startSampling() freezes the sampled name set →
 * run (core calls tick() per commit and tracer events) → serialize
 * via obs::Report.
 */

#ifndef ARL_OBS_HOOKS_HH
#define ARL_OBS_HOOKS_HH

#include <cstdint>
#include <memory>
#include <string>

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
    std::unique_ptr<PipeTracer> tracer;
    std::unique_ptr<ChromeTracer> chrome;

    /**
     * Optional incremental sink for the sampler (non-owning; the CLI
     * owns the stream).  When set, startSampling() routes interval
     * rows to it as they are captured — O(1) sampler memory — and
     * the report's "intervals" section is omitted.
     */
    std::ostream *intervalStream = nullptr;

    /**
     * Optional telemetry scope for this run's job (non-owning; the
     * CLI or sweep coordinator owns the scope and its channel).  The
     * core caches its presence at run() entry — mirroring the
     * tracingActive pattern — so a null scope costs one
     * short-circuited branch per cycle.
     */
    TelemetryScope *telemetry = nullptr;

    /**
     * Freeze the sampled stat set and arm the sampler.  Call after
     * every component has registered; a no-op when intervalEvery is 0.
     */
    void startSampling();

    /**
     * Open @p path and attach a PipeTracer writing to it.
     * @param max_events event cap (0 = unlimited).
     * @return false (with a warning) when the file cannot be opened.
     */
    bool openTrace(const std::string &path, std::uint64_t max_events = 0);

    /**
     * Open @p path and attach a ChromeTracer writing to it.
     * @param max_insts instruction-record cap (0 = unlimited).
     * @return false (with a warning) when the file cannot be opened.
     */
    bool openChromeTrace(const std::string &path,
                         std::uint64_t max_insts = 0);

    /**
     * Serialize and close the Chrome trace (counter tracks from the
     * sampler are appended first when sampling was on).  A no-op when
     * no Chrome trace is attached.
     */
    void finishChromeTrace(const std::string &process_name);

    /** Progress notification from the core's commit stage. */
    void
    tick(std::uint64_t committed)
    {
        if (sampler)
            sampler->tick(committed);
    }

    /**
     * End-of-run notification: flush the sampler's final partial
     * interval so the row count is ceil(committed/every).  Call
     * before finalize().
     */
    void
    finishSampling(std::uint64_t committed)
    {
        if (sampler)
            sampler->flush(committed);
    }

    /** True when pipeline or Chrome tracing is active. */
    bool tracing() const { return tracer != nullptr || chrome != nullptr; }

    /**
     * Capture the registry's values while the registered components
     * are still alive.  Live counter/gauge/formula entries point into
     * the components that registered them, so a snapshot taken after
     * those objects are destroyed reads freed memory; call this at
     * the end of the run (a sweep timing job does, on its own Hooks
     * or on the caller's SweepSpec::hooks entry) and
     * RunRecord::fromHooks will use the captured values.
     */
    void finalize() { finalSnapshot = registry.snapshot(); finalized = true; }

    StatsRegistry::Snapshot finalSnapshot;
    bool finalized = false;

  private:
    std::unique_ptr<std::ostream> traceFile;
    std::unique_ptr<std::ostream> chromeFile;
};

} // namespace arl::obs

#endif // ARL_OBS_HOOKS_HH
