/**
 * @file
 * Pipeline events, the Sink interface every run output implements,
 * and an opt-in pipeline event trace in the spirit of SimpleScalar's
 * ptrace: one text line per pipeline event, keyed by cycle, dynamic
 * sequence number and PC.  The interesting events for this paper are
 * the dispatch-time steering decision (LSQ vs LVAQ, and which §3 rule
 * made it), the TLB-time region verification, and the recovery
 * events (region mispredictions, value-prediction squashes).
 */

#ifndef ARL_OBS_PIPETRACE_HH
#define ARL_OBS_PIPETRACE_HH

#include <cstdint>
#include <ostream>
#include <string>

namespace arl::obs
{

/** Pipeline event classes. */
enum class PipeEvent : std::uint8_t
{
    Dispatch,         ///< entered the ROB
    SteerLsq,         ///< memory op steered to the LSQ
    SteerLvaq,        ///< memory op steered to the LVAQ
    Issue,            ///< began execution
    AddrGen,          ///< store address generated early (base-only AGU)
    TlbVerify,        ///< region prediction checked at translation
    RegionMispredict, ///< steering verified wrong; re-routed
    Forward,          ///< load satisfied by an in-queue store
    MemAccess,        ///< load granted a port; cache access began
    Writeback,        ///< execution completed, result broadcast
    Squash,           ///< re-issued after a value misprediction
    Commit            ///< retired
};

/** Short fixed-width mnemonic ("DIS", "LVQ", ...) for @p ev. */
const char *pipeEventName(PipeEvent ev);

class IntervalSampler;

/**
 * One output of a run (pipetrace, Chrome trace, interval-row CSV).
 * obs::Hooks hands every sink on its list each pipe event and each
 * interval row; a sink ignores what it does not write.
 */
class Sink
{
  public:
    Sink() = default;
    Sink(const Sink &) = delete;
    Sink &operator=(const Sink &) = delete;
    virtual ~Sink() = default;
    /** True when event() writes anything (the core traces only then). */
    virtual bool tracesPipe() const { return false; }
    /** True when the sink writes the rows out, so no report keeps them. */
    virtual bool takesRows() const { return false; }
    virtual void event(std::uint64_t /*cycle*/, std::uint64_t /*seq*/,
                       std::uint32_t /*pc*/, PipeEvent /*ev*/,
                       const std::string & /*detail*/)
    {
    }
    /** Sampling starts: the sampler's names are frozen. */
    virtual void start(const IntervalSampler &) {}
    /** The sampler took a row (IntervalSampler::row()). */
    virtual void row(const IntervalSampler &) {}
    /** The run is over: write out anything held back. */
    virtual void finish(const std::string & /*process_name*/) {}
};

/**
 * Text emitter for pipeline events.
 *
 * The stream is caller-owned.  An optional event limit guards
 * against accidentally tracing a hundred-million-instruction run;
 * events past the limit are counted but not written.
 */
class PipeTracer : public Sink
{
  public:
    /** @param max_events 0 = unlimited. */
    explicit PipeTracer(std::ostream &os, std::uint64_t max_events = 0);

    bool tracesPipe() const override { return true; }

    /** Emit one event line. */
    void event(std::uint64_t cycle, std::uint64_t seq, std::uint32_t pc,
               PipeEvent ev, const std::string &detail = "") override;

    /** Events written. */
    std::uint64_t emitted() const { return count; }

    /** Events suppressed by the limit. */
    std::uint64_t dropped() const { return droppedCount; }

  private:
    std::ostream &os;
    std::uint64_t limit;
    std::uint64_t count = 0;
    std::uint64_t droppedCount = 0;
};

} // namespace arl::obs

#endif // ARL_OBS_PIPETRACE_HH
