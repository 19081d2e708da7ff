/**
 * @file
 * Abstraction over "where the committed instruction stream comes
 * from".
 *
 * The §4 timing model's perfect front end dispatches the
 * architectural instruction stream; historically that stream always
 * came from an embedded live functional simulator.  A StepSource
 * decouples the consumer from the producer so the same core can be
 * fed by
 *
 *  - a live sim::Simulator (SimulatorSource, the default),
 *  - a recorded instruction trace (trace::ReplaySource, or
 *    trace::BlockReplaySource over its v2 encoding), or
 *  - a window onto a stream that something else produces a block at
 *    a time, which is how the parallel sweep engine feeds a group of
 *    machine configurations one shared instruction stream in
 *    lock-step (src/sweep/sweep.cc).
 *
 * The contract mirrors Simulator::step(): next() produces the next
 * retired instruction or returns false, delivered() counts the
 * instructions handed out so far, and exhausted() reports that no
 * further instruction will ever be produced.  ready() says how many
 * instructions next() can hand out *now*: a windowed source may hold
 * only part of the stream yet, and its consumer (an ooo::OooCore)
 * pauses rather than pull past it, so a short window is never
 * mistaken for the end of the stream.
 */

#ifndef ARL_SIM_STEP_SOURCE_HH
#define ARL_SIM_STEP_SOURCE_HH

#include "common/types.hh"
#include "sim/simulator.hh"
#include "sim/step_info.hh"

namespace arl::sim
{

/** A pull-based stream of retired instructions. */
class StepSource
{
  public:
    virtual ~StepSource() = default;

    /**
     * Produce the next instruction.
     * @return false when the stream has ended (no step produced).
     */
    virtual bool next(StepInfo &out) = 0;

    /** Instructions delivered so far. */
    virtual InstCount delivered() const = 0;

    /** True once the stream can produce no further instruction. */
    virtual bool exhausted() const = 0;

    /**
     * Reposition the stream so the next instruction produced is
     * dynamic instruction @p n, counting the skipped prefix as
     * delivered.  Only seekable sources (a recorded trace) support
     * this; a live simulator cannot jump without executing.
     * @return false when the source is not seekable (the default).
     */
    virtual bool
    seekTo(InstCount n)
    {
        (void)n;
        return false;
    }

    /** ready() of a source that never runs short. */
    static constexpr InstCount Unlimited = ~InstCount{0};

    /**
     * How many instructions next() can deliver before more must be
     * produced.  next() returns false only at the true end of the
     * stream, so a consumer pulls at most ready() instructions and
     * then waits for the producer.  Sources that own their producer
     * (a live simulator, a recorded trace) never run short, and a
     * windowed source reports Unlimited once its stream has ended.
     */
    virtual InstCount ready() const { return Unlimited; }
};

/** StepSource over a live functional simulator (not owned). */
class SimulatorSource final : public StepSource
{
  public:
    /** @param sim simulator to pull from; must outlive the source. */
    explicit SimulatorSource(Simulator &sim) : sim(sim) {}

    bool next(StepInfo &out) override { return sim.step(out); }
    InstCount delivered() const override { return sim.instCount(); }
    bool exhausted() const override { return sim.halted(); }

  private:
    Simulator &sim;
};

} // namespace arl::sim

#endif // ARL_SIM_STEP_SOURCE_HH
