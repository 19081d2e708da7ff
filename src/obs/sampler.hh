/**
 * @file
 * Interval sampler: periodic snapshots of a StatsRegistry keyed to
 * committed-instruction count, exposing phase behaviour (region mix,
 * ARPT accuracy, LVC hit rate over time) instead of end-of-run
 * aggregates only.
 */

#ifndef ARL_OBS_SAMPLER_HH
#define ARL_OBS_SAMPLER_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/pipetrace.hh"
#include "obs/stats_registry.hh"

namespace arl::obs
{

/**
 * Samples a registry every @p every committed instructions.
 *
 * The leaf-name list is frozen at construction (stats registered
 * later are not sampled), as is a baseline snapshot so deltas are
 * relative to the sampling start (e.g. after cache warmup), not to
 * zero.  tick() is cheap when no boundary was crossed; obs::Hooks
 * calls it and hands each row taken to its sinks.
 */
class IntervalSampler
{
  public:
    /** One snapshot, values in names() order. */
    struct Sample
    {
        std::uint64_t at = 0;  ///< committed instructions when taken
        std::vector<double> values;
    };

    /**
     * @param registry sampled registry; must outlive the sampler.
     * @param every    sampling period in committed instructions (>0).
     * @param keep     keep the rows for samples()/deltas() (false when
     *                 a sink writes them out: O(1) sampler state).
     */
    IntervalSampler(const StatsRegistry &registry, std::uint64_t every,
                    bool keep = true);

    /** Committed-instruction count at which tick() takes a row. */
    std::uint64_t next() const { return nextAt; }

    /**
     * Notify progress to @p committed instructions; takes one row
     * (see row()) and returns true when next() was reached or passed.
     */
    bool tick(std::uint64_t committed);

    /**
     * End-of-run flush: capture the final partial interval (if any
     * instructions ran past the last row) so a run of N committed
     * instructions yields ceil(N/every) rows, not floor.  True when
     * it took one.
     */
    bool flush(std::uint64_t committed);

    /** The row taken last (the baseline, at 0, before the first), and
     *  its change from the row before it (or from the baseline). */
    const Sample &row() const { return last; }
    const Sample &rowDelta() const { return lastDelta; }

    /** Sampling period. */
    std::uint64_t every() const { return interval; }

    /** Frozen leaf-stat names (column order of every sample). */
    const std::vector<std::string> &names() const { return statNames; }

    /** Values captured at construction (the delta baseline). */
    const std::vector<double> &baseline() const { return base; }

    /** True when samples()/deltas() keep the rows taken. */
    bool keepsRows() const { return keep; }

    /** All samples kept so far (cumulative values). */
    const std::vector<Sample> &samples() const { return taken; }

    /**
     * Per-interval differences: deltas()[0] is samples()[0] minus the
     * baseline, deltas()[i] is samples()[i] minus samples()[i-1].
     * Meaningful for counters; for gauges/formulas it is the change
     * in level over the interval.
     */
    const std::vector<Sample> &deltas() const { return takenDeltas; }

  private:
    std::vector<double> sampleValues() const;
    void capture(std::uint64_t committed);

    const StatsRegistry &registry;
    std::uint64_t interval;
    std::uint64_t nextAt;
    bool keep;
    std::vector<std::string> statNames;
    std::vector<double> base;
    std::vector<Sample> taken;
    std::vector<Sample> takenDeltas;
    Sample last;
    Sample lastDelta;
};

/**
 * Writes each interval row as a CSV line ("at,<value>,...") under a
 * header of the frozen names, as the row is taken, flushing every
 * line so a long run's rows reach the disk as it goes.  It takes the
 * rows: a report then omits its "intervals" section.
 */
class IntervalCsv : public Sink
{
  public:
    /** @param os caller-owned stream. */
    explicit IntervalCsv(std::ostream &os) : os(os) {}

    bool takesRows() const override { return true; }
    void start(const IntervalSampler &sampler) override;
    void row(const IntervalSampler &sampler) override;

  private:
    std::ostream &os;
};

} // namespace arl::obs

#endif // ARL_OBS_SAMPLER_HH
