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

/** One interval row: every frozen stat, values in names order. */
struct IntervalSample
{
    std::uint64_t at = 0;  ///< committed instructions when taken
    std::vector<double> values;
};

/** The rows a sampler keeps: a report's "intervals" section. */
struct IntervalReport
{
    std::uint64_t every = 0;  ///< sampling period; 0 = section omitted
    std::vector<std::string> names;
    std::vector<IntervalSample> samples;
    /**
     * Per-interval differences: deltas[0] is samples[0] minus the
     * baseline, deltas[i] is samples[i] minus samples[i-1].
     * Meaningful for counters; for gauges/formulas it is the change
     * in level over the interval.
     */
    std::vector<IntervalSample> deltas;
};

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
    /**
     * @param registry sampled registry; must outlive the sampler.
     * @param every    sampling period in committed instructions (>0).
     * @param keep     keep the rows in rows() (false when a sink
     *                 writes them out: O(1) sampler state).
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
    const IntervalSample &row() const { return last; }
    const IntervalSample &rowDelta() const { return lastDelta; }

    /** True when rows() keeps the rows taken. */
    bool keepsRows() const { return keep; }

    /** The period, the frozen names (the column order of every row)
     *  and, when keepsRows(), every row taken so far. */
    const IntervalReport &rows() const { return kept; }

  private:
    std::vector<double> sampleValues() const;
    void capture(std::uint64_t committed);

    const StatsRegistry &registry;
    std::uint64_t nextAt;
    bool keep;
    IntervalReport kept;
    IntervalSample last;
    IntervalSample lastDelta;
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
