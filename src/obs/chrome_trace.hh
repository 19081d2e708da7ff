/**
 * @file
 * Chrome Trace Event exporter: turns the core's pipeline event stream
 * into a trace JSON file that chrome://tracing and Perfetto render as
 * a per-instruction waterfall, one track group per pipe (D-cache /
 * LVC / non-memory), plus one counter track per sampled stat.
 *
 * The tracer is a Sink, fed the same pipe events and interval rows
 * as the others.  Timestamps are cycles (Perfetto's unit label will
 * read "us"; the ratios are what matter).
 */

#ifndef ARL_OBS_CHROME_TRACE_HH
#define ARL_OBS_CHROME_TRACE_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/pipetrace.hh"

namespace arl::obs
{

/**
 * Collects instruction lifecycles and emits Chrome trace JSON.
 *
 * Usage: feed event() during the run (Dispatch opens a record, Commit
 * closes it) and row() as interval rows are taken, then finish()
 * exactly once to sort and serialize.  The stream is caller-owned.
 */
class ChromeTracer : public Sink
{
  public:
    /** @param max_insts instruction-record cap (0 = unlimited). */
    explicit ChromeTracer(std::ostream &os, std::uint64_t max_insts = 0);

    bool tracesPipe() const override { return true; }

    void event(std::uint64_t cycle, std::uint64_t seq, std::uint32_t pc,
               PipeEvent ev, const std::string &detail = "") override;

    /** Append one point to the counter track @p name. */
    void counter(std::uint64_t cycle, const std::string &name,
                 double value);

    /**
     * One point per sampled stat: the row's per-interval deltas,
     * stamped with its cumulative "ooo.cycles" (the row's index when
     * that column is absent).
     */
    void row(const IntervalSampler &sampler) override;

    /** Sort and write the trace document; valid exactly once. */
    void finish(const std::string &process_name) override;

    /** Instruction records finalized (committed). */
    std::uint64_t emitted() const { return emittedCount; }

    /** Instruction records suppressed by the cap. */
    std::uint64_t dropped() const { return droppedCount; }

  private:
    /** Pipe track groups (tid bases keep the groups visually apart). */
    enum Group : std::uint8_t { Dcache = 0, Lvc = 1, Core = 2 };

    struct InstRecord
    {
        std::uint64_t seq = 0;
        std::uint32_t pc = 0;
        std::uint64_t dispatchAt = 0;
        std::uint64_t issueAt = kUnset;
        std::uint64_t memAt = kUnset;
        std::uint64_t writebackAt = kUnset;
        std::uint64_t commitAt = kUnset;
        std::uint8_t group = Core;
        std::string steer;
        std::vector<std::pair<std::uint64_t, const char *>> instants;
    };

    struct TraceEvent
    {
        std::uint64_t ts = 0;
        std::uint64_t dur = 0;
        char ph = 'X';
        std::uint32_t tid = 0;
        std::string name;
        std::uint64_t seq = 0;
        bool hasSeq = false;
        std::string steer;
        double value = 0.0;
        bool hasValue = false;
        std::string threadName;
    };

    static constexpr std::uint64_t kUnset = ~std::uint64_t(0);

    void finalizeRecords();
    void writeEvent(class JsonWriter &w, const TraceEvent &ev) const;

    std::ostream &os;
    std::uint64_t limit;
    std::uint64_t emittedCount = 0;
    std::uint64_t droppedCount = 0;
    std::uint64_t rows = 0;
    bool finished = false;

    std::map<std::uint64_t, InstRecord> open;
    std::vector<InstRecord> done;
    std::vector<TraceEvent> events;
};

} // namespace arl::obs

#endif // ARL_OBS_CHROME_TRACE_HH
