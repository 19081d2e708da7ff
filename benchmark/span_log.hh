/**
 * @file
 * In-memory span log for the benchmark's traced runs.
 *
 * Every call the traced run makes into a layer is wrapped in a
 * SpanLog::Scope: name ("<layer>.<operation>"), start, duration, the
 * enclosing span, and the workload program and machine configuration
 * it worked on.  Spans stay in memory until the run ends and are then
 * written as one Chrome trace-event document (`ph:"X"` complete
 * events), which `arl_sim validate` checks and chrome://tracing or
 * Perfetto render.  A span's self time is its duration minus the
 * durations of its direct children.
 */

#ifndef ARL_BENCHMARK_SPAN_LOG_HH
#define ARL_BENCHMARK_SPAN_LOG_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace arl::benchmark
{

class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::string workload;
        std::string config;
        /** Index of the enclosing span, -1 for a root. */
        int parent = -1;
        /** Seconds since the log was created. */
        double start = 0.0;
        double dur = 0.0;
        /** Guest instructions the span processed (0 = not applicable). */
        std::uint64_t insts = 0;
    };

    /** One open span; it closes at end() or at scope exit. */
    class Scope
    {
      public:
        Scope(SpanLog &log, std::string name, std::string workload = {},
              std::string config = {});
        ~Scope() { end(); }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        void insts(std::uint64_t n) { log.spans[index].insts = n; }

        /** Close the span; @return its duration in seconds. */
        double end();

      private:
        SpanLog &log;
        std::size_t index;
        bool open = true;
    };

    const std::vector<Span> &all() const { return spans; }

    /** Duration minus the durations of @p index's direct children. */
    double selfSeconds(std::size_t index) const;

    /** Seconds spent opening and closing spans (the cost of tracing). */
    double bookkeepingSeconds() const { return bookkeeping; }

    /**
     * Write every span as a Chrome trace-event document, in start
     * order (the order spans were opened).
     * @return false when @p path cannot be written.
     */
    bool writeChromeTrace(const std::string &path) const;

  private:
    using Clock = std::chrono::steady_clock;

    double now() const;

    Clock::time_point origin = Clock::now();
    std::vector<Span> spans;
    std::vector<std::size_t> openStack;
    double bookkeeping = 0.0;
};

} // namespace arl::benchmark

#endif // ARL_BENCHMARK_SPAN_LOG_HH
