/**
 * @file
 * Streaming telemetry channel: periodic heartbeat records (guest
 * insts/cycles, interval IPC, guest-MIPS, ETA, access mix, port-denial
 * and TLB-penalty deltas, peak RSS) appended as JSONL to a file, one
 * write() per line so every completed record is durable even if the
 * process dies.
 *
 * Every emitted line is also copied into a bounded in-memory ring of
 * preformatted buffers; the flight recorder's fatal-signal handler
 * dumps that ring as a "black box" postamble using nothing but
 * async-signal-safe write() calls (see flight_recorder.hh).
 *
 * Layering: a TelemetryChannel is one output file shared by every
 * job of a run; a TelemetryScope binds the channel to one job
 * (workload, config, optional sampling representative) and computes
 * the per-interval rates.  Producers reach the scope only through
 * obs::Hooks::progress(), at the thresholds Hooks schedules, so a
 * disabled channel costs nothing beyond the producer's one threshold
 * compare.
 */

#ifndef ARL_OBS_TELEMETRY_HH
#define ARL_OBS_TELEMETRY_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace arl::obs
{

/** Schema version stamped on every telemetry line. */
constexpr int kTelemetrySchema = 1;

/** Tuning knobs for a telemetry channel. */
struct TelemetryOptions
{
    /** Heartbeat period in guest instructions (0 = wall-clock only). */
    std::uint64_t intervalInsts = 1'000'000;

    /**
     * Optional wall-clock heartbeat period in milliseconds.  When
     * set, the clock is checked every min(intervalInsts, 64Ki)
     * instructions and a heartbeat emitted when either trigger fires.
     */
    std::uint64_t intervalWallMs = 0;

    /** Black-box ring depth (most recent records kept for a crash). */
    std::size_t ringSize = 64;

    /**
     * Injectable monotonic clock (milliseconds).  Defaults to
     * std::chrono::steady_clock; tests and benches inject a fake for
     * deterministic rate fields.
     */
    std::function<std::uint64_t()> clockMs;

    /** Injectable peak-RSS provider (KiB).  Defaults to getrusage. */
    std::function<std::uint64_t()> rssKb;
};

/** Cumulative counters a producer hands to obs::Hooks::progress(). */
struct TelemetryFrame
{
    std::uint64_t insts = 0;
    std::uint64_t cycles = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t refsData = 0;
    std::uint64_t refsHeap = 0;
    std::uint64_t refsStack = 0;
    std::uint64_t lvaqSteered = 0;
    /**
     * OoO core only (d_contention): ready loads denied a cache port,
     * one per load per cycle, plus cycles a committing store waited
     * for a port, plus TLB-miss penalty cycles.  Ports are finite on
     * the ideal backend too, so it is non-zero there, and with
     * several loads denied in a cycle it can exceed the cycles.
     */
    std::uint64_t contentionStalls = 0;
};

/**
 * Append-only JSONL telemetry sink.  Thread-safe: sweep workers share
 * one channel and serialize on an internal mutex (the hot path is
 * the producer-side threshold compare, not the emit).
 */
class TelemetryChannel
{
  public:
    /**
     * Open @p path for appending and write nothing yet.
     * @return nullptr (setting @p error) when the file cannot be
     *         opened.
     */
    static std::unique_ptr<TelemetryChannel>
    open(const std::string &path, const TelemetryOptions &opt,
         std::string *error = nullptr);

    ~TelemetryChannel();

    TelemetryChannel(const TelemetryChannel &) = delete;
    TelemetryChannel &operator=(const TelemetryChannel &) = delete;

    /** Channel header: tool/subcommand plus the interval config. */
    void emitMeta(const std::string &tool, const std::string &command);

    /**
     * Job lifecycle records (sweep coordinator; single-run commands
     * use job 0).  @p rep is the sampling-representative index, or -1
     * for an exact run.
     */
    void emitJobStart(int job, const std::string &workload,
                      const std::string &config, int rep,
                      std::uint64_t totalInsts);
    void emitJobDone(int job, const std::string &workload,
                     const std::string &config, int rep,
                     std::uint64_t insts, std::uint64_t cycles);

    /** Watchdog: @p job has not beaten for @p idleMs milliseconds. */
    void emitStall(int job, std::uint64_t idleMs);

    /** End-of-run trailer (monitor --follow stops on it). */
    void emitFinal(std::uint64_t totalInsts);

    /** Milliseconds on the channel's (injectable) clock. */
    std::uint64_t nowMs() const { return clock(); }

    std::uint64_t intervalInsts() const { return opts.intervalInsts; }
    std::uint64_t intervalWallMs() const { return opts.intervalWallMs; }

    /**
     * Guest instructions between two heartbeat checks: the heartbeat
     * period, or 64Ki when that is 0 or a wall-clock trigger needs
     * the clock read more often.  obs::Hooks schedules every check.
     */
    std::uint64_t checkEvery() const { return checkPeriod; }

    /** Lines successfully written so far. */
    std::uint64_t recordsEmitted() const
    {
        return records.load(std::memory_order_relaxed);
    }
    /** Bytes successfully written so far. */
    std::uint64_t bytesWritten() const
    {
        return bytes.load(std::memory_order_relaxed);
    }

    /**
     * Milliseconds since the last heartbeat of @p job, or UINT64_MAX
     * when the job is not currently running (watchdog input).
     */
    std::uint64_t msSinceBeat(int job) const;

    /**
     * Async-signal-safe black-box dump: writes a postamble header
     * followed by the ring's preformatted lines (oldest first) using
     * only write().  Called from the flight recorder's handler; safe
     * to call from normal context too (tests do).
     */
    void dumpBlackBox(int signo);

    /** @name Internal: used by TelemetryScope. */
    ///@{
    void emitHeartbeat(std::uint64_t seq, int job,
                       const std::string &workload,
                       const std::string &config, int rep,
                       const TelemetryFrame &cum,
                       const TelemetryFrame &delta, std::uint64_t wallMs,
                       std::uint64_t deltaWallMs,
                       std::uint64_t totalInsts);
    std::uint64_t nextSeq()
    {
        return seqCounter.fetch_add(1, std::memory_order_relaxed) + 1;
    }
    void jobStarted(int job);
    void jobFinished(int job);
    ///@}

  private:
    TelemetryChannel(int fd, const TelemetryOptions &opt);

    /** Format + single write() + ring copy; counts records/bytes. */
    void emitLine(const char *line, std::size_t len);

    static constexpr std::size_t kMaxLine = 512;

    struct RingSlot
    {
        std::atomic<std::uint32_t> len{0};
        char text[kMaxLine];
    };

    int fd = -1;
    TelemetryOptions opts;
    std::function<std::uint64_t()> clock;
    std::function<std::uint64_t()> rss;
    std::uint64_t openedMs = 0;
    std::uint64_t checkPeriod = 0;

    std::mutex emitMutex;
    std::vector<RingSlot> ring;
    std::atomic<std::uint64_t> ringCount{0};
    std::atomic<std::uint64_t> records{0};
    std::atomic<std::uint64_t> bytes{0};
    std::atomic<std::uint64_t> seqCounter{0};

    /** Per-job last-beat timestamps for the watchdog (ms; 0 = idle). */
    mutable std::mutex beatMutex;
    std::vector<std::uint64_t> lastBeatMs;
};

/**
 * Per-job view of a channel: computes interval deltas, IPC,
 * guest-MIPS and ETA.  Not thread-safe; one scope per job, used by
 * that job's thread only.
 */
class TelemetryScope
{
  public:
    /**
     * @param rep        sampling-representative index, -1 for exact.
     * @param totalInsts instruction target for %-progress/ETA
     *                   (0 = unknown; ETA omitted).
     */
    TelemetryScope(TelemetryChannel *channel, int job,
                   std::string workload, std::string config, int rep,
                   std::uint64_t totalInsts);

    /** Emit the job-start record and start the rate clock. */
    void start();

    /**
     * Interval check from obs::Hooks::progress(): emits a heartbeat
     * when the instruction or wall-clock trigger fired.
     */
    void check(const TelemetryFrame &frame);

    /** Emit the job-done record. */
    void done(std::uint64_t insts, std::uint64_t cycles);

    TelemetryChannel *channel() const { return chan; }

  private:
    void beat(const TelemetryFrame &frame, std::uint64_t nowMs);

    TelemetryChannel *chan;
    int job;
    std::string workload;
    std::string config;
    int rep;
    std::uint64_t totalInsts;

    std::uint64_t startMs = 0;
    std::uint64_t lastMs = 0;
    TelemetryFrame last;
    std::uint64_t seq = 0;
};

} // namespace arl::obs

#endif // ARL_OBS_TELEMETRY_HH
