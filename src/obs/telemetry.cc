#include "obs/telemetry.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/logging.hh"
#include "obs/flight_recorder.hh"
#include "obs/host_meta.hh"
#include "obs/json.hh"

namespace arl::obs
{

namespace
{

std::uint64_t
steadyMs()
{
    using namespace std::chrono;
    return static_cast<std::uint64_t>(
        duration_cast<milliseconds>(steady_clock::now().time_since_epoch())
            .count());
}

/**
 * write() the whole buffer, retrying on EINTR and short writes.
 * Async-signal-safe (used by the black-box dump as well as the
 * normal emit path).  @return true when every byte landed.
 */
bool
writeAll(int fd, const char *data, std::size_t len)
{
    std::size_t done = 0;
    while (done < len) {
        ssize_t n = ::write(fd, data + done, len - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += static_cast<std::size_t>(n);
    }
    return true;
}

/** Hand-rolled unsigned decimal formatting (async-signal-safe). */
std::size_t
fmtU64(char *out, std::uint64_t v)
{
    char tmp[24];
    std::size_t n = 0;
    do {
        tmp[n++] = static_cast<char>('0' + v % 10);
        v /= 10;
    } while (v);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = tmp[n - 1 - i];
    return n;
}

/** Escape + clamp a name for embedding in a fixed-size record. */
std::string
clampName(const std::string &s)
{
    std::string esc = jsonEscape(s);
    if (esc.size() > 80)
        esc.resize(80);
    return esc;
}

} // namespace

std::unique_ptr<TelemetryChannel>
TelemetryChannel::open(const std::string &path, const TelemetryOptions &opt,
                       std::string *error)
{
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                    0644);
    if (fd < 0) {
        if (error)
            *error = std::string("cannot open telemetry file '") + path +
                     "': " + std::strerror(errno);
        return nullptr;
    }
    return std::unique_ptr<TelemetryChannel>(new TelemetryChannel(fd, opt));
}

TelemetryChannel::TelemetryChannel(int fd_, const TelemetryOptions &opt)
    : fd(fd_), opts(opt), ring(opt.ringSize ? opt.ringSize : 1)
{
    // Wall-clock triggering needs sub-interval checks; cap at 64Ki
    // instructions so a slow config still beats on time.
    checkPeriod = opts.intervalInsts ? opts.intervalInsts : 65536;
    if (opts.intervalWallMs && checkPeriod > 65536)
        checkPeriod = 65536;
    clock = opts.clockMs ? opts.clockMs : std::function<std::uint64_t()>(
                                              steadyMs);
    rss = opts.rssKb ? opts.rssKb : std::function<std::uint64_t()>(
                                        [] { return peakRssKb(); });
    openedMs = clock();
}

TelemetryChannel::~TelemetryChannel()
{
    // Never leave the flight recorder pointing at freed memory.
    disarmFlightRecorder(this);
    if (fd >= 0)
        ::close(fd);
}

void
TelemetryChannel::emitLine(const char *line, std::size_t len)
{
    std::lock_guard<std::mutex> lock(emitMutex);
    if (writeAll(fd, line, len)) {
        records.fetch_add(1, std::memory_order_relaxed);
        bytes.fetch_add(len, std::memory_order_relaxed);
    }
    // Ring copy: len is cleared before the text is overwritten so a
    // signal handler racing with this store sees an empty (skipped)
    // slot rather than torn bytes.
    std::uint64_t n = ringCount.load(std::memory_order_relaxed);
    RingSlot &slot = ring[n % ring.size()];
    slot.len.store(0, std::memory_order_relaxed);
    std::size_t copy = len < kMaxLine ? len : kMaxLine;
    std::memcpy(slot.text, line, copy);
    slot.len.store(static_cast<std::uint32_t>(copy),
                   std::memory_order_release);
    ringCount.store(n + 1, std::memory_order_release);
}

void
TelemetryChannel::emitMeta(const std::string &tool,
                           const std::string &command)
{
    char buf[kMaxLine];
    int n = std::snprintf(
        buf, sizeof(buf),
        "{\"telemetry_schema\":%d,\"kind\":\"meta\",\"tool\":\"%s\","
        "\"command\":\"%s\",\"pid\":%ld,\"interval_insts\":%" PRIu64
        ",\"interval_wall_ms\":%" PRIu64 ",\"ring\":%zu,\"wall_ms\":%" PRIu64
        "}\n",
        kTelemetrySchema, clampName(tool).c_str(),
        clampName(command).c_str(), static_cast<long>(::getpid()),
        opts.intervalInsts, opts.intervalWallMs, ring.size(),
        clock() - openedMs);
    if (n > 0)
        emitLine(buf, static_cast<std::size_t>(n) < sizeof(buf)
                          ? static_cast<std::size_t>(n)
                          : sizeof(buf) - 1);
}

void
TelemetryChannel::jobStarted(int job)
{
    std::lock_guard<std::mutex> lock(beatMutex);
    if (static_cast<std::size_t>(job) >= lastBeatMs.size())
        lastBeatMs.resize(job + 1, 0);
    lastBeatMs[job] = clock();
}

void
TelemetryChannel::jobFinished(int job)
{
    std::lock_guard<std::mutex> lock(beatMutex);
    if (static_cast<std::size_t>(job) < lastBeatMs.size())
        lastBeatMs[job] = 0;
}

std::uint64_t
TelemetryChannel::msSinceBeat(int job) const
{
    std::lock_guard<std::mutex> lock(beatMutex);
    if (job < 0 || static_cast<std::size_t>(job) >= lastBeatMs.size() ||
        lastBeatMs[job] == 0)
        return UINT64_MAX;
    std::uint64_t now = clock();
    std::uint64_t at = lastBeatMs[job];
    return now > at ? now - at : 0;
}

void
TelemetryChannel::emitJobStart(int job, const std::string &workload,
                               const std::string &config, int rep,
                               std::uint64_t totalInsts)
{
    jobStarted(job);
    char buf[kMaxLine];
    int n = std::snprintf(
        buf, sizeof(buf),
        "{\"telemetry_schema\":%d,\"kind\":\"job\",\"event\":\"start\","
        "\"job\":%d,\"workload\":\"%s\",\"config\":\"%s\",\"rep\":%d,"
        "\"total_insts\":%" PRIu64 ",\"wall_ms\":%" PRIu64 "}\n",
        kTelemetrySchema, job, clampName(workload).c_str(),
        clampName(config).c_str(), rep, totalInsts, clock() - openedMs);
    if (n > 0 && static_cast<std::size_t>(n) < sizeof(buf))
        emitLine(buf, static_cast<std::size_t>(n));
}

void
TelemetryChannel::emitJobDone(int job, const std::string &workload,
                              const std::string &config, int rep,
                              std::uint64_t insts, std::uint64_t cycles)
{
    jobFinished(job);
    char buf[kMaxLine];
    int n = std::snprintf(
        buf, sizeof(buf),
        "{\"telemetry_schema\":%d,\"kind\":\"job\",\"event\":\"done\","
        "\"job\":%d,\"workload\":\"%s\",\"config\":\"%s\",\"rep\":%d,"
        "\"insts\":%" PRIu64 ",\"cycles\":%" PRIu64 ",\"wall_ms\":%" PRIu64
        "}\n",
        kTelemetrySchema, job, clampName(workload).c_str(),
        clampName(config).c_str(), rep, insts, cycles,
        clock() - openedMs);
    if (n > 0 && static_cast<std::size_t>(n) < sizeof(buf))
        emitLine(buf, static_cast<std::size_t>(n));
}

void
TelemetryChannel::emitStall(int job, std::uint64_t idleMs)
{
    char buf[kMaxLine];
    int n = std::snprintf(
        buf, sizeof(buf),
        "{\"telemetry_schema\":%d,\"kind\":\"stall\",\"job\":%d,"
        "\"idle_ms\":%" PRIu64 ",\"wall_ms\":%" PRIu64 "}\n",
        kTelemetrySchema, job, idleMs, clock() - openedMs);
    if (n > 0 && static_cast<std::size_t>(n) < sizeof(buf))
        emitLine(buf, static_cast<std::size_t>(n));
}

void
TelemetryChannel::emitFinal(std::uint64_t totalInsts)
{
    char buf[kMaxLine];
    int n = std::snprintf(
        buf, sizeof(buf),
        "{\"telemetry_schema\":%d,\"kind\":\"final\",\"insts\":%" PRIu64
        ",\"records\":%" PRIu64 ",\"bytes\":%" PRIu64 ",\"wall_ms\":%" PRIu64
        "}\n",
        kTelemetrySchema, totalInsts, recordsEmitted(), bytesWritten(),
        clock() - openedMs);
    if (n > 0 && static_cast<std::size_t>(n) < sizeof(buf))
        emitLine(buf, static_cast<std::size_t>(n));
}

void
TelemetryChannel::emitHeartbeat(std::uint64_t seq, int job,
                                const std::string &workload,
                                const std::string &config, int rep,
                                const TelemetryFrame &cum,
                                const TelemetryFrame &delta,
                                std::uint64_t wallMs,
                                std::uint64_t deltaWallMs,
                                std::uint64_t totalInsts)
{
    jobStarted(job); // refresh the watchdog timestamp
    double ipc = delta.cycles
                     ? static_cast<double>(delta.insts) / delta.cycles
                     : 0.0;
    double mips = deltaWallMs ? static_cast<double>(delta.insts) /
                                    (deltaWallMs * 1000.0)
                              : 0.0;
    // ETA from the cumulative rate since the job started (more
    // stable than the last interval's).
    double etaS = -1.0;
    if (totalInsts && cum.insts && wallMs && cum.insts < totalInsts) {
        double rate = static_cast<double>(cum.insts) / wallMs; // insts/ms
        if (rate > 0.0)
            etaS = static_cast<double>(totalInsts - cum.insts) /
                   (rate * 1000.0);
    }
    char buf[kMaxLine];
    int n = std::snprintf(
        buf, sizeof(buf),
        "{\"telemetry_schema\":%d,\"kind\":\"hb\",\"seq\":%" PRIu64
        ",\"job\":%d,\"workload\":\"%s\",\"config\":\"%s\",\"rep\":%d,"
        "\"wall_ms\":%" PRIu64 ",\"insts\":%" PRIu64 ",\"cycles\":%" PRIu64
        ",\"total_insts\":%" PRIu64 ",\"d_insts\":%" PRIu64
        ",\"d_cycles\":%" PRIu64 ",\"ipc\":%.4f,\"mips\":%.3f,"
        "\"eta_s\":%.1f,\"d_loads\":%" PRIu64 ",\"d_stores\":%" PRIu64
        ",\"d_refs_data\":%" PRIu64 ",\"d_refs_heap\":%" PRIu64
        ",\"d_refs_stack\":%" PRIu64 ",\"d_lvaq\":%" PRIu64
        ",\"d_contention\":%" PRIu64 ",\"rss_kb\":%" PRIu64 "}\n",
        kTelemetrySchema, seq, job, clampName(workload).c_str(),
        clampName(config).c_str(), rep, wallMs, cum.insts, cum.cycles,
        totalInsts, delta.insts, delta.cycles, ipc, mips, etaS,
        delta.loads, delta.stores, delta.refsData, delta.refsHeap,
        delta.refsStack, delta.lvaqSteered, delta.contentionStalls,
        rss());
    if (n > 0 && static_cast<std::size_t>(n) < sizeof(buf))
        emitLine(buf, static_cast<std::size_t>(n));
}

void
TelemetryChannel::dumpBlackBox(int signo)
{
    // Async-signal-safe: nothing here but loads, hand formatting and
    // write().  The leading newline guards against a partial line an
    // interrupted emit may have left at the end of the file.
    std::uint64_t n = ringCount.load(std::memory_order_acquire);
    std::uint64_t count = n < ring.size() ? n : ring.size();
    char head[128];
    std::size_t p = 0;
    const char *a = "\n{\"telemetry_schema\":1,\"kind\":\"blackbox\","
                    "\"signal\":";
    std::size_t alen = std::strlen(a);
    std::memcpy(head + p, a, alen);
    p += alen;
    p += fmtU64(head + p, static_cast<std::uint64_t>(signo < 0 ? 0 : signo));
    const char *b = ",\"lines\":";
    std::memcpy(head + p, b, std::strlen(b));
    p += std::strlen(b);
    p += fmtU64(head + p, count);
    head[p++] = '}';
    head[p++] = '\n';
    writeAll(fd, head, p);
    for (std::uint64_t i = n - count; i < n; ++i) {
        const RingSlot &slot = ring[i % ring.size()];
        std::uint32_t len = slot.len.load(std::memory_order_acquire);
        if (len > 0 && len <= kMaxLine)
            writeAll(fd, slot.text, len);
    }
}

TelemetryScope::TelemetryScope(TelemetryChannel *channel, int job_,
                               std::string workload_, std::string config_,
                               int rep_, std::uint64_t totalInsts_)
    : chan(channel), job(job_), workload(std::move(workload_)),
      config(std::move(config_)), rep(rep_), totalInsts(totalInsts_)
{
    ARL_ASSERT(chan != nullptr, "telemetry scope without a channel");
}

void
TelemetryScope::start()
{
    startMs = chan->nowMs();
    lastMs = startMs;
    last = TelemetryFrame{};
    chan->emitJobStart(job, workload, config, rep, totalInsts);
}

void
TelemetryScope::check(const TelemetryFrame &frame)
{
    std::uint64_t now = chan->nowMs();
    if (frame.insts < last.insts) {
        // Counter epoch change (a stats fence between detailed
        // warmup and the timed window): re-base without emitting so
        // the next delta never underflows.
        last = frame;
        lastMs = now;
        return;
    }
    bool instDue = chan->intervalInsts() &&
                   frame.insts >= last.insts + chan->intervalInsts();
    bool wallDue = chan->intervalWallMs() &&
                   now >= lastMs + chan->intervalWallMs();
    if (instDue || wallDue)
        beat(frame, now);
}

void
TelemetryScope::beat(const TelemetryFrame &frame, std::uint64_t nowMs)
{
    TelemetryFrame delta;
    delta.insts = frame.insts - last.insts;
    delta.cycles = frame.cycles - last.cycles;
    delta.loads = frame.loads - last.loads;
    delta.stores = frame.stores - last.stores;
    delta.refsData = frame.refsData - last.refsData;
    delta.refsHeap = frame.refsHeap - last.refsHeap;
    delta.refsStack = frame.refsStack - last.refsStack;
    delta.lvaqSteered = frame.lvaqSteered - last.lvaqSteered;
    delta.contentionStalls = frame.contentionStalls - last.contentionStalls;
    std::uint64_t deltaWall = nowMs > lastMs ? nowMs - lastMs : 0;
    std::uint64_t sinceStart = nowMs > startMs ? nowMs - startMs : 0;
    seq = chan->nextSeq();
    chan->emitHeartbeat(seq, job, workload, config, rep, frame, delta,
                        sinceStart, deltaWall, totalInsts);
    last = frame;
    lastMs = nowMs;
}

void
TelemetryScope::done(std::uint64_t insts, std::uint64_t cycles)
{
    chan->emitJobDone(job, workload, config, rep, insts, cycles);
}

} // namespace arl::obs
