/**
 * @file
 * In-memory instruction traces and concurrent trace replay.
 *
 * The parallel sweep engine records each workload's dynamic
 * instruction stream once and replays it into many timing/profiling
 * jobs at once.  A recorded stream is held one of two ways, both
 * immutable and shareable across threads (readers never mutate it,
 * so no synchronisation is needed):
 *
 *  - InMemoryTrace: decoded TraceRecords plus their predecoded
 *    instructions, 44 B per instruction, walked by ReplaySource —
 *    the cheapest to replay, for streams many jobs read in full;
 *  - EncodedTrace: the v2 block encoding (format_v2.hh), about 5 B
 *    per instruction, walked by BlockReplaySource one decoded block
 *    at a time — for streams read end to end at most once, where a
 *    decoded copy would only cost memory.
 *
 * Both round-trip through the ARLT v2 file format byte-identically:
 * trySaveTrace()/loadTrace() and trySaveEncoded()/loadEncoded()
 * implement the sweep engine's on-disk trace cache (--trace-cache),
 * keyed by file name, and either pair reads the other's files.  Every
 * file is written by one routine that leaves no partial file behind,
 * and read back through v2::Reader's checks.  Recording is
 * bit-reproducible, so a cache hit is byte-equivalent to a fresh
 * recording.
 */

#ifndef ARL_TRACE_REPLAY_HH
#define ARL_TRACE_REPLAY_HH

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "sim/step_source.hh"
#include "trace/format_v2.hh"
#include "trace/trace.hh"
#include "vm/program.hh"

namespace arl::trace
{

/** An immutable recorded instruction stream, shareable across threads. */
struct InMemoryTrace
{
    /** Name of the traced program (TraceHeader::program). */
    std::string program;
    /** One record per retired instruction, in program order. */
    std::vector<TraceRecord> records;
    /**
     * Architectural checkpoints captured every checkpointEvery
     * records while recording (none on hand-built traces), sorted by
     * index.
     */
    std::vector<ArchCheckpoint> checkpoints;
    /** Checkpoint cadence (also the v2 block size when saved). */
    InstCount checkpointEvery = 0;
    /**
     * True when the program halted within the recorded window (the
     * trace covers the complete execution, not a truncated prefix).
     */
    bool complete = false;
    /**
     * Predecoded instruction words, parallel to `records` (empty on
     * hand-built traces).  Filled by recording and by cache loading,
     * and shared read-only by every ReplaySource, so an N-job sweep
     * decodes each record once instead of N times.
     */
    std::vector<isa::DecodedInst> decoded;

    InstCount size() const { return records.size(); }
};

/**
 * A recorded stream held as its v2 encoding: the program name plus
 * the v2 body a cache file stores after its header, each block in
 * its own buffer.
 */
struct EncodedTrace
{
    /** Name of the traced program (TraceHeader::program). */
    std::string program;
    v2::Image image;

    InstCount size() const { return image.totalRecords; }
};

/**
 * Sees each record of a stream, with its decoded instruction, in
 * order — the hook that lets one pass over a stream (recording it,
 * or validating a cached copy) also feed an analysis such as the
 * sampler's interval features.
 */
class RecordVisitor
{
  public:
    virtual ~RecordVisitor() = default;
    virtual void visit(const TraceRecord &record,
                       const isa::DecodedInst &inst) = 0;
};

/**
 * Run @p program functionally and record the stream into memory,
 * capturing an architectural checkpoint every @p checkpoint_every
 * records (0 disables capture).
 * @param max_insts instruction cap (0 = to completion).
 */
std::shared_ptr<const InMemoryTrace>
recordToMemory(std::shared_ptr<const vm::Program> program,
               InstCount max_insts = 0,
               InstCount checkpoint_every = DefaultBlockRecords);

/**
 * recordToMemory() straight into the v2 encoding: each block is
 * encoded as soon as it fills, so the recording never holds more
 * than one block decoded.  Blocks hold @p checkpoint_every records
 * (DefaultBlockRecords when 0, which also disables checkpoints) —
 * the same blocks saveTrace() cuts from recordToMemory()'s result.
 * @param visitor optional; sees every record as it is recorded.
 */
std::shared_ptr<const EncodedTrace>
recordEncoded(std::shared_ptr<const vm::Program> program,
              InstCount max_insts = 0,
              InstCount checkpoint_every = DefaultBlockRecords,
              RecordVisitor *visitor = nullptr);

/**
 * Write @p t to @p path as an ARLT v2 file: t.checkpoints go in the
 * footer index, with t.checkpointEvery as the block size so their
 * boundaries coincide.  An unopenable path or a mid-write I/O error
 * (disk full, revoked permissions) returns false, after unlinking
 * whatever partial file was created, so opportunistic writers such
 * as the sweep's trace cache never abort the run over it.
 * @param out_bytes bytes written, valid only on success.
 */
bool trySaveTrace(const std::string &path, const InMemoryTrace &t,
                  std::uint64_t &out_bytes);

/** trySaveTrace() that is fatal on I/O errors; @return bytes written. */
std::uint64_t saveTrace(const std::string &path, const InMemoryTrace &t,
                        TraceFormat format = TraceFormat::V2);

/**
 * trySaveTrace() for an encoded trace: writes the image as it is,
 * with no second encoding pass.  The file is byte-identical to
 * trySaveTrace() of the same stream decoded.
 */
bool trySaveEncoded(const std::string &path, const EncodedTrace &t,
                    std::uint64_t &out_bytes);

/** Optional observability for loadTrace() and loadEncoded(). */
struct TraceLoadStats
{
    std::uint64_t fileBytes = 0;  ///< on-disk size
    double seconds = 0.0;         ///< wall time spent loading
};

/**
 * Load an ARLT file written by trySaveTrace(), trySaveEncoded() or
 * `arl_sim record`.  Checkpoints are validated against the decoded
 * stream (PC and memory-touch digest) before they are trusted.
 * @return null when @p path does not exist or is not a valid trace
 *         (corrupt caches fall back to re-recording, they never
 *         abort the run).
 */
std::shared_ptr<const InMemoryTrace>
loadTrace(const std::string &path, TraceLoadStats *stats = nullptr);

/**
 * Load a trace file as an EncodedTrace, after the same validation
 * loadTrace() runs (v2::Reader::scan): every block is decoded once
 * to check it, and only its encoding is kept.
 * @param visitor optional; sees every record during that pass.
 * @return null when @p path is missing or not a valid trace.
 */
std::shared_ptr<const EncodedTrace>
loadEncoded(const std::string &path, TraceLoadStats *stats = nullptr,
            RecordVisitor *visitor = nullptr);

/**
 * StepSource that replays an InMemoryTrace.
 *
 * Thread-safe by construction: the trace is shared and immutable,
 * the cursor is per-source.  Replaying a trace into an OooCore
 * yields bit-identical timing to feeding the core from a live
 * functional simulator (asserted by tests/test_differential.cc).
 */
class ReplaySource final : public sim::StepSource
{
  public:
    explicit ReplaySource(std::shared_ptr<const InMemoryTrace> trace)
        : trace(std::move(trace))
    {
    }

    bool
    next(sim::StepInfo &out) override
    {
        if (pos >= trace->records.size())
            return false;
        // Predecoded fast path; per-record isa::decode otherwise.
        if (pos < trace->decoded.size())
            out = fromRecord(trace->records[pos], pos,
                             trace->decoded[pos]);
        else
            out = fromRecord(trace->records[pos], pos);
        ++pos;
        return true;
    }

    InstCount delivered() const override { return pos; }

    bool
    exhausted() const override
    {
        return pos >= trace->records.size();
    }

    /**
     * Reposition so the next record delivered is record @p n:
     * records before @p n are never decoded into StepInfos.
     * delivered() counts the skipped prefix, exactly as if it had
     * been consumed.
     */
    bool
    seekTo(InstCount n) override
    {
        pos = static_cast<std::size_t>(
            std::min<InstCount>(n, trace->records.size()));
        return true;
    }

  private:
    std::shared_ptr<const InMemoryTrace> trace;
    std::size_t pos = 0;
};

/**
 * StepSource that replays an EncodedTrace a block at a time: it
 * decodes the next block into buffers it owns when the current one
 * runs out, so replay holds one block of records however long the
 * trace.  Delivers exactly what a ReplaySource over the decoded
 * trace delivers; thread-safe the same way (the image is shared and
 * immutable, the cursor and buffers are per-source).
 */
class BlockReplaySource final : public sim::StepSource
{
  public:
    explicit BlockReplaySource(std::shared_ptr<const EncodedTrace> trace)
        : trace(std::move(trace))
    {
    }

    bool
    next(sim::StepInfo &out) override
    {
        while (pos >= records.size()) {
            if (nextBlock >= trace->image.blocks.size())
                return false;
            load(nextBlock);
        }
        out = fromRecord(records[pos], base + pos, insts[pos]);
        ++pos;
        return true;
    }

    InstCount delivered() const override { return base + pos; }

    bool
    exhausted() const override
    {
        return base + pos >= trace->size();
    }

    /**
     * Reposition so the next record delivered is record @p n,
     * decoding only the block that holds it; delivered() counts the
     * skipped prefix, as ReplaySource::seekTo does.
     */
    bool seekTo(InstCount n) override;

  private:
    /** Decode block @p b into the buffers. */
    void load(std::size_t b);

    std::shared_ptr<const EncodedTrace> trace;
    std::vector<TraceRecord> records;
    std::vector<isa::DecodedInst> insts;
    /** Record index of records[0]. */
    InstCount base = 0;
    std::size_t pos = 0;
    std::size_t nextBlock = 0;
};

} // namespace arl::trace

#endif // ARL_TRACE_REPLAY_HH
