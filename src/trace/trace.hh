/**
 * @file
 * Binary instruction-trace recording and replay.
 *
 * The 1990s methodology the paper's toolchain supported: run the
 * functional simulator once, persist the dynamic instruction stream,
 * then drive any number of analyses (profilers, predictors) from the
 * file without re-executing.  Every §3 consumer in this repository
 * reads sim::StepInfo, so a replayed trace is a drop-in substitute
 * for a live simulation.
 *
 * Two on-disk formats share the 64-byte header (little-endian):
 *
 *  - v1: [TraceHeader][TraceRecord * N] — 32 raw bytes per retired
 *    instruction;
 *  - v2: delta+varint records packed into CRC-guarded fixed-count
 *    blocks with a seekable footer index carrying per-block decode
 *    context and optional architectural checkpoints (format_v2.hh).
 *    Typically >=4x smaller; decodes to the bit-identical records.
 *
 * Records carry everything the profilers and predictors consume —
 * PC, the encoded instruction word (re-decoded on read), effective
 * address, region, fetch-time GBH/CID context, and produced values.
 * Traces are bit-reproducible: recording the same program twice
 * yields identical files, in either format.
 */

#ifndef ARL_TRACE_TRACE_HH
#define ARL_TRACE_TRACE_HH

#include <array>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "sim/step_info.hh"
#include "vm/program.hh"

namespace arl::trace
{

/** File magic: "ARLT". */
constexpr std::uint32_t TraceMagic = 0x544c5241;
/** Format version (raw fixed-size records). */
constexpr std::uint32_t TraceVersion = 1;
/** Format version (delta+varint blocks + footer index). */
constexpr std::uint32_t TraceVersionV2 = 2;

/** Selectable on-disk encoding. */
enum class TraceFormat : std::uint32_t
{
    V1 = TraceVersion,
    V2 = TraceVersionV2,
};

/** Printable name ("v1"/"v2") of @p format. */
const char *formatName(TraceFormat format);

/** Parse "v1"/"v2" (also "1"/"2"); @return false on anything else. */
bool parseFormat(const std::string &text, TraceFormat &out);

/**
 * Records per v2 block — also the architectural-checkpoint cadence
 * of recordToMemory(), so every persisted checkpoint lands on a
 * seekable block boundary.
 */
constexpr std::uint32_t DefaultBlockRecords = 1u << 16;

/** TraceRecord::flags bits. */
constexpr std::uint8_t FlagTaken = 1 << 0;
constexpr std::uint8_t FlagCall = 1 << 1;
constexpr std::uint8_t FlagReturn = 1 << 2;

/**
 * Architectural state captured at a block boundary while recording:
 * enough to identify (register file, PC) and validate (memory-touch
 * digest) the functional state a checkpointed fast-forward resumes
 * from, without replaying the prefix.
 */
struct ArchCheckpoint
{
    /** Dynamic record index the state holds at (pre-execution). */
    InstCount index = 0;
    /** Functional PC. */
    Addr pc = 0;
    /** Integer register file. */
    std::array<Word, 32> gpr{};
    /** FP register file. */
    std::array<Word, 32> fpr{};
    /** FNV-1a digest over memory touches of records [0, index). */
    std::uint64_t memDigest = 0;
};

/** On-disk record; fixed 32 bytes. */
struct TraceRecord
{
    std::uint32_t pc;
    std::uint32_t instWord;    ///< encoded instruction (re-decoded)
    std::uint32_t effAddr;
    std::uint32_t gbh;
    std::uint32_t cid;
    std::uint32_t result;
    std::uint32_t storeValue;
    std::uint8_t flags;        ///< bit0 taken, bit1 call, bit2 return
    std::uint8_t region;       ///< vm::Region (or Unknown if not mem)
    std::uint8_t memSize;
    std::uint8_t dest;         ///< flat destination register or NoReg
};

static_assert(sizeof(TraceRecord) == 32, "trace record must pack");

/** Convert a live step into a record. */
TraceRecord toRecord(const sim::StepInfo &step);

/**
 * Reconstitute a step.  @p seq restores the dynamic sequence number
 * (records do not store it — it is implicit in file position).
 */
sim::StepInfo fromRecord(const TraceRecord &record, InstCount seq);

/**
 * Reconstitute a step from a record whose instruction word has
 * already been decoded into @p inst (the replay hot path: predecoded
 * traces skip the per-record isa::decode entirely).  @p inst must be
 * the decoding of record.instWord.
 */
sim::StepInfo fromRecord(const TraceRecord &record, InstCount seq,
                         const isa::DecodedInst &inst);

/**
 * Cheap per-record classification for fast functional passes that
 * only need the instruction's kind, not a full StepInfo (e.g. the
 * phase-sampling feature extractor walks millions of records and
 * wants one table lookup per record, not a reconstitution).
 */
struct RecordClass
{
    bool isMem = false;
    bool isLoad = false;
    bool isStore = false;
    bool isBranch = false;
    bool taken = false;
    /** vm::Region of the access (Unknown when not a data access). */
    std::uint8_t region = 0;
};

/** Classify @p record; fatal on an undecodable instruction word. */
RecordClass classifyRecord(const TraceRecord &record);

/** Classify @p record whose instruction word decodes to @p inst. */
RecordClass classifyRecord(const TraceRecord &record,
                           const isa::DecodedInst &inst);

/**
 * Write the 64-byte file header naming @p program (truncated to 55
 * bytes) in @p format: the start of every trace file.
 */
void writeTraceHeader(std::ostream &out, const std::string &program,
                      TraceFormat format);

namespace v2
{
class Writer;
}

/** Streams retired instructions to a trace file (v1 or v2). */
class TraceWriter
{
  public:
    /**
     * Open @p path for writing and emit the header.
     * Fatal on I/O errors (user environment problem) unless
     * @p non_fatal is set, in which case errors — at open, append,
     * or close time — latch ok() to false instead and the caller
     * decides (opportunistic writers like the sweep's trace cache
     * must not abort the run over a full disk).
     * @param block_records v2 block size (ignored for v1).
     */
    TraceWriter(const std::string &path, const std::string &program,
                TraceFormat format = TraceFormat::V1,
                std::uint32_t block_records = DefaultBlockRecords,
                bool non_fatal = false);

    /** Append one instruction. */
    void append(const sim::StepInfo &step);

    /** Append one already-converted record (bulk/cached writers). */
    void appendRecord(const TraceRecord &record);

    /**
     * Attach an architectural checkpoint (v2 only; ignored by v1).
     * Only checkpoints whose index lands on a block boundary are
     * persisted in the footer index.
     */
    void addCheckpoint(const ArchCheckpoint &checkpoint);

    /** Mark the trace as covering the complete execution (v2). */
    void setComplete(bool value) { complete = value; }

    /** Flush and close (also done by the destructor). */
    void close();

    /** Instructions written so far. */
    InstCount count() const { return written; }

    /** On-disk size; valid once close() has run. */
    std::uint64_t bytesWritten() const { return fileBytes; }

    /** False once a non-fatal writer has hit an I/O error. */
    bool ok() const { return !failed; }

    ~TraceWriter();

  private:
    std::ofstream out;
    std::string path;
    std::unique_ptr<v2::Writer> body;  ///< non-null for v2
    InstCount written = 0;
    std::uint64_t fileBytes = 0;
    bool complete = false;
    bool nonFatal = false;
    bool failed = false;
};

namespace v2
{
class Reader;
}

/**
 * Reads a trace file back as a StepInfo stream.  The header version
 * is sniffed, so v1 and v2 files read identically; v2 additionally
 * supports seeking to an arbitrary record without decoding the
 * prefix beyond the containing block.
 */
class TraceReader
{
  public:
    /** Open @p path; fatal on missing/corrupt headers. */
    explicit TraceReader(const std::string &path);

    ~TraceReader();

    /**
     * Read the next instruction.
     * @return false at end of trace.
     */
    bool next(sim::StepInfo &out);

    /**
     * Read the next raw record without decoding it into a StepInfo
     * (bulk loaders that keep the on-disk representation).
     * @return false at end of trace.
     */
    bool nextRecord(TraceRecord &out);

    /**
     * Position the stream so the next record read is record @p n
     * (v2: decodes only the containing block; v1: a file seek).
     */
    void seek(InstCount n);

    /** Program name recorded in the header. */
    const std::string &programName() const { return name; }

    /** Header version of the file (1 or 2). */
    std::uint32_t version() const { return fileVersion; }

    /** Architectural checkpoints stored in the index (v2 only). */
    std::vector<ArchCheckpoint> checkpoints() const;

    /** Stream position: index of the next record to be read. */
    InstCount count() const { return consumed; }

  private:
    bool fillBuffer();

    std::ifstream in;
    std::string path;
    std::string name;
    std::uint32_t fileVersion = TraceVersion;
    InstCount consumed = 0;
    std::unique_ptr<v2::Reader> body;        ///< non-null for v2
    std::vector<TraceRecord> buffer;         ///< decoded v2 block
    std::size_t bufferPos = 0;
    std::size_t nextBlock = 0;
};

/**
 * Convenience: run @p program functionally and record the stream.
 * v2 traces get an architectural checkpoint at every block boundary.
 * @return instructions recorded.
 */
InstCount recordTrace(std::shared_ptr<const vm::Program> program,
                      const std::string &path, InstCount max_insts = 0,
                      TraceFormat format = TraceFormat::V1,
                      std::uint32_t block_records = DefaultBlockRecords);

} // namespace arl::trace

#endif // ARL_TRACE_TRACE_HH
