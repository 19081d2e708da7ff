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
 * A trace file (ARLT, version 2) is a 64-byte header (magic, version,
 * program name) followed by delta+varint records packed into
 * CRC-guarded fixed-count blocks, with a seekable footer index that
 * carries per-block decode context and optional architectural
 * checkpoints (format_v2.hh).  v2::Writer encodes every file and
 * v2::Reader checks every file read back.  A stream typically takes
 * a quarter or less of the fixed 32-byte TraceRecords it decodes to,
 * bit-identically.
 *
 * Records carry everything the profilers and predictors consume —
 * PC, the encoded instruction word (re-decoded on read), effective
 * address, region, fetch-time GBH/CID context, and produced values.
 * Traces are bit-reproducible: recording the same program twice
 * yields identical files.
 */

#ifndef ARL_TRACE_TRACE_HH
#define ARL_TRACE_TRACE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/step_info.hh"
#include "sim/step_source.hh"
#include "vm/program.hh"

namespace arl::trace
{

/** File magic: "ARLT". */
constexpr std::uint32_t TraceMagic = 0x544c5241;
/** File format version (delta+varint blocks + footer index). */
constexpr std::uint32_t TraceVersionV2 = 2;

/** The on-disk encoding, v2 alone; saveTrace()'s defaulted parameter. */
enum class TraceFormat : std::uint32_t
{
    V2 = TraceVersionV2,
};

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
 * digest) the functional state at that record without replaying the
 * prefix.
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

/**
 * One retired instruction, fixed 32 bytes: what a v2 record decodes
 * to, and what an escape record stores verbatim.
 */
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

namespace v2
{
class Reader;
}

/**
 * Reads a trace file back as a StepInfo stream, one decoded block at
 * a time, and seeks to any record by decoding only the block that
 * holds it.  Like the v2::Reader it wraps, it never aborts on bad
 * input: open() and the reads report it as an error string.  It is a
 * StepSource, so a §3 region pass (sweep::runRegionPass) reads a
 * trace file as it reads a live simulator.
 */
class TraceReader final : public sim::StepSource
{
  public:
    TraceReader();
    ~TraceReader() override;

    /** @return false with @p err set when @p path is not a valid trace. */
    bool open(const std::string &path, std::string &err);

    /**
     * Read the next instruction.
     * @return false at the end of the trace, or at a block that fails
     *         its checks (error() then says why).
     */
    bool next(sim::StepInfo &out) override;

    /** Records read so far, a seek's skipped prefix included. */
    InstCount delivered() const override { return consumed; }

    /** True once no further record can be read. */
    bool exhausted() const override;

    /** Position the stream so the next record read is record @p n. */
    void seek(InstCount n);

    /** Why the stream ended early; empty while it is intact. */
    const std::string &error() const { return readError; }

    /** Program name recorded in the header. */
    const std::string &programName() const;

  private:
    /** Decode block @p b into the buffers; false (error set) on failure. */
    bool load(std::size_t b);

    std::unique_ptr<v2::Reader> body;
    std::vector<TraceRecord> records;     ///< the decoded block
    std::vector<isa::DecodedInst> insts;  ///< its instructions
    std::string readError;
    /** Index of the next record to be read. */
    InstCount consumed = 0;
    std::size_t pos = 0;
    std::size_t nextBlock = 0;
};

/**
 * Run @p program functionally and stream the trace to @p path in
 * blocks of @p block_records (DefaultBlockRecords when 0), with an
 * architectural checkpoint at every block boundary.
 * @param max_insts instruction cap (0 = to completion).
 * @param out_records instructions recorded.
 * @param out_bytes file size, valid only on success.
 * @return false, leaving no partial file behind, when @p path cannot
 *         be written.
 */
bool recordTrace(std::shared_ptr<const vm::Program> program,
                 const std::string &path, InstCount max_insts,
                 std::uint32_t block_records, InstCount &out_records,
                 std::uint64_t &out_bytes);

} // namespace arl::trace

#endif // ARL_TRACE_TRACE_HH
