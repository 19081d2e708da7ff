/**
 * @file
 * ARLT v2: delta+varint block encoding with a seekable footer index.
 *
 * A raw TraceRecord spends a fixed 32 bytes per retired instruction.
 * v2 exploits the stream's structure instead:
 *
 *  - PCs advance sequentially except at taken control transfers, so
 *    a tag bit plus a zigzag delta replaces the absolute PC;
 *  - instruction words repeat per static PC, so each block carries a
 *    pc->word map and only first occurrences pay for the word;
 *  - GBH and CID follow exact recurrences of the functional
 *    simulator (GBH shifts in each conditional-branch outcome, CID
 *    is the last value written to $ra), so both are elided and
 *    reconstructed, with tag-guarded explicit fallbacks that keep
 *    the codec lossless for arbitrary record sequences;
 *  - effective addresses are zigzag strides against the previous
 *    memory access; memSize / dest / call / return flags are
 *    re-derived from the decoded instruction word.
 *
 * Records that defeat every rule (undecodable words, hand-built
 * inconsistent fields) fall back to an escape tag carrying the raw
 * 32-byte record, so encode(decode(x)) == x always holds.
 *
 * File layout (little-endian):
 *
 *     [Header]              magic, version 2, program name (64 B)
 *     [Meta]                blockRecords, reserved
 *     [BlockHeader][payload] * B       CRC32-guarded varint blocks
 *     [IndexHeader][IndexEntry * B]    decode context per block,
 *                                      optional arch checkpoint
 *     [Trailer]             index offset/CRC, record count, flags
 *
 * Every block is self-contained given its IndexEntry (the per-block
 * pc->word map restarts), so replay can seek to any block boundary
 * without touching the prefix.  Entries optionally carry the
 * architectural checkpoint captured at record time (register file +
 * memory-touch digest), which the Reader validates on load.
 *
 * The same body can live in memory as an Image, block for block, so
 * a stream read end to end once costs its encoded size (about 5 B
 * per record) instead of decoded records.
 *
 * Writer encodes every trace file, streaming it or into an Image that
 * writeImage() serializes, and Reader parses every file read back.
 * Everything that parses input here is non-fatal: malformed
 * input surfaces as error strings, never as crashes or fatal()
 * (tests/test_trace_fuzz.cc hammers this contract).  TraceReader and
 * the trace cache wrap it with their own policies.  Only
 * Image::decode() panics, on an image that was validated (or encoded)
 * when it was built.
 */

#ifndef ARL_TRACE_FORMAT_V2_HH
#define ARL_TRACE_FORMAT_V2_HH

#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "isa/inst.hh"
#include "sim/step_info.hh"
#include "trace/trace.hh"

namespace arl::trace::v2
{

/** Block header magic: "ABLK". */
constexpr std::uint32_t BlockMagic = 0x4b4c4241;
/** Index header magic: "ANDX". */
constexpr std::uint32_t IndexMagic = 0x58444e41;
/** Trailer magic: "AEND". */
constexpr std::uint32_t TrailerMagic = 0x444e4541;

/** Trailer flag: the traced program halted inside the window. */
constexpr std::uint32_t FlagComplete = 1u << 0;

/** Largest block size a Reader accepts (Writer asserts it). */
constexpr std::uint32_t MaxBlockRecords = 1u << 24;

/** Fixed metadata following the 64-byte file header. */
struct Meta
{
    std::uint32_t blockRecords;
    std::uint32_t reserved0;
    std::uint64_t reserved1;
};

static_assert(sizeof(Meta) == 16, "v2 meta must pack");

/** Per-block header preceding the varint payload. */
struct BlockHeader
{
    std::uint32_t magic;
    std::uint32_t records;
    std::uint32_t payloadBytes;
    std::uint32_t payloadCrc;
};

static_assert(sizeof(BlockHeader) == 16, "v2 block header must pack");

/** Footer index header. */
struct IndexHeader
{
    std::uint32_t magic;
    std::uint32_t entryBytes;
    std::uint64_t count;
};

static_assert(sizeof(IndexHeader) == 16, "v2 index header must pack");

/**
 * One footer entry per block: where it lives, the decode context its
 * payload starts from, and (when captured at record time) the
 * architectural checkpoint at its first record.
 */
struct IndexEntry
{
    std::uint64_t offset;       ///< file offset of the BlockHeader
    std::uint64_t firstRecord;  ///< dynamic index of first record
    std::uint32_t prevPc;       ///< decode context: previous PC
    std::uint32_t lastEffAddr;  ///< decode context: last mem address
    std::uint32_t gbh;          ///< decode context: branch history
    std::uint32_t cid;          ///< decode context: call identifier
    std::uint32_t archPc;       ///< checkpoint: functional PC
    std::uint32_t hasArch;      ///< 1 when the checkpoint is valid
    std::uint32_t gpr[32];      ///< checkpoint: integer registers
    std::uint32_t fpr[32];      ///< checkpoint: FP registers
    std::uint64_t memDigest;    ///< checkpoint: FNV-1a of mem touches
};

static_assert(sizeof(IndexEntry) == 304, "v2 index entry must pack");

/** Fixed-size trailer at the very end of the file. */
struct Trailer
{
    std::uint64_t indexOffset;
    std::uint64_t totalRecords;
    std::uint32_t indexCrc;
    std::uint32_t flags;
    std::uint32_t reserved;
    std::uint32_t magic;
};

static_assert(sizeof(Trailer) == 32, "v2 trailer must pack");

/**
 * Rolling decode context.  Identical state is maintained by encoder
 * and decoder via advance(), and snapshotted into each IndexEntry so
 * blocks decode independently.
 */
struct Context
{
    Addr prevPc = 0;
    Addr lastEffAddr = 0;
    Word gbh = 0;
    Word cid = 0;

    bool
    operator==(const Context &other) const
    {
        return prevPc == other.prevPc &&
               lastEffAddr == other.lastEffAddr &&
               gbh == other.gbh && cid == other.cid;
    }
};

/** Fold @p rec into @p ctx (shared by encoder and decoder). */
void advance(Context &ctx, const TraceRecord &rec);

/**
 * Rolling FNV-1a digest over the memory touches of a stream prefix
 * — the cheap identity check tying an architectural checkpoint to
 * the exact trace it was captured from.
 */
class MemTouchDigest
{
  public:
    void
    observe(Addr eff_addr, std::uint8_t mem_size, Word store_value)
    {
        if (!mem_size)
            return;
        mix(eff_addr);
        mix(mem_size);
        mix(store_value);
    }

    void
    observe(const TraceRecord &rec)
    {
        observe(rec.effAddr, rec.memSize, rec.storeValue);
    }

    void
    observe(const sim::StepInfo &step)
    {
        observe(step.effAddr, step.memSize, step.storeValue);
    }

    std::uint64_t value() const { return hash; }

  private:
    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash ^= (v >> (8 * i)) & 0xffu;
            hash *= 1099511628211ull;
        }
    }

    std::uint64_t hash = 14695981039346656037ull;
};

/**
 * Delta+varint-encode @p n records into @p out, advancing @p ctx.
 * One call per block: the pc->word elision map is block-scoped.
 */
void encodeBlock(const TraceRecord *records, std::size_t n,
                 Context &ctx, std::string &out);

/**
 * Decode one block payload (exactly @p n records) appending to
 * @p out and advancing @p ctx.  The one v2 decoder: files, encoded
 * images and the fuzz tests all go through it.
 *
 * With @p insts set, each record's decoded instruction is appended
 * there too, from a block-scoped pc -> (word, instruction) table, so
 * no record's word is decoded twice; a record whose word does not
 * decode is then an error, since it could not be replayed.  Without
 * it, escape records carrying arbitrary words round-trip as-is.
 * @return false with @p err set on any malformed input.
 */
bool decodeBlock(const void *payload, std::size_t bytes,
                 std::size_t n, Context &ctx,
                 std::vector<TraceRecord> &out, std::string &err,
                 std::vector<isa::DecodedInst> *insts = nullptr);

/** One encoded block: its header and varint payload. */
struct Block
{
    BlockHeader header{};
    std::string payload;
};

/**
 * A v2 body held in memory: everything a v2 file stores after its
 * 64-byte header, each block in its own buffer so the image grows
 * without ever copying payload bytes.  A Writer without a stream
 * builds one, Reader::scan() hands over a file's blocks to fill one,
 * and writeImage() serializes it to exactly the bytes a streaming
 * Writer emits for the same records and checkpoints.  Immutable once
 * built, so any number of threads may decode its blocks concurrently.
 */
struct Image
{
    std::uint32_t blockRecords = DefaultBlockRecords;
    std::vector<Block> blocks;
    /** Footer index: one entry per block, file offsets included. */
    std::vector<IndexEntry> index;
    std::uint64_t totalRecords = 0;
    bool complete = false;

    /**
     * Decode block @p b into @p records / @p insts (replacing their
     * contents).  Panics on failure: an image is validated when it
     * is built, so a block that does not decode is a bug.
     */
    void decode(std::size_t b, std::vector<TraceRecord> &records,
                std::vector<isa::DecodedInst> &insts) const;
};

/**
 * Serialize @p image as the whole file of a trace of @p program.
 * Shares its header, block and footer writers with the streaming
 * Writer, so both produce the same file.
 */
void writeImage(std::ostream &out, const std::string &program,
                const Image &image);

/**
 * The v2 encoder: buffers records, encodes each block as it fills,
 * and keeps the footer index.  Streams each finished block to an
 * output stream, or keeps it in an Image (takeImage()).
 */
class Writer
{
  public:
    /**
     * Stream the whole file of a trace of @p program to @p out,
     * starting with its header.  @p block_records is 1..
     * MaxBlockRecords, or 0 for DefaultBlockRecords.
     */
    Writer(std::ostream &out, const std::string &program,
           InstCount block_records);

    /** Keep every block in memory. */
    explicit Writer(InstCount block_records);

    /** Buffer one record; full blocks are encoded and flushed. */
    void append(const TraceRecord &rec);

    /**
     * Attach an architectural checkpoint captured at record index
     * @p cp.index.  Only checkpoints landing exactly on a block
     * boundary are persisted (others are ignored).
     */
    void addCheckpoint(const ArchCheckpoint &cp);

    /** Flush the tail block and finish the index (and trailer). */
    void finish(bool complete);

    /** The finished image (in-memory writers, after finish()). */
    Image takeImage() { return std::move(image); }

  private:
    void flushBlock();

    std::ostream *out = nullptr;
    /** Blocks (in-memory mode only), index and totals so far. */
    Image image;
    /** File offset the next block lands at. */
    std::uint64_t offset;
    std::vector<TraceRecord> pending;
    std::string scratch;
    std::map<std::uint64_t, ArchCheckpoint> checkpoints;
    Context ctx;
    bool ctxInit = false;
    bool finished = false;
};

/**
 * Random-access v2 file reader; the non-fatal core under
 * TraceReader, loadTrace(), loadEncoded() and the fuzz tests.
 * open() validates header, meta, trailer, and the CRC-guarded index;
 * readBlock() validates and decodes one block; scan() is the one
 * whole-file validator every loader trusts.
 */
class Reader
{
  public:
    /** @return false with @p err set when @p path is not valid v2. */
    bool open(const std::string &path, std::string &err);

    const std::string &program() const { return name; }
    std::uint32_t blockRecords() const { return meta.blockRecords; }
    std::uint64_t totalRecords() const { return trailer.totalRecords; }
    bool complete() const { return trailer.flags & FlagComplete; }
    std::uint64_t fileBytes() const { return fileSize; }
    std::size_t numBlocks() const { return entries.size(); }
    const std::vector<IndexEntry> &index() const { return entries; }

    /** Records held by block @p b (the tail block may be short). */
    std::size_t
    recordsInBlock(std::size_t b) const
    {
        std::uint64_t first = entries[b].firstRecord;
        std::uint64_t next = b + 1 < entries.size()
                                 ? entries[b + 1].firstRecord
                                 : trailer.totalRecords;
        return static_cast<std::size_t>(next - first);
    }

    /**
     * Decode block @p b, appending its records to @p out and their
     * instructions to @p insts.
     * @return false with @p err set on corruption (CRC mismatch,
     *         malformed payload, undecodable instruction word,
     *         decode-context discontinuity).
     */
    bool readBlock(std::size_t b, std::vector<TraceRecord> &out,
                   std::vector<isa::DecodedInst> &insts,
                   std::string &err);

    /**
     * Validate every block in order: its header and CRC, its
     * payload, the decode context it hands the next block, and the
     * index checkpoint at its start (PC and memory-touch digest
     * against the records before it).  Each block's records and
     * instructions are appended to @p records / @p insts; then
     * @p on_block (if set) receives the block, which it may keep,
     * and may consume and clear both vectors.
     * @return false with @p err set at the first failed check.
     */
    bool scan(std::vector<TraceRecord> &records,
              std::vector<isa::DecodedInst> &insts,
              const std::function<void(Block &)> &on_block,
              std::string &err);

    /** Architectural checkpoints stored in the index. */
    std::vector<ArchCheckpoint> archCheckpoints() const;

  private:
    bool readPayload(std::size_t b, Block &block, std::string &err);
    bool decodeChecked(std::size_t b, const Block &block,
                       std::vector<TraceRecord> &out,
                       std::vector<isa::DecodedInst> &insts,
                       std::string &err);

    std::ifstream in;
    std::string name;
    Meta meta{};
    Trailer trailer{};
    std::vector<IndexEntry> entries;
    std::uint64_t fileSize = 0;
};

} // namespace arl::trace::v2

#endif // ARL_TRACE_FORMAT_V2_HH
