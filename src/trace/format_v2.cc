#include "trace/format_v2.hh"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/crc32.hh"
#include "common/logging.hh"
#include "isa/operands.hh"
#include "isa/registers.hh"
#include "trace/varint.hh"
#include "vm/layout.hh"

namespace arl::trace::v2
{

namespace
{

// Per-record tag byte.  The region pair encodes Data/Heap/Stack
// inline (resp. "default" for non-memory records); value 3 means an
// explicit region byte follows.  Escape carries the raw 32-byte
// record and admits no other bit.
constexpr std::uint8_t TagPcDelta = 0x01;
constexpr std::uint8_t TagInstWord = 0x02;
constexpr std::uint8_t TagTaken = 0x04;
constexpr unsigned TagRegionShift = 3;
constexpr std::uint8_t TagRegionMask = 0x18;
constexpr std::uint8_t TagGbh = 0x20;
constexpr std::uint8_t TagCid = 0x40;
constexpr std::uint8_t TagEscape = 0x80;

constexpr std::uint8_t RegionUnknown =
    static_cast<std::uint8_t>(vm::Region::Unknown);

/**
 * Everything the codec derives from a decodable instruction word,
 * worked out once per distinct word of a block.
 */
struct InstFacts
{
    isa::DecodedInst inst;
    /** Flat destination register, or NoReg. */
    std::uint8_t dest = isa::NoReg;
    /** Access size (0: not a load or store). */
    std::uint8_t memSize = 0;
    /** FlagCall / FlagReturn bits of the record. */
    std::uint8_t flags = 0;
    bool mem = false;
    bool store = false;
    bool branch = false;
};

/** @return false when @p word does not decode. */
bool
factsOf(Word word, InstFacts &facts)
{
    isa::DecodedInst &inst = facts.inst;
    if (!isa::decode(word, inst))
        return false;
    const isa::OpInfo &info = inst.info();
    facts.mem = info.isLoad || info.isStore;
    facts.store = info.isStore;
    facts.branch = info.isBranch;
    facts.memSize = facts.mem ? info.memSize : 0;
    facts.dest = isa::instDest(inst);
    facts.flags = 0;
    if (inst.op == isa::Opcode::Jal || inst.op == isa::Opcode::Jalr)
        facts.flags |= FlagCall;
    if (inst.op == isa::Opcode::Jr && inst.rs == isa::reg::Ra)
        facts.flags |= FlagReturn;
    return true;
}

/**
 * Block-scoped pc -> (instruction word, facts) map: the codec's
 * word-elision state, and a decode cache so each distinct word in a
 * block goes through isa::decode once.
 *
 * Linear-probed and grown at half load, so a block costs a table
 * sized to its distinct pcs (a few hundred in practice), not to its
 * record count.  Map *semantics* are those of a plain pc -> word map,
 * so the encoder's emit decisions (and therefore the trace bytes) do
 * not depend on the table.
 */
class WordMap
{
  public:
    struct Slot
    {
        Addr pc = 0;
        Word word = 0;
        InstFacts facts;
        bool used = false;
    };

    WordMap() : slots(256), mask(255) {}

    /** Entry for @p pc, or null when unseen. */
    const Slot *
    find(Addr pc) const
    {
        for (std::size_t i = hash(pc);; i = (i + 1) & mask) {
            const Slot &s = slots[i];
            if (!s.used)
                return nullptr;
            if (s.pc == pc)
                return &s;
        }
    }

    /** Record @p word and its @p facts for @p pc; @return the entry. */
    const Slot *
    put(Addr pc, Word word, const InstFacts &facts)
    {
        for (std::size_t i = hash(pc);; i = (i + 1) & mask) {
            Slot &s = slots[i];
            if (!s.used) {
                s = {pc, word, facts, true};
                if (++used * 2 <= slots.size())
                    return &s;
                grow();
                return find(pc);
            }
            if (s.pc == pc) {
                s.word = word;
                s.facts = facts;
                return &s;
            }
        }
    }

  private:
    std::size_t
    hash(Addr pc) const
    {
        return static_cast<std::size_t>(
                   (static_cast<std::uint64_t>(pc) *
                    0x9E3779B97F4A7C15ull) >>
                   32) &
               mask;
    }

    void
    grow()
    {
        std::vector<Slot> old(slots.size() * 2);
        old.swap(slots);
        mask = slots.size() - 1;
        for (const Slot &s : old) {
            if (!s.used)
                continue;
            std::size_t i = hash(s.pc);
            while (slots[i].used)
                i = (i + 1) & mask;
            slots[i] = s;
        }
    }

    std::vector<Slot> slots;
    std::size_t mask;
    std::size_t used = 0;
};

void
advanceCommon(Context &ctx, const TraceRecord &rec)
{
    ctx.prevPc = rec.pc;
    if (rec.memSize)
        ctx.lastEffAddr = rec.effAddr;
}

/** advance() when the record's instruction is already decoded. */
void
advanceDecoded(Context &ctx, const TraceRecord &rec,
               const InstFacts &facts)
{
    advanceCommon(ctx, rec);
    // The functional simulator's exact recurrences: GBH shifts in
    // every conditional-branch outcome; CID tracks the last value
    // architecturally written to $ra.
    if (facts.branch)
        ctx.gbh = (ctx.gbh << 1) | ((rec.flags & FlagTaken) ? 1u : 0u);
    if (facts.dest == static_cast<isa::FlatReg>(isa::reg::Ra))
        ctx.cid = rec.result;
}

bool
getU32(ByteCursor &cur, std::uint32_t &out)
{
    std::uint64_t value = cur.getVarint();
    if (cur.failed() || value > 0xffffffffull)
        return false;
    out = static_cast<std::uint32_t>(value);
    return true;
}

void
encodeRecord(const TraceRecord &rec, Context &ctx, WordMap &words,
             std::string &out)
{
    const WordMap::Slot *known = words.find(rec.pc);
    InstFacts facts;
    bool decoded = true;
    if (known && known->word == rec.instWord)
        facts = known->facts;
    else
        decoded = factsOf(rec.instWord, facts);
    // Any field the decoder would reconstruct differently makes the
    // whole record explicit — losslessness over density.
    const bool escape =
        !decoded || rec.memSize != facts.memSize ||
        rec.dest != facts.dest ||
        rec.flags != (facts.flags | (rec.flags & FlagTaken)) ||
        (!facts.mem && rec.effAddr != 0) ||
        (facts.dest == isa::NoReg && rec.result != 0) ||
        (!facts.store && rec.storeValue != 0);
    if (escape) {
        out.push_back(static_cast<char>(TagEscape));
        out.append(reinterpret_cast<const char *>(&rec), sizeof(rec));
        if (decoded)
            advanceDecoded(ctx, rec, facts);
        else
            advanceCommon(ctx, rec);
        return;
    }

    std::uint8_t tag = 0;
    const Addr expect_pc = ctx.prevPc + 4;
    if (rec.pc != expect_pc)
        tag |= TagPcDelta;
    const bool emit_word = !known || known->word != rec.instWord;
    if (emit_word)
        tag |= TagInstWord;
    if (rec.flags & FlagTaken)
        tag |= TagTaken;
    bool explicit_region = false;
    std::uint8_t rr;
    if (facts.mem ? rec.region <= 2
                  : (rec.region == RegionUnknown || rec.region == 1 ||
                     rec.region == 2)) {
        rr = (!facts.mem && rec.region == RegionUnknown) ? 0 : rec.region;
    } else {
        rr = 3;
        explicit_region = true;
    }
    tag |= static_cast<std::uint8_t>(rr << TagRegionShift);
    if (rec.gbh != ctx.gbh)
        tag |= TagGbh;
    if (rec.cid != ctx.cid)
        tag |= TagCid;

    out.push_back(static_cast<char>(tag));
    if (tag & TagPcDelta)
        putZigzag(out, static_cast<std::int64_t>(rec.pc) -
                           static_cast<std::int64_t>(expect_pc));
    if (emit_word) {
        putVarint(out, rec.instWord);
        words.put(rec.pc, rec.instWord, facts);
    }
    if (tag & TagGbh)
        putVarint(out, rec.gbh);
    if (tag & TagCid)
        putVarint(out, rec.cid);
    if (explicit_region)
        out.push_back(static_cast<char>(rec.region));
    if (facts.mem)
        putZigzag(out, static_cast<std::int64_t>(rec.effAddr) -
                           static_cast<std::int64_t>(ctx.lastEffAddr));
    if (facts.dest != isa::NoReg)
        putVarint(out, rec.result);
    if (facts.store)
        putVarint(out, rec.storeValue);
    advanceDecoded(ctx, rec, facts);
}

/**
 * Decode one record into @p rec and its instruction into @p inst;
 * @p decodable is false only for an escape record whose raw word
 * does not decode (@p inst is then meaningless).
 */
bool
decodeRecord(ByteCursor &cur, Context &ctx, WordMap &words,
             TraceRecord &rec, isa::DecodedInst &inst, bool &decodable,
             std::string &err)
{
    const std::uint8_t tag = cur.getByte();
    if (cur.failed()) {
        err = "truncated record tag";
        return false;
    }
    if (tag & TagEscape) {
        if (tag != TagEscape) {
            err = "escape tag with extra bits";
            return false;
        }
        if (!cur.getRaw(&rec, sizeof(rec))) {
            err = "truncated escape record";
            return false;
        }
        InstFacts facts;
        decodable = factsOf(rec.instWord, facts);
        if (decodable) {
            inst = facts.inst;
            advanceDecoded(ctx, rec, facts);
        } else {
            advanceCommon(ctx, rec);
        }
        return true;
    }

    Addr pc = ctx.prevPc + 4;
    if (tag & TagPcDelta)
        pc = static_cast<Addr>(static_cast<std::int64_t>(pc) +
                               cur.getZigzag());
    rec.pc = pc;
    const InstFacts *facts;
    if (tag & TagInstWord) {
        InstFacts fresh;
        if (!getU32(cur, rec.instWord)) {
            err = "bad instruction word varint";
            return false;
        }
        if (!factsOf(rec.instWord, fresh)) {
            err = "undecodable instruction word";
            return false;
        }
        facts = &words.put(pc, rec.instWord, fresh)->facts;
    } else {
        const WordMap::Slot *known = words.find(pc);
        if (!known) {
            err = "instruction word back-reference to unseen pc";
            return false;
        }
        rec.instWord = known->word;
        facts = &known->facts;
    }
    inst = facts->inst;
    decodable = true;
    rec.gbh = ctx.gbh;
    if ((tag & TagGbh) && !getU32(cur, rec.gbh)) {
        err = "bad gbh varint";
        return false;
    }
    rec.cid = ctx.cid;
    if ((tag & TagCid) && !getU32(cur, rec.cid)) {
        err = "bad cid varint";
        return false;
    }

    const std::uint8_t rr = (tag & TagRegionMask) >> TagRegionShift;
    if (rr == 3)
        rec.region = cur.getByte();
    else if (facts->mem)
        rec.region = rr;
    else
        rec.region = rr ? rr : RegionUnknown;
    rec.memSize = facts->memSize;
    rec.effAddr =
        facts->mem
            ? static_cast<Addr>(static_cast<std::int64_t>(ctx.lastEffAddr) +
                                cur.getZigzag())
            : 0;
    rec.dest = facts->dest;
    rec.result = 0;
    if (rec.dest != isa::NoReg && !getU32(cur, rec.result)) {
        err = "bad result varint";
        return false;
    }
    rec.storeValue = 0;
    if (facts->store && !getU32(cur, rec.storeValue)) {
        err = "bad store value varint";
        return false;
    }
    rec.flags = facts->flags | ((tag & TagTaken) ? FlagTaken : 0);
    if (cur.failed()) {
        err = "truncated record fields";
        return false;
    }
    advanceDecoded(ctx, rec, *facts);
    return true;
}

Context
contextOf(const IndexEntry &entry)
{
    Context ctx;
    ctx.prevPc = entry.prevPc;
    ctx.lastEffAddr = entry.lastEffAddr;
    ctx.gbh = entry.gbh;
    ctx.cid = entry.cid;
    return ctx;
}

void
writeBlock(std::ostream &out, const Block &block)
{
    out.write(reinterpret_cast<const char *>(&block.header),
              sizeof(block.header));
    out.write(block.payload.data(),
              static_cast<std::streamsize>(block.payload.size()));
}

/** Index + trailer of @p image, whose index starts at @p offset. */
void
writeFooter(std::ostream &out, const Image &image, std::uint64_t offset)
{
    IndexHeader index{};
    index.magic = IndexMagic;
    index.entryBytes = sizeof(IndexEntry);
    index.count = image.index.size();
    out.write(reinterpret_cast<const char *>(&index), sizeof(index));
    const std::size_t index_bytes =
        image.index.size() * sizeof(IndexEntry);
    out.write(reinterpret_cast<const char *>(image.index.data()),
              static_cast<std::streamsize>(index_bytes));

    Trailer trailer{};
    trailer.indexOffset = offset;
    trailer.totalRecords = image.totalRecords;
    trailer.indexCrc = crc32(image.index.data(), index_bytes);
    trailer.flags = image.complete ? FlagComplete : 0;
    trailer.magic = TrailerMagic;
    out.write(reinterpret_cast<const char *>(&trailer),
              sizeof(trailer));
}

/** Size of the file header: magic, version, NUL-padded name. */
constexpr std::uint64_t HeaderBytes = 64;

/** File offset of the first block (after the header and Meta). */
constexpr std::uint64_t FirstBlockOffset = HeaderBytes + sizeof(Meta);

/** The header naming @p program (truncated to 55 bytes), then Meta. */
void
writeHead(std::ostream &out, const std::string &program,
          std::uint32_t block_records)
{
    char header[HeaderBytes] = {};
    const std::uint32_t magic = TraceMagic;
    const std::uint32_t version = TraceVersionV2;
    std::memcpy(header, &magic, sizeof(magic));
    std::memcpy(header + 4, &version, sizeof(version));
    std::strncpy(header + 8, program.c_str(), sizeof(header) - 9);
    out.write(header, sizeof(header));

    Meta meta{};
    meta.blockRecords = block_records;
    out.write(reinterpret_cast<const char *>(&meta), sizeof(meta));
}

} // namespace

void
advance(Context &ctx, const TraceRecord &rec)
{
    InstFacts facts;
    if (factsOf(rec.instWord, facts))
        advanceDecoded(ctx, rec, facts);
    else
        advanceCommon(ctx, rec);
}

void
encodeBlock(const TraceRecord *records, std::size_t n, Context &ctx,
            std::string &out)
{
    WordMap words;
    for (std::size_t i = 0; i < n; ++i)
        encodeRecord(records[i], ctx, words, out);
}

bool
decodeBlock(const void *payload, std::size_t bytes, std::size_t n,
            Context &ctx, std::vector<TraceRecord> &out, std::string &err,
            std::vector<isa::DecodedInst> *insts)
{
    ByteCursor cur(payload, bytes);
    // Each record costs at least one byte: size from the bytes
    // present, never from the claimed count alone.
    const std::size_t room = std::min(n, bytes);
    WordMap words;
    out.reserve(out.size() + room);
    if (insts)
        insts->reserve(insts->size() + room);
    TraceRecord rec{};
    isa::DecodedInst inst;
    bool decodable = false;
    for (std::size_t i = 0; i < n; ++i) {
        if (!decodeRecord(cur, ctx, words, rec, inst, decodable, err))
            return false;
        if (insts) {
            if (!decodable) {
                err = "undecodable instruction word";
                return false;
            }
            insts->push_back(inst);
        }
        out.push_back(rec);
    }
    if (!cur.atEnd()) {
        err = "trailing bytes after last record in block";
        return false;
    }
    return true;
}

void
Image::decode(std::size_t b, std::vector<TraceRecord> &records,
              std::vector<isa::DecodedInst> &insts) const
{
    records.clear();
    insts.clear();
    Context ctx = contextOf(index[b]);
    const Block &block = blocks[b];
    std::string err;
    if (!decodeBlock(block.payload.data(), block.payload.size(),
                     block.header.records, ctx, records, err, &insts))
        panic("trace: encoded block %zu does not decode: %s", b,
              err.c_str());
}

void
writeImage(std::ostream &out, const std::string &program,
           const Image &image)
{
    writeHead(out, program, image.blockRecords);
    std::uint64_t offset = FirstBlockOffset;
    for (const Block &block : image.blocks) {
        writeBlock(out, block);
        offset += sizeof(BlockHeader) + block.payload.size();
    }
    writeFooter(out, image, offset);
}

Writer::Writer(std::ostream &out, const std::string &program,
               InstCount block_records)
    : Writer(block_records)
{
    this->out = &out;
    writeHead(out, program, image.blockRecords);
}

Writer::Writer(InstCount block_records) : offset(FirstBlockOffset)
{
    ARL_ASSERT(block_records <= MaxBlockRecords,
               "%llu records per block; a Reader accepts at most %u",
               (unsigned long long)block_records, MaxBlockRecords);
    image.blockRecords = block_records
                             ? static_cast<std::uint32_t>(block_records)
                             : DefaultBlockRecords;
    pending.reserve(image.blockRecords);
}

void
Writer::append(const TraceRecord &rec)
{
    if (!ctxInit) {
        // Baselines chosen so the first record costs no deltas and
        // no explicit context bits; stored in the block-0 entry, so
        // the decoder sees the identical starting state.
        ctx.prevPc = rec.pc - 4;
        ctx.lastEffAddr = rec.memSize ? rec.effAddr : 0;
        ctx.gbh = rec.gbh;
        ctx.cid = rec.cid;
        ctxInit = true;
    }
    pending.push_back(rec);
    if (pending.size() >= image.blockRecords)
        flushBlock();
}

void
Writer::addCheckpoint(const ArchCheckpoint &cp)
{
    checkpoints[cp.index] = cp;
}

void
Writer::flushBlock()
{
    if (pending.empty())
        return;
    IndexEntry entry{};
    entry.offset = offset;
    entry.firstRecord = image.totalRecords;
    entry.prevPc = ctx.prevPc;
    entry.lastEffAddr = ctx.lastEffAddr;
    entry.gbh = ctx.gbh;
    entry.cid = ctx.cid;
    auto cp = checkpoints.find(image.totalRecords);
    if (cp != checkpoints.end()) {
        entry.hasArch = 1;
        entry.archPc = cp->second.pc;
        std::memcpy(entry.gpr, cp->second.gpr.data(),
                    sizeof(entry.gpr));
        std::memcpy(entry.fpr, cp->second.fpr.data(),
                    sizeof(entry.fpr));
        entry.memDigest = cp->second.memDigest;
    }

    // Encode into a reused buffer, then keep an exact-size copy: an
    // image holds thousands of blocks, so slack capacity would count.
    scratch.clear();
    encodeBlock(pending.data(), pending.size(), ctx, scratch);
    Block block;
    block.payload = scratch;
    block.header.magic = BlockMagic;
    block.header.records = static_cast<std::uint32_t>(pending.size());
    block.header.payloadBytes =
        static_cast<std::uint32_t>(block.payload.size());
    block.header.payloadCrc =
        crc32(block.payload.data(), block.payload.size());
    offset += sizeof(BlockHeader) + block.payload.size();
    if (out)
        writeBlock(*out, block);
    else
        image.blocks.push_back(std::move(block));

    image.totalRecords += pending.size();
    image.index.push_back(entry);
    pending.clear();
}

void
Writer::finish(bool complete)
{
    if (finished)
        return;
    finished = true;
    flushBlock();
    image.complete = complete;
    if (out)
        writeFooter(*out, image, offset);
}

bool
Reader::open(const std::string &path, std::string &err)
{
    in.open(path, std::ios::binary | std::ios::ate);
    if (!in) {
        err = "cannot open file";
        return false;
    }
    fileSize = static_cast<std::uint64_t>(in.tellg());
    constexpr std::uint64_t MinSize =
        FirstBlockOffset + sizeof(IndexHeader) + sizeof(Trailer);
    if (fileSize < MinSize) {
        err = "file too small for a v2 trace";
        return false;
    }

    char header[HeaderBytes] = {};
    in.seekg(0);
    in.read(header, sizeof(header));
    std::uint32_t magic = 0;
    std::uint32_t version = 0;
    std::memcpy(&magic, header, 4);
    std::memcpy(&version, header + 4, 4);
    if (!in || magic != TraceMagic) {
        err = "bad trace magic";
        return false;
    }
    if (version != TraceVersionV2) {
        err = "unsupported trace version " + std::to_string(version);
        return false;
    }
    header[HeaderBytes - 1] = '\0';
    name = header + 8;

    in.read(reinterpret_cast<char *>(&meta), sizeof(meta));
    if (!in || meta.blockRecords == 0 ||
        meta.blockRecords > MaxBlockRecords) {
        err = "bad v2 meta";
        return false;
    }

    in.seekg(static_cast<std::streamoff>(fileSize - sizeof(Trailer)));
    in.read(reinterpret_cast<char *>(&trailer), sizeof(trailer));
    if (!in || trailer.magic != TrailerMagic) {
        err = "bad trailer magic";
        return false;
    }

    // The index must sit exactly between the last block and the
    // trailer; any disagreement between trailer, index header, and
    // file size is corruption.
    const std::uint64_t index_end = fileSize - sizeof(Trailer);
    if (trailer.indexOffset < FirstBlockOffset ||
        trailer.indexOffset + sizeof(IndexHeader) > index_end) {
        err = "index offset out of range";
        return false;
    }
    IndexHeader index{};
    in.seekg(static_cast<std::streamoff>(trailer.indexOffset));
    in.read(reinterpret_cast<char *>(&index), sizeof(index));
    const std::uint64_t index_bytes =
        index_end - trailer.indexOffset - sizeof(IndexHeader);
    if (!in || index.magic != IndexMagic ||
        index.entryBytes != sizeof(IndexEntry) ||
        index_bytes % sizeof(IndexEntry) != 0 ||
        index.count != index_bytes / sizeof(IndexEntry)) {
        err = "bad index header";
        return false;
    }
    // Every block costs a header and every record at least its tag
    // byte, so the record count must fit the bytes actually present
    // — which also bounds every reservation a loader sizes from it.
    // Computed without overflow: the count is untrusted.
    const std::uint64_t block_bytes =
        trailer.indexOffset - FirstBlockOffset;
    const std::uint64_t blocks_expected =
        trailer.totalRecords / meta.blockRecords +
        (trailer.totalRecords % meta.blockRecords != 0);
    if (index.count != blocks_expected ||
        index.count > block_bytes / sizeof(BlockHeader) ||
        trailer.totalRecords >
            block_bytes - index.count * sizeof(BlockHeader)) {
        err = "record count disagrees with the index or the payload";
        return false;
    }

    entries.resize(static_cast<std::size_t>(index.count));
    in.read(reinterpret_cast<char *>(entries.data()),
            static_cast<std::streamsize>(entries.size() *
                                         sizeof(IndexEntry)));
    if (!in) {
        err = "truncated index";
        return false;
    }
    if (crc32(entries.data(), entries.size() * sizeof(IndexEntry)) !=
        trailer.indexCrc) {
        err = "index CRC mismatch";
        return false;
    }
    for (std::size_t b = 0; b < entries.size(); ++b) {
        if (entries[b].firstRecord !=
                static_cast<std::uint64_t>(b) * meta.blockRecords ||
            entries[b].offset < FirstBlockOffset ||
            entries[b].offset + sizeof(BlockHeader) >
                trailer.indexOffset ||
            (b && entries[b].offset <= entries[b - 1].offset)) {
            err = "bad index entry";
            return false;
        }
    }
    return true;
}

bool
Reader::readPayload(std::size_t b, Block &block, std::string &err)
{
    if (b >= entries.size()) {
        err = "block out of range";
        return false;
    }
    const IndexEntry &entry = entries[b];
    in.clear();
    in.seekg(static_cast<std::streamoff>(entry.offset));
    in.read(reinterpret_cast<char *>(&block.header),
            sizeof(block.header));
    const BlockHeader &header = block.header;
    if (!in || header.magic != BlockMagic ||
        header.records != recordsInBlock(b) ||
        entry.offset + sizeof(BlockHeader) + header.payloadBytes >
            trailer.indexOffset) {
        err = "bad block header";
        return false;
    }
    block.payload.assign(header.payloadBytes, '\0');
    in.read(block.payload.data(),
            static_cast<std::streamsize>(block.payload.size()));
    if (!in) {
        err = "truncated block payload";
        return false;
    }
    if (crc32(block.payload.data(), block.payload.size()) !=
        header.payloadCrc) {
        err = "block CRC mismatch";
        return false;
    }
    return true;
}

bool
Reader::decodeChecked(std::size_t b, const Block &block,
                      std::vector<TraceRecord> &out,
                      std::vector<isa::DecodedInst> &insts,
                      std::string &err)
{
    Context ctx = contextOf(entries[b]);
    if (!decodeBlock(block.payload.data(), block.payload.size(),
                     block.header.records, ctx, out, err, &insts))
        return false;
    if (b + 1 < entries.size() && !(ctx == contextOf(entries[b + 1]))) {
        err = "decode context discontinuity between blocks";
        return false;
    }
    return true;
}

bool
Reader::readBlock(std::size_t b, std::vector<TraceRecord> &out,
                  std::vector<isa::DecodedInst> &insts, std::string &err)
{
    Block block;
    return readPayload(b, block, err) &&
           decodeChecked(b, block, out, insts, err);
}

bool
Reader::scan(std::vector<TraceRecord> &records,
             std::vector<isa::DecodedInst> &insts,
             const std::function<void(Block &)> &on_block,
             std::string &err)
{
    MemTouchDigest digest;
    Block block;
    for (std::size_t b = 0; b < entries.size(); ++b) {
        const std::size_t first = records.size();
        if (!readPayload(b, block, err) ||
            !decodeChecked(b, block, records, insts, err)) {
            err = "block " + std::to_string(b) + ": " + err;
            return false;
        }
        // A checkpoint is trusted only when it matches the stream it
        // claims to sit in: the PC of its record and the digest of
        // every memory touch before it.
        const IndexEntry &entry = entries[b];
        if (entry.hasArch && (entry.archPc != records[first].pc ||
                              entry.memDigest != digest.value())) {
            err = "checkpoint at record " +
                  std::to_string(entry.firstRecord) +
                  " does not match the decoded stream";
            return false;
        }
        for (std::size_t i = first; i < records.size(); ++i)
            digest.observe(records[i]);
        if (on_block)
            on_block(block);
    }
    return true;
}

std::vector<ArchCheckpoint>
Reader::archCheckpoints() const
{
    std::vector<ArchCheckpoint> cps;
    for (const IndexEntry &entry : entries) {
        if (!entry.hasArch)
            continue;
        ArchCheckpoint cp;
        cp.index = entry.firstRecord;
        cp.pc = entry.archPc;
        std::memcpy(cp.gpr.data(), entry.gpr, sizeof(entry.gpr));
        std::memcpy(cp.fpr.data(), entry.fpr, sizeof(entry.fpr));
        cp.memDigest = entry.memDigest;
        cps.push_back(cp);
    }
    return cps;
}

} // namespace arl::trace::v2
