#include "trace/trace.hh"

#include <cstring>

#include "common/logging.hh"
#include "trace/format_v2.hh"

namespace arl::trace
{

namespace
{

/** Fixed-size file header. */
struct TraceHeader
{
    std::uint32_t magic;
    std::uint32_t version;
    char program[56];  // NUL-padded name
};

static_assert(sizeof(TraceHeader) == 64, "header must pack");

} // namespace

const char *
formatName(TraceFormat format)
{
    return format == TraceFormat::V2 ? "v2" : "v1";
}

bool
parseFormat(const std::string &text, TraceFormat &out)
{
    if (text == "v1" || text == "1") {
        out = TraceFormat::V1;
        return true;
    }
    if (text == "v2" || text == "2") {
        out = TraceFormat::V2;
        return true;
    }
    return false;
}

TraceRecord
toRecord(const sim::StepInfo &step)
{
    TraceRecord record{};
    record.pc = step.pc;
    record.instWord = isa::encode(step.inst);
    record.effAddr = step.effAddr;
    record.gbh = step.gbh;
    record.cid = step.cid;
    record.result = step.result;
    record.storeValue = step.storeValue;
    record.flags = (step.branchTaken ? FlagTaken : 0) |
                   (step.isCall ? FlagCall : 0) |
                   (step.isReturn ? FlagReturn : 0);
    record.region = static_cast<std::uint8_t>(step.region);
    record.memSize = step.memSize;
    record.dest = step.dest;
    return record;
}

sim::StepInfo
fromRecord(const TraceRecord &record, InstCount seq)
{
    isa::DecodedInst inst;
    if (!isa::decode(record.instWord, inst))
        fatal("trace: undecodable instruction word 0x%08x",
              record.instWord);
    return fromRecord(record, seq, inst);
}

sim::StepInfo
fromRecord(const TraceRecord &record, InstCount seq,
           const isa::DecodedInst &inst)
{
    sim::StepInfo step;
    step.pc = record.pc;
    step.seq = seq;
    step.inst = inst;
    const isa::OpInfo &info = step.inst.info();
    step.isMem = info.isLoad || info.isStore;
    step.isLoad = info.isLoad;
    step.effAddr = record.effAddr;
    step.memSize = record.memSize;
    step.region = static_cast<vm::Region>(record.region);
    step.isBranch = info.isBranch;
    step.branchTaken = record.flags & FlagTaken;
    step.isCall = record.flags & FlagCall;
    step.isReturn = record.flags & FlagReturn;
    step.gbh = record.gbh;
    step.cid = record.cid;
    step.dest = record.dest;
    step.result = record.result;
    step.storeValue = record.storeValue;
    // nextPc is not persisted; §3 consumers do not read it.
    step.nextPc = record.pc + 4;
    return step;
}

RecordClass
classifyRecord(const TraceRecord &record)
{
    isa::DecodedInst inst;
    if (!isa::decode(record.instWord, inst))
        fatal("trace: undecodable instruction word 0x%08x",
              record.instWord);
    return classifyRecord(record, inst);
}

RecordClass
classifyRecord(const TraceRecord &record, const isa::DecodedInst &inst)
{
    const isa::OpInfo &info = inst.info();
    RecordClass cls;
    cls.isLoad = info.isLoad;
    cls.isStore = info.isStore;
    cls.isMem = info.isLoad || info.isStore;
    cls.isBranch = info.isBranch;
    cls.taken = record.flags & FlagTaken;
    cls.region = record.region;
    return cls;
}

void
writeTraceHeader(std::ostream &out, const std::string &program,
                 TraceFormat format)
{
    TraceHeader header{};
    header.magic = TraceMagic;
    header.version = static_cast<std::uint32_t>(format);
    std::strncpy(header.program, program.c_str(),
                 sizeof(header.program) - 1);
    out.write(reinterpret_cast<const char *>(&header), sizeof(header));
}

TraceWriter::TraceWriter(const std::string &path_in,
                         const std::string &program, TraceFormat format,
                         std::uint32_t block_records, bool non_fatal)
    : out(path_in, std::ios::binary | std::ios::trunc), path(path_in),
      nonFatal(non_fatal)
{
    if (!out) {
        if (nonFatal) {
            failed = true;
            return;
        }
        fatal("trace: cannot open '%s' for writing", path.c_str());
    }
    writeTraceHeader(out, program, format);
    if (format == TraceFormat::V2)
        body = std::make_unique<v2::Writer>(out, block_records);
}

void
TraceWriter::append(const sim::StepInfo &step)
{
    appendRecord(toRecord(step));
}

void
TraceWriter::appendRecord(const TraceRecord &record)
{
    if (failed)
        return;
    if (body)
        body->append(record);
    else
        out.write(reinterpret_cast<const char *>(&record),
                  sizeof(record));
    ++written;
}

void
TraceWriter::addCheckpoint(const ArchCheckpoint &checkpoint)
{
    if (body)
        body->addCheckpoint(checkpoint);
}

void
TraceWriter::close()
{
    if (out.is_open()) {
        if (body && !failed)
            body->finish(complete);
        fileBytes = static_cast<std::uint64_t>(out.tellp());
        out.close();
        if (!out || failed) {
            if (nonFatal) {
                failed = true;
                return;
            }
            fatal("trace: write error on '%s'", path.c_str());
        }
    }
}

TraceWriter::~TraceWriter()
{
    if (out.is_open()) {
        if (body)
            body->finish(complete);
        out.close();
    }
}

TraceReader::TraceReader(const std::string &path_in) : path(path_in)
{
    std::uint32_t magic = 0;
    std::uint32_t version = 0;
    {
        std::ifstream probe(path, std::ios::binary);
        if (!probe)
            fatal("trace: cannot open '%s'", path.c_str());
        probe.read(reinterpret_cast<char *>(&magic), sizeof(magic));
        probe.read(reinterpret_cast<char *>(&version),
                   sizeof(version));
        if (!probe || magic != TraceMagic)
            fatal("trace: '%s' is not an ARL trace", path.c_str());
    }
    fileVersion = version;
    if (version == TraceVersionV2) {
        body = std::make_unique<v2::Reader>();
        std::string err;
        if (!body->open(path, err))
            fatal("trace: '%s': %s", path.c_str(), err.c_str());
        name = body->program();
        return;
    }
    if (version != TraceVersion)
        fatal("trace: '%s' has unsupported version %u", path.c_str(),
              version);
    in.open(path, std::ios::binary);
    if (!in)
        fatal("trace: cannot open '%s'", path.c_str());
    TraceHeader header{};
    in.read(reinterpret_cast<char *>(&header), sizeof(header));
    if (!in)
        fatal("trace: '%s' is not an ARL trace", path.c_str());
    header.program[sizeof(header.program) - 1] = '\0';
    name = header.program;
}

TraceReader::~TraceReader() = default;

bool
TraceReader::next(sim::StepInfo &out_step)
{
    TraceRecord record{};
    if (!nextRecord(record))
        return false;
    out_step = fromRecord(record, consumed - 1);
    return true;
}

bool
TraceReader::fillBuffer()
{
    if (nextBlock >= body->numBlocks())
        return false;
    buffer.clear();
    bufferPos = 0;
    std::string err;
    if (!body->readBlock(nextBlock, buffer, err))
        fatal("trace: '%s' block %zu: %s", path.c_str(), nextBlock,
              err.c_str());
    ++nextBlock;
    return true;
}

bool
TraceReader::nextRecord(TraceRecord &out_record)
{
    if (body) {
        if (bufferPos >= buffer.size() && !fillBuffer())
            return false;
        out_record = buffer[bufferPos++];
        ++consumed;
        return true;
    }
    in.read(reinterpret_cast<char *>(&out_record),
            sizeof(out_record));
    if (in.gcount() == 0)
        return false;
    if (in.gcount() != sizeof(out_record))
        fatal("trace: truncated record (offset %llu)",
              (unsigned long long)consumed);
    ++consumed;
    return true;
}

void
TraceReader::seek(InstCount n)
{
    if (body) {
        const std::uint32_t block_records = body->blockRecords();
        const std::size_t block =
            static_cast<std::size_t>(n / block_records);
        if (n >= body->totalRecords() || block >= body->numBlocks()) {
            // Past the end: every subsequent read reports EOF.
            nextBlock = body->numBlocks();
            buffer.clear();
            bufferPos = 0;
            consumed = body->totalRecords();
            return;
        }
        nextBlock = block;
        buffer.clear();
        bufferPos = 0;
        if (!fillBuffer())
            fatal("trace: '%s': seek into missing block",
                  path.c_str());
        bufferPos = static_cast<std::size_t>(n % block_records);
        consumed = n;
        return;
    }
    in.clear();
    in.seekg(static_cast<std::streamoff>(sizeof(TraceHeader) +
                                         n * sizeof(TraceRecord)));
    consumed = n;
}

std::vector<ArchCheckpoint>
TraceReader::checkpoints() const
{
    return body ? body->archCheckpoints()
                : std::vector<ArchCheckpoint>{};
}

} // namespace arl::trace
