#include "trace/trace.hh"

#include "common/logging.hh"
#include "trace/format_v2.hh"

namespace arl::trace
{

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

TraceReader::TraceReader() : body(std::make_unique<v2::Reader>()) {}

TraceReader::~TraceReader() = default;

bool
TraceReader::open(const std::string &path, std::string &err)
{
    return body->open(path, err);
}

const std::string &
TraceReader::programName() const
{
    return body->program();
}

bool
TraceReader::load(std::size_t b)
{
    records.clear();
    insts.clear();
    pos = 0;
    nextBlock = b + 1;
    if (body->readBlock(b, records, insts, readError))
        return true;
    readError = "block " + std::to_string(b) + ": " + readError;
    // Stop here: every later read reports the end.
    records.clear();
    insts.clear();
    nextBlock = body->numBlocks();
    return false;
}

bool
TraceReader::next(sim::StepInfo &out_step)
{
    while (pos >= records.size())
        if (nextBlock >= body->numBlocks() || !load(nextBlock))
            return false;
    out_step = fromRecord(records[pos], consumed, insts[pos]);
    ++pos;
    ++consumed;
    return true;
}

bool
TraceReader::exhausted() const
{
    return pos >= records.size() && nextBlock >= body->numBlocks();
}

void
TraceReader::seek(InstCount n)
{
    if (n >= body->totalRecords()) {
        // Past the end: every subsequent read reports EOF.
        records.clear();
        insts.clear();
        pos = 0;
        nextBlock = body->numBlocks();
        consumed = body->totalRecords();
        return;
    }
    const std::uint32_t block_records = body->blockRecords();
    if (load(static_cast<std::size_t>(n / block_records))) {
        pos = static_cast<std::size_t>(n % block_records);
        consumed = n;
    }
}

} // namespace arl::trace
