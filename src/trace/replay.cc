#include "trace/replay.hh"

#include <chrono>
#include <cstdio>
#include <fstream>

#include "common/logging.hh"
#include "obs/profiler.hh"
#include "sim/simulator.hh"

namespace arl::trace
{

namespace
{

/**
 * The recording loop behind recordToMemory(), recordEncoded() and
 * recordTrace(): hand @p on_checkpoint the architectural state
 * before every @p checkpoint_every-th record (0: never) and
 * @p on_step each retired instruction.
 * @return records recorded; @p halted reports whether the program
 *         finished inside the window.
 */
template <class OnCheckpoint, class OnStep>
InstCount
recordStream(std::shared_ptr<const vm::Program> program,
             InstCount max_insts, InstCount checkpoint_every,
             bool &halted, OnCheckpoint &&on_checkpoint,
             OnStep &&on_step)
{
    sim::Simulator simulator(std::move(program));
    v2::MemTouchDigest digest;
    sim::StepInfo step;
    InstCount n = 0;
    for (; max_insts == 0 || n < max_insts; ++n) {
        if (checkpoint_every && n % checkpoint_every == 0 &&
            !simulator.halted()) {
            ArchCheckpoint cp;
            cp.index = n;
            cp.pc = simulator.process().pc;
            cp.gpr = simulator.process().gpr;
            cp.fpr = simulator.process().fpr;
            cp.memDigest = digest.value();
            on_checkpoint(cp);
        }
        if (!simulator.step(step))
            break;
        on_step(step);
        digest.observe(step);
    }
    halted = simulator.halted();
    return n;
}

void
warnReRecord(const std::string &path, const char *what)
{
    warn("trace cache: '%s' %s; re-recording", path.c_str(), what);
}

/**
 * Read the version of the trace file at @p path into @p version and
 * its size into @p bytes.  A missing file fails silently (a cold
 * cache); anything that is not an ARL trace fails with a warning.
 */
bool
probeTrace(const std::string &path, std::uint64_t &bytes,
           std::uint32_t &version)
{
    std::ifstream probe(path, std::ios::binary | std::ios::ate);
    if (!probe)
        return false;
    bytes = static_cast<std::uint64_t>(probe.tellg());
    if (bytes < 64) {
        warnReRecord(path, "has a bad size");
        return false;
    }
    probe.seekg(0);
    std::uint32_t magic = 0;
    probe.read(reinterpret_cast<char *>(&magic), sizeof(magic));
    probe.read(reinterpret_cast<char *>(&version), sizeof(version));
    if (!probe || magic != TraceMagic ||
        (version != TraceVersion && version != TraceVersionV2)) {
        warnReRecord(path, "is not an ARL trace");
        return false;
    }
    return true;
}

/**
 * Run the shared validator over the v2 file @p reader has open,
 * handing each checked block to @p on_block.
 */
bool
scanV2(const std::string &path, v2::Reader &reader,
       std::vector<TraceRecord> &records,
       std::vector<isa::DecodedInst> &insts,
       const std::function<void(v2::Block &)> &on_block)
{
    std::string err;
    if (!reader.scan(records, insts, on_block, err)) {
        warn("trace cache: '%s': %s; re-recording", path.c_str(),
             err.c_str());
        return false;
    }
    return true;
}

bool
openV2(const std::string &path, v2::Reader &reader)
{
    std::string err;
    if (!reader.open(path, err)) {
        warn("trace cache: '%s': %s; re-recording", path.c_str(),
             err.c_str());
        return false;
    }
    return true;
}

std::shared_ptr<const InMemoryTrace>
loadTraceV2(const std::string &path)
{
    v2::Reader reader;
    if (!openV2(path, reader))
        return nullptr;
    auto trace = std::make_shared<InMemoryTrace>();
    // Reader::open bounds the record count by the payload bytes, so
    // these reservations are sized by what the file holds.
    trace->records.reserve(reader.totalRecords());
    trace->decoded.reserve(reader.totalRecords());
    if (!scanV2(path, reader, trace->records, trace->decoded, nullptr))
        return nullptr;
    trace->program = reader.program();
    trace->checkpointEvery = reader.blockRecords();
    trace->checkpoints = reader.archCheckpoints();
    trace->complete = reader.complete();
    return trace;
}

std::shared_ptr<const InMemoryTrace>
loadTraceV1(const std::string &path, std::uint64_t bytes)
{
    // 64-byte header + whole 32-byte records.
    if ((bytes - 64) % sizeof(TraceRecord) != 0) {
        warnReRecord(path, "has a bad size");
        return nullptr;
    }
    TraceReader reader(path);
    auto trace = std::make_shared<InMemoryTrace>();
    trace->program = reader.programName();
    const auto records = (bytes - 64) / sizeof(TraceRecord);
    trace->records.reserve(records);
    trace->decoded.reserve(records);
    TraceRecord record{};
    isa::DecodedInst inst;
    while (reader.nextRecord(record)) {
        if (!isa::decode(record.instWord, inst)) {
            warnReRecord(path, "holds an undecodable instruction word");
            return nullptr;
        }
        trace->records.push_back(record);
        trace->decoded.push_back(inst);
    }
    // A v1 cache entry does not persist completeness or checkpoints;
    // stay conservative.  Consumers gate only on record count.
    trace->complete = false;
    return trace;
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

std::shared_ptr<const InMemoryTrace>
recordToMemory(std::shared_ptr<const vm::Program> program,
               InstCount max_insts, InstCount checkpoint_every)
{
    obs::ProfScope prof("record");
    auto trace = std::make_shared<InMemoryTrace>();
    trace->program = program->name;
    trace->checkpointEvery = checkpoint_every;
    if (max_insts) {
        trace->records.reserve(max_insts);
        trace->decoded.reserve(max_insts);
    }
    recordStream(
        std::move(program), max_insts, checkpoint_every,
        trace->complete,
        [&](const ArchCheckpoint &cp) {
            trace->checkpoints.push_back(cp);
        },
        [&](const sim::StepInfo &step) {
            trace->records.push_back(toRecord(step));
            trace->decoded.push_back(step.inst);  // predecode for free
        });
    prof.addGuestInsts(trace->records.size());
    return trace;
}

std::shared_ptr<const EncodedTrace>
recordEncoded(std::shared_ptr<const vm::Program> program,
              InstCount max_insts, InstCount checkpoint_every,
              RecordVisitor *visitor)
{
    obs::ProfScope prof("record");
    auto trace = std::make_shared<EncodedTrace>();
    trace->program = program->name;
    v2::Writer writer(static_cast<std::uint32_t>(
        checkpoint_every ? checkpoint_every : DefaultBlockRecords));
    bool halted = false;
    const InstCount n = recordStream(
        std::move(program), max_insts, checkpoint_every, halted,
        [&](const ArchCheckpoint &cp) { writer.addCheckpoint(cp); },
        [&](const sim::StepInfo &step) {
            const TraceRecord record = toRecord(step);
            writer.append(record);
            if (visitor)
                visitor->visit(record, step.inst);
        });
    writer.finish(halted);
    trace->image = writer.takeImage();
    prof.addGuestInsts(n);
    return trace;
}

InstCount
recordTrace(std::shared_ptr<const vm::Program> program,
            const std::string &path, InstCount max_insts,
            TraceFormat format, std::uint32_t block_records)
{
    obs::ProfScope prof("record");
    if (block_records == 0)
        block_records = DefaultBlockRecords;
    TraceWriter writer(path, program->name, format, block_records);
    bool halted = false;
    const InstCount n = recordStream(
        std::move(program), max_insts,
        format == TraceFormat::V2 ? block_records : 0, halted,
        [&](const ArchCheckpoint &cp) { writer.addCheckpoint(cp); },
        [&](const sim::StepInfo &step) { writer.append(step); });
    writer.setComplete(halted);
    writer.close();
    prof.addGuestInsts(n);
    return n;
}

std::uint64_t
saveTrace(const std::string &path, const InMemoryTrace &t,
          TraceFormat format)
{
    obs::ProfScope prof("encode");
    const auto block_records = static_cast<std::uint32_t>(
        t.checkpointEvery ? t.checkpointEvery : DefaultBlockRecords);
    TraceWriter writer(path, t.program, format, block_records);
    for (const ArchCheckpoint &cp : t.checkpoints)
        writer.addCheckpoint(cp);
    writer.setComplete(t.complete);
    for (const TraceRecord &record : t.records)
        writer.appendRecord(record);
    writer.close();
    return writer.bytesWritten();
}

bool
trySaveTrace(const std::string &path, const InMemoryTrace &t,
             TraceFormat format, std::uint64_t &out_bytes)
{
    obs::ProfScope prof("encode");
    const auto block_records = static_cast<std::uint32_t>(
        t.checkpointEvery ? t.checkpointEvery : DefaultBlockRecords);
    TraceWriter writer(path, t.program, format, block_records,
                       /*non_fatal=*/true);
    if (writer.ok()) {
        for (const ArchCheckpoint &cp : t.checkpoints)
            writer.addCheckpoint(cp);
        writer.setComplete(t.complete);
        for (const TraceRecord &record : t.records)
            writer.appendRecord(record);
        writer.close();
    }
    if (!writer.ok()) {
        // Never leave a partial file behind: a truncated trace would
        // shadow the slot until something tripped over it.
        std::remove(path.c_str());
        return false;
    }
    out_bytes = writer.bytesWritten();
    return true;
}

bool
trySaveEncoded(const std::string &path, const EncodedTrace &t,
               std::uint64_t &out_bytes)
{
    obs::ProfScope prof("encode");
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (out) {
        writeTraceHeader(out, t.program, TraceFormat::V2);
        v2::writeImage(out, t.image);
        out_bytes = static_cast<std::uint64_t>(out.tellp());
        out.close();
    }
    if (!out) {
        // As trySaveTrace: no partial file may shadow the slot.
        std::remove(path.c_str());
        return false;
    }
    return true;
}

std::shared_ptr<const InMemoryTrace>
loadTrace(const std::string &path, TraceLoadStats *stats)
{
    obs::ProfScope prof("decode");
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t bytes = 0;
    std::uint32_t version = 0;
    if (!probeTrace(path, bytes, version))
        return nullptr;
    std::shared_ptr<const InMemoryTrace> result =
        version == TraceVersionV2 ? loadTraceV2(path)
                                  : loadTraceV1(path, bytes);
    if (result && stats) {
        stats->fileBytes = bytes;
        stats->seconds = secondsSince(start);
        stats->version = version;
    }
    return result;
}

std::shared_ptr<const EncodedTrace>
loadEncoded(const std::string &path, TraceLoadStats *stats,
            RecordVisitor *visitor)
{
    obs::ProfScope prof("decode");
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t bytes = 0;
    std::uint32_t version = 0;
    if (!probeTrace(path, bytes, version))
        return nullptr;
    v2::Reader reader;
    if (!openV2(path, reader))
        return nullptr;
    auto trace = std::make_shared<EncodedTrace>();
    v2::Image &image = trace->image;
    image.blocks.reserve(reader.numBlocks());
    std::vector<TraceRecord> records;
    std::vector<isa::DecodedInst> insts;
    if (!scanV2(path, reader, records, insts,
                [&](v2::Block &block) {
                    if (visitor)
                        for (std::size_t i = 0; i < records.size(); ++i)
                            visitor->visit(records[i], insts[i]);
                    records.clear();
                    insts.clear();
                    image.blocks.push_back(std::move(block));
                }))
        return nullptr;
    trace->program = reader.program();
    image.blockRecords = reader.blockRecords();
    image.index = reader.index();
    image.totalRecords = reader.totalRecords();
    image.complete = reader.complete();
    if (stats) {
        stats->fileBytes = bytes;
        stats->seconds = secondsSince(start);
        stats->version = version;
    }
    return trace;
}

void
BlockReplaySource::load(std::size_t b)
{
    trace->image.decode(b, records, insts);
    base = trace->image.index[b].firstRecord;
    pos = 0;
    nextBlock = b + 1;
}

bool
BlockReplaySource::seekTo(InstCount n)
{
    const v2::Image &image = trace->image;
    if (n >= image.totalRecords) {
        // Past the end: every later next() reports the end.
        records.clear();
        insts.clear();
        base = image.totalRecords;
        pos = 0;
        nextBlock = image.blocks.size();
        return true;
    }
    load(static_cast<std::size_t>(n / image.blockRecords));
    pos = static_cast<std::size_t>(n - base);
    return true;
}

} // namespace arl::trace
