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

/**
 * Open the cache entry at @p path.  A missing file fails silently (a
 * cold cache); any other file that is not a valid trace fails with a
 * warning.
 */
bool
openV2(const std::string &path, v2::Reader &reader)
{
    if (!std::ifstream(path))
        return false;
    std::string err;
    if (reader.open(path, err))
        return true;
    warn("trace cache: '%s': %s; re-recording", path.c_str(),
         err.c_str());
    return false;
}

/**
 * Run the shared validator over the file @p reader has open, handing
 * each checked block to @p on_block.
 */
bool
scanV2(const std::string &path, v2::Reader &reader,
       std::vector<TraceRecord> &records,
       std::vector<isa::DecodedInst> &insts,
       const std::function<void(v2::Block &)> &on_block)
{
    std::string err;
    if (reader.scan(records, insts, on_block, err))
        return true;
    warn("trace cache: '%s': %s; re-recording", path.c_str(),
         err.c_str());
    return false;
}

/**
 * The one trace-file writer: open @p path and let @p write emit the
 * whole file into the stream.  On an I/O error the partial file is
 * unlinked, since a truncated trace would shadow the path until
 * something tripped over it.
 * @param out_bytes file size, valid only on success.
 */
template <class Write>
bool
writeFile(const std::string &path, Write &&write, std::uint64_t &out_bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    write(out);
    out_bytes = static_cast<std::uint64_t>(out.tellp());
    out.close();
    if (out)
        return true;
    std::remove(path.c_str());
    return false;
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
    v2::Writer writer(checkpoint_every);
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

bool
recordTrace(std::shared_ptr<const vm::Program> program,
            const std::string &path, InstCount max_insts,
            std::uint32_t block_records, InstCount &out_records,
            std::uint64_t &out_bytes)
{
    obs::ProfScope prof("record");
    if (block_records == 0)
        block_records = DefaultBlockRecords;
    out_records = 0;
    const bool ok = writeFile(
        path,
        [&](std::ostream &out) {
            v2::Writer writer(out, program->name, block_records);
            bool halted = false;
            out_records = recordStream(
                std::move(program), max_insts, block_records, halted,
                [&](const ArchCheckpoint &cp) { writer.addCheckpoint(cp); },
                [&](const sim::StepInfo &step) {
                    writer.append(toRecord(step));
                });
            writer.finish(halted);
        },
        out_bytes);
    prof.addGuestInsts(out_records);
    return ok;
}

bool
trySaveTrace(const std::string &path, const InMemoryTrace &t,
             std::uint64_t &out_bytes)
{
    obs::ProfScope prof("encode");
    return writeFile(
        path,
        [&](std::ostream &out) {
            v2::Writer writer(out, t.program, t.checkpointEvery);
            for (const ArchCheckpoint &cp : t.checkpoints)
                writer.addCheckpoint(cp);
            for (const TraceRecord &record : t.records)
                writer.append(record);
            writer.finish(t.complete);
        },
        out_bytes);
}

std::uint64_t
saveTrace(const std::string &path, const InMemoryTrace &t, TraceFormat)
{
    std::uint64_t bytes = 0;
    if (!trySaveTrace(path, t, bytes))
        fatal("trace: cannot write '%s'", path.c_str());
    return bytes;
}

bool
trySaveEncoded(const std::string &path, const EncodedTrace &t,
               std::uint64_t &out_bytes)
{
    obs::ProfScope prof("encode");
    return writeFile(
        path,
        [&](std::ostream &out) { v2::writeImage(out, t.program, t.image); },
        out_bytes);
}

std::shared_ptr<const InMemoryTrace>
loadTrace(const std::string &path, TraceLoadStats *stats)
{
    obs::ProfScope prof("decode");
    const auto start = std::chrono::steady_clock::now();
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
    if (stats) {
        stats->fileBytes = reader.fileBytes();
        stats->seconds = secondsSince(start);
    }
    return trace;
}

std::shared_ptr<const EncodedTrace>
loadEncoded(const std::string &path, TraceLoadStats *stats,
            RecordVisitor *visitor)
{
    obs::ProfScope prof("decode");
    const auto start = std::chrono::steady_clock::now();
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
        stats->fileBytes = reader.fileBytes();
        stats->seconds = secondsSince(start);
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
