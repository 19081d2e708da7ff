#include "trace/replay.hh"

#include <chrono>
#include <cstdio>
#include <fstream>

#include "common/logging.hh"
#include "obs/profiler.hh"
#include "sim/simulator.hh"
#include "trace/format_v2.hh"

namespace arl::trace
{

void
InMemoryTrace::predecode()
{
    if (decoded.size() == records.size())
        return;
    decoded.clear();
    decoded.reserve(records.size());
    for (const TraceRecord &record : records) {
        isa::DecodedInst inst;
        if (!isa::decode(record.instWord, inst))
            fatal("trace: undecodable instruction word 0x%08x",
                  record.instWord);
        decoded.push_back(inst);
    }
}

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
    sim::Simulator simulator(std::move(program));
    v2::MemTouchDigest digest;
    sim::StepInfo step;
    while (max_insts == 0 || trace->records.size() < max_insts) {
        if (checkpoint_every &&
            trace->records.size() % checkpoint_every == 0 &&
            !simulator.halted()) {
            ArchCheckpoint cp;
            cp.index = trace->records.size();
            cp.pc = simulator.process().pc;
            cp.gpr = simulator.process().gpr;
            cp.fpr = simulator.process().fpr;
            cp.memDigest = digest.value();
            trace->checkpoints.push_back(cp);
        }
        if (!simulator.step(step))
            break;
        trace->records.push_back(toRecord(step));
        trace->decoded.push_back(step.inst);  // predecode for free
        digest.observe(step);
    }
    trace->complete = simulator.halted();
    prof.addGuestInsts(trace->records.size());
    return trace;
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

namespace
{

/**
 * Non-fatal v2 load: decode every block sequentially, validating
 * each index checkpoint's PC and memory-touch digest against the
 * decoded stream before it becomes seekable state.
 */
std::shared_ptr<const InMemoryTrace>
loadTraceV2(const std::string &path)
{
    v2::Reader reader;
    std::string err;
    if (!reader.open(path, err)) {
        warn("trace cache: '%s': %s; re-recording", path.c_str(),
             err.c_str());
        return nullptr;
    }
    auto trace = std::make_shared<InMemoryTrace>();
    trace->program = reader.program();
    trace->checkpointEvery = reader.blockRecords();
    trace->records.reserve(
        static_cast<std::size_t>(reader.totalRecords()));
    for (std::size_t b = 0; b < reader.numBlocks(); ++b) {
        if (!reader.readBlock(b, trace->records, err)) {
            warn("trace cache: '%s' block %zu: %s; re-recording",
                 path.c_str(), b, err.c_str());
            return nullptr;
        }
    }
    trace->checkpoints = reader.archCheckpoints();
    v2::MemTouchDigest digest;
    std::size_t next_cp = 0;
    for (std::size_t i = 0; i <= trace->records.size(); ++i) {
        if (next_cp < trace->checkpoints.size() &&
            trace->checkpoints[next_cp].index == i) {
            const ArchCheckpoint &cp = trace->checkpoints[next_cp];
            if (cp.memDigest != digest.value() ||
                (i < trace->records.size() &&
                 cp.pc != trace->records[i].pc)) {
                warn("trace cache: '%s': checkpoint %zu does not "
                     "match the decoded stream; re-recording",
                     path.c_str(), next_cp);
                return nullptr;
            }
            ++next_cp;
        }
        if (i < trace->records.size())
            digest.observe(trace->records[i]);
    }
    trace->complete = reader.complete();
    trace->predecode();
    return trace;
}

} // namespace

std::shared_ptr<const InMemoryTrace>
loadTrace(const std::string &path, TraceLoadStats *stats)
{
    obs::ProfScope prof("decode");
    using Clock = std::chrono::steady_clock;
    Clock::time_point start = Clock::now();
    std::uint64_t bytes = 0;
    std::uint32_t version = 0;
    // Preflight the header and size by hand: TraceReader is fatal on
    // malformed input, but a stale/corrupt cache entry must only
    // cause a re-record.
    {
        std::ifstream probe(path, std::ios::binary | std::ios::ate);
        if (!probe)
            return nullptr;
        bytes = static_cast<std::uint64_t>(probe.tellg());
        if (bytes < 64) {
            warn("trace cache: '%s' has a bad size; re-recording",
                 path.c_str());
            return nullptr;
        }
        probe.seekg(0);
        std::uint32_t magic = 0;
        probe.read(reinterpret_cast<char *>(&magic), sizeof(magic));
        probe.read(reinterpret_cast<char *>(&version),
                   sizeof(version));
        if (!probe || magic != TraceMagic ||
            (version != TraceVersion && version != TraceVersionV2)) {
            warn("trace cache: '%s' is not an ARL trace; re-recording",
                 path.c_str());
            return nullptr;
        }
    }

    std::shared_ptr<const InMemoryTrace> result;
    if (version == TraceVersionV2) {
        result = loadTraceV2(path);
    } else {
        // 64-byte header + whole 32-byte records.
        if ((bytes - 64) % sizeof(TraceRecord) != 0) {
            warn("trace cache: '%s' has a bad size; re-recording",
                 path.c_str());
            return nullptr;
        }
        TraceReader reader(path);
        auto trace = std::make_shared<InMemoryTrace>();
        trace->program = reader.programName();
        TraceRecord record{};
        while (reader.nextRecord(record))
            trace->records.push_back(record);
        // A v1 cache entry does not persist completeness or
        // checkpoints; stay conservative.  Consumers gate only on
        // record count.
        trace->complete = false;
        trace->predecode();
        result = std::move(trace);
    }
    if (result && stats) {
        stats->fileBytes = bytes;
        stats->seconds =
            std::chrono::duration<double>(Clock::now() - start)
                .count();
        stats->version = version;
    }
    return result;
}

} // namespace arl::trace
