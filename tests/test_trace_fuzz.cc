/**
 * @file
 * Seeded fuzz/property tests for trace format v2 (src/trace):
 *
 *  - the block codec is lossless for *arbitrary* records — realistic
 *    streams take the delta paths, garbage records take the escape
 *    path, and both round-trip bit-exactly;
 *  - seeded random *runnable* programs (bounded loops, masked memory
 *    accesses) record to trace files that replay record-for-record
 *    like the same program recorded into memory, and seek(n) is
 *    equivalent to skipping n records;
 *  - >=1000 seeded corruptions of a valid v2 file (truncations, bit
 *    and byte flips, zeroed ranges, wrong magic/version, zero-length)
 *    never crash either non-fatal loader (decoded or encoded): every
 *    case either loads a fully-valid trace through both or returns
 *    nullptr from both;
 *  - a corrupted sweep trace cache silently re-records: the report
 *    is byte-identical to a cold-cache run and the cache entries are
 *    valid again afterwards.
 *
 * Everything is seeded and deterministic: a failure reproduces from
 * the printed seed alone.  The suite is routinely run under
 * ASan+UBSan (see .github/workflows/ci.yml), where "fails cleanly"
 * also means no leaks on any rejection path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "builder/program_builder.hh"
#include "common/crc32.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "isa/inst.hh"
#include "sim/simulator.hh"
#include "sweep/sweep.hh"
#include "trace/format_v2.hh"
#include "trace/replay.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

using namespace arl;

namespace
{

/** Temp file path helper (removed by the fixture). */
class TraceFuzz : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path = ::testing::TempDir() + "arl_trace_fuzz_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name() +
               ".trace";
    }

    void TearDown() override { std::remove(path.c_str()); }

    std::string path;
};

/** Silence the loader's per-rejection warn() while a scope runs. */
class QuietLogs
{
  public:
    QuietLogs() : saved(logLevel()) { setLogLevel(LogLevel::Error); }
    ~QuietLogs() { setLogLevel(saved); }

  private:
    LogLevel saved;
};

trace::TraceRecord
randomRecord(Rng &rng)
{
    trace::TraceRecord record;
    std::uint32_t words[8];
    for (auto &word : words)
        word = rng.next32();
    std::memcpy(&record, words, sizeof(record));
    return record;
}

/** Encode @p records as one v2 block and decode it back. */
void
expectCodecRoundTrip(const std::vector<trace::TraceRecord> &records)
{
    trace::v2::Context encode_ctx, decode_ctx;
    if (!records.empty()) {
        // Mirror Writer::flushBlock's first-block context priming.
        encode_ctx.prevPc = records[0].pc - 4;
        encode_ctx.lastEffAddr =
            records[0].memSize ? records[0].effAddr : 0;
        encode_ctx.gbh = records[0].gbh;
        encode_ctx.cid = records[0].cid;
        decode_ctx = encode_ctx;
    }
    std::string payload;
    trace::v2::encodeBlock(records.data(), records.size(), encode_ctx,
                           payload);
    std::vector<trace::TraceRecord> decoded;
    std::string err;
    ASSERT_TRUE(trace::v2::decodeBlock(payload.data(), payload.size(),
                                       records.size(), decode_ctx,
                                       decoded, err))
        << err;
    ASSERT_EQ(decoded.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i)
        ASSERT_EQ(0, std::memcmp(&records[i], &decoded[i],
                                 sizeof(trace::TraceRecord)))
            << "record " << i;
    EXPECT_EQ(encode_ctx.prevPc, decode_ctx.prevPc);
    EXPECT_EQ(encode_ctx.lastEffAddr, decode_ctx.lastEffAddr);
    EXPECT_EQ(encode_ctx.gbh, decode_ctx.gbh);
    EXPECT_EQ(encode_ctx.cid, decode_ctx.cid);
}

/** General-purpose scratch registers the generator may clobber. */
RegIndex
scratchGpr(Rng &rng)
{
    return static_cast<RegIndex>(8 + rng.nextBounded(8)); // $t0..$t7
}

RegIndex
scratchFpr(Rng &rng)
{
    return static_cast<RegIndex>(rng.nextBounded(8));
}

constexpr RegIndex kCounterReg = 24; // $t8
constexpr RegIndex kBaseReg = 25;    // $t9, reloaded before each access
constexpr std::size_t kBufWords = 256;

/**
 * A random but *runnable* program: a counted loop whose body mixes
 * integer/FP arithmetic with loads and stores confined to a named
 * global buffer (base register reloaded via la before every access,
 * offsets masked into bounds).  Termination is guaranteed by the
 * loop counter; every memory access is in-bounds by construction.
 */
std::shared_ptr<const vm::Program>
buildRandomRunnable(std::uint64_t seed)
{
    Rng rng(0x77ace00 ^ seed);
    builder::ProgramBuilder b("fuzz_runnable");
    b.globalArray("buf", kBufWords);
    b.bindHere("main");

    b.li(kCounterReg,
         static_cast<std::int32_t>(40 + rng.nextBounded(160)));
    builder::Label loop_head = b.label();
    b.bind(loop_head);

    unsigned body = 6 + static_cast<unsigned>(rng.nextBounded(12));
    for (unsigned i = 0; i < body; ++i) {
        std::int32_t offset =
            static_cast<std::int32_t>(4 * rng.nextBounded(kBufWords));
        switch (rng.nextBounded(10)) {
          case 0:
            b.add(scratchGpr(rng), scratchGpr(rng), scratchGpr(rng));
            break;
          case 1:
            b.sub(scratchGpr(rng), scratchGpr(rng), scratchGpr(rng));
            break;
          case 2:
            b.addi(scratchGpr(rng), scratchGpr(rng),
                   static_cast<std::int32_t>(rng.nextBounded(4096)) -
                       2048);
            break;
          case 3:
            b.sll(scratchGpr(rng), scratchGpr(rng),
                  static_cast<unsigned>(rng.nextBounded(31)));
            break;
          case 4:
            b.la(kBaseReg, "buf");
            b.lw(scratchGpr(rng), offset, kBaseReg);
            break;
          case 5:
            b.la(kBaseReg, "buf");
            b.sw(scratchGpr(rng), offset, kBaseReg);
            break;
          case 6:
            b.la(kBaseReg, "buf");
            b.lbu(scratchGpr(rng),
                  offset | static_cast<std::int32_t>(
                               rng.nextBounded(4)),
                  kBaseReg);
            break;
          case 7:
            b.fadd(scratchFpr(rng), scratchFpr(rng), scratchFpr(rng));
            break;
          case 8:
            b.mtc1(scratchFpr(rng), scratchGpr(rng));
            break;
          default:
            b.xor_(scratchGpr(rng), scratchGpr(rng),
                   scratchGpr(rng));
            break;
        }
        // Occasional forward skip keeps the branch history irregular.
        if (rng.nextBounded(8) == 0) {
            builder::Label skip = b.label();
            b.beq(scratchGpr(rng), scratchGpr(rng), skip);
            b.addi(scratchGpr(rng), scratchGpr(rng), 1);
            b.bind(skip);
        }
    }
    b.addi(kCounterReg, kCounterReg, -1);
    b.bgtz(kCounterReg, loop_head);
    b.exit_(0);
    return b.finish();
}

/** Drain two step streams (trace readers or sources) in lockstep. */
template <class A, class B>
void
expectRecordStreamsEqual(A &a, B &b)
{
    sim::StepInfo step_a, step_b;
    InstCount index = 0;
    for (;;) {
        bool more_a = a.next(step_a);
        bool more_b = b.next(step_b);
        ASSERT_EQ(more_a, more_b) << "length mismatch at " << index;
        if (!more_a)
            break;
        ASSERT_EQ(step_a.pc, step_b.pc) << index;
        ASSERT_EQ(step_a.inst, step_b.inst) << index;
        ASSERT_EQ(step_a.isMem, step_b.isMem) << index;
        ASSERT_EQ(step_a.isLoad, step_b.isLoad) << index;
        ASSERT_EQ(step_a.effAddr, step_b.effAddr) << index;
        ASSERT_EQ(step_a.memSize, step_b.memSize) << index;
        ASSERT_EQ(step_a.region, step_b.region) << index;
        ASSERT_EQ(step_a.isBranch, step_b.isBranch) << index;
        ASSERT_EQ(step_a.branchTaken, step_b.branchTaken) << index;
        ASSERT_EQ(step_a.isCall, step_b.isCall) << index;
        ASSERT_EQ(step_a.isReturn, step_b.isReturn) << index;
        ASSERT_EQ(step_a.gbh, step_b.gbh) << index;
        ASSERT_EQ(step_a.cid, step_b.cid) << index;
        ASSERT_EQ(step_a.dest, step_b.dest) << index;
        ASSERT_EQ(step_a.result, step_b.result) << index;
        ASSERT_EQ(step_a.storeValue, step_b.storeValue) << index;
        ++index;
    }
}

std::string
readFileBytes(const std::string &p)
{
    std::ifstream in(p, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void
writeFileBytes(const std::string &p, const std::string &bytes)
{
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/** TraceReader::open() of @p p; @return false (and fail) on error. */
bool
openReader(trace::TraceReader &reader, const std::string &p)
{
    std::string err;
    const bool ok = reader.open(p, err);
    EXPECT_TRUE(ok) << p << ": " << err;
    return ok;
}

/** An instruction word whose opcode field names no opcode. */
constexpr Word kUndecodableWord = 0xffffffffu;

/**
 * A v2 file that passes every structural and CRC check on its index
 * yet claims @p total records in blocks of @p block_records: @p
 * entries index entries point one byte apart into a blocks section
 * too small to hold the records (or, for 0 entries, none at all).
 */
std::string
craftV2(std::uint32_t block_records, std::uint64_t total,
        std::size_t entries)
{
    std::string bytes(64, '\0');
    const std::uint32_t magic = trace::TraceMagic;
    const std::uint32_t version = trace::TraceVersionV2;
    std::memcpy(&bytes[0], &magic, sizeof(magic));
    std::memcpy(&bytes[4], &version, sizeof(version));
    std::memcpy(&bytes[8], "crafted", 7);
    trace::v2::Meta meta{};
    meta.blockRecords = block_records;
    bytes.append(reinterpret_cast<const char *>(&meta), sizeof(meta));

    const std::uint64_t blocks_start = bytes.size();
    if (entries)
        bytes.append(entries + sizeof(trace::v2::BlockHeader) - 1, '\0');
    std::vector<trace::v2::IndexEntry> index(entries);
    for (std::size_t b = 0; b < entries; ++b) {
        index[b].offset = blocks_start + b;
        index[b].firstRecord = b * block_records;
    }
    trace::v2::Trailer trailer{};
    trailer.indexOffset = bytes.size();
    trailer.totalRecords = total;
    trailer.indexCrc = crc32(index.data(),
                             index.size() * sizeof(trace::v2::IndexEntry));
    trailer.magic = trace::v2::TrailerMagic;

    trace::v2::IndexHeader header{};
    header.magic = trace::v2::IndexMagic;
    header.entryBytes = sizeof(trace::v2::IndexEntry);
    header.count = entries;
    bytes.append(reinterpret_cast<const char *>(&header), sizeof(header));
    bytes.append(reinterpret_cast<const char *>(index.data()),
                 index.size() * sizeof(trace::v2::IndexEntry));
    bytes.append(reinterpret_cast<const char *>(&trailer),
                 sizeof(trailer));
    return bytes;
}

} // namespace

TEST(TraceFuzzCodec, ArbitraryRecordsRoundTripLosslessly)
{
    // Pure garbage: every record random bits, so nearly all take the
    // escape path (undecodable words, inconsistent flags, ...).
    for (std::uint64_t seed = 0; seed < 32; ++seed) {
        SCOPED_TRACE("garbage seed " + std::to_string(seed));
        Rng rng(0xe5ca9e ^ (seed * 0x9e3779b97f4a7c15ull));
        std::vector<trace::TraceRecord> records;
        std::size_t n = 1 + rng.nextBounded(300);
        records.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            records.push_back(randomRecord(rng));
        expectCodecRoundTrip(records);
    }
}

TEST(TraceFuzzCodec, RealStreamsWithInjectedGarbageRoundTrip)
{
    auto prog = workloads::buildWorkload("li_like", 1);
    auto real = trace::recordToMemory(prog, 8000);
    ASSERT_EQ(real->size(), 8000u);

    // Slices of a real stream (delta paths) with random records
    // spliced in (escape paths) — the mixed case a decoder must
    // survive without desynchronising its context.
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
        SCOPED_TRACE("mixed seed " + std::to_string(seed));
        Rng rng(0x3141 + seed);
        std::size_t start = rng.nextBounded(real->size() - 1000);
        std::size_t length = 100 + rng.nextBounded(900);
        std::vector<trace::TraceRecord> records(
            real->records.begin() +
                static_cast<std::ptrdiff_t>(start),
            real->records.begin() +
                static_cast<std::ptrdiff_t>(start + length));
        unsigned injections =
            1 + static_cast<unsigned>(rng.nextBounded(8));
        for (unsigned i = 0; i < injections; ++i)
            records[rng.nextBounded(records.size())] =
                randomRecord(rng);
        expectCodecRoundTrip(records);
    }
}

TEST(TraceFuzzCodec, GarbagePayloadNeverCrashesTheDecoder)
{
    // Random payload bytes with a claimed record count: decodeBlock
    // must either fail with an error or fill the requested records —
    // either way, no crash, no read past the payload.
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        Rng rng(0xdecade ^ seed);
        std::string payload;
        std::size_t bytes = rng.nextBounded(4096);
        payload.reserve(bytes);
        for (std::size_t i = 0; i < bytes; ++i)
            payload.push_back(
                static_cast<char>(rng.nextBounded(256)));
        trace::v2::Context ctx;
        std::vector<trace::TraceRecord> out;
        std::string err;
        bool ok = trace::v2::decodeBlock(payload.data(),
                                         payload.size(),
                                         1 + rng.nextBounded(500),
                                         ctx, out, err);
        if (!ok) {
            EXPECT_FALSE(err.empty());
        }
    }
}

TEST_F(TraceFuzz, RandomRunnableProgramsRoundTripAcrossFormats)
{
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        SCOPED_TRACE("program seed " + std::to_string(seed));
        auto prog = buildRandomRunnable(seed);
        InstCount n = 0;
        std::uint64_t bytes = 0;
        ASSERT_TRUE(trace::recordTrace(prog, path, 0, 64, n, bytes));
        ASSERT_GT(n, 100u);
        auto memory = trace::recordToMemory(prog);
        ASSERT_EQ(memory->size(), n);

        {
            trace::TraceReader file;
            ASSERT_TRUE(openReader(file, path));
            trace::ReplaySource replay(memory);
            expectRecordStreamsEqual(file, replay);
            EXPECT_EQ(file.error(), "");
        }

        // seek(n) == skip n records, at random positions (plus the
        // boundaries).
        Rng rng(0x5ee4 ^ seed);
        InstCount positions[5] = {0, n - 1, n, rng.nextBounded(n),
                                  rng.nextBounded(n)};
        for (InstCount at : positions) {
            SCOPED_TRACE("seek " + std::to_string(at));
            trace::TraceReader skipper;
            ASSERT_TRUE(openReader(skipper, path));
            sim::StepInfo step;
            for (InstCount i = 0; i < at; ++i)
                ASSERT_TRUE(skipper.next(step));
            trace::TraceReader seeker;
            ASSERT_TRUE(openReader(seeker, path));
            seeker.seek(at);
            expectRecordStreamsEqual(skipper, seeker);
        }
    }
}

TEST_F(TraceFuzz, SeededCorruptionsNeverCrashTheLoader)
{
    auto prog = workloads::buildWorkload("li_like", 1);
    auto trace_mem = trace::recordToMemory(prog, 20000, 1024);
    trace::saveTrace(path, *trace_mem);
    const std::string pristine = readFileBytes(path);
    ASSERT_GT(pristine.size(), 1000u);

    QuietLogs quiet;
    unsigned loaded_ok = 0, rejected = 0;
    constexpr unsigned kCases = 1200;
    for (unsigned i = 0; i < kCases; ++i) {
        SCOPED_TRACE("corruption case " + std::to_string(i));
        Rng rng(0xc0441 + i);
        std::string bytes = pristine;
        switch (rng.nextBounded(8)) {
          case 0: // truncate anywhere, including to zero length
            bytes.resize(rng.nextBounded(bytes.size() + 1));
            break;
          case 1: // flip one whole byte
            bytes[rng.nextBounded(bytes.size())] ^= static_cast<char>(
                1 + rng.nextBounded(255));
            break;
          case 2: // flip one bit
            bytes[rng.nextBounded(bytes.size())] ^=
                static_cast<char>(1u << rng.nextBounded(8));
            break;
          case 3: { // zero a random range
            std::size_t at = rng.nextBounded(bytes.size());
            std::size_t len = 1 + rng.nextBounded(64);
            if (at + len > bytes.size())
                len = bytes.size() - at;
            std::memset(&bytes[at], 0, len);
            break;
          }
          case 4: // scramble the magic/version header region
            for (std::size_t b = 0; b < 8 && b < bytes.size(); ++b)
                bytes[b] = static_cast<char>(rng.nextBounded(256));
            break;
          case 5: { // overwrite one aligned word with garbage
            std::size_t at = 4 * rng.nextBounded(bytes.size() / 4);
            std::uint32_t word = rng.next32();
            std::memcpy(&bytes[at], &word, sizeof(word));
            break;
          }
          case 6: // flip a byte inside the index/trailer tail
            bytes[bytes.size() - 1 -
                  rng.nextBounded(
                      std::min<std::size_t>(bytes.size(), 400))] ^=
                static_cast<char>(1 + rng.nextBounded(255));
            break;
          default: // truncate mid-trailer (incomplete file)
            bytes.resize(bytes.size() - 1 - rng.nextBounded(32));
            break;
        }
        writeFileBytes(path, bytes);

        // Both loaders run the one validator, so they must agree.
        auto loaded = trace::loadTrace(path);
        auto encoded = trace::loadEncoded(path);
        ASSERT_EQ(loaded == nullptr, encoded == nullptr)
            << "the decoding and encoded loaders disagree";
        if (!loaded) {
            ++rejected;
            continue;
        }
        // Accepted (the corruption missed everything checksummed,
        // e.g. the program-name field): the trace must be fully
        // usable — touch every record, both ways.
        ++loaded_ok;
        std::uint64_t checksum = 0;
        for (const auto &record : loaded->records)
            checksum += record.pc;
        EXPECT_EQ(loaded->size(), loaded->records.size());
        trace::BlockReplaySource replay(encoded);
        sim::StepInfo step;
        while (replay.next(step))
            checksum -= step.pc;
        EXPECT_EQ(replay.delivered(), loaded->size());
        EXPECT_EQ(checksum, 0u);
    }
    // The harness itself: most corruptions must actually be caught
    // (an accept rate near 100% would mean the checks do nothing).
    EXPECT_EQ(loaded_ok + rejected, kCases);
    EXPECT_GT(rejected, kCases / 2)
        << "corruption detection looks broken: " << loaded_ok
        << " of " << kCases << " corrupted files loaded";
}

TEST_F(TraceFuzz, DegenerateFilesRejectCleanly)
{
    QuietLogs quiet;
    // Zero-length file.
    writeFileBytes(path, "");
    EXPECT_EQ(trace::loadTrace(path), nullptr);
    // One byte.
    writeFileBytes(path, "A");
    EXPECT_EQ(trace::loadTrace(path), nullptr);
    // Wrong magic.
    writeFileBytes(path, std::string(256, 'x'));
    EXPECT_EQ(trace::loadTrace(path), nullptr);
    // A valid file restamped with another version: 1 (the retired
    // raw-record format) or 99.
    auto prog = workloads::buildWorkload("go_like", 1);
    InstCount recorded = 0;
    std::uint64_t file_bytes = 0;
    ASSERT_TRUE(trace::recordTrace(prog, path, 64,
                                   trace::DefaultBlockRecords, recorded,
                                   file_bytes));
    const std::string valid = readFileBytes(path);
    for (std::uint32_t version : {1u, 99u}) {
        SCOPED_TRACE("version " + std::to_string(version));
        std::string bytes = valid;
        std::memcpy(&bytes[4], &version, sizeof(version));
        writeFileBytes(path, bytes);
        EXPECT_EQ(trace::loadTrace(path), nullptr);
        EXPECT_EQ(trace::loadEncoded(path), nullptr);
        trace::TraceReader reader;
        std::string err;
        EXPECT_FALSE(reader.open(path, err));
        EXPECT_EQ(err, "unsupported trace version " +
                           std::to_string(version));
    }
    // Nonexistent path.
    std::remove(path.c_str());
    EXPECT_EQ(trace::loadTrace(path), nullptr);

    // CRC-valid v2 files whose stated sizes are lies: every one must
    // be rejected without sizing an allocation from the claim.
    // 2^24-record blocks and a 64-entry index claim 1.07 G records
    // in a ~19.6 KB file.
    writeFileBytes(path, craftV2(1u << 24, 64ull << 24, 64));
    EXPECT_EQ(trace::loadTrace(path), nullptr);
    EXPECT_EQ(trace::loadEncoded(path), nullptr);
    // No blocks at all, claiming 2^64-1 records: the naive block
    // count wraps to 0 and would match the empty index.
    writeFileBytes(path, craftV2(1u << 16, ~0ull, 0));
    EXPECT_EQ(trace::loadTrace(path), nullptr);
    EXPECT_EQ(trace::loadEncoded(path), nullptr);
    // A well-formed escape record whose instruction word decodes to
    // nothing: replayable only by crashing, so not a valid trace.
    isa::DecodedInst inst;
    ASSERT_FALSE(isa::decode(kUndecodableWord, inst));
    trace::InMemoryTrace bad;
    bad.program = "undecodable";
    trace::TraceRecord record{};
    record.pc = 0x400000;
    record.instWord = kUndecodableWord;
    bad.records.push_back(record);
    trace::saveTrace(path, bad);
    EXPECT_EQ(trace::loadTrace(path), nullptr);
    EXPECT_EQ(trace::loadEncoded(path), nullptr);
    // The streaming reader accepts the file's structure, then reports
    // the word as a read error instead of aborting.
    trace::TraceReader reader;
    ASSERT_TRUE(openReader(reader, path));
    sim::StepInfo step;
    EXPECT_FALSE(reader.next(step));
    EXPECT_EQ(reader.error(), "block 0: undecodable instruction word");
}

TEST(TraceFuzzSweep, CorruptedCacheSilentlyReRecords)
{
    namespace fs = std::filesystem;
    const std::string cache_dir =
        ::testing::TempDir() + "arl_fuzz_cache";
    fs::remove_all(cache_dir);

    sweep::SweepSpec spec;
    sweep::WorkloadSpec w;
    w.name = "go_like";
    w.warmup = 2000;
    w.timed = 5000;
    spec.workloads.push_back(w);
    spec.configs = {ooo::MachineConfig::nPlusM(2, 0)};
    spec.jobs = 1;
    spec.traceCacheDir = cache_dir;

    auto report_of = [](const sweep::SweepResult &result) {
        std::ostringstream os;
        result.toReport().writeJson(os);
        return os.str();
    };

    // Cold run populates the cache.
    sweep::SweepResult cold = sweep::runSweep(spec);
    std::string cold_json = report_of(cold);
    EXPECT_EQ(cold.traceCacheMisses, 1u);
    std::vector<std::string> entries;
    for (const auto &entry : fs::directory_iterator(cache_dir))
        entries.push_back(entry.path().string());
    ASSERT_FALSE(entries.empty());

    // Corrupt every entry several ways across repeated runs; each
    // run must detect the damage, silently re-record, produce the
    // identical report, and leave a loadable entry behind.
    for (unsigned round = 0; round < 4; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        Rng rng(0xcac4e + round);
        for (const std::string &entry : entries) {
            std::string bytes = readFileBytes(entry);
            ASSERT_FALSE(bytes.empty());
            if (round == 0)
                bytes.resize(bytes.size() / 2);
            else if (round == 1)
                // Flip inside the checksummed body (blocks + index),
                // past the header/meta and short of the trailer's
                // reserved bytes.
                bytes[80 + rng.nextBounded(bytes.size() - 112)] ^=
                    0x55;
            else if (round == 2)
                bytes = "garbage";
            else
                // Intact but for its version: the retired format 1.
                bytes[4] = 1;
            writeFileBytes(entry, bytes);
        }
        QuietLogs quiet;
        sweep::SweepResult rerun = sweep::runSweep(spec);
        EXPECT_EQ(report_of(rerun), cold_json);
        EXPECT_EQ(rerun.traceCacheMisses, 1u)
            << "corrupted entry not re-recorded";
        for (const std::string &entry : entries)
            EXPECT_NE(trace::loadTrace(entry), nullptr)
                << entry << " not rewritten after corruption";
    }
    fs::remove_all(cache_dir);
}
