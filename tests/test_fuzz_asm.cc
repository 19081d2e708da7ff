/**
 * @file
 * Seeded property/fuzz tests for the assembler toolchain, closing
 * the round-trip gaps test_roundtrip.cc documents:
 *
 *  - whole random ProgramBuilder programs — including branches and
 *    jumps, which the per-instruction round trip skips because their
 *    disassembly prints resolved hex targets — are disassembled with
 *    synthesized labels, reassembled, and must encode byte-identical;
 *  - encode → decode → encode is the identity for randomized
 *    operands of every opcode, J format included.
 *
 * Everything is seeded and deterministic: a failure reproduces from
 * the printed seed alone.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "assembler/assembler.hh"
#include "builder/program_builder.hh"
#include "common/random.hh"
#include "isa/inst.hh"
#include "profile/region_profiler.hh"
#include "sim/simulator.hh"
#include "vm/program.hh"

using namespace arl;

namespace
{

/** Registers safe for random operands ($zero..$t9, no $gp/$sp/$fp). */
RegIndex
randGpr(Rng &rng)
{
    return static_cast<RegIndex>(1 + rng.nextBounded(25));
}

RegIndex
randFpr(Rng &rng)
{
    return static_cast<RegIndex>(rng.nextBounded(32));
}

std::int32_t
randImm16(Rng &rng)
{
    return static_cast<std::int32_t>(rng.nextBounded(65536)) - 32768;
}

/**
 * Emit one random non-control instruction.  Operand registers avoid
 * the ABI registers the builder reserves; immediates stay in range.
 */
void
emitRandomStraightline(builder::ProgramBuilder &b, Rng &rng)
{
    switch (rng.nextBounded(12)) {
      case 0:
        b.add(randGpr(rng), randGpr(rng), randGpr(rng));
        break;
      case 1:
        b.sub(randGpr(rng), randGpr(rng), randGpr(rng));
        break;
      case 2:
        b.slt(randGpr(rng), randGpr(rng), randGpr(rng));
        break;
      case 3:
        b.addi(randGpr(rng), randGpr(rng), randImm16(rng));
        break;
      case 4:
        b.ori(randGpr(rng), randGpr(rng),
              static_cast<std::int32_t>(rng.nextBounded(65536)));
        break;
      case 5:
        b.lui(randGpr(rng),
              static_cast<std::int32_t>(rng.nextBounded(65536)));
        break;
      case 6:
        b.sll(randGpr(rng), randGpr(rng),
              static_cast<unsigned>(rng.nextBounded(32)));
        break;
      case 7:
        b.lw(randGpr(rng), randImm16(rng), randGpr(rng));
        break;
      case 8:
        b.sw(randGpr(rng), randImm16(rng), randGpr(rng));
        break;
      case 9:
        b.fadd(randFpr(rng), randFpr(rng), randFpr(rng));
        break;
      case 10:
        b.mtc1(randFpr(rng), randGpr(rng));
        break;
      default:
        b.xor_(randGpr(rng), randGpr(rng), randGpr(rng));
        break;
    }
}

/**
 * Disassemble @p prog into assembler source, synthesizing "L<addr>"
 * labels for every branch/jump target so the text survives the
 * assembler's symbol-only target resolution.
 */
std::string
disassembleWithLabels(const vm::Program &prog)
{
    // First pass: every control-transfer target needs a label.
    std::set<Addr> targets;
    for (std::size_t i = 0; i < prog.text.size(); ++i) {
        Addr pc = prog.textBase + static_cast<Addr>(i * 4);
        isa::DecodedInst inst;
        EXPECT_TRUE(isa::decode(prog.text[i], inst));
        const isa::OpInfo &info = inst.info();
        if (info.isBranch)
            targets.insert(isa::branchTarget(inst, pc));
        else if (info.isJump && inst.op != isa::Opcode::Jr &&
                 inst.op != isa::Opcode::Jalr)
            targets.insert(isa::jumpTarget(inst, pc));
    }

    // Second pass: emit, swapping each printed hex target for its
    // label (the disassembler prints targets as 0x%08x).
    std::ostringstream out;
    for (std::size_t i = 0; i < prog.text.size(); ++i) {
        Addr pc = prog.textBase + static_cast<Addr>(i * 4);
        if (targets.count(pc))
            out << "L" << pc << ":\n";
        isa::DecodedInst inst;
        isa::decode(prog.text[i], inst);
        std::string line = isa::disassemble(inst, pc);
        const isa::OpInfo &info = inst.info();
        Addr target = 0;
        bool has_target = false;
        if (info.isBranch) {
            target = isa::branchTarget(inst, pc);
            has_target = true;
        } else if (info.isJump && inst.op != isa::Opcode::Jr &&
                   inst.op != isa::Opcode::Jalr) {
            target = isa::jumpTarget(inst, pc);
            has_target = true;
        }
        if (has_target) {
            char hex[16];
            std::snprintf(hex, sizeof(hex), "0x%08x", target);
            std::size_t at = line.rfind(hex);
            EXPECT_NE(at, std::string::npos) << line;
            line.replace(at, std::strlen(hex),
                         "L" + std::to_string(target));
        }
        out << line << "\n";
    }
    return out.str();
}

} // namespace

TEST(FuzzAssembler, RandomProgramsReassembleByteIdentical)
{
    for (std::uint64_t seed = 0; seed < 24; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(0xa51000 + seed);

        builder::ProgramBuilder b("fuzz");
        b.bindHere("main");
        unsigned blocks = 2 + rng.nextBounded(5);
        std::vector<builder::Label> labels;
        for (unsigned i = 0; i < blocks; ++i)
            labels.push_back(b.label());
        for (unsigned block = 0; block < blocks; ++block) {
            unsigned body = 3 + rng.nextBounded(10);
            for (unsigned i = 0; i < body; ++i)
                emitRandomStraightline(b, rng);
            // Forward control transfer into a later block (or this
            // block's end) — covers every branch flavour plus j/jal.
            builder::Label target =
                labels[block + rng.nextBounded(blocks - block)];
            switch (rng.nextBounded(7)) {
              case 0:
                b.beq(randGpr(rng), randGpr(rng), target);
                break;
              case 1:
                b.bne(randGpr(rng), randGpr(rng), target);
                break;
              case 2:
                b.blez(randGpr(rng), target);
                break;
              case 3:
                b.bgtz(randGpr(rng), target);
                break;
              case 4:
                b.bltz(randGpr(rng), target);
                break;
              case 5:
                b.bgez(randGpr(rng), target);
                break;
              default:
                b.j(target);
                break;
            }
            b.bind(labels[block]);
        }
        if (rng.nextBounded(2))
            b.jal("main");
        b.exit_(0);
        auto prog = b.finish();
        ASSERT_GT(prog->text.size(), 0u);

        std::string source = disassembleWithLabels(*prog);
        auto result = assembler::assemble(source, "fuzz-roundtrip");
        ASSERT_TRUE(result.ok())
            << source << "\nfirst error: "
            << (result.errors.empty() ? "?"
                                      : result.errors[0].format());
        ASSERT_EQ(result.program->text.size(), prog->text.size());
        for (std::size_t i = 0; i < prog->text.size(); ++i)
            ASSERT_EQ(result.program->text[i], prog->text[i])
                << "word " << i << " in:\n" << source;
    }
}

namespace
{

/** Region-reference percentages of an assembled program's execution. */
struct RunFingerprint {
    double pct[vm::NumDataRegions] = {0.0, 0.0, 0.0};
    std::string output;
    bool halted = false;
};

RunFingerprint
runAndFingerprint(const std::shared_ptr<vm::Program> &prog,
                  InstCount cap)
{
    sim::Simulator simulator(prog);
    profile::RegionProfiler profiler;
    simulator.run(cap, [&](const sim::StepInfo &step) {
        profiler.observe(step);
    });
    RunFingerprint fp;
    fp.halted = simulator.halted();
    fp.output = simulator.process().output;
    const profile::RegionProfile profile = profiler.profile();
    const std::uint64_t refs = profile.dynamicTotal();
    for (unsigned r = 0; r < vm::NumDataRegions; ++r)
        fp.pct[r] = refs == 0
                        ? 0.0
                        : 100.0 * static_cast<double>(
                                      profile.regionRefs[r]) /
                              static_cast<double>(refs);
    return fp;
}

/**
 * Generate a random pointer-chase program in corpus dialect: build a
 * @p nodes-long singly linked list on the heap (one Malloc per node,
 * payload = node index), then chase it @p laps times summing
 * payloads.  Prints the sum and exits 0.
 */
std::string
genPointerChase(unsigned nodes, unsigned laps)
{
    std::ostringstream s;
    s << "main:   li   $s0, 0\n"        // head
      << "        li   $s1, 0\n"        // prev
      << "        li   $t0, 0\n"        // i
      << "        li   $t1, " << nodes << "\n"
      << "build:  beq  $t0, $t1, winit\n"
      << "        li   $v0, 13\n"       // malloc(8)
      << "        li   $a0, 8\n"
      << "        syscall\n"
      << "        sw   $t0, 0($v0)\n"   // payload = i
      << "        sw   $zero, 4($v0)\n" // next = null
      << "        beq  $s1, $zero, first\n"
      << "        sw   $v0, 4($s1)\n"   // prev->next = node
      << "        j    linked\n"
      << "first:  move $s0, $v0\n"
      << "linked: move $s1, $v0\n"
      << "        addi $t0, $t0, 1\n"
      << "        j    build\n"
      << "winit:  li   $t5, " << laps << "\n"
      << "        li   $t6, 0\n"        // acc
      << "lap:    beq  $t5, $zero, done\n"
      << "        move $t2, $s0\n"
      << "walk:   beq  $t2, $zero, lend\n"
      << "        lw   $t3, 0($t2)\n"
      << "        add  $t6, $t6, $t3\n"
      << "        lw   $t2, 4($t2)\n"   // chase the link
      << "        j    walk\n"
      << "lend:   addi $t5, $t5, -1\n"
      << "        j    lap\n"
      << "done:   li   $v0, 1\n"
      << "        move $a0, $t6\n"
      << "        syscall\n"
      << "        li   $v0, 10\n"
      << "        li   $a0, 0\n"
      << "        syscall\n";
    return s.str();
}

/**
 * Generate a random sparse-indirect gather: a static .word table
 * holding @p perm (a random permutation of 0..N-1) drives indexed
 * loads from a value table initialized to val[i] = 3i.  Prints the
 * gathered sum and exits 0.
 */
std::string
genSparseGather(const std::vector<unsigned> &perm)
{
    const std::size_t n = perm.size();
    std::ostringstream s;
    s << "        .data\n" << "idx:";
    for (std::size_t i = 0; i < n; ++i)
        s << (i ? ", " : "    .word ") << perm[i];
    s << "\nval:    .space " << n * 4 << "\n"
      << "        .text\n"
      << "main:   la   $t0, val\n"     // val[i] = 3i
      << "        li   $t1, " << n << "\n"
      << "        li   $t2, 0\n"
      << "        li   $t7, 0\n"
      << "init:   beq  $t2, $t1, gather\n"
      << "        sw   $t7, 0($t0)\n"
      << "        addi $t7, $t7, 3\n"
      << "        addi $t0, $t0, 4\n"
      << "        addi $t2, $t2, 1\n"
      << "        j    init\n"
      << "gather: la   $t0, idx\n"
      << "        la   $t4, val\n"
      << "        li   $t2, 0\n"
      << "        li   $t6, 0\n"       // acc
      << "gloop:  beq  $t2, $t1, done\n"
      << "        lw   $t3, 0($t0)\n"  // index load
      << "        sll  $t3, $t3, 2\n"
      << "        add  $t3, $t3, $t4\n"
      << "        lw   $t5, 0($t3)\n"  // dependent gather load
      << "        add  $t6, $t6, $t5\n"
      << "        addi $t0, $t0, 4\n"
      << "        addi $t2, $t2, 1\n"
      << "        j    gloop\n"
      << "done:   li   $v0, 1\n"
      << "        move $a0, $t6\n"
      << "        syscall\n"
      << "        li   $v0, 10\n"
      << "        li   $a0, 0\n"
      << "        syscall\n";
    return s.str();
}

/** Fixed streaming reference: sum a sequential static array. */
std::string
genStreamingReference(unsigned n)
{
    std::ostringstream s;
    s << "        .data\n"
      << "arr:    .space " << n * 4 << "\n"
      << "        .text\n"
      << "main:   la   $t0, arr\n"
      << "        li   $t1, " << n << "\n"
      << "        li   $t2, 0\n"
      << "init:   beq  $t2, $t1, sum\n"
      << "        sw   $t2, 0($t0)\n"
      << "        addi $t0, $t0, 4\n"
      << "        addi $t2, $t2, 1\n"
      << "        j    init\n"
      << "sum:    la   $t0, arr\n"
      << "        li   $t2, 0\n"
      << "        li   $t6, 0\n"
      << "sloop:  beq  $t2, $t1, done\n"
      << "        lw   $t3, 0($t0)\n"
      << "        add  $t6, $t6, $t3\n"
      << "        addi $t0, $t0, 4\n"
      << "        addi $t2, $t2, 1\n"
      << "        j    sloop\n"
      << "done:   li   $v0, 1\n"
      << "        move $a0, $t6\n"
      << "        syscall\n"
      << "        li   $v0, 10\n"
      << "        li   $a0, 0\n"
      << "        syscall\n";
    return s.str();
}

/** Assemble, check the text round-trips, run, and fingerprint. */
RunFingerprint
assembleRoundTripAndRun(const std::string &source,
                        const std::string &name)
{
    auto result = assembler::assemble(source, name);
    EXPECT_TRUE(result.ok())
        << source << "\nfirst error: "
        << (result.errors.empty() ? "?" : result.errors[0].format());
    if (!result.ok())
        return RunFingerprint{};

    // Round trip: the disassembled text must reassemble to the same
    // encodings (data directives aren't needed — label addresses are
    // already resolved into lui/ori immediates).
    std::string round = disassembleWithLabels(*result.program);
    auto again = assembler::assemble(round, name + "-roundtrip");
    EXPECT_TRUE(again.ok())
        << round << "\nfirst error: "
        << (again.errors.empty() ? "?" : again.errors[0].format());
    if (again.ok() &&
        again.program->text.size() == result.program->text.size()) {
        for (std::size_t i = 0; i < result.program->text.size(); ++i)
            EXPECT_EQ(again.program->text[i],
                      result.program->text[i])
                << "word " << i << " in:\n" << round;
    }

    return runAndFingerprint(result.program, 1000000);
}

} // namespace

TEST(FuzzCorpusPatterns, RandomPointerChaseIsHeapDominant)
{
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(0xc0a5e + seed);
        const unsigned nodes = 16 + rng.nextBounded(49);
        const unsigned laps = 4 + rng.nextBounded(13);

        RunFingerprint chase = assembleRoundTripAndRun(
            genPointerChase(nodes, laps), "fuzz-chase");
        ASSERT_TRUE(chase.halted);
        // Sum of payloads 0..nodes-1, once per lap.
        const std::uint64_t expected =
            static_cast<std::uint64_t>(laps) * nodes * (nodes - 1) / 2;
        EXPECT_EQ(chase.output, std::to_string(expected));
        EXPECT_GT(chase.pct[1], 60.0) << "heap refs";

        RunFingerprint stream = assembleRoundTripAndRun(
            genStreamingReference(64 + rng.nextBounded(192)),
            "fuzz-stream");
        ASSERT_TRUE(stream.halted);
        EXPECT_GT(stream.pct[0], 90.0) << "data refs";
        // The fingerprints must separate the families cleanly.
        EXPECT_GT(chase.pct[1] - stream.pct[1], 50.0);
        EXPECT_GT(stream.pct[0] - chase.pct[0], 50.0);
    }
}

TEST(FuzzCorpusPatterns, RandomSparseGatherIsDataDominantAndCorrect)
{
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(0x5ca77e4 + seed);
        const unsigned n = 32 + rng.nextBounded(97);

        // Seeded Fisher-Yates permutation of 0..n-1.
        std::vector<unsigned> perm(n);
        for (unsigned i = 0; i < n; ++i)
            perm[i] = i;
        for (unsigned i = n - 1; i > 0; --i)
            std::swap(perm[i], perm[rng.nextBounded(i + 1)]);

        RunFingerprint gather = assembleRoundTripAndRun(
            genSparseGather(perm), "fuzz-gather");
        ASSERT_TRUE(gather.halted);
        // Gathering a permutation of val[i] = 3i sums to 3·n(n-1)/2.
        const std::uint64_t expected =
            3ull * n * (n - 1) / 2;
        EXPECT_EQ(gather.output, std::to_string(expected));
        EXPECT_GT(gather.pct[0], 90.0) << "data refs";
        EXPECT_LT(gather.pct[1], 5.0) << "heap refs";
    }
}

TEST(FuzzAssembler, EncodeDecodeEncodeIsIdentityForAllOpcodes)
{
    for (unsigned op_index = 0; op_index < isa::NumOpcodes; ++op_index) {
        auto op = static_cast<isa::Opcode>(op_index);
        const isa::OpInfo &info = isa::opInfo(op);
        Rng rng(0xdec0de ^ op_index);
        for (int trial = 0; trial < 64; ++trial) {
            isa::DecodedInst inst;
            inst.op = op;
            switch (info.format) {
              case isa::InstFormat::R:
                inst.rd = static_cast<RegIndex>(rng.nextBounded(32));
                inst.rs = static_cast<RegIndex>(rng.nextBounded(32));
                inst.rt = static_cast<RegIndex>(rng.nextBounded(32));
                break;
              case isa::InstFormat::I:
                inst.rd = static_cast<RegIndex>(rng.nextBounded(32));
                inst.rs = static_cast<RegIndex>(rng.nextBounded(32));
                inst.imm = randImm16(rng);
                break;
              case isa::InstFormat::J:
                // The gap test_roundtrip.cc leaves: raw 26-bit targets.
                inst.target =
                    static_cast<std::uint32_t>(rng.nextBounded(1u << 26));
                break;
            }
            Word word = isa::encode(inst);
            isa::DecodedInst decoded;
            ASSERT_TRUE(isa::decode(word, decoded))
                << isa::mnemonic(op) << " trial " << trial;
            EXPECT_EQ(decoded.op, inst.op);
            EXPECT_EQ(isa::encode(decoded), word)
                << isa::mnemonic(op) << " trial " << trial;
        }
    }
}
