/**
 * @file
 * ISA tests: register naming, opcode table consistency, binary
 * encode/decode round-tripping (parameterized over every opcode),
 * operand extraction, addressing-mode classification, and the
 * disassembler.
 */

#include <gtest/gtest.h>

#include "common/bits.hh"
#include "isa/addr_mode.hh"
#include "isa/inst.hh"
#include "isa/operands.hh"
#include "isa/registers.hh"

using namespace arl;
using namespace arl::isa;

TEST(Registers, NamesRoundTrip)
{
    for (unsigned i = 0; i < NumGprs; ++i)
        EXPECT_EQ(parseGprName(gprName(static_cast<RegIndex>(i))),
                  static_cast<int>(i));
    EXPECT_EQ(parseGprName("$sp"), reg::Sp);
    EXPECT_EQ(parseGprName("$fp"), reg::Fp);
    EXPECT_EQ(parseGprName("$gp"), reg::Gp);
    EXPECT_EQ(parseGprName("$ra"), reg::Ra);
    EXPECT_EQ(parseGprName("$31"), 31);
    EXPECT_EQ(parseGprName("r7"), 7);
    EXPECT_EQ(parseGprName("$32"), -1);
    EXPECT_EQ(parseGprName("bogus"), -1);
    EXPECT_EQ(parseFprName("$f0"), 0);
    EXPECT_EQ(parseFprName("$f31"), 31);
    EXPECT_EQ(parseFprName("f12"), 12);
    EXPECT_EQ(parseFprName("$f32"), -1);
}

TEST(Opcodes, TableConsistency)
{
    for (unsigned i = 0; i < NumOpcodes; ++i) {
        auto op = static_cast<Opcode>(i);
        const OpInfo &info = opInfo(op);
        // Mnemonics are unique and resolvable.
        Opcode found;
        ASSERT_TRUE(opcodeFromMnemonic(info.mnemonic, found))
            << info.mnemonic;
        EXPECT_EQ(found, op);
        // Memory flags are coherent.
        if (info.isLoad || info.isStore) {
            EXPECT_GT(info.memSize, 0u) << info.mnemonic;
            EXPECT_EQ(info.fu, FuClass::Mem) << info.mnemonic;
        } else {
            EXPECT_EQ(info.memSize, 0u) << info.mnemonic;
        }
        EXPECT_FALSE(info.isLoad && info.isStore) << info.mnemonic;
        EXPECT_GE(info.latency, 1u) << info.mnemonic;
        // The operand syntax agrees with the memory and control flags.
        const Syntax syntax = info.syntax;
        EXPECT_EQ(info.isLoad,
                  syntax == Syntax::Load || syntax == Syntax::FpLoad)
            << info.mnemonic;
        EXPECT_EQ(info.isStore,
                  syntax == Syntax::Store || syntax == Syntax::FpStore)
            << info.mnemonic;
        EXPECT_EQ(info.isBranch, syntax == Syntax::Branch1 ||
                                     syntax == Syntax::Branch2)
            << info.mnemonic;
        EXPECT_EQ(info.isJump, syntax == Syntax::Jump ||
                                   syntax == Syntax::JumpReg ||
                                   syntax == Syntax::Jalr)
            << info.mnemonic;
        // Every operand lives in a field of the opcode's format, and
        // at most one register is written.
        unsigned writes = 0;
        for (const Operand &operand : syntaxInfo(syntax).operands()) {
            const bool fits =
                info.format == InstFormat::R
                    ? operand.field != Field::Imm &&
                          operand.field != Field::Target
                    : info.format == InstFormat::I
                          ? operand.field != Field::Rt &&
                                operand.field != Field::Target
                          : operand.field == Field::Target;
            EXPECT_TRUE(fits) << info.mnemonic;
            writes += operand.access == Access::Write;
        }
        EXPECT_LE(writes, 1u) << info.mnemonic;
    }
    Opcode dummy;
    EXPECT_FALSE(opcodeFromMnemonic("not_an_op", dummy));
}

/** Encode/decode round trip for every opcode with busy fields. */
class EncodeRoundTrip : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(EncodeRoundTrip, RoundTrips)
{
    auto op = static_cast<Opcode>(GetParam());
    const OpInfo &info = opInfo(op);
    DecodedInst inst;
    inst.op = op;
    switch (info.format) {
      case InstFormat::R:
        inst.rd = 5;
        inst.rs = 17;
        inst.rt = 29;
        break;
      case InstFormat::I:
        inst.rd = 9;
        inst.rs = 30;
        inst.imm = -1234;
        break;
      case InstFormat::J:
        inst.target = 0x123456;
        break;
    }
    Word word = encode(inst);
    DecodedInst decoded;
    ASSERT_TRUE(decode(word, decoded));
    EXPECT_EQ(decoded, inst) << mnemonic(op);
}

INSTANTIATE_TEST_SUITE_P(
    AllOpcodes, EncodeRoundTrip,
    ::testing::Range(0u, NumOpcodes),
    [](const ::testing::TestParamInfo<unsigned> &info) {
        std::string name = mnemonic(static_cast<Opcode>(info.param));
        for (char &c : name)
            if (c == '.')
                c = '_';
        return name;
    });

TEST(Encode, ImmediateEdgeValues)
{
    DecodedInst inst;
    inst.op = Opcode::Addi;
    inst.rd = 1;
    inst.rs = 2;
    for (std::int32_t imm : {-32768, -1, 0, 1, 32767}) {
        inst.imm = imm;
        DecodedInst out;
        ASSERT_TRUE(decode(encode(inst), out));
        EXPECT_EQ(out.imm, imm);
    }
    // Unsigned-style immediates (0..65535) survive as raw fields.
    inst.op = Opcode::Ori;
    inst.imm = 65535;
    DecodedInst out;
    ASSERT_TRUE(decode(encode(inst), out));
    EXPECT_EQ(static_cast<std::uint32_t>(out.imm) & 0xffffu, 0xffffu);
}

TEST(Decode, RejectsInvalidOpcode)
{
    Word bad = insertBits(0, 26, 6, NumOpcodes + 1);
    DecodedInst out;
    EXPECT_FALSE(decode(bad, out));
}

TEST(Targets, JumpAndBranchResolution)
{
    DecodedInst jump;
    jump.op = Opcode::J;
    jump.target = (0x00400100u >> 2);
    EXPECT_EQ(jumpTarget(jump, 0x00400000), 0x00400100u);

    DecodedInst branch;
    branch.op = Opcode::Beq;
    branch.imm = 4;
    EXPECT_EQ(branchTarget(branch, 0x00400000), 0x00400014u);
    branch.imm = -2;
    EXPECT_EQ(branchTarget(branch, 0x00400010), 0x0040000cu);
}

TEST(AddrMode, PaperRules)
{
    DecodedInst load;
    load.op = Opcode::Lw;

    load.rs = reg::Sp;
    EXPECT_EQ(classifyAddrMode(load), AddrModeHint::StackConclusive);
    load.rs = reg::Fp;
    EXPECT_EQ(classifyAddrMode(load), AddrModeHint::StackConclusive);
    load.rs = reg::Gp;
    EXPECT_EQ(classifyAddrMode(load), AddrModeHint::NonStackConclusive);
    load.rs = reg::Zero;  // constant addressing
    EXPECT_EQ(classifyAddrMode(load), AddrModeHint::NonStackConclusive);
    load.rs = reg::T0;    // rule 4
    EXPECT_EQ(classifyAddrMode(load), AddrModeHint::PredictNonStack);

    EXPECT_TRUE(isConclusive(AddrModeHint::StackConclusive));
    EXPECT_TRUE(isConclusive(AddrModeHint::NonStackConclusive));
    EXPECT_FALSE(isConclusive(AddrModeHint::PredictNonStack));
    EXPECT_TRUE(hintSaysStack(AddrModeHint::StackConclusive));
    EXPECT_FALSE(hintSaysStack(AddrModeHint::PredictNonStack));
}

TEST(Operands, SourcesAndDest)
{
    DecodedInst add;
    add.op = Opcode::Add;
    add.rd = 3;
    add.rs = 4;
    add.rt = 5;
    SourceList sources = instSources(add);
    EXPECT_EQ(sources.count, 2u);
    EXPECT_EQ(instDest(add), 3);

    // $zero is never a dependence and never a destination.
    add.rs = reg::Zero;
    add.rd = reg::Zero;
    sources = instSources(add);
    EXPECT_EQ(sources.count, 1u);
    EXPECT_EQ(instDest(add), NoReg);

    DecodedInst store;
    store.op = Opcode::Sw;
    store.rd = 7;   // data
    store.rs = 8;   // base
    sources = instSources(store);
    EXPECT_EQ(sources.count, 2u);
    EXPECT_EQ(instDest(store), NoReg);

    DecodedInst load;
    load.op = Opcode::Lw;
    load.rd = 9;
    load.rs = 10;
    sources = instSources(load);
    EXPECT_EQ(sources.count, 1u);
    EXPECT_EQ(instDest(load), 9);

    DecodedInst jal;
    jal.op = Opcode::Jal;
    EXPECT_EQ(instDest(jal), reg::Ra);

    DecodedInst fp;
    fp.op = Opcode::FaddS;
    fp.rd = 2;
    fp.rs = 3;
    fp.rt = 4;
    sources = instSources(fp);
    EXPECT_EQ(sources.count, 2u);
    EXPECT_EQ(sources.regs[0], FprBase + 3);
    EXPECT_EQ(instDest(fp), FprBase + 2);

    DecodedInst fcmp;
    fcmp.op = Opcode::FltS;
    fcmp.rd = 6;  // GPR result
    fcmp.rs = 1;
    fcmp.rt = 2;
    EXPECT_EQ(instDest(fcmp), 6);

    DecodedInst swc1;
    swc1.op = Opcode::Swc1;
    swc1.rd = 4;
    swc1.rs = reg::Sp;
    sources = instSources(swc1);
    EXPECT_EQ(sources.count, 2u);
    EXPECT_EQ(sources.regs[1], FprBase + 4);
}

TEST(Disassemble, RepresentativeFormats)
{
    DecodedInst inst;
    inst.op = Opcode::Lw;
    inst.rd = reg::T0;
    inst.rs = reg::Sp;
    inst.imm = 16;
    EXPECT_EQ(disassemble(inst), "lw $t0, 16($sp)");

    inst = DecodedInst{};
    inst.op = Opcode::Add;
    inst.rd = reg::V0;
    inst.rs = reg::A0;
    inst.rt = reg::A1;
    EXPECT_EQ(disassemble(inst), "add $v0, $a0, $a1");

    inst = DecodedInst{};
    inst.op = Opcode::Jal;
    inst.target = 0x00400040 >> 2;
    EXPECT_EQ(disassemble(inst, 0x00400000), "jal 0x00400040");

    inst = DecodedInst{};
    inst.op = Opcode::Syscall;
    EXPECT_EQ(disassemble(inst), "syscall");

    inst = DecodedInst{};
    inst.op = Opcode::FaddS;
    inst.rd = 1;
    inst.rs = 2;
    inst.rt = 3;
    EXPECT_EQ(disassemble(inst), "fadd.s $f1, $f2, $f3");
}
