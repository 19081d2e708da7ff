/**
 * @file
 * Assembler tests: syntax coverage, pseudo expansion, symbol
 * resolution, data directives, error diagnostics, and an
 * assemble-execute round trip.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "assembler/assembler.hh"
#include "isa/inst.hh"
#include "sim/simulator.hh"

using namespace arl;
using assembler::assemble;

namespace
{

isa::DecodedInst
decodeAt(const vm::Program &prog, std::size_t index)
{
    isa::DecodedInst inst;
    EXPECT_TRUE(isa::decode(prog.text.at(index), inst));
    return inst;
}

} // namespace

TEST(Assembler, BasicInstructions)
{
    auto result = assemble(R"(
        add  $t0, $t1, $t2
        addi $t0, $t1, -5
        lw   $t0, 8($sp)
        sw   $ra, ($sp)
        lui  $t0, 0x1000
        sll  $t0, $t1, 3
        jr   $ra
        syscall
        nop
    )");
    ASSERT_TRUE(result.ok()) << (result.errors.empty()
                                     ? ""
                                     : result.errors[0].format());
    const auto &prog = *result.program;
    EXPECT_EQ(prog.text.size(), 9u);
    auto add = decodeAt(prog, 0);
    EXPECT_EQ(add.op, isa::Opcode::Add);
    EXPECT_EQ(add.rd, isa::reg::T0);
    auto lw = decodeAt(prog, 2);
    EXPECT_EQ(lw.op, isa::Opcode::Lw);
    EXPECT_EQ(lw.imm, 8);
    EXPECT_EQ(lw.rs, isa::reg::Sp);
    auto sw_inst = decodeAt(prog, 3);
    EXPECT_EQ(sw_inst.imm, 0);  // bare (reg) means offset 0
}

TEST(Assembler, LabelsAndBranches)
{
    auto result = assemble(R"(
    start:  addi $t0, $zero, 3
    loop:   addi $t0, $t0, -1
            bgtz $t0, loop
            beq  $zero, $zero, end
            nop
    end:    jr   $ra
    )");
    ASSERT_TRUE(result.ok());
    const auto &prog = *result.program;
    auto bgtz = decodeAt(prog, 2);
    EXPECT_EQ(bgtz.op, isa::Opcode::Bgtz);
    EXPECT_EQ(bgtz.imm, -2);  // back to 'loop'
    auto beq = decodeAt(prog, 3);
    EXPECT_EQ(beq.imm, 1);    // over the nop to 'end'
    Addr start = 0;
    EXPECT_TRUE(prog.lookup("start", start));
    EXPECT_EQ(start, vm::layout::TextBase);
}

TEST(Assembler, PseudoExpansion)
{
    auto result = assemble(R"(
            .data
    buf:    .space 16
            .text
            li   $t0, 7
            li   $t1, 0x123456
            la   $t2, buf
            move $t3, $t1
            b    skip
            nop
    skip:   nop
    )");
    ASSERT_TRUE(result.ok());
    const auto &prog = *result.program;
    // li small = 1 word, li big = 2, la = 2, move = 1, b = 1.
    EXPECT_EQ(prog.text.size(), 1u + 2 + 2 + 1 + 1 + 1 + 1);
    auto small = decodeAt(prog, 0);
    EXPECT_EQ(small.op, isa::Opcode::Addi);
    auto big_hi = decodeAt(prog, 1);
    EXPECT_EQ(big_hi.op, isa::Opcode::Lui);
    auto la_hi = decodeAt(prog, 3);
    EXPECT_EQ(la_hi.op, isa::Opcode::Lui);
    EXPECT_EQ(static_cast<std::uint32_t>(la_hi.imm),
              vm::layout::DataBase >> 16);
}

TEST(Assembler, DataDirectivesAndSymbolWords)
{
    auto result = assemble(R"(
            .data
    a:      .word 1, 2, 3
    b:      .space 8
    c:      .word a          # symbol reference in .word
            .text
            nop
    )");
    ASSERT_TRUE(result.ok());
    const auto &prog = *result.program;
    Addr a = 0, b = 0, c = 0;
    ASSERT_TRUE(prog.lookup("a", a));
    ASSERT_TRUE(prog.lookup("b", b));
    ASSERT_TRUE(prog.lookup("c", c));
    EXPECT_EQ(a, vm::layout::DataBase);
    EXPECT_EQ(b, a + 12);
    EXPECT_EQ(c, b + 8);
    std::uint32_t stored;
    std::memcpy(&stored, prog.data.data() + (c - vm::layout::DataBase),
                4);
    EXPECT_EQ(stored, a);
}

TEST(Assembler, FpSyntax)
{
    auto result = assemble(R"(
        lwc1   $f0, 0($t0)
        fadd.s $f2, $f0, $f1
        flt.s  $t0, $f2, $f3
        mtc1   $f4, $t1
        mfc1   $t2, $f4
        cvt.s.w $f5, $f4
        swc1   $f2, 4($sp)
    )");
    ASSERT_TRUE(result.ok()) << (result.errors.empty()
                                     ? ""
                                     : result.errors[0].format());
    auto fadd = decodeAt(*result.program, 1);
    EXPECT_EQ(fadd.op, isa::Opcode::FaddS);
    EXPECT_EQ(fadd.rd, 2);
}

TEST(Assembler, UnknownMnemonicReported)
{
    auto result = assemble("nop\nfrobnicate $t0\n");
    EXPECT_FALSE(result.ok());
    ASSERT_GE(result.errors.size(), 1u);
    EXPECT_EQ(result.errors[0].line, 2u);
    EXPECT_NE(result.errors[0].message.find("frobnicate"),
              std::string::npos);
}

TEST(Assembler, EncodeErrorsCarryLineNumbers)
{
    // All statements parse in pass 1; pass 2 reports each problem
    // with its own line number.
    auto result = assemble("nop\n"
                           "addi $t0, $t1\n"        // line 2: operands
                           "lw $t0, 99999($sp)\n"   // line 3: range
                           "beq $t0, $t1, nowhere\n");
    EXPECT_FALSE(result.ok());
    ASSERT_GE(result.errors.size(), 3u);
    EXPECT_EQ(result.errors[0].line, 2u);
    EXPECT_NE(result.errors[0].message.find("operands"),
              std::string::npos);
    EXPECT_EQ(result.errors[1].line, 3u);
    bool undefined_reported = false;
    for (const auto &error : result.errors)
        if (error.message.find("nowhere") != std::string::npos)
            undefined_reported = true;
    EXPECT_TRUE(undefined_reported);
}

TEST(Assembler, DuplicateLabelRejected)
{
    auto result = assemble("x: nop\nx: nop\n");
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.errors[0].message.find("duplicate"),
              std::string::npos);
}

TEST(Assembler, InstructionInDataRejected)
{
    auto result = assemble(".data\nadd $t0, $t1, $t2\n");
    EXPECT_FALSE(result.ok());
}

TEST(Assembler, UnitWithoutInstructionsRejected)
{
    // Empty, comment-only and data-only units have nothing to run.
    for (const char *source :
         {"", "# only a comment\n\n", ".data\nx: .word 1, 2\n"}) {
        auto result = assemble(source);
        EXPECT_FALSE(result.ok()) << source;
        ASSERT_EQ(result.errors.size(), 1u) << source;
        EXPECT_NE(result.errors[0].message.find("no instructions"),
                  std::string::npos);
    }
}

TEST(Assembler, ExecuteRoundTrip)
{
    auto result = assemble(R"(
            .data
    tbl:    .word 10, 20, 30
            .text
    _start: la   $t0, tbl
            lw   $t1, 0($t0)
            lw   $t2, 4($t0)
            lw   $t3, 8($t0)
            add  $a0, $t1, $t2
            add  $a0, $a0, $t3
            addi $v0, $zero, 1     # print_int(60)
            syscall
            addi $a0, $zero, 0
            addi $v0, $zero, 10    # exit(0)
            syscall
    )");
    ASSERT_TRUE(result.ok());
    sim::Simulator simulator(result.program);
    simulator.run();
    EXPECT_TRUE(simulator.halted());
    EXPECT_EQ(simulator.process().output, "60");
}

TEST(Assembler, DisassemblerRoundTrip)
{
    // Every assembled instruction disassembles back to its mnemonic.
    const char *source = R"(
        add $t0, $t1, $t2
        addi $t0, $t1, 4
        lw $t0, 4($sp)
        beq $t0, $t1, next
    next:
        jr $ra
    )";
    auto result = assemble(source);
    ASSERT_TRUE(result.ok());
    const char *expected[] = {"add", "addi", "lw", "beq", "jr"};
    for (std::size_t i = 0; i < result.program->text.size(); ++i) {
        isa::DecodedInst inst;
        ASSERT_TRUE(isa::decode(result.program->text[i], inst));
        std::string text = isa::disassemble(inst);
        EXPECT_EQ(text.substr(0, std::string(expected[i]).size()),
                  expected[i]);
    }
}

TEST(Assembler, EntrySelection)
{
    auto with_start = assemble("nop\n_start: nop\n");
    ASSERT_TRUE(with_start.ok());
    EXPECT_EQ(with_start.program->entry, vm::layout::TextBase + 4);
    auto with_main = assemble("nop\nmain: nop\n");
    ASSERT_TRUE(with_main.ok());
    EXPECT_EQ(with_main.program->entry, vm::layout::TextBase + 4);
    auto bare = assemble("nop\n");
    ASSERT_TRUE(bare.ok());
    EXPECT_EQ(bare.program->entry, vm::layout::TextBase);
}

TEST(Assembler, AssembleOrDieSucceedsOnValidInput)
{
    auto prog = assembler::assembleOrDie("nop\n", "ok");
    EXPECT_EQ(prog->text.size(), 1u);
}
