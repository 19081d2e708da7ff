#include "isa/opcodes.hh"

#include <map>

#include "common/logging.hh"
#include "isa/operands.hh"

namespace arl::isa
{

namespace
{

using F = InstFormat;
using Fu = FuClass;
using S = Syntax;

constexpr Access R = Access::Read, W = Access::Write;
constexpr Field Rd = Field::Rd, Rs = Field::Rs, Rt = Field::Rt;

constexpr Operand
gpr(Field field, Access access)
{
    return {OperandKind::Reg, field, RegFile::Gpr, access, 0, 0};
}

constexpr Operand
fpr(Field field, Access access)
{
    return {OperandKind::Reg, field, RegFile::Fpr, access, 0, 0};
}

constexpr Operand
imm(std::int32_t min, std::int32_t max)
{
    return {OperandKind::Imm, Field::Imm, RegFile::None, Access::None,
            min, max};
}

/** off($rs): a signed 16-bit displacement from a GPR base. */
constexpr Operand mem = {OperandKind::Mem, Rs, RegFile::Gpr, R,
                         -32768, 32767};
/** A branch label: a signed 16-bit word offset from pc + 4. */
constexpr Operand branch = {OperandKind::Branch, Field::Imm,
                            RegFile::None, Access::None, -32768, 32767};
/** A jump label: a word index within pc's 256 MB region. */
constexpr Operand jump = {OperandKind::Jump, Field::Target,
                          RegFile::None, Access::None, 0, 0};

} // namespace

namespace detail
{

/**
 * One row per opcode, in enum order.  Latencies follow the MIPS
 * R10000 as the paper specifies (Table 4): 1-cycle integer ALU,
 * 6-cycle multiply, 35-cycle divide, 2-3 cycle FP add/multiply,
 * 19-cycle FP divide.
 */
const OpInfo opTable[NumOpcodes] = {
    //            mnemonic   fmt   syntax       fu           lat ld     st     br     jmp    call   ret    sz sgn
    /* Add    */ {"add",     F::R, S::R3,       Fu::IntAlu,  1,  false, false, false, false, false, false, 0,  false},
    /* Sub    */ {"sub",     F::R, S::R3,       Fu::IntAlu,  1,  false, false, false, false, false, false, 0,  false},
    /* Mul    */ {"mul",     F::R, S::R3,       Fu::IntMult, 6,  false, false, false, false, false, false, 0,  false},
    /* Div    */ {"div",     F::R, S::R3,       Fu::IntMult, 35, false, false, false, false, false, false, 0,  false},
    /* Rem    */ {"rem",     F::R, S::R3,       Fu::IntMult, 35, false, false, false, false, false, false, 0,  false},
    /* And    */ {"and",     F::R, S::R3,       Fu::IntAlu,  1,  false, false, false, false, false, false, 0,  false},
    /* Or     */ {"or",      F::R, S::R3,       Fu::IntAlu,  1,  false, false, false, false, false, false, 0,  false},
    /* Xor    */ {"xor",     F::R, S::R3,       Fu::IntAlu,  1,  false, false, false, false, false, false, 0,  false},
    /* Nor    */ {"nor",     F::R, S::R3,       Fu::IntAlu,  1,  false, false, false, false, false, false, 0,  false},
    /* Sllv   */ {"sllv",    F::R, S::R3,       Fu::IntAlu,  1,  false, false, false, false, false, false, 0,  false},
    /* Srlv   */ {"srlv",    F::R, S::R3,       Fu::IntAlu,  1,  false, false, false, false, false, false, 0,  false},
    /* Srav   */ {"srav",    F::R, S::R3,       Fu::IntAlu,  1,  false, false, false, false, false, false, 0,  false},
    /* Slt    */ {"slt",     F::R, S::R3,       Fu::IntAlu,  1,  false, false, false, false, false, false, 0,  false},
    /* Sltu   */ {"sltu",    F::R, S::R3,       Fu::IntAlu,  1,  false, false, false, false, false, false, 0,  false},

    /* Addi   */ {"addi",    F::I, S::I2,       Fu::IntAlu,  1,  false, false, false, false, false, false, 0,  false},
    /* Andi   */ {"andi",    F::I, S::I2,       Fu::IntAlu,  1,  false, false, false, false, false, false, 0,  false},
    /* Ori    */ {"ori",     F::I, S::I2,       Fu::IntAlu,  1,  false, false, false, false, false, false, 0,  false},
    /* Xori   */ {"xori",    F::I, S::I2,       Fu::IntAlu,  1,  false, false, false, false, false, false, 0,  false},
    /* Slti   */ {"slti",    F::I, S::I2,       Fu::IntAlu,  1,  false, false, false, false, false, false, 0,  false},
    /* Sltiu  */ {"sltiu",   F::I, S::I2,       Fu::IntAlu,  1,  false, false, false, false, false, false, 0,  false},
    /* Lui    */ {"lui",     F::I, S::Lui,      Fu::IntAlu,  1,  false, false, false, false, false, false, 0,  false},
    /* Sll    */ {"sll",     F::I, S::Shift,    Fu::IntAlu,  1,  false, false, false, false, false, false, 0,  false},
    /* Srl    */ {"srl",     F::I, S::Shift,    Fu::IntAlu,  1,  false, false, false, false, false, false, 0,  false},
    /* Sra    */ {"sra",     F::I, S::Shift,    Fu::IntAlu,  1,  false, false, false, false, false, false, 0,  false},

    /* Lw     */ {"lw",      F::I, S::Load,     Fu::Mem,     1,  true,  false, false, false, false, false, 4,  true},
    /* Lh     */ {"lh",      F::I, S::Load,     Fu::Mem,     1,  true,  false, false, false, false, false, 2,  true},
    /* Lhu    */ {"lhu",     F::I, S::Load,     Fu::Mem,     1,  true,  false, false, false, false, false, 2,  false},
    /* Lb     */ {"lb",      F::I, S::Load,     Fu::Mem,     1,  true,  false, false, false, false, false, 1,  true},
    /* Lbu    */ {"lbu",     F::I, S::Load,     Fu::Mem,     1,  true,  false, false, false, false, false, 1,  false},
    /* Sw     */ {"sw",      F::I, S::Store,    Fu::Mem,     1,  false, true,  false, false, false, false, 4,  false},
    /* Sh     */ {"sh",      F::I, S::Store,    Fu::Mem,     1,  false, true,  false, false, false, false, 2,  false},
    /* Sb     */ {"sb",      F::I, S::Store,    Fu::Mem,     1,  false, true,  false, false, false, false, 1,  false},
    /* Lwc1   */ {"lwc1",    F::I, S::FpLoad,   Fu::Mem,     1,  true,  false, false, false, false, false, 4,  false},
    /* Swc1   */ {"swc1",    F::I, S::FpStore,  Fu::Mem,     1,  false, true,  false, false, false, false, 4,  false},

    /* FaddS  */ {"fadd.s",  F::R, S::FpR3,     Fu::FpAlu,   3,  false, false, false, false, false, false, 0,  false},
    /* FsubS  */ {"fsub.s",  F::R, S::FpR3,     Fu::FpAlu,   3,  false, false, false, false, false, false, 0,  false},
    /* FmulS  */ {"fmul.s",  F::R, S::FpR3,     Fu::FpMult,  3,  false, false, false, false, false, false, 0,  false},
    /* FdivS  */ {"fdiv.s",  F::R, S::FpR3,     Fu::FpMult,  19, false, false, false, false, false, false, 0,  false},
    /* FnegS  */ {"fneg.s",  F::R, S::FpR2,     Fu::FpAlu,   1,  false, false, false, false, false, false, 0,  false},
    /* FmovS  */ {"fmov.s",  F::R, S::FpR2,     Fu::FpAlu,   1,  false, false, false, false, false, false, 0,  false},
    /* CvtSW  */ {"cvt.s.w", F::R, S::FpR2,     Fu::FpAlu,   3,  false, false, false, false, false, false, 0,  false},
    /* CvtWS  */ {"cvt.w.s", F::R, S::FpR2,     Fu::FpAlu,   3,  false, false, false, false, false, false, 0,  false},
    /* FeqS   */ {"feq.s",   F::R, S::FpCmp,    Fu::FpAlu,   3,  false, false, false, false, false, false, 0,  false},
    /* FltS   */ {"flt.s",   F::R, S::FpCmp,    Fu::FpAlu,   3,  false, false, false, false, false, false, 0,  false},
    /* FleS   */ {"fle.s",   F::R, S::FpCmp,    Fu::FpAlu,   3,  false, false, false, false, false, false, 0,  false},
    /* Mtc1   */ {"mtc1",    F::R, S::Mtc1,     Fu::FpAlu,   1,  false, false, false, false, false, false, 0,  false},
    /* Mfc1   */ {"mfc1",    F::R, S::Mfc1,     Fu::FpAlu,   1,  false, false, false, false, false, false, 0,  false},

    /* Beq    */ {"beq",     F::I, S::Branch2,  Fu::IntAlu,  1,  false, false, true,  false, false, false, 0,  false},
    /* Bne    */ {"bne",     F::I, S::Branch2,  Fu::IntAlu,  1,  false, false, true,  false, false, false, 0,  false},
    /* Blez   */ {"blez",    F::I, S::Branch1,  Fu::IntAlu,  1,  false, false, true,  false, false, false, 0,  false},
    /* Bgtz   */ {"bgtz",    F::I, S::Branch1,  Fu::IntAlu,  1,  false, false, true,  false, false, false, 0,  false},
    /* Bltz   */ {"bltz",    F::I, S::Branch1,  Fu::IntAlu,  1,  false, false, true,  false, false, false, 0,  false},
    /* Bgez   */ {"bgez",    F::I, S::Branch1,  Fu::IntAlu,  1,  false, false, true,  false, false, false, 0,  false},
    /* J      */ {"j",       F::J, S::Jump,     Fu::None,    1,  false, false, false, true,  false, false, 0,  false},
    /* Jal    */ {"jal",     F::J, S::Jump,     Fu::None,    1,  false, false, false, true,  true,  false, 0,  false},
    /* Jr     */ {"jr",      F::R, S::JumpReg,  Fu::None,    1,  false, false, false, true,  false, true,  0,  false},
    /* Jalr   */ {"jalr",    F::R, S::Jalr,     Fu::None,    1,  false, false, false, true,  true,  false, 0,  false},

    /* Syscall*/ {"syscall", F::R, S::Bare,     Fu::None,    1,  false, false, false, false, false, false, 0,  false},
    /* Nop    */ {"nop",     F::R, S::Bare,     Fu::None,    1,  false, false, false, false, false, false, 0,  false},
};

/**
 * One row per syntax, in enum order.  An I-format immediate accepts
 * both a signed and an unsigned 16-bit spelling (andi/ori/xori and
 * lui read the field unsigned).
 */
const SyntaxInfo syntaxTable[NumSyntaxes] = {
    /* R3      */ {3, {gpr(Rd, W), gpr(Rs, R), gpr(Rt, R)}},
    /* I2      */ {3, {gpr(Rd, W), gpr(Rs, R), imm(-32768, 65535)}},
    /* Shift   */ {3, {gpr(Rd, W), gpr(Rs, R), imm(0, 31)}},
    /* Lui     */ {2, {gpr(Rd, W), imm(-32768, 65535)}},
    /* Load    */ {2, {gpr(Rd, W), mem}},
    /* Store   */ {2, {gpr(Rd, R), mem}},
    /* FpLoad  */ {2, {fpr(Rd, W), mem}},
    /* FpStore */ {2, {fpr(Rd, R), mem}},
    /* FpR3    */ {3, {fpr(Rd, W), fpr(Rs, R), fpr(Rt, R)}},
    /* FpR2    */ {2, {fpr(Rd, W), fpr(Rs, R)}},
    /* FpCmp   */ {3, {gpr(Rd, W), fpr(Rs, R), fpr(Rt, R)}},
    /* Mtc1    */ {2, {fpr(Rd, W), gpr(Rs, R)}},
    /* Mfc1    */ {2, {gpr(Rd, W), fpr(Rs, R)}},
    /* Branch2 */ {3, {gpr(Rd, R), gpr(Rs, R), branch}},
    /* Branch1 */ {2, {gpr(Rs, R), branch}},
    /* Jump    */ {1, {jump}},
    /* JumpReg */ {1, {gpr(Rs, R)}},
    /* Jalr    */ {2, {gpr(Rd, W), gpr(Rs, R)}},
    /* Bare    */ {0, {}},
};

void
opInfoOutOfRange(unsigned index)
{
    panic("opInfo: opcode out of range (%u)", index);
}

} // namespace detail

std::string
mnemonic(Opcode op)
{
    return opInfo(op).mnemonic;
}

bool
opcodeFromMnemonic(const std::string &name, Opcode &out)
{
    // The assembler looks up every statement: index the table once.
    static const std::map<std::string, Opcode> index = [] {
        std::map<std::string, Opcode> by_name;
        for (unsigned i = 0; i < NumOpcodes; ++i)
            by_name.emplace(detail::opTable[i].mnemonic,
                            static_cast<Opcode>(i));
        return by_name;
    }();
    auto it = index.find(name);
    if (it == index.end())
        return false;
    out = it->second;
    return true;
}

} // namespace arl::isa
