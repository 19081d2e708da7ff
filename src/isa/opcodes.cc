#include "isa/opcodes.hh"

#include "common/logging.hh"

namespace arl::isa
{

namespace
{

using F = InstFormat;
using Fu = FuClass;

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
    //            mnemonic  fmt   fu          lat ld     st     br     jmp    call   ret    fp     sz sgn    wG     wF
    /* Add    */ {"add",    F::R, Fu::IntAlu,  1, false, false, false, false, false, false, false, 0, false, true,  false},
    /* Sub    */ {"sub",    F::R, Fu::IntAlu,  1, false, false, false, false, false, false, false, 0, false, true,  false},
    /* Mul    */ {"mul",    F::R, Fu::IntMult, 6, false, false, false, false, false, false, false, 0, false, true,  false},
    /* Div    */ {"div",    F::R, Fu::IntMult, 35, false, false, false, false, false, false, false, 0, false, true, false},
    /* Rem    */ {"rem",    F::R, Fu::IntMult, 35, false, false, false, false, false, false, false, 0, false, true, false},
    /* And    */ {"and",    F::R, Fu::IntAlu,  1, false, false, false, false, false, false, false, 0, false, true,  false},
    /* Or     */ {"or",     F::R, Fu::IntAlu,  1, false, false, false, false, false, false, false, 0, false, true,  false},
    /* Xor    */ {"xor",    F::R, Fu::IntAlu,  1, false, false, false, false, false, false, false, 0, false, true,  false},
    /* Nor    */ {"nor",    F::R, Fu::IntAlu,  1, false, false, false, false, false, false, false, 0, false, true,  false},
    /* Sllv   */ {"sllv",   F::R, Fu::IntAlu,  1, false, false, false, false, false, false, false, 0, false, true,  false},
    /* Srlv   */ {"srlv",   F::R, Fu::IntAlu,  1, false, false, false, false, false, false, false, 0, false, true,  false},
    /* Srav   */ {"srav",   F::R, Fu::IntAlu,  1, false, false, false, false, false, false, false, 0, false, true,  false},
    /* Slt    */ {"slt",    F::R, Fu::IntAlu,  1, false, false, false, false, false, false, false, 0, false, true,  false},
    /* Sltu   */ {"sltu",   F::R, Fu::IntAlu,  1, false, false, false, false, false, false, false, 0, false, true,  false},

    /* Addi   */ {"addi",   F::I, Fu::IntAlu,  1, false, false, false, false, false, false, false, 0, false, true,  false},
    /* Andi   */ {"andi",   F::I, Fu::IntAlu,  1, false, false, false, false, false, false, false, 0, false, true,  false},
    /* Ori    */ {"ori",    F::I, Fu::IntAlu,  1, false, false, false, false, false, false, false, 0, false, true,  false},
    /* Xori   */ {"xori",   F::I, Fu::IntAlu,  1, false, false, false, false, false, false, false, 0, false, true,  false},
    /* Slti   */ {"slti",   F::I, Fu::IntAlu,  1, false, false, false, false, false, false, false, 0, false, true,  false},
    /* Sltiu  */ {"sltiu",  F::I, Fu::IntAlu,  1, false, false, false, false, false, false, false, 0, false, true,  false},
    /* Lui    */ {"lui",    F::I, Fu::IntAlu,  1, false, false, false, false, false, false, false, 0, false, true,  false},
    /* Sll    */ {"sll",    F::I, Fu::IntAlu,  1, false, false, false, false, false, false, false, 0, false, true,  false},
    /* Srl    */ {"srl",    F::I, Fu::IntAlu,  1, false, false, false, false, false, false, false, 0, false, true,  false},
    /* Sra    */ {"sra",    F::I, Fu::IntAlu,  1, false, false, false, false, false, false, false, 0, false, true,  false},

    /* Lw     */ {"lw",     F::I, Fu::Mem,     1, true,  false, false, false, false, false, false, 4, true,  true,  false},
    /* Lh     */ {"lh",     F::I, Fu::Mem,     1, true,  false, false, false, false, false, false, 2, true,  true,  false},
    /* Lhu    */ {"lhu",    F::I, Fu::Mem,     1, true,  false, false, false, false, false, false, 2, false, true,  false},
    /* Lb     */ {"lb",     F::I, Fu::Mem,     1, true,  false, false, false, false, false, false, 1, true,  true,  false},
    /* Lbu    */ {"lbu",    F::I, Fu::Mem,     1, true,  false, false, false, false, false, false, 1, false, true,  false},
    /* Sw     */ {"sw",     F::I, Fu::Mem,     1, false, true,  false, false, false, false, false, 4, false, false, false},
    /* Sh     */ {"sh",     F::I, Fu::Mem,     1, false, true,  false, false, false, false, false, 2, false, false, false},
    /* Sb     */ {"sb",     F::I, Fu::Mem,     1, false, true,  false, false, false, false, false, 1, false, false, false},
    /* Lwc1   */ {"lwc1",   F::I, Fu::Mem,     1, true,  false, false, false, false, false, true,  4, false, false, true},
    /* Swc1   */ {"swc1",   F::I, Fu::Mem,     1, false, true,  false, false, false, false, true,  4, false, false, false},

    /* FaddS  */ {"fadd.s", F::R, Fu::FpAlu,   3, false, false, false, false, false, false, true,  0, false, false, true},
    /* FsubS  */ {"fsub.s", F::R, Fu::FpAlu,   3, false, false, false, false, false, false, true,  0, false, false, true},
    /* FmulS  */ {"fmul.s", F::R, Fu::FpMult,  3, false, false, false, false, false, false, true,  0, false, false, true},
    /* FdivS  */ {"fdiv.s", F::R, Fu::FpMult,  19, false, false, false, false, false, false, true, 0, false, false, true},
    /* FnegS  */ {"fneg.s", F::R, Fu::FpAlu,   1, false, false, false, false, false, false, true,  0, false, false, true},
    /* FmovS  */ {"fmov.s", F::R, Fu::FpAlu,   1, false, false, false, false, false, false, true,  0, false, false, true},
    /* CvtSW  */ {"cvt.s.w", F::R, Fu::FpAlu,  3, false, false, false, false, false, false, true,  0, false, false, true},
    /* CvtWS  */ {"cvt.w.s", F::R, Fu::FpAlu,  3, false, false, false, false, false, false, true,  0, false, false, true},
    /* FeqS   */ {"feq.s",  F::R, Fu::FpAlu,   3, false, false, false, false, false, false, true,  0, false, true,  false},
    /* FltS   */ {"flt.s",  F::R, Fu::FpAlu,   3, false, false, false, false, false, false, true,  0, false, true,  false},
    /* FleS   */ {"fle.s",  F::R, Fu::FpAlu,   3, false, false, false, false, false, false, true,  0, false, true,  false},
    /* Mtc1   */ {"mtc1",   F::R, Fu::FpAlu,   1, false, false, false, false, false, false, true,  0, false, false, true},
    /* Mfc1   */ {"mfc1",   F::R, Fu::FpAlu,   1, false, false, false, false, false, false, true,  0, false, true,  false},

    /* Beq    */ {"beq",    F::I, Fu::IntAlu,  1, false, false, true,  false, false, false, false, 0, false, false, false},
    /* Bne    */ {"bne",    F::I, Fu::IntAlu,  1, false, false, true,  false, false, false, false, 0, false, false, false},
    /* Blez   */ {"blez",   F::I, Fu::IntAlu,  1, false, false, true,  false, false, false, false, 0, false, false, false},
    /* Bgtz   */ {"bgtz",   F::I, Fu::IntAlu,  1, false, false, true,  false, false, false, false, 0, false, false, false},
    /* Bltz   */ {"bltz",   F::I, Fu::IntAlu,  1, false, false, true,  false, false, false, false, 0, false, false, false},
    /* Bgez   */ {"bgez",   F::I, Fu::IntAlu,  1, false, false, true,  false, false, false, false, 0, false, false, false},
    /* J      */ {"j",      F::J, Fu::None,    1, false, false, false, true,  false, false, false, 0, false, false, false},
    /* Jal    */ {"jal",    F::J, Fu::None,    1, false, false, false, true,  true,  false, false, 0, false, true,  false},
    /* Jr     */ {"jr",     F::R, Fu::None,    1, false, false, false, true,  false, true,  false, 0, false, false, false},
    /* Jalr   */ {"jalr",   F::R, Fu::None,    1, false, false, false, true,  true,  false, false, 0, false, true,  false},

    /* Syscall*/ {"syscall", F::R, Fu::None,   1, false, false, false, false, false, false, false, 0, false, false, false},
    /* Nop    */ {"nop",    F::R, Fu::None,    1, false, false, false, false, false, false, false, 0, false, false, false},
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
    for (unsigned i = 0; i < NumOpcodes; ++i) {
        if (name == detail::opTable[i].mnemonic) {
            out = static_cast<Opcode>(i);
            return true;
        }
    }
    return false;
}

} // namespace arl::isa
