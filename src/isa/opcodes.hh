/**
 * @file
 * Opcode set of the ARL ISA and the static per-opcode property table.
 *
 * Encoding formats (32-bit instruction word, op in bits [31:26]):
 *
 *   R: | op:6 | rd:5 | rs:5 | rt:5 | zero:11 |        three-register ALU
 *   I: | op:6 | rd:5 | rs:5 | imm:16 |               immediate / memory /
 *                                                    branch (rd is the
 *                                                    source for stores
 *                                                    and branches)
 *   J: | op:6 | target:26 |                          j / jal (word target
 *                                                    within the 256 MB
 *                                                    region of PC)
 *
 * Memory instructions use base+displacement addressing exclusively
 * (like SimpleScalar PISA at -O3 in practice): EA = GPR[rs] + imm.
 * "Constant addressing" in the paper's static rule 1 corresponds to
 * rs == $zero.
 *
 * Each opcode names its operand Syntax; operands.hh lists every
 * syntax's operands once, for the assembler, the disassembler and
 * the dependence lists.
 */

#ifndef ARL_ISA_OPCODES_HH
#define ARL_ISA_OPCODES_HH

#include <cstdint>
#include <string>

namespace arl::isa
{

/** Every architected operation. Values are the 6-bit encoding. */
enum class Opcode : std::uint8_t
{
    // R-format integer ALU.
    Add = 0,
    Sub,
    Mul,
    Div,      ///< signed divide; result in rd
    Rem,      ///< signed remainder; result in rd
    And,
    Or,
    Xor,
    Nor,
    Sllv,     ///< shift left by register
    Srlv,
    Srav,
    Slt,
    Sltu,

    // I-format integer ALU.
    Addi,
    Andi,
    Ori,
    Xori,
    Slti,
    Sltiu,
    Lui,      ///< rd = imm << 16
    Sll,      ///< shift by 5-bit immediate (in imm field)
    Srl,
    Sra,

    // I-format memory: EA = GPR[rs] + signExtend(imm).
    Lw,
    Lh,
    Lhu,
    Lb,
    Lbu,
    Sw,
    Sh,
    Sb,
    Lwc1,     ///< load word into FPR rd
    Swc1,     ///< store FPR rd

    // Floating point (single precision), R-format on FPRs.
    FaddS,
    FsubS,
    FmulS,
    FdivS,
    FnegS,
    FmovS,
    CvtSW,    ///< FPR rd = float(FPR rs holding int bits)
    CvtWS,    ///< FPR rd = int(FPR rs), truncating
    FeqS,     ///< GPR rd = (FPR rs == FPR rt)
    FltS,     ///< GPR rd = (FPR rs <  FPR rt)
    FleS,     ///< GPR rd = (FPR rs <= FPR rt)
    Mtc1,     ///< FPR rd = GPR rs (bit copy)
    Mfc1,     ///< GPR rd = FPR rs (bit copy)

    // Control transfer.
    Beq,      ///< branch if GPR[rd] == GPR[rs]
    Bne,
    Blez,     ///< branch if GPR[rs] <= 0
    Bgtz,
    Bltz,
    Bgez,
    J,
    Jal,
    Jr,       ///< jump to GPR[rs]
    Jalr,     ///< rd = return address; jump to GPR[rs]

    // System.
    Syscall,
    Nop,      ///< architected no-op (distinct encoding, aids disasm)

    NumOpcodes
};

/** Number of distinct opcodes. */
constexpr unsigned NumOpcodes =
    static_cast<unsigned>(Opcode::NumOpcodes);

/** Encoding format of an opcode. */
enum class InstFormat : std::uint8_t { R, I, J };

/** Functional-unit class used by the timing simulator. */
enum class FuClass : std::uint8_t
{
    IntAlu,    ///< single-cycle integer
    IntMult,   ///< integer multiply/divide unit
    FpAlu,     ///< FP add/compare/convert
    FpMult,    ///< FP multiply/divide unit
    Mem,       ///< load/store (goes through a memory pipeline)
    None       ///< consumes no FU (nop, j, syscall in this model)
};

/**
 * Operand syntax of an opcode: which registers, immediates and labels
 * its assembler text names, in order ($f.. = FPR).  syntaxInfo()
 * (operands.hh) describes each one.
 */
enum class Syntax : std::uint8_t
{
    R3,        ///< op $rd, $rs, $rt
    I2,        ///< op $rd, $rs, imm
    Shift,     ///< op $rd, $rs, shamt
    Lui,       ///< op $rd, imm
    Load,      ///< op $rd, off($rs)
    Store,     ///< op $rd, off($rs)       (rd is the data stored)
    FpLoad,    ///< op $fd, off($rs)
    FpStore,   ///< op $fd, off($rs)
    FpR3,      ///< op $fd, $fs, $ft
    FpR2,      ///< op $fd, $fs            (fneg.s, fmov.s, cvt)
    FpCmp,     ///< op $rd, $fs, $ft
    Mtc1,      ///< op $fd, $rs
    Mfc1,      ///< op $rd, $fs
    Branch2,   ///< op $rd, $rs, label
    Branch1,   ///< op $rs, label
    Jump,      ///< op label
    JumpReg,   ///< op $rs
    Jalr,      ///< op $rd, $rs
    Bare,      ///< op                     (nop, syscall)
    NumSyntaxes
};

/** Number of distinct syntaxes. */
constexpr unsigned NumSyntaxes =
    static_cast<unsigned>(Syntax::NumSyntaxes);

/** Static properties of one opcode. */
struct OpInfo
{
    const char *mnemonic;   ///< assembler mnemonic
    InstFormat format;      ///< encoding format
    Syntax syntax;          ///< operands, as the assembler spells them
    FuClass fu;             ///< functional-unit class
    std::uint8_t latency;   ///< execute latency in cycles (R10000-like)
    bool isLoad;            ///< reads data memory
    bool isStore;           ///< writes data memory
    bool isBranch;          ///< conditional control transfer
    bool isJump;            ///< unconditional control transfer
    bool isCall;            ///< writes a return address (jal/jalr)
    bool isReturn;          ///< jr (by convention through $ra)
    std::uint8_t memSize;   ///< access size in bytes (0 if not memory)
    bool memSigned;         ///< sign-extend a sub-word load
};

namespace detail
{
/** One row per opcode, in enum order (opcodes.cc). */
extern const OpInfo opTable[NumOpcodes];
/** Panics: @p index names no opcode. */
[[noreturn]] void opInfoOutOfRange(unsigned index);
} // namespace detail

/** Property table lookup; panics on an out-of-range opcode. */
inline const OpInfo &
opInfo(Opcode op)
{
    const auto index = static_cast<unsigned>(op);
    if (index >= NumOpcodes) [[unlikely]]
        detail::opInfoOutOfRange(index);
    return detail::opTable[index];
}

/** Mnemonic of @p op. */
std::string mnemonic(Opcode op);

/**
 * Look up an opcode by mnemonic.
 * @return true and sets @p out when found.
 */
bool opcodeFromMnemonic(const std::string &name, Opcode &out);

} // namespace arl::isa

#endif // ARL_ISA_OPCODES_HH
