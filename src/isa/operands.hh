/**
 * @file
 * The operands of every syntax, declared once, and the register
 * dependences read from them.
 *
 * syntaxInfo() lists a syntax's operands in assembler-text order with
 * the field each occupies, its register file, whether the instruction
 * reads or writes it, and an immediate's accepted range.  The
 * assembler parses by walking that list, the disassembler prints by
 * walking it, and instSources()/instDest() take their registers from
 * it; the only operands it does not list are syscall's (it reads $v0
 * and $a0 and returns in $v0) and jal's link register $ra.
 *
 * The out-of-order timing model needs, for every decoded instruction,
 * the set of architectural source registers and the (at most one)
 * destination register.  GPRs and FPRs live in separate spaces; we
 * map them into a flat 64-entry space (0..31 = GPR, 32..63 = FPR) so
 * renaming tables can be simple arrays.  GPR0 ($zero) is never a real
 * dependence.
 */

#ifndef ARL_ISA_OPERANDS_HH
#define ARL_ISA_OPERANDS_HH

#include <cstdint>
#include <span>

#include "isa/inst.hh"
#include "isa/registers.hh"

namespace arl::isa
{

/** Instruction field an operand is encoded in. */
enum class Field : std::uint8_t { Rd, Rs, Rt, Imm, Target };

/** Register file of a register operand. */
enum class RegFile : std::uint8_t { None, Gpr, Fpr };

/** How the instruction uses a register operand. */
enum class Access : std::uint8_t { None, Read, Write };

/** How an operand is spelled in assembler text. */
enum class OperandKind : std::uint8_t
{
    Reg,      ///< a register name
    Imm,      ///< an integer literal in [min, max]
    Mem,      ///< off($base): the offset, in [min, max], is imm and
              ///< the base GPR is `field` (rs)
    Branch,   ///< a label, as a word offset from pc + 4 in [min, max]
    Jump,     ///< a label in pc's 256 MB region, as a word index
};

/** One operand of a syntax. */
struct Operand
{
    OperandKind kind;
    Field field;          ///< where the value (Mem: the base) is encoded
    RegFile file;         ///< register file (None: not a register)
    Access access;        ///< how the register is used
    std::int32_t min;     ///< accepted range of the immediate part
    std::int32_t max;
};

/** The operands of one syntax, in assembler-text order. */
struct SyntaxInfo
{
    std::uint8_t count;
    Operand operand[3];

    std::span<const Operand>
    operands() const
    {
        return {operand, count};
    }
};

namespace detail
{
/** One row per syntax, in enum order (opcodes.cc). */
extern const SyntaxInfo syntaxTable[NumSyntaxes];
} // namespace detail

/** The operands of @p syntax. */
inline const SyntaxInfo &
syntaxInfo(Syntax syntax)
{
    return detail::syntaxTable[static_cast<unsigned>(syntax)];
}

/** Register field @p field (rd, rs or rt) of @p inst. */
template <typename Inst>
auto &
regField(Inst &inst, Field field)
{
    return field == Field::Rd ? inst.rd
                              : field == Field::Rs ? inst.rs : inst.rt;
}

/** Flat architectural register id: 0..31 GPR, 32..63 FPR. */
using FlatReg = std::uint8_t;

constexpr FlatReg FprBase = 32;
constexpr unsigned NumFlatRegs = 64;
/** Sentinel meaning "no register". */
constexpr FlatReg NoReg = 0xff;

/** The register @p operand names in @p inst, as a flat id. */
inline FlatReg
flatReg(const DecodedInst &inst, const Operand &operand)
{
    const RegIndex index = regField(inst, operand.field);
    return static_cast<FlatReg>(
        operand.file == RegFile::Fpr ? FprBase + index : index);
}

/** Up to three sources. */
struct SourceList
{
    FlatReg regs[3] = {NoReg, NoReg, NoReg};
    std::uint8_t count = 0;

    void
    add(FlatReg r)
    {
        // $zero is constant; never a dependence.
        if (r == reg::Zero)
            return;
        regs[count++] = r;
    }
};

/**
 * Architectural sources read by @p inst: a memory operand's base
 * first (address generation needs it before a store's data), then
 * the other registers read, in text order.
 */
inline SourceList
instSources(const DecodedInst &inst)
{
    SourceList out;
    if (inst.op == Opcode::Syscall) {
        // Syscall number and first argument.
        out.add(reg::V0);
        out.add(reg::A0);
        return out;
    }
    const SyntaxInfo &syntax = syntaxInfo(inst.info().syntax);
    for (const Operand &operand : syntax.operands())
        if (operand.kind == OperandKind::Mem)
            out.add(flatReg(inst, operand));
    for (const Operand &operand : syntax.operands())
        if (operand.kind == OperandKind::Reg &&
            operand.access == Access::Read)
            out.add(flatReg(inst, operand));
    return out;
}

/**
 * Architectural destination written by @p inst, or NoReg (a write to
 * $zero is none).  jal writes the link register, syscall its result
 * into $v0.
 */
inline FlatReg
instDest(const DecodedInst &inst)
{
    if (inst.op == Opcode::Jal)
        return reg::Ra;
    if (inst.op == Opcode::Syscall)
        return reg::V0;
    for (const Operand &operand : syntaxInfo(inst.info().syntax).operands())
        if (operand.access == Access::Write) {
            const FlatReg dest = flatReg(inst, operand);
            return dest == reg::Zero ? NoReg : dest;
        }
    return NoReg;
}

} // namespace arl::isa

#endif // ARL_ISA_OPERANDS_HH
