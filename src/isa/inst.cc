#include "isa/inst.hh"

#include <cstdio>

#include "common/bits.hh"
#include "common/logging.hh"
#include "isa/operands.hh"

namespace arl::isa
{

Word
encode(const DecodedInst &inst)
{
    const OpInfo &info = opInfo(inst.op);
    Word word = 0;
    word = insertBits(word, 26, 6, static_cast<std::uint32_t>(inst.op));
    switch (info.format) {
      case InstFormat::R:
        ARL_ASSERT(inst.rd < 32 && inst.rs < 32 && inst.rt < 32);
        word = insertBits(word, 21, 5, inst.rd);
        word = insertBits(word, 16, 5, inst.rs);
        word = insertBits(word, 11, 5, inst.rt);
        break;
      case InstFormat::I: {
        ARL_ASSERT(inst.rd < 32 && inst.rs < 32);
        ARL_ASSERT(inst.imm >= -32768 && inst.imm <= 65535,
                   "imm=%d does not fit 16 bits", inst.imm);
        word = insertBits(word, 21, 5, inst.rd);
        word = insertBits(word, 16, 5, inst.rs);
        word = insertBits(word, 0, 16,
                          static_cast<std::uint32_t>(inst.imm) & 0xffffu);
        break;
      }
      case InstFormat::J:
        ARL_ASSERT(inst.target < (1u << 26));
        word = insertBits(word, 0, 26, inst.target);
        break;
    }
    return word;
}

bool
decode(Word word, DecodedInst &out)
{
    std::uint32_t opfield = bits(word, 26, 6);
    if (opfield >= NumOpcodes)
        return false;
    out = DecodedInst{};
    out.op = static_cast<Opcode>(opfield);
    const OpInfo &info = opInfo(out.op);
    switch (info.format) {
      case InstFormat::R:
        out.rd = static_cast<RegIndex>(bits(word, 21, 5));
        out.rs = static_cast<RegIndex>(bits(word, 16, 5));
        out.rt = static_cast<RegIndex>(bits(word, 11, 5));
        break;
      case InstFormat::I:
        out.rd = static_cast<RegIndex>(bits(word, 21, 5));
        out.rs = static_cast<RegIndex>(bits(word, 16, 5));
        // Lui/Andi/Ori/Xori treat the immediate as unsigned; keep the
        // sign-extended value here and let the executor mask as needed.
        out.imm = signExtend(bits(word, 0, 16), 16);
        break;
      case InstFormat::J:
        out.target = bits(word, 0, 26);
        break;
    }
    return true;
}

Addr
jumpTarget(const DecodedInst &inst, Addr pc)
{
    return (pc & 0xf0000000u) | (inst.target << 2);
}

Addr
branchTarget(const DecodedInst &inst, Addr pc)
{
    return pc + 4 +
           (static_cast<std::uint32_t>(inst.imm) << 2);
}

std::string
disassemble(const DecodedInst &inst, Addr pc)
{
    const OpInfo &info = opInfo(inst.op);
    std::string out = info.mnemonic;
    auto hex = [](Addr a) {
        char buf[16];
        std::snprintf(buf, sizeof(buf), "0x%08x", a);
        return std::string(buf);
    };
    const char *separator = " ";
    for (const Operand &operand : syntaxInfo(info.syntax).operands()) {
        out += separator;
        separator = ", ";
        switch (operand.kind) {
          case OperandKind::Reg: {
            const RegIndex index = regField(inst, operand.field);
            out += operand.file == RegFile::Fpr ? fprName(index)
                                                : gprName(index);
            break;
          }
          case OperandKind::Imm:
            out += std::to_string(inst.imm);
            break;
          case OperandKind::Mem:
            out += std::to_string(inst.imm) + "(" +
                   gprName(regField(inst, operand.field)) + ")";
            break;
          case OperandKind::Branch:
            out += hex(branchTarget(inst, pc));
            break;
          case OperandKind::Jump:
            out += hex(jumpTarget(inst, pc));
            break;
        }
    }
    return out;
}

} // namespace arl::isa
