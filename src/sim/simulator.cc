#include "sim/simulator.hh"

#include <bit>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "isa/registers.hh"
#include "obs/stats_registry.hh"
#include "sim/syscalls.hh"

namespace arl::sim
{

using isa::Opcode;
namespace reg = isa::reg;

namespace
{

float
asFloat(Word bits)
{
    return std::bit_cast<float>(bits);
}

Word
asBits(float value)
{
    return std::bit_cast<Word>(value);
}

/** Truncating float->int conversion with saturation (no UB). */
std::int32_t
truncToInt(float value)
{
    if (std::isnan(value))
        return 0;
    if (value >= 2147483648.0f)
        return std::numeric_limits<std::int32_t>::max();
    if (value < -2147483648.0f)
        return std::numeric_limits<std::int32_t>::min();
    return static_cast<std::int32_t>(value);
}

} // namespace

Simulator::Simulator(std::shared_ptr<const vm::Program> prog)
    : proc(prog),
      decoded(prog->decodeAll()),
      textBase(prog->textBase),
      textEnd(prog->textEnd())
{
}

void
Simulator::execSyscall()
{
    auto call = static_cast<Syscall>(proc.readGpr(reg::V0));
    Word a0 = proc.readGpr(reg::A0);
    switch (call) {
      case Syscall::PrintInt:
        proc.output += std::to_string(static_cast<SWord>(a0));
        break;
      case Syscall::PrintChar:
        proc.output += static_cast<char>(a0 & 0xff);
        break;
      case Syscall::Sbrk:
        proc.writeGpr(reg::V0, proc.heap.sbrk(a0));
        break;
      case Syscall::Exit:
        proc.halted = true;
        proc.exitCode = a0;
        break;
      case Syscall::Malloc: {
        Addr ptr = proc.heap.malloc(a0);
        if (ptr == 0)
            fatal("%s: guest heap exhausted (malloc of %u bytes)",
                  proc.program().name.c_str(), a0);
        proc.writeGpr(reg::V0, ptr);
        break;
      }
      case Syscall::Free:
        proc.heap.free(a0);
        break;
      case Syscall::Rand:
        proc.writeGpr(reg::V0, proc.rng.next32() & 0x7fffffffu);
        break;
      default:
        fatal("%s: unknown syscall %u at pc=0x%08x",
              proc.program().name.c_str(), proc.readGpr(reg::V0), proc.pc);
    }
}

bool
Simulator::step(StepInfo &out)
{
    if (proc.halted)
        return false;

    Addr pc = proc.pc;
    if (pc < textBase || pc >= textEnd || (pc & 3))
        panic("%s: PC escaped text: 0x%08x", proc.program().name.c_str(),
              pc);

    const isa::DecodedInst &inst = decoded[(pc - textBase) >> 2];
    const isa::OpInfo &info = inst.info();

    // Copied from a blank rather than value-initialised in place: a
    // temporary built with byte stores and copied out with wide loads
    // stalls store forwarding on every step.
    static constexpr StepInfo kBlank{};
    out = kBlank;
    out.pc = pc;
    out.seq = icount;
    out.inst = inst;
    out.gbh = gbh;
    out.cid = proc.readGpr(reg::Ra);

    Addr next_pc = pc + 4;

    auto rs = [&](RegIndex r) { return proc.readGpr(r); };
    auto srs = [&](RegIndex r) {
        return static_cast<SWord>(proc.readGpr(r));
    };
    auto wr = [&](RegIndex r, Word v) { proc.writeGpr(r, v); };
    auto frd = [&](RegIndex r) { return proc.fpr[r]; };
    auto fwr = [&](RegIndex r, Word v) { proc.fpr[r] = v; };
    auto branch = [&](bool taken) {
        out.isBranch = true;
        out.branchTaken = taken;
        gbh = (gbh << 1) | (taken ? 1u : 0u);
        if (taken)
            next_pc = isa::branchTarget(inst, pc);
    };
    Word uimm = static_cast<Word>(inst.imm) & 0xffffu;

    switch (inst.op) {
      // ---- integer R ----
      case Opcode::Add:
        wr(inst.rd, rs(inst.rs) + rs(inst.rt));
        break;
      case Opcode::Sub:
        wr(inst.rd, rs(inst.rs) - rs(inst.rt));
        break;
      case Opcode::Mul:
        wr(inst.rd,
           static_cast<Word>(static_cast<std::int64_t>(srs(inst.rs)) *
                             static_cast<std::int64_t>(srs(inst.rt))));
        break;
      case Opcode::Div: {
        SWord d = srs(inst.rt);
        if (d == 0)
            panic("%s: divide by zero at pc=0x%08x",
                  proc.program().name.c_str(), pc);
        std::int64_t q = static_cast<std::int64_t>(srs(inst.rs)) / d;
        wr(inst.rd, static_cast<Word>(q));
        break;
      }
      case Opcode::Rem: {
        SWord d = srs(inst.rt);
        if (d == 0)
            panic("%s: remainder by zero at pc=0x%08x",
                  proc.program().name.c_str(), pc);
        std::int64_t r = static_cast<std::int64_t>(srs(inst.rs)) % d;
        wr(inst.rd, static_cast<Word>(r));
        break;
      }
      case Opcode::And:
        wr(inst.rd, rs(inst.rs) & rs(inst.rt));
        break;
      case Opcode::Or:
        wr(inst.rd, rs(inst.rs) | rs(inst.rt));
        break;
      case Opcode::Xor:
        wr(inst.rd, rs(inst.rs) ^ rs(inst.rt));
        break;
      case Opcode::Nor:
        wr(inst.rd, ~(rs(inst.rs) | rs(inst.rt)));
        break;
      case Opcode::Sllv:
        wr(inst.rd, rs(inst.rs) << (rs(inst.rt) & 31));
        break;
      case Opcode::Srlv:
        wr(inst.rd, rs(inst.rs) >> (rs(inst.rt) & 31));
        break;
      case Opcode::Srav:
        wr(inst.rd,
           static_cast<Word>(srs(inst.rs) >>
                             static_cast<SWord>(rs(inst.rt) & 31)));
        break;
      case Opcode::Slt:
        wr(inst.rd, srs(inst.rs) < srs(inst.rt) ? 1 : 0);
        break;
      case Opcode::Sltu:
        wr(inst.rd, rs(inst.rs) < rs(inst.rt) ? 1 : 0);
        break;

      // ---- integer I ----
      case Opcode::Addi:
        wr(inst.rd, rs(inst.rs) + static_cast<Word>(inst.imm));
        break;
      case Opcode::Andi:
        wr(inst.rd, rs(inst.rs) & uimm);
        break;
      case Opcode::Ori:
        wr(inst.rd, rs(inst.rs) | uimm);
        break;
      case Opcode::Xori:
        wr(inst.rd, rs(inst.rs) ^ uimm);
        break;
      case Opcode::Slti:
        wr(inst.rd, srs(inst.rs) < inst.imm ? 1 : 0);
        break;
      case Opcode::Sltiu:
        wr(inst.rd,
           rs(inst.rs) < static_cast<Word>(inst.imm) ? 1 : 0);
        break;
      case Opcode::Lui:
        wr(inst.rd, uimm << 16);
        break;
      case Opcode::Sll:
        wr(inst.rd, rs(inst.rs) << (inst.imm & 31));
        break;
      case Opcode::Srl:
        wr(inst.rd, rs(inst.rs) >> (inst.imm & 31));
        break;
      case Opcode::Sra:
        wr(inst.rd,
           static_cast<Word>(srs(inst.rs) >> (inst.imm & 31)));
        break;

      // ---- memory ----
      case Opcode::Lw:
      case Opcode::Lh:
      case Opcode::Lhu:
      case Opcode::Lb:
      case Opcode::Lbu:
      case Opcode::Sw:
      case Opcode::Sh:
      case Opcode::Sb:
      case Opcode::Lwc1:
      case Opcode::Swc1: {
        Addr ea = rs(inst.rs) + static_cast<Word>(inst.imm);
        out.isMem = true;
        out.isLoad = info.isLoad;
        out.effAddr = ea;
        out.memSize = info.memSize;
        out.region = proc.regions.classify(ea);
        if (out.region != vm::Region::Data &&
            out.region != vm::Region::Heap &&
            out.region != vm::Region::Stack) {
            panic("%s: access to %s region at 0x%08x (pc=0x%08x, %s)",
                  proc.program().name.c_str(),
                  vm::regionName(out.region).c_str(), ea, pc,
                  isa::disassemble(inst, pc).c_str());
        }
        switch (inst.op) {
          case Opcode::Lw:
            wr(inst.rd, proc.memory.read32(ea));
            break;
          case Opcode::Lh:
            wr(inst.rd, static_cast<Word>(static_cast<std::int16_t>(
                            proc.memory.read16(ea))));
            break;
          case Opcode::Lhu:
            wr(inst.rd, proc.memory.read16(ea));
            break;
          case Opcode::Lb:
            wr(inst.rd, static_cast<Word>(static_cast<std::int8_t>(
                            proc.memory.read8(ea))));
            break;
          case Opcode::Lbu:
            wr(inst.rd, proc.memory.read8(ea));
            break;
          case Opcode::Sw:
            out.storeValue = rs(inst.rd);
            proc.memory.write32(ea, out.storeValue);
            break;
          case Opcode::Sh:
            out.storeValue = rs(inst.rd) & 0xffffu;
            proc.memory.write16(ea,
                                static_cast<std::uint16_t>(out.storeValue));
            break;
          case Opcode::Sb:
            out.storeValue = rs(inst.rd) & 0xffu;
            proc.memory.write8(ea,
                               static_cast<std::uint8_t>(out.storeValue));
            break;
          case Opcode::Lwc1:
            fwr(inst.rd, proc.memory.read32(ea));
            break;
          case Opcode::Swc1:
            out.storeValue = frd(inst.rd);
            proc.memory.write32(ea, out.storeValue);
            break;
          default:
            break;
        }
        break;
      }

      // ---- floating point ----
      case Opcode::FaddS:
        fwr(inst.rd, asBits(asFloat(frd(inst.rs)) + asFloat(frd(inst.rt))));
        break;
      case Opcode::FsubS:
        fwr(inst.rd, asBits(asFloat(frd(inst.rs)) - asFloat(frd(inst.rt))));
        break;
      case Opcode::FmulS:
        fwr(inst.rd, asBits(asFloat(frd(inst.rs)) * asFloat(frd(inst.rt))));
        break;
      case Opcode::FdivS:
        fwr(inst.rd, asBits(asFloat(frd(inst.rs)) / asFloat(frd(inst.rt))));
        break;
      case Opcode::FnegS:
        fwr(inst.rd, asBits(-asFloat(frd(inst.rs))));
        break;
      case Opcode::FmovS:
        fwr(inst.rd, frd(inst.rs));
        break;
      case Opcode::CvtSW:
        fwr(inst.rd,
            asBits(static_cast<float>(
                static_cast<SWord>(frd(inst.rs)))));
        break;
      case Opcode::CvtWS:
        fwr(inst.rd,
            static_cast<Word>(truncToInt(asFloat(frd(inst.rs)))));
        break;
      case Opcode::FeqS:
        wr(inst.rd,
           asFloat(frd(inst.rs)) == asFloat(frd(inst.rt)) ? 1 : 0);
        break;
      case Opcode::FltS:
        wr(inst.rd,
           asFloat(frd(inst.rs)) < asFloat(frd(inst.rt)) ? 1 : 0);
        break;
      case Opcode::FleS:
        wr(inst.rd,
           asFloat(frd(inst.rs)) <= asFloat(frd(inst.rt)) ? 1 : 0);
        break;
      case Opcode::Mtc1:
        fwr(inst.rd, rs(inst.rs));
        break;
      case Opcode::Mfc1:
        wr(inst.rd, frd(inst.rs));
        break;

      // ---- control transfer ----
      case Opcode::Beq:
        branch(rs(inst.rd) == rs(inst.rs));
        break;
      case Opcode::Bne:
        branch(rs(inst.rd) != rs(inst.rs));
        break;
      case Opcode::Blez:
        branch(srs(inst.rs) <= 0);
        break;
      case Opcode::Bgtz:
        branch(srs(inst.rs) > 0);
        break;
      case Opcode::Bltz:
        branch(srs(inst.rs) < 0);
        break;
      case Opcode::Bgez:
        branch(srs(inst.rs) >= 0);
        break;
      case Opcode::J:
        next_pc = isa::jumpTarget(inst, pc);
        break;
      case Opcode::Jal:
        out.isCall = true;
        wr(reg::Ra, pc + 4);
        next_pc = isa::jumpTarget(inst, pc);
        break;
      case Opcode::Jr:
        out.isReturn = (inst.rs == reg::Ra);
        next_pc = rs(inst.rs);
        break;
      case Opcode::Jalr: {
        out.isCall = true;
        Word target = rs(inst.rs);
        wr(inst.rd, pc + 4);
        next_pc = target;
        break;
      }

      // ---- system ----
      case Opcode::Syscall:
        execSyscall();
        break;
      case Opcode::Nop:
        break;

      case Opcode::NumOpcodes:
        panic("invalid opcode at pc=0x%08x", pc);
    }

    // Capture the produced value for the timing model.
    out.dest = isa::instDest(inst);
    if (out.dest != isa::NoReg) {
        out.result = out.dest < isa::FprBase
                         ? proc.readGpr(out.dest)
                         : proc.fpr[out.dest - isa::FprBase];
    }

    out.nextPc = next_pc;
    proc.pc = next_pc;
    ++icount;
    return true;
}

InstCount
Simulator::run(InstCount max_insts, const StepHook &hook)
{
    InstCount executed = 0;
    StepInfo info;
    while (!proc.halted && (max_insts == 0 || executed < max_insts)) {
        if (!step(info))
            break;
        ++executed;
        if (hook)
            hook(info);
    }
    return executed;
}

void
Simulator::registerStats(obs::StatsRegistry &registry,
                         const std::string &prefix) const
{
    registry.addCounter(prefix + ".instructions", &icount,
                        "instructions executed functionally");
    registry.addFormula(prefix + ".halted",
                        [this] { return proc.halted ? 1.0 : 0.0; },
                        "1 once the guest exited");
}

} // namespace arl::sim
