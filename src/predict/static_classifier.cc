#include "predict/static_classifier.hh"

#include <deque>

#include "common/logging.hh"
#include "isa/operands.hh"
#include "sim/syscalls.hh"
#include "vm/layout.hh"

namespace arl::predict
{

namespace reg = isa::reg;
using isa::DecodedInst;
using isa::Opcode;

Provenance
joinProvenance(Provenance a, Provenance b)
{
    if (a == Provenance::Bottom)
        return b;
    if (b == Provenance::Bottom)
        return a;
    if (a == b)
        return a;
    return Provenance::Unknown;
}

StaticClassifier::RegState::RegState()
{
    prov.fill(Provenance::Bottom);
}

bool
StaticClassifier::RegState::join(const RegState &other)
{
    bool changed = false;
    for (unsigned r = 0; r < 32; ++r) {
        if (prov[r] == Provenance::Bottom) {
            // First information for this register: adopt wholesale.
            if (other.prov[r] != Provenance::Bottom) {
                prov[r] = other.prov[r];
                constant[r] = other.constant[r];
                changed = true;
            }
            continue;
        }
        if (other.prov[r] == Provenance::Bottom)
            continue;  // nothing new
        Provenance joined = joinProvenance(prov[r], other.prov[r]);
        if (joined != prov[r]) {
            prov[r] = joined;
            changed = true;
        }
        // Constants survive a join only when both sides agree.
        if (constant[r] && constant[r] != other.constant[r]) {
            constant[r].reset();
            changed = true;
        }
    }
    return changed;
}

StaticClassifier::RegState
StaticClassifier::entryState()
{
    RegState state;
    state.prov.fill(Provenance::Unknown);  // args, temps, saved regs
    state.prov[reg::Zero] = Provenance::Int;
    state.constant[reg::Zero] = 0;
    state.prov[reg::Sp] = Provenance::Stack;
    state.prov[reg::Fp] = Provenance::Stack;
    state.prov[reg::Gp] = Provenance::NonStack;
    return state;
}

Provenance
StaticClassifier::classifyConstant(std::uint32_t value)
{
    if (value >= vm::layout::DataBase && value < vm::layout::HeapCeiling)
        return Provenance::NonStack;
    if (value >= vm::layout::StackFloor &&
        value <= vm::layout::StackTop)
        return Provenance::Stack;
    return Provenance::Int;
}

StaticClassifier::RegState
StaticClassifier::transfer(std::size_t index, const RegState &in) const
{
    const DecodedInst &inst = text[index];
    RegState out = in;

    auto set = [&out](RegIndex rd, Provenance p,
                      std::optional<std::uint32_t> c = std::nullopt) {
        if (rd == reg::Zero)
            return;
        out.prov[rd] = p;
        out.constant[rd] = c;
    };

    switch (inst.op) {
      case Opcode::Addi: {
        // Pointer arithmetic preserves provenance; constants fold.
        Provenance base = in.prov[inst.rs];
        std::optional<std::uint32_t> value;
        if (in.constant[inst.rs])
            value = *in.constant[inst.rs] +
                    static_cast<std::uint32_t>(inst.imm);
        Provenance p = base;
        if (value)
            p = classifyConstant(*value);
        else if (base == Provenance::Int)
            p = Provenance::Int;
        set(inst.rd, p, value);
        break;
      }
      case Opcode::Lui: {
        std::uint32_t value =
            (static_cast<std::uint32_t>(inst.imm) & 0xffffu) << 16;
        set(inst.rd, classifyConstant(value), value);
        break;
      }
      case Opcode::Ori: {
        std::optional<std::uint32_t> value;
        if (in.constant[inst.rs])
            value = *in.constant[inst.rs] |
                    (static_cast<std::uint32_t>(inst.imm) & 0xffffu);
        Provenance p = value ? classifyConstant(*value)
                             : joinProvenance(in.prov[inst.rs],
                                              Provenance::Int);
        set(inst.rd, p, value);
        break;
      }
      case Opcode::Add:
      case Opcode::Sub: {
        // ptr +/- int keeps the pointer's provenance.
        Provenance a = in.prov[inst.rs];
        Provenance b = in.prov[inst.rt];
        bool a_ptr = (a == Provenance::Stack || a == Provenance::NonStack);
        bool b_ptr = (b == Provenance::Stack || b == Provenance::NonStack);
        Provenance p;
        if (a_ptr && !b_ptr && b != Provenance::Unknown)
            p = a;
        else if (b_ptr && !a_ptr && a != Provenance::Unknown &&
                 inst.op == Opcode::Add)
            p = b;
        else if (a == Provenance::Int && b == Provenance::Int)
            p = Provenance::Int;
        else
            p = Provenance::Unknown;
        set(inst.rd, p);
        break;
      }
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Nor:
      case Opcode::Sllv:
      case Opcode::Srlv:
      case Opcode::Srav:
      case Opcode::Mul:
      case Opcode::Div:
      case Opcode::Rem:
      case Opcode::Slt:
      case Opcode::Sltu:
      case Opcode::Andi:
      case Opcode::Xori:
      case Opcode::Slti:
      case Opcode::Sltiu:
      case Opcode::Sll:
      case Opcode::Srl:
      case Opcode::Sra:
        // Arithmetic that never yields a usable pointer by our rules.
        set(inst.rd, Provenance::Int);
        break;

      case Opcode::Syscall: {
        // malloc/sbrk return heap (non-stack) pointers; any other
        // call leaves $v0 unknown.  The call number must be a known
        // constant in $v0.
        Provenance result = Provenance::Unknown;
        if (in.constant[reg::V0]) {
            auto call = static_cast<sim::Syscall>(*in.constant[reg::V0]);
            if (call == sim::Syscall::Malloc ||
                call == sim::Syscall::Sbrk)
                result = Provenance::NonStack;
            else if (call == sim::Syscall::Rand)
                result = Provenance::Int;
        }
        set(reg::V0, result);
        break;
      }

      case Opcode::Jal:
      case Opcode::Jalr:
        // Calls clobber the caller-saved registers; callee-saved
        // registers (and $sp/$fp/$gp) survive by convention.
        for (RegIndex r : {reg::V0, reg::V1, reg::A0, reg::A1, reg::A2,
                           reg::A3, reg::T0, reg::T1, reg::T2, reg::T3,
                           reg::T4, reg::T5, reg::T6, reg::T7, reg::T8,
                           reg::T9, reg::At, reg::Ra})
            set(r, Provenance::Unknown);
        if (inst.op == Opcode::Jalr && inst.rd != reg::Zero)
            set(inst.rd, Provenance::Unknown);
        break;

      case Opcode::Mfc1:
        set(inst.rd, Provenance::Int);
        break;

      default:
        // Any other GPR result is unknown: a loaded value could be
        // any pointer (Figure 6's point_to_unknown case).
        if (isa::FlatReg dest = isa::instDest(inst); dest < isa::FprBase)
            set(dest, Provenance::Unknown);
        break;
    }
    return out;
}

void
StaticClassifier::successors(std::size_t index,
                             std::vector<std::size_t> &out) const
{
    out.clear();
    const DecodedInst &inst = text[index];
    const isa::OpInfo &info = inst.info();
    Addr pc = textBase + static_cast<Addr>(index * 4);

    auto push_addr = [&](Addr target) {
        if (target >= textBase &&
            target < textBase + static_cast<Addr>(text.size() * 4))
            out.push_back((target - textBase) >> 2);
    };

    if (info.isBranch) {
        out.push_back(index + 1);
        push_addr(isa::branchTarget(inst, pc));
    } else if (inst.op == Opcode::J) {
        push_addr(isa::jumpTarget(inst, pc));
    } else if (inst.op == Opcode::Jal || inst.op == Opcode::Jalr) {
        out.push_back(index + 1);  // the call returns here
    } else if (inst.op == Opcode::Jr) {
        // Function return: no intraprocedural successor.
    } else {
        out.push_back(index + 1);
    }
    // Drop fallthrough past the end of text.
    while (!out.empty() && out.back() >= text.size())
        out.pop_back();
}

StaticClassifier::StaticClassifier(const vm::Program &program)
    : text(program.decodeAll()), textBase(program.textBase)
{
    analyze(program);
}

void
StaticClassifier::analyze(const vm::Program &program)
{
    stateBefore.assign(text.size(), RegState());

    // Entry points: the program entry, every text symbol (function
    // labels), and every jal target.
    std::deque<std::size_t> worklist;
    auto seed = [&](Addr addr) {
        if (addr < textBase ||
            addr >= textBase + static_cast<Addr>(text.size() * 4))
            return;
        std::size_t index = (addr - textBase) >> 2;
        if (stateBefore[index].join(entryState()))
            worklist.push_back(index);
    };
    seed(program.entry);
    for (const auto &[name, addr] : program.symbols)
        seed(addr);
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i].op == Opcode::Jal)
            seed(isa::jumpTarget(text[i],
                                 textBase + static_cast<Addr>(i * 4)));
    }

    // Fixpoint.
    std::vector<std::size_t> succ;
    std::vector<bool> queued(text.size(), false);
    for (std::size_t index : worklist)
        queued[index] = true;
    std::uint64_t steps = 0;
    while (!worklist.empty()) {
        std::size_t index = worklist.front();
        worklist.pop_front();
        queued[index] = false;
        if (++steps > text.size() * 4096ull)
            panic("static classifier fixpoint diverged");
        RegState out = transfer(index, stateBefore[index]);
        successors(index, succ);
        for (std::size_t next : succ) {
            if (stateBefore[next].join(out) && !queued[next]) {
                queued[next] = true;
                worklist.push_back(next);
            }
        }
    }

    // Classify every memory instruction by its base register.
    for (std::size_t i = 0; i < text.size(); ++i) {
        const DecodedInst &inst = text[i];
        if (!inst.isMem())
            continue;
        ++memTotal;
        Addr pc = textBase + static_cast<Addr>(i * 4);
        Provenance base = stateBefore[i].prov[inst.baseReg()];
        HintTag result = HintTag::Unknown;
        switch (base) {
          case Provenance::Stack:
            result = HintTag::Stack;
            break;
          case Provenance::NonStack:
            result = HintTag::NonStack;
            break;
          case Provenance::Int:
            // Constant addressing: classify the absolute address.
            if (stateBefore[i].constant[inst.baseReg()]) {
                Provenance p = classifyConstant(
                    *stateBefore[i].constant[inst.baseReg()] +
                    static_cast<std::uint32_t>(inst.imm));
                if (p == Provenance::NonStack)
                    result = HintTag::NonStack;
                else if (p == Provenance::Stack)
                    result = HintTag::Stack;
            }
            break;
          case Provenance::Bottom:
          case Provenance::Unknown:
            break;
        }
        tags[pc] = result;
        if (result != HintTag::Unknown)
            ++memClassified;
    }
}

HintTag
StaticClassifier::tag(Addr pc) const
{
    auto it = tags.find(pc);
    return it == tags.end() ? HintTag::Unknown : it->second;
}

} // namespace arl::predict
