#include "assembler/assembler.hh"

#include <cctype>
#include <cstring>
#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>

#include "common/bits.hh"
#include "common/logging.hh"
#include "isa/inst.hh"
#include "isa/registers.hh"
#include "vm/layout.hh"

namespace arl::assembler
{

namespace
{

using isa::DecodedInst;
using isa::Opcode;

/** Operand syntax class of a mnemonic. */
enum class Syntax
{
    R3,        ///< op $rd, $rs, $rt
    R2,        ///< op $rd, $rs           (fneg.s, fmov.s, cvt, m[tf]c1)
    I2,        ///< op $rd, $rs, imm
    Shift,     ///< op $rd, $rs, shamt
    LoadStore, ///< op $rd, off($rs)
    Lui,       ///< op $rd, imm
    Branch2,   ///< op $ra, $rb, label
    Branch1,   ///< op $rs, label
    Jump,      ///< op label
    JumpReg,   ///< op $rs
    Jalr,      ///< op $rd, $rs
    Bare,      ///< op                    (nop, syscall)
    FpR3,      ///< op $fd, $fs, $ft
    FpCmp,     ///< op $rd, $fs, $ft
    Mtc1,      ///< op $fd, $rs
    Mfc1,      ///< op $rd, $fs
};

struct MnemonicInfo
{
    Opcode op;
    Syntax syntax;
};

const std::map<std::string, MnemonicInfo> &
mnemonicTable()
{
    static const std::map<std::string, MnemonicInfo> table = {
        {"add", {Opcode::Add, Syntax::R3}},
        {"sub", {Opcode::Sub, Syntax::R3}},
        {"mul", {Opcode::Mul, Syntax::R3}},
        {"div", {Opcode::Div, Syntax::R3}},
        {"rem", {Opcode::Rem, Syntax::R3}},
        {"and", {Opcode::And, Syntax::R3}},
        {"or", {Opcode::Or, Syntax::R3}},
        {"xor", {Opcode::Xor, Syntax::R3}},
        {"nor", {Opcode::Nor, Syntax::R3}},
        {"sllv", {Opcode::Sllv, Syntax::R3}},
        {"srlv", {Opcode::Srlv, Syntax::R3}},
        {"srav", {Opcode::Srav, Syntax::R3}},
        {"slt", {Opcode::Slt, Syntax::R3}},
        {"sltu", {Opcode::Sltu, Syntax::R3}},
        {"addi", {Opcode::Addi, Syntax::I2}},
        {"andi", {Opcode::Andi, Syntax::I2}},
        {"ori", {Opcode::Ori, Syntax::I2}},
        {"xori", {Opcode::Xori, Syntax::I2}},
        {"slti", {Opcode::Slti, Syntax::I2}},
        {"sltiu", {Opcode::Sltiu, Syntax::I2}},
        {"lui", {Opcode::Lui, Syntax::Lui}},
        {"sll", {Opcode::Sll, Syntax::Shift}},
        {"srl", {Opcode::Srl, Syntax::Shift}},
        {"sra", {Opcode::Sra, Syntax::Shift}},
        {"lw", {Opcode::Lw, Syntax::LoadStore}},
        {"lh", {Opcode::Lh, Syntax::LoadStore}},
        {"lhu", {Opcode::Lhu, Syntax::LoadStore}},
        {"lb", {Opcode::Lb, Syntax::LoadStore}},
        {"lbu", {Opcode::Lbu, Syntax::LoadStore}},
        {"sw", {Opcode::Sw, Syntax::LoadStore}},
        {"sh", {Opcode::Sh, Syntax::LoadStore}},
        {"sb", {Opcode::Sb, Syntax::LoadStore}},
        {"lwc1", {Opcode::Lwc1, Syntax::LoadStore}},
        {"swc1", {Opcode::Swc1, Syntax::LoadStore}},
        {"fadd.s", {Opcode::FaddS, Syntax::FpR3}},
        {"fsub.s", {Opcode::FsubS, Syntax::FpR3}},
        {"fmul.s", {Opcode::FmulS, Syntax::FpR3}},
        {"fdiv.s", {Opcode::FdivS, Syntax::FpR3}},
        {"fneg.s", {Opcode::FnegS, Syntax::R2}},
        {"fmov.s", {Opcode::FmovS, Syntax::R2}},
        {"cvt.s.w", {Opcode::CvtSW, Syntax::R2}},
        {"cvt.w.s", {Opcode::CvtWS, Syntax::R2}},
        {"feq.s", {Opcode::FeqS, Syntax::FpCmp}},
        {"flt.s", {Opcode::FltS, Syntax::FpCmp}},
        {"fle.s", {Opcode::FleS, Syntax::FpCmp}},
        {"mtc1", {Opcode::Mtc1, Syntax::Mtc1}},
        {"mfc1", {Opcode::Mfc1, Syntax::Mfc1}},
        {"beq", {Opcode::Beq, Syntax::Branch2}},
        {"bne", {Opcode::Bne, Syntax::Branch2}},
        {"blez", {Opcode::Blez, Syntax::Branch1}},
        {"bgtz", {Opcode::Bgtz, Syntax::Branch1}},
        {"bltz", {Opcode::Bltz, Syntax::Branch1}},
        {"bgez", {Opcode::Bgez, Syntax::Branch1}},
        {"j", {Opcode::J, Syntax::Jump}},
        {"jal", {Opcode::Jal, Syntax::Jump}},
        {"jr", {Opcode::Jr, Syntax::JumpReg}},
        {"jalr", {Opcode::Jalr, Syntax::Jalr}},
        {"syscall", {Opcode::Syscall, Syntax::Bare}},
        {"nop", {Opcode::Nop, Syntax::Bare}},
    };
    return table;
}

std::string
trim(const std::string &text)
{
    std::size_t begin = text.find_first_not_of(" \t\r");
    if (begin == std::string::npos)
        return "";
    std::size_t end = text.find_last_not_of(" \t\r");
    return text.substr(begin, end - begin + 1);
}

std::vector<std::string>
splitCommas(const std::string &text)
{
    std::vector<std::string> out;
    std::string current;
    for (char c : text) {
        if (c == ',') {
            out.push_back(trim(current));
            current.clear();
        } else {
            current += c;
        }
    }
    std::string last = trim(current);
    if (!last.empty() || !out.empty())
        out.push_back(last);
    return out;
}

bool
isLabelChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '$';
}

/** One parsed statement awaiting pass 2. */
struct Statement
{
    unsigned line;
    std::string mnemonic;          ///< lower-case, or directive
    std::vector<std::string> operands;
    Addr pc = 0;                   ///< text address (instructions)
    unsigned words = 0;            ///< encoded size in words
};

/** Assembly state shared by the two passes. */
class Assembler
{
  public:
    Assembler(const std::string &source, const std::string &name)
        : sourceText(source), programName(name)
    {}

    AsmResult run();

  private:
    void error(unsigned line, const std::string &message)
    {
        errors.push_back({line, message});
    }

    bool parseLines();
    bool layout();         ///< pass 1: size statements, bind labels
    bool encodeAll();      ///< pass 2: emit encoded words

    /** Size in words of a text statement (pseudo expansion). */
    unsigned statementWords(const Statement &statement);

    /** Encode one text statement into `text`. */
    void encodeStatement(const Statement &statement);

    /** Emit one instruction word. */
    void emit(const DecodedInst &inst) { text.push_back(inst); }

    bool parseReg(const Statement &statement, const std::string &token,
                  RegIndex &out);
    bool parseFpr(const Statement &statement, const std::string &token,
                  RegIndex &out);
    bool parseImmediate(const Statement &statement,
                        const std::string &token, long min, long max,
                        std::int32_t &out);
    bool parseMemOperand(const Statement &statement,
                         const std::string &token, std::int32_t &offset,
                         RegIndex &base);
    bool lookupSymbol(const Statement &statement,
                      const std::string &symbol, Addr &out);

    std::string sourceText;
    std::string programName;
    std::vector<AsmError> errors;

    std::vector<Statement> statements;
    std::map<std::string, Addr> symbols;
    std::vector<std::uint8_t> data;
    std::vector<DecodedInst> text;
    bool inData = false;
};

bool
Assembler::parseLines()
{
    std::istringstream stream(sourceText);
    std::string raw;
    unsigned line_number = 0;
    bool data_mode = false;
    while (std::getline(stream, raw)) {
        ++line_number;
        std::size_t hash = raw.find('#');
        if (hash != std::string::npos)
            raw.resize(hash);
        std::string line = trim(raw);

        // Peel off leading labels.
        while (!line.empty()) {
            std::size_t i = 0;
            while (i < line.size() && isLabelChar(line[i]))
                ++i;
            if (i == 0 || i >= line.size() || line[i] != ':')
                break;
            Statement label_stmt;
            label_stmt.line = line_number;
            label_stmt.mnemonic = data_mode ? ".label.data" : ".label";
            label_stmt.operands = {line.substr(0, i)};
            statements.push_back(label_stmt);
            line = trim(line.substr(i + 1));
        }
        if (line.empty())
            continue;

        Statement statement;
        statement.line = line_number;
        std::size_t space = line.find_first_of(" \t");
        statement.mnemonic = line.substr(0, space);
        for (char &c : statement.mnemonic)
            c = static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        if (space != std::string::npos)
            statement.operands = splitCommas(trim(line.substr(space)));

        if (statement.mnemonic == ".data")
            data_mode = true;
        else if (statement.mnemonic == ".text")
            data_mode = false;
        else if (data_mode && statement.mnemonic[0] != '.')
            error(line_number, "instruction inside .data section");
        statements.push_back(statement);
    }
    return errors.empty();
}

unsigned
Assembler::statementWords(const Statement &statement)
{
    const std::string &m = statement.mnemonic;
    if (m == "li") {
        if (statement.operands.size() != 2)
            return 2;  // error reported in pass 2
        long value = std::strtol(statement.operands[1].c_str(),
                                 nullptr, 0);
        return (value >= -32768 && value <= 32767) ? 1 : 2;
    }
    if (m == "la")
        return 2;
    if (m == "move" || m == "b" || mnemonicTable().count(m))
        return 1;
    return 0;  // unknown: error in pass 2
}

bool
Assembler::layout()
{
    Addr text_pc = vm::layout::TextBase;
    Addr data_cursor = vm::layout::DataBase;
    for (Statement &statement : statements) {
        const std::string &m = statement.mnemonic;
        if (m == ".label") {
            if (symbols.count(statement.operands[0]))
                error(statement.line,
                      "duplicate label '" + statement.operands[0] + "'");
            symbols[statement.operands[0]] = text_pc;
        } else if (m == ".label.data") {
            if (symbols.count(statement.operands[0]))
                error(statement.line,
                      "duplicate label '" + statement.operands[0] + "'");
            symbols[statement.operands[0]] = data_cursor;
        } else if (m == ".text" || m == ".data" || m == ".globl") {
            // section switches already handled; .globl ignored
        } else if (m == ".word") {
            data_cursor = static_cast<Addr>(
                roundUp(data_cursor, 4) +
                4 * statement.operands.size());
        } else if (m == ".space") {
            long bytes = statement.operands.empty()
                             ? 0
                             : std::strtol(statement.operands[0].c_str(),
                                           nullptr, 0);
            if (bytes < 0) {
                error(statement.line, ".space with negative size");
                bytes = 0;
            }
            data_cursor = static_cast<Addr>(
                roundUp(data_cursor + static_cast<Addr>(bytes), 4));
        } else if (!m.empty() && m[0] == '.') {
            error(statement.line, "unknown directive '" + m + "'");
        } else {
            statement.pc = text_pc;
            statement.words = statementWords(statement);
            if (statement.words == 0)
                error(statement.line, "unknown mnemonic '" + m + "'");
            text_pc += statement.words * 4;
        }
    }
    return errors.empty();
}

bool
Assembler::parseReg(const Statement &statement, const std::string &token,
                    RegIndex &out)
{
    int index = isa::parseGprName(token);
    if (index < 0) {
        error(statement.line, "expected a register, got '" + token + "'");
        return false;
    }
    out = static_cast<RegIndex>(index);
    return true;
}

bool
Assembler::parseFpr(const Statement &statement, const std::string &token,
                    RegIndex &out)
{
    int index = isa::parseFprName(token);
    if (index < 0) {
        error(statement.line,
              "expected an FP register, got '" + token + "'");
        return false;
    }
    out = static_cast<RegIndex>(index);
    return true;
}

bool
Assembler::parseImmediate(const Statement &statement,
                          const std::string &token, long min, long max,
                          std::int32_t &out)
{
    char *end = nullptr;
    long value = std::strtol(token.c_str(), &end, 0);
    if (end == token.c_str() || *end != '\0') {
        error(statement.line, "expected an immediate, got '" + token +
                                  "'");
        return false;
    }
    if (value < min || value > max) {
        error(statement.line, "immediate " + std::to_string(value) +
                                  " out of range [" +
                                  std::to_string(min) + ", " +
                                  std::to_string(max) + "]");
        return false;
    }
    out = static_cast<std::int32_t>(value);
    return true;
}

bool
Assembler::parseMemOperand(const Statement &statement,
                           const std::string &token,
                           std::int32_t &offset, RegIndex &base)
{
    std::size_t open = token.find('(');
    std::size_t close = token.find(')');
    if (open == std::string::npos || close == std::string::npos ||
        close < open) {
        error(statement.line,
              "expected offset(register), got '" + token + "'");
        return false;
    }
    std::string off_text = trim(token.substr(0, open));
    if (off_text.empty())
        off_text = "0";
    if (!parseImmediate(statement, off_text, -32768, 32767, offset))
        return false;
    return parseReg(statement,
                    trim(token.substr(open + 1, close - open - 1)),
                    base);
}

bool
Assembler::lookupSymbol(const Statement &statement,
                        const std::string &symbol, Addr &out)
{
    auto it = symbols.find(symbol);
    if (it == symbols.end()) {
        error(statement.line, "undefined symbol '" + symbol + "'");
        return false;
    }
    out = it->second;
    return true;
}

void
Assembler::encodeStatement(const Statement &statement)
{
    const std::string &m = statement.mnemonic;
    const auto &operands = statement.operands;
    auto expect = [&](std::size_t count) {
        if (operands.size() != count) {
            error(statement.line,
                  m + " expects " + std::to_string(count) +
                      " operands, got " + std::to_string(operands.size()));
            return false;
        }
        return true;
    };

    // ---- pseudo-instructions ----
    if (m == "li") {
        if (!expect(2))
            return;
        RegIndex rd;
        std::int32_t value;
        if (!parseReg(statement, operands[0], rd) ||
            !parseImmediate(statement, operands[1], -2147483648L,
                            2147483647L, value))
            return;
        if (value >= -32768 && value <= 32767) {
            emit({Opcode::Addi, rd, 0, 0, value, 0});
        } else {
            emit({Opcode::Lui, rd, 0, 0,
                  static_cast<std::int32_t>(
                      (static_cast<std::uint32_t>(value) >> 16) & 0xffff),
                  0});
            emit({Opcode::Ori, rd, rd, 0,
                  static_cast<std::int32_t>(
                      static_cast<std::uint32_t>(value) & 0xffff),
                  0});
        }
        return;
    }
    if (m == "la") {
        if (!expect(2))
            return;
        RegIndex rd;
        Addr target;
        if (!parseReg(statement, operands[0], rd) ||
            !lookupSymbol(statement, operands[1], target))
            return;
        emit({Opcode::Lui, rd, 0, 0,
              static_cast<std::int32_t>(target >> 16), 0});
        emit({Opcode::Ori, rd, rd, 0,
              static_cast<std::int32_t>(target & 0xffff), 0});
        return;
    }
    if (m == "move") {
        if (!expect(2))
            return;
        RegIndex rd, rs;
        if (!parseReg(statement, operands[0], rd) ||
            !parseReg(statement, operands[1], rs))
            return;
        emit({Opcode::Add, rd, rs, 0, 0, 0});
        return;
    }
    if (m == "b") {
        if (!expect(1))
            return;
        Addr target;
        if (!lookupSymbol(statement, operands[0], target))
            return;
        std::int64_t delta =
            (static_cast<std::int64_t>(target) -
             (static_cast<std::int64_t>(statement.pc) + 4)) >> 2;
        emit({Opcode::Beq, 0, 0, 0, static_cast<std::int32_t>(delta),
              0});
        return;
    }

    auto it = mnemonicTable().find(m);
    if (it == mnemonicTable().end())
        return;  // already diagnosed in pass 1
    const MnemonicInfo &info = it->second;
    DecodedInst inst;
    inst.op = info.op;

    auto branch_target = [&](const std::string &token,
                             std::int32_t &imm_out) {
        Addr target;
        if (!lookupSymbol(statement, token, target))
            return false;
        std::int64_t delta =
            (static_cast<std::int64_t>(target) -
             (static_cast<std::int64_t>(statement.pc) + 4)) >> 2;
        if (delta < -32768 || delta > 32767) {
            error(statement.line, "branch target out of range");
            return false;
        }
        imm_out = static_cast<std::int32_t>(delta);
        return true;
    };

    switch (info.syntax) {
      case Syntax::R3:
        if (expect(3) && parseReg(statement, operands[0], inst.rd) &&
            parseReg(statement, operands[1], inst.rs) &&
            parseReg(statement, operands[2], inst.rt))
            emit(inst);
        return;
      case Syntax::FpR3:
        if (expect(3) && parseFpr(statement, operands[0], inst.rd) &&
            parseFpr(statement, operands[1], inst.rs) &&
            parseFpr(statement, operands[2], inst.rt))
            emit(inst);
        return;
      case Syntax::FpCmp:
        if (expect(3) && parseReg(statement, operands[0], inst.rd) &&
            parseFpr(statement, operands[1], inst.rs) &&
            parseFpr(statement, operands[2], inst.rt))
            emit(inst);
        return;
      case Syntax::R2:
        if (expect(2) && parseFpr(statement, operands[0], inst.rd) &&
            parseFpr(statement, operands[1], inst.rs))
            emit(inst);
        return;
      case Syntax::Mtc1:
        if (expect(2) && parseFpr(statement, operands[0], inst.rd) &&
            parseReg(statement, operands[1], inst.rs))
            emit(inst);
        return;
      case Syntax::Mfc1:
        if (expect(2) && parseReg(statement, operands[0], inst.rd) &&
            parseFpr(statement, operands[1], inst.rs))
            emit(inst);
        return;
      case Syntax::I2:
        if (expect(3) && parseReg(statement, operands[0], inst.rd) &&
            parseReg(statement, operands[1], inst.rs) &&
            parseImmediate(statement, operands[2], -32768, 65535,
                           inst.imm))
            emit(inst);
        return;
      case Syntax::Shift:
        if (expect(3) && parseReg(statement, operands[0], inst.rd) &&
            parseReg(statement, operands[1], inst.rs) &&
            parseImmediate(statement, operands[2], 0, 31, inst.imm))
            emit(inst);
        return;
      case Syntax::Lui:
        if (expect(2) && parseReg(statement, operands[0], inst.rd) &&
            parseImmediate(statement, operands[1], -32768, 65535,
                           inst.imm))
            emit(inst);
        return;
      case Syntax::LoadStore: {
        bool is_fp = (info.op == Opcode::Lwc1 || info.op == Opcode::Swc1);
        bool reg_ok = expect(2) &&
                      (is_fp ? parseFpr(statement, operands[0], inst.rd)
                             : parseReg(statement, operands[0], inst.rd));
        if (reg_ok &&
            parseMemOperand(statement, operands[1], inst.imm, inst.rs))
            emit(inst);
        return;
      }
      case Syntax::Branch2:
        if (expect(3) && parseReg(statement, operands[0], inst.rd) &&
            parseReg(statement, operands[1], inst.rs) &&
            branch_target(operands[2], inst.imm))
            emit(inst);
        return;
      case Syntax::Branch1:
        if (expect(2) && parseReg(statement, operands[0], inst.rs) &&
            branch_target(operands[1], inst.imm))
            emit(inst);
        return;
      case Syntax::Jump: {
        if (!expect(1))
            return;
        Addr target;
        if (!lookupSymbol(statement, operands[0], target))
            return;
        if ((target & 0xf0000000u) != (statement.pc & 0xf0000000u)) {
            error(statement.line, "jump target outside the current "
                                  "256MB region");
            return;
        }
        inst.target = (target >> 2) & 0x03ffffffu;
        emit(inst);
        return;
      }
      case Syntax::JumpReg:
        if (expect(1) && parseReg(statement, operands[0], inst.rs))
            emit(inst);
        return;
      case Syntax::Jalr:
        if (expect(2) && parseReg(statement, operands[0], inst.rd) &&
            parseReg(statement, operands[1], inst.rs))
            emit(inst);
        return;
      case Syntax::Bare:
        if (expect(0))
            emit(inst);
        return;
    }
}

bool
Assembler::encodeAll()
{
    Addr data_cursor = vm::layout::DataBase;
    for (const Statement &statement : statements) {
        const std::string &m = statement.mnemonic;
        if (m == ".label" || m == ".label.data" || m == ".text" ||
            m == ".data" || m == ".globl")
            continue;
        if (m == ".word") {
            data_cursor = static_cast<Addr>(roundUp(data_cursor, 4));
            for (const std::string &token : statement.operands) {
                std::int32_t value = 0;
                char *end = nullptr;
                long parsed = std::strtol(token.c_str(), &end, 0);
                if (end == token.c_str() || *end != '\0') {
                    // Allow symbol references in .word.
                    Addr symbol_value;
                    if (!lookupSymbol(statement, token, symbol_value))
                        continue;
                    value = static_cast<std::int32_t>(symbol_value);
                } else {
                    value = static_cast<std::int32_t>(parsed);
                }
                std::size_t offset = data_cursor - vm::layout::DataBase;
                if (data.size() < offset + 4)
                    data.resize(offset + 4, 0);
                std::memcpy(data.data() + offset, &value, 4);
                data_cursor += 4;
            }
            continue;
        }
        if (m == ".space") {
            long bytes = statement.operands.empty()
                             ? 0
                             : std::strtol(statement.operands[0].c_str(),
                                           nullptr, 0);
            data_cursor = static_cast<Addr>(
                roundUp(data_cursor + static_cast<Addr>(
                                          bytes < 0 ? 0 : bytes), 4));
            std::size_t needed = data_cursor - vm::layout::DataBase;
            if (data.size() < needed)
                data.resize(needed, 0);
            continue;
        }
        std::size_t before = text.size();
        encodeStatement(statement);
        // Keep layout and encoding in lock step even on errors.
        while (text.size() - before < statement.words)
            text.push_back({Opcode::Nop, 0, 0, 0, 0, 0});
        if (text.size() - before > statement.words)
            panic("assembler pass disagreement at line %u",
                  statement.line);
    }
    // An empty, comment-only or data-only unit would leave a
    // simulator no instruction to start at.
    if (text.empty())
        error(1, "no instructions to run");
    return errors.empty();
}

AsmResult
Assembler::run()
{
    AsmResult result;
    if (!parseLines() || !layout() || !encodeAll()) {
        result.errors = errors;
        return result;
    }
    auto program = std::make_shared<vm::Program>();
    program->name = programName;
    program->textBase = vm::layout::TextBase;
    for (const DecodedInst &inst : text)
        program->text.push_back(isa::encode(inst));
    program->data = std::move(data);
    program->symbols = symbols;
    if (symbols.count("_start"))
        program->entry = symbols.at("_start");
    else if (symbols.count("main"))
        program->entry = symbols.at("main");
    else
        program->entry = vm::layout::TextBase;
    result.program = std::move(program);
    result.errors = errors;
    return result;
}

} // namespace

std::string
AsmError::format() const
{
    return "line " + std::to_string(line) + ": " + message;
}

AsmResult
assemble(const std::string &source, const std::string &name)
{
    Assembler assembler(source, name);
    return assembler.run();
}

std::shared_ptr<vm::Program>
assembleOrDie(const std::string &source, const std::string &name)
{
    AsmResult result = assemble(source, name);
    if (!result.ok()) {
        for (const AsmError &error : result.errors)
            warn("%s: %s", name.c_str(), error.format().c_str());
        fatal("assembly of '%s' failed with %zu error(s)", name.c_str(),
              result.errors.size());
    }
    return result.program;
}

} // namespace arl::assembler
