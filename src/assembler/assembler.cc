#include "assembler/assembler.hh"

#include <cctype>
#include <cstring>
#include <cstdlib>
#include <map>
#include <sstream>

#include "common/bits.hh"
#include "common/logging.hh"
#include "isa/operands.hh"
#include "isa/registers.hh"
#include "vm/layout.hh"

namespace arl::assembler
{

namespace
{

using isa::DecodedInst;
using isa::Opcode;

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

/** Word offset of @p target from the statement after @p statement. */
std::int64_t
branchOffset(const Statement &statement, Addr target)
{
    return (static_cast<std::int64_t>(target) -
            (static_cast<std::int64_t>(statement.pc) + 4)) >> 2;
}

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

    /** Parse @p token as the operand @p operand describes, into @p inst. */
    bool parseOperand(const Statement &statement,
                      const isa::Operand &operand, const std::string &token,
                      DecodedInst &inst);
    bool parseReg(const Statement &statement, const std::string &token,
                  RegIndex &out, isa::RegFile file = isa::RegFile::Gpr);
    bool parseImmediate(const Statement &statement,
                        const std::string &token, long min, long max,
                        std::int32_t &out);
    bool parseMemOperand(const Statement &statement,
                         const isa::Operand &operand,
                         const std::string &token, DecodedInst &inst);
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
    Opcode op;
    if (m == "move" || m == "b" || isa::opcodeFromMnemonic(m, op))
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
                    RegIndex &out, isa::RegFile file)
{
    const bool fp = file == isa::RegFile::Fpr;
    int index = fp ? isa::parseFprName(token) : isa::parseGprName(token);
    if (index < 0) {
        error(statement.line, std::string(fp ? "expected an FP register"
                                             : "expected a register") +
                                  ", got '" + token + "'");
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
                           const isa::Operand &operand,
                           const std::string &token, DecodedInst &inst)
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
    if (!parseImmediate(statement, off_text, operand.min, operand.max,
                        inst.imm))
        return false;
    return parseReg(statement,
                    trim(token.substr(open + 1, close - open - 1)),
                    isa::regField(inst, operand.field));
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
        // beq $zero, $zero, label: the label goes through beq's own
        // Branch operand, range check included.
        if (!expect(1))
            return;
        DecodedInst inst;
        inst.op = Opcode::Beq;
        const isa::SyntaxInfo &beq =
            isa::syntaxInfo(isa::opInfo(Opcode::Beq).syntax);
        for (const isa::Operand &operand : beq.operands())
            if (operand.kind == isa::OperandKind::Branch &&
                parseOperand(statement, operand, operands[0], inst))
                emit(inst);
        return;
    }

    Opcode op;
    if (!isa::opcodeFromMnemonic(m, op))
        return;  // already diagnosed in pass 1
    const isa::SyntaxInfo &syntax = isa::syntaxInfo(isa::opInfo(op).syntax);
    if (!expect(syntax.count))
        return;
    DecodedInst inst;
    inst.op = op;
    for (std::size_t i = 0; i < syntax.count; ++i)
        if (!parseOperand(statement, syntax.operand[i], operands[i], inst))
            return;
    emit(inst);
}

bool
Assembler::parseOperand(const Statement &statement,
                        const isa::Operand &operand,
                        const std::string &token, DecodedInst &inst)
{
    Addr target;
    switch (operand.kind) {
      case isa::OperandKind::Reg:
        return parseReg(statement, token,
                        isa::regField(inst, operand.field), operand.file);
      case isa::OperandKind::Imm:
        return parseImmediate(statement, token, operand.min, operand.max,
                              inst.imm);
      case isa::OperandKind::Mem:
        return parseMemOperand(statement, operand, token, inst);
      case isa::OperandKind::Branch: {
        if (!lookupSymbol(statement, token, target))
            return false;
        std::int64_t delta = branchOffset(statement, target);
        if (delta < operand.min || delta > operand.max) {
            error(statement.line, "branch target out of range");
            return false;
        }
        inst.imm = static_cast<std::int32_t>(delta);
        return true;
      }
      case isa::OperandKind::Jump:
        if (!lookupSymbol(statement, token, target))
            return false;
        if ((target & 0xf0000000u) != (statement.pc & 0xf0000000u)) {
            error(statement.line, "jump target outside the current "
                                  "256MB region");
            return false;
        }
        inst.target = (target >> 2) & 0x03ffffffu;
        return true;
    }
    return false;
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
