/**
 * @file
 * Golden-report regression test: a small fixed-scale Figure-8 sweep
 * and a small §3 region-study sweep must serialize to exactly the
 * committed JSON in tests/golden/, and one observed timing window
 * must write exactly the committed report, interval rows, pipetrace,
 * Chrome trace and telemetry stream.
 *
 * Catches silent drift anywhere in the stack — workload builders,
 * the functional simulator, trace record/replay, the OoO timing
 * model, the stats registry, and the JSON serializer all feed into
 * the compared bytes.
 *
 * When a behaviour change is intentional, regenerate the file and
 * commit it alongside the change:
 *
 *     ARL_UPDATE_GOLDEN=1 ./tests/test_golden
 *
 * (writes into the source tree's tests/golden/, then still fails so
 * the refreshed file is reviewed before the suite goes green).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "assembler/assembler.hh"
#include "builder/program_builder.hh"
#include "common/bits.hh"
#include "common/crc32.hh"
#include "core/experiment.hh"
#include "isa/inst.hh"
#include "isa/operands.hh"
#include "isa/registers.hh"
#include "obs/hooks.hh"
#include "obs/report.hh"
#include "obs/telemetry.hh"
#include "ooo/config.hh"
#include "sweep/sweep.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

using namespace arl;

namespace
{

constexpr const char *kGoldenFile = "sweep_fig8_small.json";
constexpr const char *kGoldenWindowFile = "sweep_fig8_warmup_window.json";
constexpr const char *kGoldenContendedFile = "sweep_fig8_contended.json";
constexpr const char *kGoldenRegionFile = "sweep_region_small.json";
constexpr const char *kGoldenKnobFile = "sweep_ooo_knobs.json";
constexpr const char *kGoldenRingFile = "sweep_ooo_rings.json";
constexpr const char *kGoldenSampledFile = "sweep_sampled_small.json";
constexpr const char *kTraceFixture = "trace_v2_fixture.arlt";
constexpr const char *kObservedReportFile = "observed_report.json";
constexpr const char *kObservedRowsFile = "observed_rows.csv";
constexpr const char *kObservedPipeFile = "observed_pipetrace.txt";
constexpr const char *kObservedChromeFile = "observed_chrome.json";
constexpr const char *kObservedTelemetryFile = "observed_telemetry.jsonl";
constexpr const char *kIsaOperandsFile = "isa_operands.txt";
constexpr const char *kRegionPassFile = "region_pass.txt";

/** The pinned grid: two int workloads × three Fig-8 configs. */
sweep::SweepSpec
goldenSpec()
{
    sweep::SweepSpec spec;
    for (const char *name : {"go_like", "li_like"}) {
        const auto &info = workloads::workloadByName(name);
        sweep::WorkloadSpec w;
        w.name = info.name;
        w.scale = 1;
        w.warmup = info.warmupInsts;
        w.timed = 20000;
        spec.workloads.push_back(std::move(w));
    }
    spec.configs = {ooo::MachineConfig::nPlusM(2, 0),
                    ooo::MachineConfig::nPlusM(3, 3),
                    ooo::MachineConfig::nPlusM(16, 0)};
    spec.jobs = 2;
    return spec;
}

/**
 * The pinned region grid: three registry programs (li_like capped by
 * studyInsts, go_like and tomcatv_like run to completion) and two
 * corpus programs, through the Figure-4 schemes plus one limited
 * 1BIT-HYBRID table (8K entries, 8 GBH + 5 CID bits).
 */
sweep::SweepSpec
goldenRegionSpec()
{
    sweep::SweepSpec spec;
    for (const char *name : {"li_like", "go_like", "tomcatv_like"}) {
        sweep::WorkloadSpec w;
        w.name = name;
        w.scale = 1;
        if (w.name == "li_like")
            w.studyInsts = 150000;
        spec.workloads.push_back(std::move(w));
    }
    for (const char *name : {"ptr_list_sum", "rec_fib"}) {
        sweep::WorkloadSpec w;
        w.name = name;
        w.sourcePath = std::string(ARL_CORPUS_DIR) + "/" + name + ".s";
        spec.workloads.push_back(std::move(w));
    }
    spec.schemes = core::toSweepSchemes(core::figure4Schemes());
    sweep::SchemeSpec limited;
    limited.name = "1BIT-HYBRID-8K";
    limited.config.useArpt = true;
    limited.config.arpt.entries = 8 * 1024;
    limited.config.arpt.counterBits = 1;
    limited.config.arpt.context.kind = predict::ContextKind::Hybrid;
    limited.config.arpt.context.gbhBits = 8;
    limited.config.arpt.context.cidBits = 5;
    spec.schemes.push_back(std::move(limited));
    return spec;
}

/**
 * 1BIT-HYBRID at @p entries (0 = unlimited, 8 GBH + 24 CID bits; a
 * limited table takes 8 GBH bits and sizes its CID bits to the index),
 * optionally behind profile hints.
 */
sweep::SchemeSpec
contractHybrid(std::uint32_t entries, bool hints)
{
    sweep::SchemeSpec scheme;
    scheme.name = "1BIT-HYBRID" +
                  (entries ? "-" + std::to_string(entries / 1024) + "K"
                           : std::string()) +
                  (hints ? "+hints" : "");
    scheme.config.useArpt = true;
    scheme.config.useCompilerHints = hints;
    scheme.config.arpt.entries = entries;
    scheme.config.arpt.counterBits = 1;
    scheme.config.arpt.context.kind = predict::ContextKind::Hybrid;
    scheme.config.arpt.context.gbhBits = 8;
    scheme.config.arpt.context.cidBits =
        entries ? floorLog2(entries) - 8 : 24;
    return scheme;
}

/**
 * The pinned region-pass contract grid: go_like and li_like capped at
 * 150K instructions, tomcatv_like in full and two corpus programs,
 * through Figure 4's five schemes, the two 2-bit schemes, limited
 * 1BIT-HYBRID tables at 8K and 32K entries, and profile-hinted
 * 1BIT-HYBRID at 32K and unlimited.
 */
sweep::SweepSpec
regionContractSpec()
{
    sweep::SweepSpec spec;
    for (const char *name : {"go_like", "li_like", "tomcatv_like"}) {
        sweep::WorkloadSpec w;
        w.name = name;
        w.scale = 1;
        if (w.name != "tomcatv_like")
            w.studyInsts = 150000;
        spec.workloads.push_back(std::move(w));
    }
    for (const char *name : {"ptr_list_sum", "rec_fib"}) {
        sweep::WorkloadSpec w;
        w.name = name;
        w.sourcePath = std::string(ARL_CORPUS_DIR) + "/" + name + ".s";
        spec.workloads.push_back(std::move(w));
    }
    spec.schemes = core::toSweepSchemes(core::figure4Schemes());
    for (const sweep::SchemeSpec &scheme :
         core::toSweepSchemes(core::twoBitSchemes()))
        spec.schemes.push_back(scheme);
    spec.schemes.push_back(contractHybrid(8 * 1024, false));
    spec.schemes.push_back(contractHybrid(32 * 1024, false));
    spec.schemes.push_back(contractHybrid(32 * 1024, true));
    spec.schemes.push_back(contractHybrid(0, true));
    spec.jobs = 2;
    return spec;
}

/** @p value with all 17 significant digits. */
std::string
exact(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

/**
 * Every field of @p point, one fact a line: the profile's counts, both
 * windows' mean, σ and samples, and each scheme's tallies and ARPT
 * occupancy.
 */
std::string
regionPointText(const sweep::RegionPoint &point)
{
    std::ostringstream os;
    const profile::RegionProfile &p = point.profile;
    os << "workload " << point.workload << "\n"
       << "  instructions " << point.instructions << "\n"
       << "  total_instructions " << p.totalInstructions << "\n"
       << "  loads " << p.dynamicLoads << "\n"
       << "  stores " << p.dynamicStores << "\n";
    for (unsigned r = 0; r < vm::NumDataRegions; ++r)
        os << "  refs " << vm::regionName(static_cast<vm::Region>(r))
           << " " << p.regionRefs[r] << "\n";
    for (unsigned c = 0; c < profile::NumRegionClasses; ++c)
        os << "  class "
           << profile::regionClassName(static_cast<profile::RegionClass>(c))
           << " static " << p.staticCounts[c] << " dynamic "
           << p.dynamicCounts[c] << "\n";
    for (const profile::WindowStats *window :
         {&point.window32, &point.window64}) {
        os << "  window" << window->windowSize << " samples "
           << window->samples << "\n";
        for (unsigned r = 0; r < vm::NumDataRegions; ++r)
            os << "  window" << window->windowSize << " "
               << vm::regionName(static_cast<vm::Region>(r)) << " mean "
               << exact(window->mean[r]) << " stddev "
               << exact(window->stddev[r]) << "\n";
    }
    for (const auto &[name, report] : point.schemes) {
        os << "  scheme " << name << " total " << report.total
           << " correct " << report.correct << " occupancy "
           << report.arptOccupancy << "\n";
        for (unsigned s = 0; s < predict::NumPredictionSources; ++s)
            os << "  scheme " << name << " "
               << predict::predictionSourceName(
                      static_cast<predict::PredictionSource>(s))
               << " total " << report.totalBySource[s] << " correct "
               << report.correctBySource[s] << "\n";
    }
    return os.str();
}

/**
 * The pinned sampled grid: three registry programs over a
 * 300K-instruction timed window, fingerprinted in 10K-instruction
 * intervals and clustered into four phases.  Configs are per test.
 */
sweep::SweepSpec
goldenSampledSpec()
{
    sweep::SweepSpec spec;
    for (const char *name : {"perl_like", "li_like", "swim_like"}) {
        const auto &info = workloads::workloadByName(name);
        sweep::WorkloadSpec w;
        w.name = info.name;
        w.warmup = info.warmupInsts;
        w.timed = 300000;
        spec.workloads.push_back(std::move(w));
    }
    spec.sampling = true;
    spec.samplingClusters = 4;
    return spec;
}

/**
 * The pinned observed window: li_like's (3+1) through the contended
 * backend with the CPI stack on, 20K timed instructions.
 */
sweep::SweepSpec
observedSpec()
{
    const auto &info = workloads::workloadByName("li_like");
    sweep::WorkloadSpec w;
    w.name = info.name;
    w.scale = 1;
    w.warmup = info.warmupInsts;
    w.timed = 20000;
    ooo::MachineConfig config = ooo::MachineConfig::nPlusM(3, 1);
    ooo::ContentionKnobs knobs;
    knobs.banks = 2;
    knobs.mshrs = 4;
    knobs.wbBuffer = 2;
    knobs.busCycles = 2;
    knobs.tlbMissLatency = 30;
    config.applyContention(knobs);
    config.cpiStack = true;
    sweep::SweepSpec spec;
    spec.workloads = {w};
    spec.configs = {config};
    return spec;
}

/** The whole of file @p path ("" when it cannot be read). */
std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::string
goldenPath(const char *file)
{
    return std::string(ARL_GOLDEN_DIR) + "/" + file;
}

/**
 * Compare @p actual against the committed golden @p file byte for
 * byte, regenerating it (and failing for review) under
 * ARL_UPDATE_GOLDEN=1.
 */
void
expectMatchesGolden(const std::string &actual, const char *file)
{
    ASSERT_FALSE(actual.empty());
    const std::string path = goldenPath(file);

    if (std::getenv("ARL_UPDATE_GOLDEN")) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << actual;
        out.close();
        FAIL() << "golden file regenerated at " << path
               << "; rerun without ARL_UPDATE_GOLDEN and commit it";
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing " << path
                    << " — generate it with ARL_UPDATE_GOLDEN=1";
    std::ostringstream expected;
    expected << in.rdbuf();

    // Byte-for-byte: both the report schema and the v2 trace
    // encoding are deterministic by contract.
    EXPECT_EQ(expected.str(), actual)
        << "output drifted from the committed golden file " << file
        << "; if intentional, regenerate with ARL_UPDATE_GOLDEN=1";
}

/**
 * A tiny, fully self-contained program for the encoding fixture:
 * two passes over a 64-word buffer with data-dependent branches.
 * Deliberately independent of the workload registry so the fixture
 * only moves when the ISA, builder, simulator, or v2 codec change.
 */
std::shared_ptr<const vm::Program>
fixtureProgram()
{
    builder::ProgramBuilder b("v2_fixture");
    b.globalArray("buf", 64);
    b.bindHere("main");

    // Pass 1: buf[i] = i * 3 + 1.
    b.li(8, 0);                     // $t0 = i
    b.li(9, 0);                     // $t1 = value accumulator
    builder::Label fill = b.label();
    b.bind(fill);
    b.la(25, "buf");
    b.sll(10, 8, 2);                // $t2 = i * 4
    b.add(10, 10, 25);
    b.addi(9, 9, 3);
    b.sw(9, 0, 10);
    b.addi(8, 8, 1);
    b.slti(11, 8, 64);
    b.bgtz(11, fill);

    // Pass 2: sum the buffer, branching on low bits.
    b.li(8, 0);
    b.li(12, 0);                    // $t4 = sum
    builder::Label sum = b.label();
    b.bind(sum);
    b.la(25, "buf");
    b.sll(10, 8, 2);
    b.add(10, 10, 25);
    b.lw(13, 0, 10);                // $t5 = buf[i]
    b.andi(14, 13, 1);
    builder::Label even = b.label();
    b.blez(14, even);
    b.add(12, 12, 13);
    b.bind(even);
    b.addi(8, 8, 1);
    b.slti(11, 8, 64);
    b.bgtz(11, sum);
    b.exit_(0);
    return b.finish();
}

/** @p value as eight hex digits. */
std::string
hex8(std::uint32_t value)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%08x", value);
    return buf;
}

/** A flat dependence register by name ("-" for NoReg). */
std::string
flatName(isa::FlatReg reg)
{
    if (reg == isa::NoReg)
        return "-";
    return reg < isa::FprBase ? isa::gprName(reg)
                              : isa::fprName(reg - isa::FprBase);
}

/** "sources=$a,$b dest=$c" of @p inst. */
std::string
depsText(const isa::DecodedInst &inst)
{
    const isa::SourceList sources = isa::instSources(inst);
    std::string out = "sources=";
    for (unsigned i = 0; i < sources.count; ++i)
        out += (i ? "," : "") + flatName(sources.regs[i]);
    if (sources.count == 0)
        out += "-";
    return out + " dest=" + flatName(isa::instDest(inst));
}

/**
 * Assemble @p statement (labelled S, with T just past it) after a
 * data label D, a text label L and @p before nops, with @p after
 * nops between it and a last label E.  @return "ok" with the
 * statement's words and their disassembly, or every diagnostic.
 */
std::string
probeStatement(const std::string &statement, unsigned before = 0,
               unsigned after = 0)
{
    std::string source = ".data\nD: .word 0\n.text\nL: nop\n";
    for (unsigned i = 0; i < before; ++i)
        source += "nop\n";
    source += "S: " + statement + "\nT:\n";
    for (unsigned i = 0; i < after; ++i)
        source += "nop\n";
    source += "E: nop\n";
    const assembler::AsmResult result = assembler::assemble(source);
    if (!result.ok()) {
        std::string out;
        for (const assembler::AsmError &error : result.errors)
            out += (out.empty() ? "" : "; ") + error.format();
        return out;
    }
    const vm::Program &program = *result.program;
    std::string out = "ok";
    for (Addr pc = program.symbols.at("S"); pc < program.symbols.at("T");
         pc += 4) {
        isa::DecodedInst inst;
        EXPECT_TRUE(isa::decode(program.fetch(pc), inst));
        out += " " + hex8(program.fetch(pc)) + " " +
               isa::disassemble(inst, pc) + ";";
    }
    return out;
}

/** @p tokens as an assembler statement: "m a, b, c". */
std::string
joinStatement(const std::vector<std::string> &tokens)
{
    std::string out = tokens[0];
    for (std::size_t i = 1; i < tokens.size(); ++i)
        out += (i == 1 ? " " : ", ") + tokens[i];
    return out;
}

/**
 * The malformed (and boundary) variants of one statement, one line
 * each.  The operand kinds come from the statement's own text, as
 * the disassembler printed it, so nothing here restates an
 * opcode's layout: "$f.." is an FPR, "$.." a GPR, "n($r)" a memory
 * operand, "L" a label and anything else an immediate.
 */
void
probeVariants(const std::vector<std::string> &tokens, bool is_branch,
              std::ostream &os)
{
    auto line = [&](const std::string &tag,
                    const std::vector<std::string> &variant,
                    unsigned before = 0, unsigned after = 0) {
        const std::string statement = joinStatement(variant);
        os << "  " << tag << ": " << statement << " -> "
           << probeStatement(statement, before, after) << "\n";
    };
    auto with = [&](std::size_t index, const std::string &text) {
        std::vector<std::string> variant = tokens;
        variant[index] = text;
        return variant;
    };
    auto swap_file = [](const std::string &reg) {
        const int fpr = isa::parseFprName(reg);
        return fpr >= 0 ? isa::gprName(static_cast<RegIndex>(fpr))
                        : isa::fprName(static_cast<RegIndex>(
                              isa::parseGprName(reg)));
    };
    static const char *const kImmediates[] = {
        "-32769", "-32768", "-1", "0", "31", "32", "32767", "32768",
        "65535", "65536", "x"};

    line("ok", tokens);
    if (tokens.size() > 1)
        line("short", std::vector<std::string>(tokens.begin(),
                                               tokens.end() - 1));
    std::vector<std::string> extra = tokens;
    extra.push_back("$t0");
    line("extra", extra);
    for (std::size_t i = 1; i < tokens.size(); ++i) {
        const std::string &token = tokens[i];
        const std::string at = std::to_string(i);
        const std::size_t open = token.find('(');
        if (token == "L") {
            line("undefined" + at, with(i, "nowhere"));
            line("data" + at, with(i, "D"));
            if (is_branch) {
                line("forward32767", with(i, "E"), 0, 32767);
                line("forward32768", with(i, "E"), 0, 32768);
                line("backward32768", tokens, 32766);
                line("backward32769", tokens, 32767);
            }
        } else if (open != std::string::npos) {
            const std::string base =
                token.substr(open + 1, token.size() - open - 2);
            const std::string offset = token.substr(0, open);
            for (const char *imm : kImmediates)
                line("offset" + at + "=" + imm,
                     with(i, imm + ("(" + base + ")")));
            line("basefile" + at,
                 with(i, offset + "(" + swap_file(base) + ")"));
            line("nobase" + at, with(i, offset + "($q)"));
            line("nooffset" + at, with(i, "(" + base + ")"));
            line("noparen" + at, with(i, offset + " " + base));
            line("unclosed" + at, with(i, offset + "(" + base));
            line("reversed" + at, with(i, offset + ")" + base + "("));
        } else if (token[0] == '$') {
            line("file" + at, with(i, swap_file(token)));
            line("notreg" + at, with(i, "17"));
        } else {
            for (const char *imm : kImmediates)
                line("imm" + at + "=" + imm, with(i, imm));
        }
    }
}

/** Split "m a, b, c" into {"m", "a", "b", "c"}. */
std::vector<std::string>
splitStatement(const std::string &text)
{
    std::vector<std::string> tokens;
    const std::size_t space = text.find(' ');
    tokens.push_back(text.substr(0, space));
    if (space == std::string::npos)
        return tokens;
    std::string rest = text.substr(space + 1);
    for (std::size_t comma; (comma = rest.find(", ")) != std::string::npos;
         rest = rest.substr(comma + 2))
        tokens.push_back(rest.substr(0, comma));
    tokens.push_back(rest);
    return tokens;
}

/** CRC-32 of a program's symbol table as "name=addr\n" lines. */
std::uint32_t
symbolsCrc(const vm::Program &program)
{
    std::string text;
    for (const auto &[name, addr] : program.symbols)
        text += name + "=" + hex8(addr) + "\n";
    return crc32(text.data(), text.size());
}

/**
 * The ISA operand contract: for every opcode, the disassembly and
 * dependence lists of a fixed operand pattern (and of an all-zero
 * one), and what the assembler makes of that disassembly and of its
 * malformed variants; the pseudo-ops' diagnostics; the CRC-32s of
 * every corpus program as assembled; and the CRC-32 of the
 * disassembly of every registry workload.
 */
std::string
isaOperandContract()
{
    std::ostringstream os;
    for (unsigned i = 0; i < isa::NumOpcodes; ++i) {
        const auto op = static_cast<isa::Opcode>(i);
        // Every field busy, then round-tripped through the encoding
        // so only the fields of the opcode's format survive.
        isa::DecodedInst busy{op, 9, 18, 27, 17, 0x123456};
        isa::DecodedInst zero{op, 0, 0, 0, 0, 0};
        for (isa::DecodedInst *inst : {&busy, &zero})
            EXPECT_TRUE(isa::decode(isa::encode(*inst), *inst));
        const Addr pc = vm::layout::TextBase;
        const std::string text = isa::disassemble(busy, pc);
        os << "opcode " << isa::mnemonic(op) << "\n"
           << "  disasm: " << text << " " << depsText(busy) << "\n"
           << "  zero: " << isa::disassemble(zero, pc) << " "
           << depsText(zero) << "\n";
        std::vector<std::string> tokens = splitStatement(text);
        for (std::string &token : tokens)
            if (token.rfind("0x", 0) == 0)
                token = "L";
        probeVariants(tokens, isa::opInfo(op).isBranch, os);
    }

    os << "pseudo-ops\n";
    for (const char *statement :
         {"li $t1, 17", "li $t1, -32768", "li $t1, 32768",
          "li $t1, -32769", "li $t1, 2147483647", "li $t1, 2147483648",
          "li $t1, -2147483649", "li $t1, x", "li $f1, 5", "li $t1",
          "la $t1, L", "la $t1, D", "la $t1, nowhere", "la $f1, D",
          "la $t1", "move $t1, $s2", "move $t1, $f2", "move $f1, $s2",
          "move $t1", "b L", "b E", "b D", "b nowhere", "b", "b L, E",
          "nop", "frobnicate $t1"})
        os << "  " << statement << " -> " << probeStatement(statement)
           << "\n";
    // b is beq $zero, $zero, label: beq's branch range.
    os << "  forward32767: b E -> " << probeStatement("b E", 0, 32767)
       << "\n  forward32768: b E -> " << probeStatement("b E", 0, 32768)
       << "\n  backward32768: b L -> " << probeStatement("b L", 32766)
       << "\n  backward32769: b L -> " << probeStatement("b L", 32767)
       << "\n";

    std::vector<std::filesystem::path> sources;
    for (const auto &entry :
         std::filesystem::directory_iterator(ARL_CORPUS_DIR))
        if (entry.path().extension() == ".s")
            sources.push_back(entry.path());
    std::sort(sources.begin(), sources.end());
    EXPECT_EQ(sources.size(), 24u);
    for (const auto &path : sources) {
        const assembler::AsmResult result =
            assembler::assemble(readFile(path.string()),
                                path.stem().string());
        EXPECT_TRUE(result.ok()) << path;
        if (!result.ok())
            continue;
        const vm::Program &program = *result.program;
        os << "corpus " << path.filename().string() << " text="
           << hex8(crc32(program.text.data(), program.text.size() * 4))
           << " data="
           << hex8(crc32(program.data.data(), program.data.size()))
           << " symbols=" << hex8(symbolsCrc(program))
           << " entry=" << hex8(program.entry) << "\n";
    }

    for (const auto &info : workloads::allWorkloads()) {
        const auto program = workloads::buildWorkload(info.name, 1);
        std::string listing;
        for (std::size_t i = 0; i < program->text.size(); ++i) {
            const Addr pc = program->textBase + static_cast<Addr>(i * 4);
            isa::DecodedInst inst;
            EXPECT_TRUE(isa::decode(program->text[i], inst));
            listing += isa::disassemble(inst, pc) + "\n";
        }
        os << "workload " << info.name << " words="
           << program->text.size()
           << " disasm=" << hex8(crc32(listing.data(), listing.size()))
           << "\n";
    }
    return os.str();
}

} // namespace

TEST(Golden, Fig8SmallSweepReport)
{
    std::ostringstream actual;
    sweep::runSweep(goldenSpec()).toReport().writeJson(actual);
    expectMatchesGolden(actual.str(), kGoldenFile);
}

TEST(Golden, Fig8WarmupWindowSweepReport)
{
    // The same grid warmed only from the last 2048 of its
    // 10000/5000-instruction fast-forwards, run on live rows and then
    // on rows recorded through a cold v2 trace cache: both must write
    // the pinned report, which pins bounded warming and the v2
    // encode/decode path beneath it.
    sweep::SweepSpec spec = goldenSpec();
    for (auto &w : spec.workloads)
        w.warmupWindow = 2048;
    const std::string cache = ::testing::TempDir() + "arl_golden_window";
    std::filesystem::remove_all(cache);
    for (const std::string &dir : {std::string(), cache}) {
        SCOPED_TRACE(dir.empty() ? "live" : "cold cache");
        spec.traceCacheDir = dir;
        sweep::SweepResult result = sweep::runSweep(spec);
        EXPECT_EQ(result.traceCacheMisses, dir.empty() ? 0u : 2u);
        std::ostringstream actual;
        result.toReport().writeJson(actual);
        expectMatchesGolden(actual.str(), kGoldenWindowFile);
    }
    std::filesystem::remove_all(cache);
}

TEST(Golden, Fig8ContendedSweepReport)
{
    // The same two workloads through the contended memory backend:
    // banked first-level structures, bounded MSHRs, a finite
    // writeback buffer, a metered L2/memory bus, and a TLB-miss
    // penalty.  The hierarchy is shrunk so the 20k-instruction timed
    // window genuinely misses — with the Table-4 geometry a warmed
    // window has no L1 misses and the backpressure paths would idle.
    sweep::SweepSpec spec = goldenSpec();
    spec.configs = {ooo::MachineConfig::nPlusM(4, 0, 3),
                    ooo::MachineConfig::nPlusM(3, 1)};
    ooo::ContentionKnobs knobs;
    knobs.banks = 2;
    knobs.mshrs = 4;
    knobs.wbBuffer = 2;
    knobs.busCycles = 2;
    knobs.tlbMissLatency = 30;
    for (auto &config : spec.configs) {
        config.hierarchy.l1 = cache::CacheGeometry{"L1D", 2048, 32, 2};
        config.hierarchy.lvc = cache::CacheGeometry{"LVC", 512, 32, 1};
        config.hierarchy.l2 = cache::CacheGeometry{"L2", 8192, 64, 4};
        // A single TLB entry: the timed window's handful of hot
        // pages (stack + globals) alternate, so the §4.3 walk
        // penalty is genuinely charged.  The Table-4 64-entry TLB
        // never misses once warmed at this scale.
        config.tlbEntries = 1;
        config.applyContention(knobs);
    }

    // The contended path must stay jobs-deterministic: per-core
    // contention state and a fixed merge order mean worker count
    // can never leak into the report bytes.
    spec.jobs = 1;
    std::ostringstream serial;
    obs::Report report = sweep::runSweep(spec).toReport();
    report.writeJson(serial);
    spec.jobs = 8;
    std::ostringstream parallel;
    sweep::runSweep(spec).toReport().writeJson(parallel);
    EXPECT_EQ(serial.str(), parallel.str())
        << "contended sweep output depends on worker count";

    auto stat = [](const obs::RunRecord &run,
                   const std::string &name) {
        for (const auto &kv : run.stats)
            if (kv.first == name)
                return kv.second;
        ADD_FAILURE() << "stat " << name << " missing from "
                      << run.workload << " / " << run.config;
        return 0.0;
    };

    // Every modelled structure must actually see pressure, else the
    // golden would pin a vacuous configuration.
    double mshr_allocs = 0, wb_enqueued = 0, bus_busy = 0,
           tlb_cycles = 0, bank_conflicts = 0;
    for (const auto &run : report.runs) {
        if (run.config == "summary")
            continue;  // aggregate row: no per-structure stats
        mshr_allocs += stat(run, "cache.l1.mshr.allocations");
        wb_enqueued += stat(run, "cache.wb.enqueued");
        bus_busy += stat(run, "cache.bus.busy_cycles");
        tlb_cycles += stat(run, "cache.tlb.miss_cycles");
        bank_conflicts += stat(run, "cache.l1.bank_conflicts");
    }
    EXPECT_GT(mshr_allocs, 0.0);
    EXPECT_GT(wb_enqueued, 0.0);
    EXPECT_GT(bus_busy, 0.0);
    EXPECT_GT(tlb_cycles, 0.0);
    EXPECT_GT(bank_conflicts, 0.0);

    // Figure 8's headline under contention: the decoupled (3+1)
    // design beats the wider conventional (4+0) on both programs.
    for (const char *workload : {"go_like", "li_like"}) {
        double wide = 0, decoupled = 0;
        for (const auto &run : report.runs) {
            if (run.workload != workload)
                continue;
            if (run.config.rfind("(4+0)", 0) == 0)
                wide = stat(run, "ooo.cycles");
            else if (run.config.rfind("(3+1)", 0) == 0)
                decoupled = stat(run, "ooo.cycles");
        }
        EXPECT_LT(decoupled, wide) << workload;
    }

    // The CPI stack accounts for every cycle of every contended job:
    // the non-total leaves sum exactly to ooo.cycles.
    for (const auto &run : report.runs) {
        if (run.config == "summary")
            continue;
        double leaf_sum = 0.0;
        for (const auto &kv : run.stats)
            if (kv.first.rfind("ooo.cpi_stack.", 0) == 0 &&
                kv.first != "ooo.cpi_stack.total")
                leaf_sum += kv.second;
        const double cycles = stat(run, "ooo.cycles");
        EXPECT_EQ(leaf_sum, cycles)
            << run.workload << " / " << run.config;
        EXPECT_EQ(stat(run, "ooo.cpi_stack.total"), cycles)
            << run.workload << " / " << run.config;
    }

    // And it localizes the paper's claim: the wider conventional
    // (4+0) loses strictly more cycles to dcache-port contention +
    // bank conflicts than the decoupled (3+1) on every workload.
    for (const char *workload : {"go_like", "li_like"}) {
        double wide = 0, decoupled = 0;
        for (const auto &run : report.runs) {
            if (run.workload != workload)
                continue;
            const double port_and_banks =
                stat(run, "ooo.cpi_stack.dcache_port") +
                stat(run, "ooo.cpi_stack.bank_conflict.dcache") +
                stat(run, "ooo.cpi_stack.bank_conflict.lvc");
            if (run.config.rfind("(4+0)", 0) == 0)
                wide = port_and_banks;
            else if (run.config.rfind("(3+1)", 0) == 0)
                decoupled = port_and_banks;
        }
        EXPECT_GT(wide, decoupled) << workload;
    }

    expectMatchesGolden(serial.str(), kGoldenContendedFile);
}

TEST(Golden, OooKnobSweepReport)
{
    // The other goldens pin only default-knob configurations; this
    // grid turns each core knob off once, on an integer and an FP
    // program, so a scheduler change that is exact only under the
    // defaults shows up as a byte diff.
    sweep::SweepSpec spec;
    for (const char *name : {"li_like", "swim_like"}) {
        const auto &info = workloads::workloadByName(name);
        sweep::WorkloadSpec w;
        w.name = info.name;
        w.scale = 1;
        w.warmup = info.warmupInsts;
        w.timed = 20000;
        spec.workloads.push_back(std::move(w));
    }
    auto knob = [](ooo::MachineConfig config, const char *suffix) {
        config.name += suffix;
        return config;
    };
    ooo::MachineConfig no_vp = knob(ooo::MachineConfig::nPlusM(3, 3),
                                    "/novp");
    no_vp.valuePrediction = false;
    ooo::MachineConfig no_ff = knob(ooo::MachineConfig::nPlusM(3, 3),
                                    "/noff");
    no_ff.fastForwarding = false;
    ooo::MachineConfig gshare = knob(ooo::MachineConfig::nPlusM(2, 0),
                                     "/gshare");
    gshare.perfectBranchPrediction = false;
    // 96 live entries in a 128-slot ring, and a queue small enough
    // to fill.
    ooo::MachineConfig small = knob(ooo::MachineConfig::nPlusM(1, 0),
                                    "/rob96");
    small.robSize = 96;
    small.lsqSize = 32;
    // Forced stall attribution on the ideal backend, including the
    // loads that wait on a matched store's data.
    ooo::MachineConfig cpi = knob(ooo::MachineConfig::nPlusM(2, 2),
                                  "/cpi");
    cpi.cpiStack = true;
    spec.configs = {no_vp, no_ff, gshare, small, cpi};

    spec.jobs = 1;
    std::ostringstream serial;
    obs::Report report = sweep::runSweep(spec).toReport();
    report.writeJson(serial);
    spec.jobs = 8;
    std::ostringstream parallel;
    sweep::runSweep(spec).toReport().writeJson(parallel);
    EXPECT_EQ(serial.str(), parallel.str())
        << "knob sweep output depends on worker count";

    auto stat = [](const obs::RunRecord &run,
                   const std::string &name) {
        for (const auto &kv : run.stats)
            if (kv.first == name)
                return kv.second;
        ADD_FAILURE() << "stat " << name << " missing from "
                      << run.workload << " / " << run.config;
        return 0.0;
    };
    // Each knob must actually take effect, else the golden would pin
    // a configuration the defaults already cover.
    for (const auto &run : report.runs) {
        if (run.config == "summary")
            continue;
        if (run.config == no_vp.name) {
            EXPECT_EQ(stat(run, "ooo.vp.offered"), 0.0) << run.workload;
        } else if (run.config == gshare.name) {
            EXPECT_GT(stat(run, "ooo.bp.mispredicts"), 0.0)
                << run.workload;
        } else if (run.config == small.name) {
            EXPECT_GT(stat(run, "ooo.stall.queue_full"), 0.0)
                << run.workload;
        } else if (run.config == cpi.name) {
            EXPECT_EQ(stat(run, "ooo.cpi_stack.total"),
                      stat(run, "ooo.cycles"))
                << run.workload;
        }
    }

    expectMatchesGolden(serial.str(), kGoldenKnobFile);
}

TEST(Golden, OooRingEdgesSweepReport)
{
    // Every Figure-8 config, plus two of them over ROB sizes whose
    // slot masks are a partial word (16), one word with a 48-entry
    // limit, exactly one word (64), and two words that wrap at a
    // 100-entry limit, so a scheduler change that is exact only for
    // the default 256-entry ring shows up as a byte diff.
    sweep::SweepSpec spec;
    for (const char *name : {"li_like", "swim_like", "vortex_like"}) {
        const auto &info = workloads::workloadByName(name);
        sweep::WorkloadSpec w;
        w.name = info.name;
        w.scale = 1;
        w.warmup = info.warmupInsts;
        w.timed = 20000;
        spec.workloads.push_back(std::move(w));
    }
    spec.configs = ooo::MachineConfig::figure8Suite();
    for (unsigned rob : {16u, 48u, 64u, 100u}) {
        for (unsigned lports : {0u, 2u}) {
            ooo::MachineConfig config =
                ooo::MachineConfig::nPlusM(lports ? 2 : 1, lports);
            config.name += "/rob" + std::to_string(rob);
            config.robSize = rob;
            spec.configs.push_back(std::move(config));
        }
    }

    spec.jobs = 1;
    std::ostringstream serial;
    sweep::runSweep(spec).toReport().writeJson(serial);
    spec.jobs = 8;
    std::ostringstream parallel;
    sweep::runSweep(spec).toReport().writeJson(parallel);
    EXPECT_EQ(serial.str(), parallel.str())
        << "ring-edge sweep output depends on worker count";

    expectMatchesGolden(serial.str(), kGoldenRingFile);
}

TEST(Golden, RegionStudySweepReport)
{
    // Region rows must be jobs-deterministic like timing rows: each
    // pass owns its profilers and predictors, and rows merge in
    // workload order.
    sweep::SweepSpec spec = goldenRegionSpec();
    spec.jobs = 1;
    std::ostringstream serial;
    sweep::runSweep(spec).toReport().writeJson(serial);
    spec.jobs = 8;
    std::ostringstream parallel;
    sweep::runSweep(spec).toReport().writeJson(parallel);
    EXPECT_EQ(serial.str(), parallel.str())
        << "region sweep output depends on worker count";
    expectMatchesGolden(serial.str(), kGoldenRegionFile);
}

TEST(Golden, RegionPassContract)
{
    // Every RegionPoint field of the region pass, at full precision:
    // the profile's per-class counts, both windows' σ (Table 2's
    // bursty marks read it), and the 2-bit, limited and hinted
    // schemes' per-source tallies, which no report key pins.
    const sweep::SweepResult result = sweep::runSweep(regionContractSpec());
    std::string actual =
        "# Region-pass contract: every RegionPoint field per workload\n";
    for (const sweep::RegionPoint &point : result.region)
        actual += regionPointText(point);
    expectMatchesGolden(actual, kRegionPassFile);
}

TEST(Golden, SampledSweepReport)
{
    // Two shapes of one sampled grid: (3+3) alone, whose rows no job
    // reads end to end, and (2+0),(3+3) with the verify pass, whose
    // rows two full-window jobs read.  Each runs from a cold trace
    // cache at one job and again from the warm cache at eight; both
    // runs must agree, and the two shapes' runs are pinned together.
    sweep::SweepSpec alone = goldenSampledSpec();
    alone.configs = {ooo::MachineConfig::nPlusM(3, 3)};
    sweep::SweepSpec verified = goldenSampledSpec();
    verified.configs = {ooo::MachineConfig::nPlusM(2, 0),
                        ooo::MachineConfig::nPlusM(3, 3)};
    verified.samplingVerify = true;

    const std::string cache = ::testing::TempDir() + "arl_golden_sampled";
    obs::Report pinned;
    pinned.command = "sweep";
    for (sweep::SweepSpec *spec : {&alone, &verified}) {
        std::filesystem::remove_all(cache);
        spec->traceCacheDir = cache;
        spec->jobs = 1;
        sweep::SweepResult cold = sweep::runSweep(*spec);
        EXPECT_EQ(cold.traceCacheMisses, 3u);
        spec->jobs = 8;
        sweep::SweepResult warm = sweep::runSweep(*spec);
        EXPECT_EQ(warm.traceCacheHits, 3u);

        obs::Report report = cold.toReport();
        std::ostringstream cold_json, warm_json;
        report.writeJson(cold_json);
        warm.toReport().writeJson(warm_json);
        EXPECT_EQ(cold_json.str(), warm_json.str())
            << "sampled sweep differs between a cold cache at one job "
               "and a warm cache at eight";
        pinned.runs.insert(pinned.runs.end(), report.runs.begin(),
                           report.runs.end());
    }
    std::filesystem::remove_all(cache);

    std::ostringstream actual;
    pinned.writeJson(actual);
    expectMatchesGolden(actual.str(), kGoldenSampledFile);
}

TEST(Golden, ObservedWindowOutputs)
{
    // One timing window with every observer attached: interval rows
    // every 12K instructions (so the last row comes from the
    // end-of-run flush), a capped pipetrace, a capped Chrome trace
    // with its counter tracks, and telemetry on a channel whose clock
    // and RSS are fixed.  A second run streams its rows to a CSV file
    // instead of the report.  All five outputs are pinned.
    const std::string dir = ::testing::TempDir();
    const std::string pipe_path = dir + "arl_observed_pipe.txt";
    const std::string chrome_path = dir + "arl_observed_chrome.json";
    const std::string rows_path = dir + "arl_observed_rows.csv";
    const std::string telemetry_path = dir + "arl_observed.jsonl";
    std::remove(telemetry_path.c_str());
    obs::TelemetryOptions options;
    options.intervalInsts = 5000;
    options.clockMs = [] { return std::uint64_t(0); };
    options.rssKb = [] { return std::uint64_t(4242); };
    auto channel = obs::TelemetryChannel::open(telemetry_path, options);
    ASSERT_NE(channel, nullptr);

    sweep::SweepSpec spec = observedSpec();
    const std::string config = spec.configs.front().name;
    std::ostringstream report_json;
    {
        obs::Hooks hooks;
        hooks.intervalEvery = 12000;
        ASSERT_TRUE(hooks.open<obs::PipeTracer>(pipe_path, 300));
        ASSERT_TRUE(hooks.open<obs::ChromeTracer>(chrome_path, 20));
        spec.hooks = {&hooks};
        spec.telemetry = channel.get();
        sweep::runSweep(spec);
        obs::Report report;
        report.command = "time";
        report.runs.push_back(
            obs::RunRecord::fromHooks("li_like", config, hooks));
        report.writeJson(report_json);
    }
    channel.reset();
    {
        obs::Hooks hooks;
        hooks.intervalEvery = 12000;
        ASSERT_TRUE(hooks.open<obs::IntervalCsv>(rows_path));
        spec.hooks = {&hooks};
        spec.telemetry = nullptr;
        sweep::runSweep(spec);
    }

    expectMatchesGolden(report_json.str(), kObservedReportFile);
    expectMatchesGolden(readFile(rows_path), kObservedRowsFile);
    expectMatchesGolden(readFile(pipe_path), kObservedPipeFile);
    expectMatchesGolden(readFile(chrome_path), kObservedChromeFile);
    expectMatchesGolden(readFile(telemetry_path), kObservedTelemetryFile);
    for (const std::string &path :
         {pipe_path, chrome_path, rows_path, telemetry_path})
        std::remove(path.c_str());
}

TEST(Golden, IdealGoldensCarryNoCpiStackKeys)
{
    // CPI-stack / histogram keys register only when contention or
    // the explicit cpiStack knob is on — the ideal goldens must stay
    // byte-identical, which starts with not containing the keys.
    for (const char *file : {kGoldenFile, kGoldenWindowFile}) {
        std::ifstream in(goldenPath(file));
        ASSERT_TRUE(in) << goldenPath(file);
        std::ostringstream text;
        text << in.rdbuf();
        EXPECT_EQ(text.str().find("cpi_stack"), std::string::npos)
            << file;
        EXPECT_EQ(text.str().find("load_to_use"), std::string::npos)
            << file;
    }
}

TEST(Golden, ContendedCarriesCpiStackAndNoneCarriesMeta)
{
    // The contended golden carries the full CPI stack...
    const std::string contended =
        readFile(goldenPath(kGoldenContendedFile));
    EXPECT_NE(contended.find("\"ooo.cpi_stack.total\""),
              std::string::npos);
    // ...and goldens are written through SweepResult::toReport()
    // directly, so the CLI's host-meta stamp never leaks into one.
    unsigned documents = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(ARL_GOLDEN_DIR)) {
        if (entry.path().extension() != ".json")
            continue;
        ++documents;
        EXPECT_EQ(readFile(entry.path()).find("\"meta\""),
                  std::string::npos)
            << entry.path();
    }
    EXPECT_GT(documents, 0u);
}

TEST(Golden, V2TraceFixtureEncodingPinned)
{
    // Record the fixture program with tiny blocks (several block
    // boundaries + index entries in a ~1KB file) and pin the exact
    // on-disk bytes.  Any codec change — tags, varint layout, CRC,
    // index, trailer — shows up as a byte diff here before it can
    // silently invalidate cached traces in the wild.
    const std::string tmp = ::testing::TempDir() + "arl_v2_fixture.arlt";
    InstCount n = 0;
    std::uint64_t bytes = 0;
    ASSERT_TRUE(trace::recordTrace(fixtureProgram(), tmp, 0, 256, n, bytes));
    ASSERT_GT(n, 500u);

    std::ifstream in(tmp, std::ios::binary);
    ASSERT_TRUE(in);
    std::string actual((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
    in.close();
    std::remove(tmp.c_str());
    EXPECT_EQ(bytes, actual.size());

    expectMatchesGolden(actual, kTraceFixture);
    if (::testing::Test::HasFailure())
        return; // missing/regenerated fixture: nothing to decode

    // And the committed fixture itself must still decode: guards
    // against a reader change that would orphan existing files.
    trace::TraceReader reader;
    std::string err;
    ASSERT_TRUE(reader.open(goldenPath(kTraceFixture), err)) << err;
    EXPECT_EQ(reader.programName(), "v2_fixture");
    sim::StepInfo step;
    InstCount decoded = 0;
    while (reader.next(step))
        ++decoded;
    EXPECT_EQ(decoded, n);
    EXPECT_EQ(reader.error(), "");
}

TEST(Golden, IsaOperandContract)
{
    // Everything that reads an opcode's operand layout (assembler,
    // disassembler, dependence lists) pinned in one listing.
    expectMatchesGolden(isaOperandContract(), kIsaOperandsFile);
}
