#include "figures/figures.hh"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <limits>

#include "cache/cache.hh"
#include "common/bits.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/experiment.hh"
#include "predict/static_classifier.hh"
#include "sim/simulator.hh"
#include "vm/layout.hh"
#include "workloads/workloads.hh"

namespace arl::figures
{

namespace
{

std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

std::string
format(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string text = log_detail::vformat(fmt, ap);
    va_end(ap);
    return text;
}

/** The grid rows: every registry workload, in table order. */
const std::vector<workloads::WorkloadInfo> &
programs()
{
    return workloads::allWorkloads();
}

/** One table cell: its text and the numbers it prints. */
struct Cell
{
    std::string text;
    /** (key suffix, value); suffix "" records under the column. */
    std::vector<std::pair<std::string, double>> values;
};

Cell
num(double value, int precision = 2)
{
    return {TablePrinter::num(value, precision), {{"", value}}};
}

/**
 * A rendered figure: its table, the lines around it, every number it
 * prints keyed by (row label, column), which become its report
 * records, and the verdicts of claims checked against them.
 */
class Page
{
  public:
    /** Set the column headers; the first one heads the row labels. */
    void
    header(std::vector<std::string> columns)
    {
        keys_ = columns;
        table_.header(std::move(columns));
    }

    /** Record @p column's numbers under @p key, not its header. */
    void rename(std::size_t col, std::string key) { keys_.at(col) = key; }

    /** Append a row labelled @p label (a workload or an average). */
    void
    row(const std::string &label, std::vector<Cell> cells)
    {
        std::vector<std::string> texts{label};
        obs::RunRecord record;
        record.workload = label;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            texts.push_back(std::move(cells[i].text));
            for (const auto &[suffix, value] : cells[i].values)
                record.stats.emplace_back(
                    keys_.at(i + 1) + (suffix.empty() ? "" : "." + suffix),
                    value);
        }
        table_.row(std::move(texts));
        rows_.push_back(std::move(record));
    }

    /** @p key's mean over the programs of @p group (-1 all, 0 int, 1 FP). */
    double
    mean(const std::string &key, int group = -1) const
    {
        double sum = 0.0;
        unsigned n = 0;
        for (const auto &info : programs()) {
            if (group < 0 || info.floatingPoint == (group == 1)) {
                sum += at(info.name, key);
                ++n;
            }
        }
        return sum / n;
    }

    /** The program with the lowest (or @p highest) @p key; its value. */
    std::pair<std::string, double>
    extreme(const std::string &key, bool highest = false) const
    {
        std::pair<std::string, double> best;
        for (const auto &info : programs()) {
            double value = at(info.name, key);
            if (best.first.empty() ||
                (highest ? value > best.second : value < best.second))
                best = {info.name, value};
        }
        return best;
    }

    /** The largest a - b over every program's columns @p a, @p b. */
    double
    largestExcess(const std::string &a, const std::string &b) const
    {
        double excess = -std::numeric_limits<double>::infinity();
        for (const auto &info : programs())
            excess = std::max(excess, at(info.name, a) - at(info.name, b));
        return excess;
    }

    /** Check one claim about the numbers: a PASS or FAIL line. */
    void
    claim(const std::string &text, bool pass, const std::string &measured)
    {
        verdicts_.push_back((pass ? "PASS  " : "FAIL  ") + text + " (" +
                            measured + ")");
    }

    /** Append row @p label: the means of columns [first, last). */
    void
    average(const std::string &label, std::size_t first, std::size_t last,
            int precision, int group = -1)
    {
        std::vector<Cell> cells(first - 1);
        for (std::size_t column = first; column < last; ++column)
            cells.push_back(num(mean(keys_.at(column), group), precision));
        row(label, std::move(cells));
    }

    /** A text line: above the table before header(), else below. */
    void
    line(std::string text)
    {
        (keys_.empty() ? above_ : below_).push_back(std::move(text));
    }

    /** Keep @p value, a number a footer prints, in row "summary". */
    double
    note(const std::string &key, double value)
    {
        if (rows_.empty() || rows_.back().workload != "summary") {
            rows_.emplace_back();
            rows_.back().workload = "summary";
        }
        rows_.back().stats.emplace_back(key, value);
        return value;
    }

    /** The number recorded under (@p row, @p key); fatal if absent. */
    double
    at(const std::string &row, const std::string &key) const
    {
        for (const obs::RunRecord &record : rows_)
            if (record.workload == row)
                for (const auto &[name, value] : record.stats)
                    if (name == key)
                        return value;
        fatal("figure: no number at row '%s', column '%s'", row.c_str(),
              key.c_str());
    }

    std::string
    render() const
    {
        std::string out;
        for (const std::string &text : above_)
            out += text + "\n";
        out += table_.render() + "\n";
        for (const std::string &text : below_)
            out += text + "\n";
        return out;
    }

    const std::vector<obs::RunRecord> &rows() const { return rows_; }
    const std::vector<std::string> &verdicts() const { return verdicts_; }

  private:
    TablePrinter table_;
    std::vector<std::string> keys_;
    std::vector<obs::RunRecord> rows_;
    std::vector<std::string> above_;
    std::vector<std::string> below_;
    std::vector<std::string> verdicts_;
};

/** One table or figure of the paper. */
struct Figure
{
    /** Lookup name, banner title and banner subtitle. */
    std::string name, title, description;
    /** The grid: timing configs and/or predictor schemes (neither =
     *  a per-workload pass inside render). */
    std::vector<ooo::MachineConfig> configs;
    std::vector<sweep::SchemeSpec> schemes;
    /** Print the table into @p page from the grid's @p result, then
     *  check the figure's claims against the page's numbers. */
    void (*render)(const Options &opts, const sweep::SweepResult &result,
                   Page &page);
};

double
cycles(const ooo::OooStats &stats)
{
    return static_cast<double>(stats.cycles);
}

/** @p head, then the grid's scheme names (or its config names). */
std::vector<std::string>
gridHeader(const sweep::SweepResult &result,
           std::vector<std::string> head = {"Benchmark"})
{
    if (!result.region.empty())
        for (const auto &scheme : result.region.front().schemes)
            head.push_back(scheme.first);
    for (std::size_t ci = 0; ci < result.numConfigs; ++ci)
        head.push_back(result.at(0, ci).config);
    return head;
}

// ---- Tables 1-3, Figures 2 and 4: the Figure-4 region grid.

std::vector<sweep::SchemeSpec>
fig4Schemes(bool two_bit)
{
    std::vector<core::NamedScheme> schemes = core::figure4Schemes();
    if (two_bit)
        for (const core::NamedScheme &scheme : core::twoBitSchemes())
            schemes.push_back(scheme);
    return core::toSweepSchemes(schemes);
}

void
table1(const Options &, const sweep::SweepResult &result, Page &page)
{
    page.header({"Benchmark", "(substitute for)", "Inst. count",
                 "Loads%", "Stores%", "L/S%"});
    for (const sweep::RegionPoint &point : result.region) {
        const profile::RegionProfile &p = point.profile;
        double insts = static_cast<double>(p.totalInstructions);
        double loads_pct = 100.0 * p.dynamicLoads / insts;
        double stores_pct = 100.0 * p.dynamicStores / insts;
        page.row(point.workload,
                 {{workloads::workloadByName(point.workload).paperAnalog,
                   {}},
                  {format("%.1fM", insts / 1e6), {{"", insts}}},
                  num(loads_pct, 1), num(stores_pct, 1),
                  num(loads_pct + stores_pct, 1)});
    }
    page.line("paper: loads 14-32%, stores 6-22% of all instructions.");
    double fp = page.mean("Loads%", 1), integer = page.mean("Loads%", 0);
    page.claim("FP programs average a higher load share than integer "
               "programs",
               fp > integer,
               format("FP %.1f %% vs integer %.1f %%", fp, integer));
}

void
fig2(const Options &, const sweep::SweepResult &result, Page &page)
{
    page.header({"Benchmark", "D", "H", "S", "D/H", "D/S", "H/S",
                 "D/H/S", "multi(st)%", "multi(dyn)%", "S(static)%"});
    for (const sweep::RegionPoint &point : result.region) {
        const profile::RegionProfile &p = point.profile;
        std::vector<Cell> cells;
        for (std::uint64_t n : p.staticCounts)
            cells.push_back(num(n, 0));
        cells.push_back(num(p.staticMultiRegionPct(), 2));
        cells.push_back(num(p.dynamicMultiRegionPct(), 2));
        const std::uint64_t stack_only =
            p.staticCounts[static_cast<unsigned>(profile::RegionClass::S)];
        cells.push_back(num(
            p.staticTotal() ? 100.0 * stack_only / p.staticTotal() : 0.0,
            1));
        page.row(point.workload, std::move(cells));
    }
    page.line(format("average multi-region static instructions: integer "
                     "%.2f%%, FP %.2f%%  (paper: 1.8%% / 1.9%%)",
                     page.note("multi(st)%.int", page.mean("multi(st)%", 0)),
                     page.note("multi(st)%.fp", page.mean("multi(st)%", 1))));
    double stack = page.extreme("S(static)%").second;
    page.claim("stack-only instructions are more than 50 % of static "
               "memory instructions on every program",
               stack > 50.0, format("minimum %.1f %%", stack));
}

void
table2(const Options &, const sweep::SweepResult &result, Page &page)
{
    page.header({"Benchmark", "W32 Data", "W32 Heap", "W32 Stack",
                 "W64 Data", "W64 Heap", "W64 Stack"});
    for (const sweep::RegionPoint &point : result.region) {
        std::vector<Cell> cells;
        for (const profile::WindowStats *stats :
             {&point.window32, &point.window64}) {
            for (unsigned r = 0; r < 3; ++r) {
                double mean = stats->mean[r], sd = stats->stddev[r];
                cells.push_back(
                    {TablePrinter::meanSd(mean, sd) +
                         (stats->strictlyBursty(r) ? "*" : ""),
                     {{"", mean}, {"sd", sd}}});
            }
        }
        page.row(point.workload, std::move(cells));
    }
    page.average("Average", 1, 7, 2);
    page.line("paper averages: W32 D 4.79 H 1.77 S 4.77; "
              "W64 D 9.58 H 3.54 S 9.54");
    double data = page.at("Average", "W32 Data");
    double stack = page.at("Average", "W32 Stack");
    page.claim("the W32 data and stack averages lie within 10 % of the "
               "paper's 4.79 and 4.77",
               std::abs(data / 4.79 - 1.0) < 0.1 &&
                   std::abs(stack / 4.77 - 1.0) < 0.1,
               format("data %.2f, stack %.2f", data, stack));
}

void
fig4(const Options &, const sweep::SweepResult &result, Page &page)
{
    page.header(gridHeader(result, {"Benchmark", "addr-mode%"}));
    for (const sweep::RegionPoint &point : result.region) {
        std::vector<Cell> cells{num(
            point.schemes.front().second.addrModeResolvedPct(), 1)};
        for (const auto &scheme : point.schemes)
            cells.push_back(num(scheme.second.accuracyPct(), 3));
        page.row(point.workload, std::move(cells));
    }
    const std::size_t end = 2 + result.region.front().schemes.size();
    page.average("Int avg", 2, end, 3, 0);
    page.average("FP avg", 2, end, 3, 1);
    page.line("paper: 1BIT-HYBRID = 99.89% (int) / 100% (FP); 2-bit "
              "schemes consistently below 1-bit.");
    double int_avg = page.at("Int avg", "1BIT-HYBRID");
    double fp_avg = page.at("FP avg", "1BIT-HYBRID");
    page.claim("1BIT-HYBRID averages at least 99.89 % on both integer and "
               "FP programs",
               int_avg >= 99.89 && fp_avg >= 99.89,
               format("%.3f / %.3f", int_avg, fp_avg));
    double excess = page.largestExcess("2BIT-HYBRID", "1BIT-HYBRID");
    page.claim("2BIT-HYBRID is never above 1BIT-HYBRID on any program",
               excess <= 0.0, format("largest excess %+.3f points", excess));
}

void
table3(const Options &, const sweep::SweepResult &result, Page &page)
{
    page.header({"Benchmark", "PC-only", "w/ GBH", "w/ CID",
                 "w/ Hybrid"});
    for (const sweep::RegionPoint &point : result.region) {
        // Scheme 0 is STATIC, which has no table; 1BIT indexes by PC.
        auto occupancy = [&](std::size_t i) {
            return static_cast<double>(point.schemes[i].second.arptOccupancy);
        };
        double base = occupancy(1);
        std::vector<Cell> cells{num(base, 0)};
        for (std::size_t i = 2; i < point.schemes.size(); ++i) {
            double growth =
                base ? 100.0 * (occupancy(i) - base) / base : 0.0;
            cells.push_back(
                {format("%.0f (%+.0f%%)", occupancy(i), growth),
                 {{"", occupancy(i)}, {"growth_pct", growth}}});
        }
        page.row(point.workload, std::move(cells));
    }
    page.line("paper: hybrid indexing grows occupancy by 38%-336% over "
              "PC-only.");
    double growth = page.extreme("w/ Hybrid.growth_pct").second;
    page.claim("hybrid indexing grows occupancy over PC-only on every "
               "program",
               growth > 0.0, format("minimum %+.0f %%", growth));
}

// ---- Figure 5 and the context-bit ablation: limited ARPTs.

sweep::SchemeSpec
hybrid(std::string name, std::uint32_t entries, unsigned gbh,
       unsigned cid)
{
    sweep::SchemeSpec scheme{std::move(name), {}};
    scheme.config.useArpt = true;
    predict::ArptConfig &arpt = scheme.config.arpt;
    arpt.entries = entries;
    arpt.counterBits = 1;
    arpt.context.kind = gbh == 0 && cid == 0 ? predict::ContextKind::None
                                             : predict::ContextKind::Hybrid;
    arpt.context.gbhBits = gbh;
    arpt.context.cidBits = cid;
    return scheme;
}

/**
 * 1BIT-HYBRID at @p entries: unlimited (0) takes the paper's 8 GBH +
 * 24 CID bits; a limited table sizes its CID bits to the index, as
 * §4.3's 8 + 7 split does for 32K entries, since bits above
 * log2(entries) would fall to the index mask.
 */
sweep::SchemeSpec
sizedHybrid(std::uint32_t entries, bool hints)
{
    unsigned cid = 24;
    if (entries)
        cid = floorLog2(entries) > 8 ? floorLog2(entries) - 8 : 0;
    sweep::SchemeSpec scheme = hybrid(
        (entries ? std::to_string(entries / 1024) + "K" : "unlimited") +
            (hints ? "+hints" : ""),
        entries, 8, cid);
    scheme.config.useCompilerHints = hints;
    return scheme;
}

std::vector<sweep::SchemeSpec>
fig5Schemes()
{
    std::vector<sweep::SchemeSpec> schemes;
    for (bool hints : {false, true})
        for (std::uint32_t entries :
             {0u, 64u * 1024, 32u * 1024, 16u * 1024, 8u * 1024})
            schemes.push_back(sizedHybrid(entries, hints));
    return schemes;
}

std::vector<sweep::SchemeSpec>
contextSchemes()
{
    std::vector<sweep::SchemeSpec> schemes;
    for (auto [gbh, cid] : std::vector<std::pair<unsigned, unsigned>>{
             {0, 0}, {15, 0}, {0, 15}, {8, 7}, {4, 11}, {12, 3}, {8, 24}})
        schemes.push_back(hybrid(std::to_string(gbh) + "g+" +
                                     std::to_string(cid) + "c",
                                 32 * 1024, gbh, cid));
    return schemes;
}

/** One accuracy column per scheme. */
void
accuracyRows(const sweep::SweepResult &result, Page &page)
{
    page.header(gridHeader(result));
    for (const sweep::RegionPoint &point : result.region) {
        std::vector<Cell> cells;
        for (const auto &scheme : point.schemes)
            cells.push_back(num(scheme.second.accuracyPct(), 3));
        page.row(point.workload, std::move(cells));
    }
}

void
fig5(const Options &, const sweep::SweepResult &result, Page &page)
{
    accuracyRows(result, page);
    page.line("paper: >=99.9% at 32K entries (4 KB of state) without "
              "hints; hints flatten the size sensitivity.");
    const std::string sizes[] = {"unlimited", "64K", "32K", "16K", "8K"};
    double rise = -std::numeric_limits<double>::infinity(), gap = 0.0;
    for (int i = 1; i < 5; ++i) {
        rise = std::max(rise, page.largestExcess(sizes[i], sizes[i - 1]));
        gap = std::max({gap,
                        page.largestExcess(sizes[i] + "+hints",
                                           "unlimited+hints"),
                        page.largestExcess("unlimited+hints",
                                           sizes[i] + "+hints")});
    }
    page.claim("without hints, accuracy never rises as the table shrinks",
               rise <= 0.0,
               format("largest fall %.3f points",
                      page.largestExcess("unlimited", "8K")));
    page.claim("with hints, every table size matches the unlimited table "
               "on every program",
               gap == 0.0, format("largest gap %.3f points", gap));
}

void
contextBits(const Options &, const sweep::SweepResult &result, Page &page)
{
    accuracyRows(result, page);
    page.average("Average", 1, 1 + result.region.front().schemes.size(),
                 3);
    page.line("the pipeline of §4.3 uses 8 GBH + 7 CID bits.");
    auto avg = [&](const char *key) { return page.at("Average", key); };
    double split = std::min({avg("8g+7c"), avg("4g+11c"), avg("12g+3c")});
    double single = std::max({avg("0g+0c"), avg("15g+0c"), avg("0g+15c")});
    page.claim("every split of GBH and CID bits within the index beats "
               "no context, all-GBH and all-CID on average",
               split > single,
               format("worst split %.3f vs best single %.3f", split,
                      single));
}

// ---- The two per-workload passes.

void
fig6(const Options &opts, const sweep::SweepResult &, Page &page)
{
    page.header({"Benchmark", "mem insts", "fig6 tagged%",
                 "profile tagged%", "acc none", "acc fig6",
                 "acc profile"});
    const sweep::SchemeSpec plain = sizedHybrid(32 * 1024, false);
    const sweep::SchemeSpec hinted = sizedHybrid(32 * 1024, true);
    // Each program's row on the sweep's job pool, emitted in order.
    std::vector<std::vector<Cell>> rows(programs().size());
    const unsigned jobs = sweep::resolveJobs(opts.jobs);
    sweep::runJobs(rows.size(), jobs, [&](std::size_t i) {
        auto prog = programs()[i].build(opts.scale);
        // The static analysis needs only the binary; the profile
        // bound needs a training run.
        predict::StaticClassifier fig6_hints(*prog);
        predict::CompilerHints profile_hints = predict::profileHints(prog);
        predict::RegionPredictor none(plain.config);
        predict::RegionPredictor with_fig6(hinted.config, &fig6_hints);
        predict::RegionPredictor with_profile(hinted.config,
                                              &profile_hints);
        sim::Simulator simulator(prog);
        simulator.run(0, [&](const sim::StepInfo &step) {
            none.observe(step);
            with_fig6.observe(step);
            with_profile.observe(step);
        });
        double profile_tagged =
            profile_hints.staticInstructions()
                ? 100.0 * profile_hints.classifiedInstructions() /
                      profile_hints.staticInstructions()
                : 0.0;
        rows[i] = {num(fig6_hints.memInstructions(), 0),
                   num(fig6_hints.coveragePct(), 1), num(profile_tagged, 1),
                   num(none.report().accuracyPct(), 3),
                   num(with_fig6.report().accuracyPct(), 3),
                   num(with_profile.report().accuracyPct(), 3)};
    });
    for (std::size_t i = 0; i < rows.size(); ++i)
        page.row(programs()[i].name, std::move(rows[i]));
    page.line("paper (§3.5.2): \"although a real compiler will produce "
              "more unknown cases, the quality ... will be close to the "
              "profile information\".");
    page.line("note: profile tagged% counts dynamically-executed static "
              "instructions; fig6 covers all memory instructions in the "
              "binary.");
    double gap = std::max(page.largestExcess("acc fig6", "acc profile"),
                          page.largestExcess("acc profile", "acc fig6"));
    page.claim("Figure-6 hints come within 0.001 points of profile hints "
               "on every program",
               gap <= 0.001, format("largest gap %.4f points", gap));
}

void
stackCache(const Options &opts, const sweep::SweepResult &, Page &page)
{
    const std::uint32_t sizes[] = {1024, 2048, 4096, 8192, 16384};
    std::vector<std::string> head{"Benchmark", "stack refs"};
    for (std::uint32_t size : sizes)
        head.push_back(std::to_string(size / 1024) + "KB");
    page.header(head);
    std::vector<std::vector<Cell>> rows(programs().size());
    const unsigned jobs = sweep::resolveJobs(opts.jobs);
    sweep::runJobs(rows.size(), jobs, [&](std::size_t i) {
        std::vector<cache::Cache> caches;
        for (std::uint32_t size : sizes)
            caches.emplace_back(cache::CacheGeometry{"LVC", size, 32, 1});
        sim::Simulator simulator(programs()[i].build(opts.scale));
        std::uint64_t stack_refs = 0;
        simulator.run(0, [&](const sim::StepInfo &step) {
            if (!step.isMem || step.region != vm::Region::Stack)
                return;
            ++stack_refs;
            for (cache::Cache &lvc : caches)
                lvc.access(step.effAddr, !step.isLoad);
        });
        rows[i] = {num(stack_refs, 0)};
        for (const cache::Cache &lvc : caches)
            rows[i].push_back(num(lvc.hitRatePct(), 3));
    });
    for (std::size_t i = 0; i < rows.size(); ++i)
        page.row(programs()[i].name, std::move(rows[i]));
    page.line(format("4KB stack cache: average %.3f%%, minimum %.3f%% "
                     "(paper: avg ~99.9%%, all >99.5%%)",
                     page.note("4KB.average", page.mean("4KB")),
                     page.note("4KB.minimum", page.extreme("4KB").second)));
    double low = page.extreme("4KB").second;
    page.claim("the 4 KB cache hits more than 99.5 % on every program",
               low > 99.5, format("minimum %.3f %%", low));
}

// ---- Figure 8 and the timing ablations.

void
fig8(const Options &opts, const sweep::SweepResult &result, Page &page)
{
    page.line(format("timed instructions per run: %llu",
                     static_cast<unsigned long long>(opts.insts)));
    page.line("");
    std::vector<std::string> head = gridHeader(result);
    head.insert(head.end(), {"LVC hit%", "regmis/1K"});
    page.header(head);
    for (std::size_t wi = 0; wi < programs().size(); ++wi) {
        double base = cycles(result.at(wi, 0).stats);
        std::vector<Cell> cells;
        double lvc_hit = 0.0, regmis_per_k = 0.0;
        for (std::size_t ci = 0; ci < result.numConfigs; ++ci) {
            const ooo::OooStats &stats = result.at(wi, ci).stats;
            cells.push_back(num(base / cycles(stats), 3));
            if (result.at(wi, ci).config != "(3+3)")
                continue;
            std::uint64_t lvc_total = stats.lvcHits + stats.lvcMisses;
            lvc_hit = lvc_total ? 100.0 * stats.lvcHits / lvc_total : 0.0;
            regmis_per_k = 1000.0 *
                           static_cast<double>(stats.regionMispredictions) /
                           static_cast<double>(stats.instructions);
        }
        cells.push_back(num(lvc_hit, 2));
        cells.push_back(num(regmis_per_k, 2));
        page.row(programs()[wi].name, std::move(cells));
    }
    page.average("Int avg", 1, 1 + result.numConfigs, 3, 0);
    page.average("FP avg", 1, 1 + result.numConfigs, 3, 1);
    page.line("paper (relative to (2+0)): int avg — (3+0)2cyc 1.21, "
              "(3+0)3cyc 1.18, (4+0)3cyc 1.25, (3+3) ~= (16+0) 1.33; FP "
              "avg — (3+0) 1.14, (4+0) 1.20, (3+3) close to (4+0), "
              "(16+0) 1.25.");
    std::string a = TablePrinter::num(page.at("FP avg", "(2+3)"), 3);
    std::string b = TablePrinter::num(page.at("FP avg", "(2+2)"), 3);
    page.claim("the FP (2+3) and (2+2) averages match to three digits",
               a == b, a + " vs " + b);
    double low = page.at("FP avg", "(3+0)");
    double mid = page.at("FP avg", "(3+3)");
    double high = page.at("FP avg", "(4+0)/3cyc");
    page.claim("the FP (3+3) average lies between (3+0) and (4+0)/3cyc",
               low < mid && mid < high,
               format("%.3f < %.3f < %.3f", low, mid, high));
    auto [top, best] = page.extreme("(3+3)", true);
    page.claim("vortex_like has the largest (3+3) speedup",
               top == "vortex_like", format("%s at %.3f", top.c_str(), best));
}

/** Each base config, then its variant "<name><suffix>" by @p change. */
std::vector<ooo::MachineConfig>
withVariants(std::vector<ooo::MachineConfig> bases, const char *suffix,
             void (*change)(ooo::MachineConfig &))
{
    std::vector<ooo::MachineConfig> configs;
    for (ooo::MachineConfig &config : bases) {
        configs.push_back(config);
        config.name += suffix;
        change(config);
        configs.push_back(config);
    }
    return configs;
}

/** Percent by which config @p slow takes more cycles than @p fast. */
double
gainPct(const sweep::SweepResult &result, std::size_t wi,
        std::size_t fast, std::size_t slow)
{
    return 100.0 * (cycles(result.at(wi, slow).stats) /
                        cycles(result.at(wi, fast).stats) -
                    1.0);
}

double
ipc(const sweep::SweepResult &result, std::size_t wi, std::size_t ci)
{
    return result.at(wi, ci).stats.ipc();
}

void
branchPrediction(const Options &, const sweep::SweepResult &result,
                 Page &page)
{
    page.header({"Benchmark", "(2+0)", "(2+0)gshare", "(3+3)",
                 "(3+3)gshare", "decoup.gain perfect",
                 "decoup.gain gshare", "bp miss/1K"});
    for (std::size_t wi = 0; wi < programs().size(); ++wi) {
        const ooo::OooStats &gshare = result.at(wi, 1).stats;
        double gain_perfect = cycles(result.at(wi, 0).stats) /
                              cycles(result.at(wi, 2).stats);
        double gain_gshare = cycles(gshare) / cycles(result.at(wi, 3).stats);
        double miss_per_k = gshare.instructions
                                ? 1000.0 * gshare.branchMispredicts /
                                      gshare.instructions
                                : 0.0;
        page.row(programs()[wi].name,
                 {num(ipc(result, wi, 0)), num(ipc(result, wi, 1)),
                  num(ipc(result, wi, 2)), num(ipc(result, wi, 3)),
                  num(gain_perfect, 3), num(gain_gshare, 3),
                  num(miss_per_k, 2)});
    }
    page.line(format(
        "average decoupling speedup: %.3fx perfect front end, %.3fx "
        "gshare front end",
        page.note("decoup.gain perfect", page.mean("decoup.gain perfect")),
        page.note("decoup.gain gshare", page.mean("decoup.gain gshare"))));
    double perfect = page.at("summary", "decoup.gain perfect");
    double gshare = page.at("summary", "decoup.gain gshare");
    page.claim("the average decoupling speedup under gshare is within "
               "1 % of the perfect front end's",
               std::abs(gshare / perfect - 1.0) < 0.01,
               format("%.3fx vs %.3fx", perfect, gshare));
}

double
l1HitPct(const ooo::OooStats &stats)
{
    std::uint64_t total = stats.l1Hits + stats.l1Misses;
    return total ? 100.0 * stats.l1Hits / total : 0.0;
}

void
cacheSize(const Options &, const sweep::SweepResult &result, Page &page)
{
    page.header({"Benchmark", "64KB IPC", "128KB IPC", "speedup%",
                 "64KB L1 hit%", "128KB L1 hit%"});
    for (std::size_t wi = 0; wi < programs().size(); ++wi)
        page.row(programs()[wi].name,
                 {num(ipc(result, wi, 0)), num(ipc(result, wi, 1)),
                  num(gainPct(result, wi, 1, 0), 2),
                  num(l1HitPct(result.at(wi, 0).stats), 2),
                  num(l1HitPct(result.at(wi, 1).stats), 2)});
    double gain = page.note("speedup%", page.mean("speedup%"));
    page.line(format("average speedup from doubling the cache: %.2f%% "
                     "(paper: <1%%)",
                     gain));
    page.claim("the 128 KB L1 gains less than 1 % on average", gain < 1.0,
               format("%.2f %%", gain));
}

void
fastForwarding(const Options &, const sweep::SweepResult &result,
               Page &page)
{
    page.header({"Benchmark", "FF IPC", "noFF IPC", "FF speedup%",
                 "fast-forwarded loads"});
    for (std::size_t wi = 0; wi < programs().size(); ++wi)
        page.row(programs()[wi].name,
                 {num(ipc(result, wi, 0)), num(ipc(result, wi, 1)),
                  num(gainPct(result, wi, 0, 1), 2),
                  num(result.at(wi, 0).stats.fastForwardedLoads, 0)});
    auto [top, gain] = page.extreme("FF speedup%", true);
    page.claim("vortex_like, the most stack-heavy program, gains the most "
               "from fast forwarding",
               top == "vortex_like",
               format("%s at %.2f %%", top.c_str(), gain));
}

std::vector<ooo::MachineConfig>
penaltyConfigs()
{
    std::vector<ooo::MachineConfig> configs;
    for (unsigned penalty : {1u, 3u, 7u, 15u}) {
        configs.push_back(ooo::MachineConfig::nPlusM(3, 3));
        configs.back().name = "penalty " + std::to_string(penalty);
        configs.back().regionMispredictPenalty = penalty;
    }
    return configs;
}

void
mispredictPenalty(const Options &, const sweep::SweepResult &result,
                  Page &page)
{
    page.header(gridHeader(result, {"Benchmark", "regmis/1K"}));
    for (std::size_t wi = 0; wi < programs().size(); ++wi) {
        const ooo::OooStats &first = result.at(wi, 0).stats;
        std::vector<Cell> cells{
            num(1000.0 * static_cast<double>(first.regionMispredictions) /
                    static_cast<double>(first.instructions),
                2)};
        for (std::size_t ci = 0; ci < result.numConfigs; ++ci)
            cells.push_back(
                num(cycles(first) / cycles(result.at(wi, ci).stats), 4));
        page.row(programs()[wi].name, std::move(cells));
    }
    double loss = 100.0 * (1.0 - page.mean("penalty 15"));
    page.claim("a 15-cycle penalty costs less than 1 % on the suite "
               "average",
               loss < 1.0, format("%.2f %%", loss));
}

void
valuePrediction(const Options &, const sweep::SweepResult &result,
                Page &page)
{
    page.header({"Benchmark", "(2+0)+VP", "(2+0)noVP", "VP gain%",
                 "(3+3)+VP", "(3+3)noVP", "VP gain%"});
    page.rename(3, "(2+0) VP gain%");
    page.rename(6, "(3+3) VP gain%");
    for (std::size_t wi = 0; wi < programs().size(); ++wi)
        page.row(programs()[wi].name,
                 {num(ipc(result, wi, 0)), num(ipc(result, wi, 1)),
                  num(gainPct(result, wi, 0, 1), 2),
                  num(ipc(result, wi, 2)), num(ipc(result, wi, 3)),
                  num(gainPct(result, wi, 2, 3), 2)});
    page.line(format(
        "average VP gain: %.2f%% at (2+0), %.2f%% at (3+3) (Lipasti et "
        "al.: 3-6%% on comparable models)",
        page.note("(2+0) VP gain%", page.mean("(2+0) VP gain%")),
        page.note("(3+3) VP gain%", page.mean("(3+3) VP gain%"))));
    double base = page.at("summary", "(2+0) VP gain%");
    double decoupled = page.at("summary", "(3+3) VP gain%");
    page.claim("stride value prediction moves the suite average by less "
               "than 1 % at (2+0) and at (3+3)",
               std::abs(base) < 1.0 && std::abs(decoupled) < 1.0,
               format("%+.2f %% / %+.2f %%", base, decoupled));
}

const std::vector<Figure> &
figureTable()
{
    static const std::vector<Figure> figures = {
        {"table1_workloads", "Table 1",
         "workload inputs, instruction counts, and load/store mix", {},
         fig4Schemes(false), table1},
        {"fig2_region_classes", "Figure 2",
         "static memory instructions by accessed region set", {},
         fig4Schemes(false), fig2},
        {"table2_interleaving", "Table 2",
         "region access interleaving in 32/64-instruction sliding windows "
         "('*' = strictly bursty)",
         {}, fig4Schemes(false), table2},
        {"fig4_prediction", "Figure 4",
         "dynamic stack/non-stack classification accuracy by scheme "
         "(unlimited ARPT)",
         {}, fig4Schemes(true), fig4},
        {"table3_arpt_entries", "Table 3",
         "entries occupied in an unlimited ARPT by indexing context", {},
         fig4Schemes(false), table3},
        {"fig5_arpt_size", "Figure 5",
         "1BIT-HYBRID accuracy vs ARPT size, with and without compiler "
         "hints",
         {}, fig5Schemes(), fig5},
        {"fig6_static_analysis", "Figure 6",
         "static compiler classification vs the profile upper bound (32K "
         "1BIT-HYBRID)",
         {}, {}, fig6},
        {"stack_cache_hitrate", "§3.3 / LVC sizing",
         "hit rate of a direct-mapped stack (local variable) cache vs "
         "capacity",
         {}, {}, stackCache},
        {"fig8_decoupling", "Figure 8",
         "relative performance of (N+M) memory configurations (N D-cache "
         "ports + M LVC ports)",
         ooo::MachineConfig::figure8Suite(), {}, fig8},
        {"ablation_branch_prediction", "Ablation",
         "perfect vs gshare front end, (2+0) and (3+3)",
         withVariants({ooo::MachineConfig::nPlusM(2, 0),
                       ooo::MachineConfig::nPlusM(3, 3)},
                      "/gshare",
                      [](ooo::MachineConfig &config) {
                          config.perfectBranchPrediction = false;
                      }),
         {}, branchPrediction},
        {"ablation_cache_size", "Ablation (§4.4)",
         "64 KB vs 128 KB L1 under the (2+0) baseline",
         withVariants({ooo::MachineConfig::nPlusM(2, 0)}, "/128KB",
                      [](ooo::MachineConfig &config) {
                          config.hierarchy.l1.sizeBytes = 128 * 1024;
                      }),
         {}, cacheSize},
        {"ablation_fast_forwarding", "Ablation",
         "LVAQ fast forwarding on/off at (3+3)",
         withVariants({ooo::MachineConfig::nPlusM(3, 3)}, "/noFF",
                      [](ooo::MachineConfig &config) {
                          config.fastForwarding = false;
                      }),
         {}, fastForwarding},
        {"ablation_mispredict_penalty", "Ablation",
         "region-misprediction penalty sweep at (3+3)", penaltyConfigs(),
         {}, mispredictPenalty},
        {"ablation_context_bits", "Ablation",
         "hybrid context bit split in a 32K-entry ARPT", {},
         contextSchemes(), contextBits},
        {"ablation_value_prediction", "Ablation",
         "stride value prediction on/off",
         withVariants({ooo::MachineConfig::nPlusM(2, 0),
                       ooo::MachineConfig::nPlusM(3, 3)},
                      "/noVP",
                      [](ooo::MachineConfig &config) {
                          config.valuePrediction = false;
                      }),
         {}, valuePrediction},
    };
    return figures;
}

} // namespace

std::vector<std::string>
names()
{
    std::vector<std::string> all;
    for (const Figure &figure : figureTable())
        all.push_back(figure.name);
    return all;
}

Outcome
run(const std::string &name, const Options &opts, GridCache &grids)
{
    const Figure *figure = nullptr;
    for (const Figure &candidate : figureTable())
        if (candidate.name == name)
            figure = &candidate;
    if (!figure)
        fatal("figure: no figure named '%s'", name.c_str());
    const bool grid = !figure->configs.empty() || !figure->schemes.empty();
    // A config or scheme name identifies it in every report, so equal
    // names make an equal grid.  A figure without a grid renders from
    // an empty result.
    std::string key;
    for (const ooo::MachineConfig &config : figure->configs)
        key += "config:" + config.name + "\n";
    for (const sweep::SchemeSpec &scheme : figure->schemes)
        key += "scheme:" + scheme.name + "\n";
    auto [cached, fresh] = grids.try_emplace(key);
    if (fresh && grid) {
        sweep::SweepSpec spec;
        spec.workloads = sweep::allWorkloadSpecs(
            opts.scale, figure->configs.empty() ? 0 : opts.insts);
        spec.configs = figure->configs;
        spec.schemes = figure->schemes;
        spec.jobs = opts.jobs;
        cached->second = sweep::runSweep(spec);
    }
    const sweep::SweepResult &result = cached->second;
    Page page;
    figure->render(opts, result, page);
    Outcome outcome;
    outcome.verdicts = page.verdicts();
    for (const std::string &verdict : outcome.verdicts)
        outcome.failed += verdict.rfind("FAIL", 0) == 0;
    page.note("claims.passed", outcome.verdicts.size() - outcome.failed);
    page.note("claims.failed", outcome.failed);

    const std::string rule(62, '=');
    outcome.text = rule + "\n" + figure->title + " — " +
                   figure->description + "\n" +
                   format("workload scale: %u (paper ran full SPEC95 "
                          "inputs; see DESIGN.md)\n",
                          opts.scale) +
                   rule + "\n" + page.render();
    if (grid) {
        outcome.text += format("sweep engine: jobs %u, wall %.2fs, est. "
                               "serial %.2fs, speedup %.2fx\n",
                               result.jobs, result.wallSeconds,
                               result.serialSecondsEstimate,
                               result.speedup());
        obs::Report report = result.toReport("figure");
        for (obs::RunRecord &record : report.runs) {
            record.config = name + ":" + record.config;
            outcome.runs.push_back(std::move(record));
        }
    }
    for (const std::string &verdict : outcome.verdicts)
        outcome.text += verdict + "\n";
    for (obs::RunRecord record : page.rows()) {
        record.config = name;
        outcome.runs.push_back(std::move(record));
    }
    return outcome;
}

} // namespace arl::figures
