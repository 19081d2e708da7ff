/**
 * @file
 * The paper's tables and figures (Tables 1-3, Figures 2, 4, 5, 6 and
 * 8, §3.3, §4.4 and the ablations) as one table of specs, each with
 *
 *  - a grid over the twelve registry workloads, timing configs or
 *    predictor schemes, that sweep::runSweep runs (the two figures no
 *    grid expresses run a per-workload pass in their renderer);
 *  - a renderer that prints the table and its "paper:" footer onto a
 *    page that keeps every number it prints;
 *  - claims: predicates over those numbers, printed PASS or FAIL.
 *
 * `arl_sim figure <name|all>` runs them: spec -> sweep -> render ->
 * check.
 */

#ifndef ARL_FIGURES_FIGURES_HH
#define ARL_FIGURES_FIGURES_HH

#include <map>
#include <string>
#include <vector>

#include "obs/report.hh"
#include "sweep/sweep.hh"

namespace arl::figures
{

/** Run-wide knobs: `arl_sim sweep`'s flags of the same names. */
struct Options
{
    unsigned scale = 1;
    /** Timed instructions per timing point. */
    InstCount insts = 400000;
    /** Sweep worker threads (0 = every core). */
    unsigned jobs = 1;
    std::string traceCacheDir;
};

/** What running one figure produced. */
struct Outcome
{
    /** Banner, table, footer, sweep meter, then the verdicts. */
    std::string text;
    /** One "PASS  <claim> (<numbers>)" or "FAIL  ..." per claim. */
    std::vector<std::string> verdicts;
    unsigned failed = 0;
    /**
     * The report records: the grid's sweep report with each config
     * prefixed "<figure>:", then one record per table row (config
     * "<figure>", workload = the row label, one stat per printed
     * number) and a "summary" row of footer numbers.
     */
    std::vector<obs::RunRecord> runs;
};

/**
 * Grid results kept for reuse across the figures of one run, keyed
 * by the grid's config and scheme names: Tables 1-3 and Figure 2 all
 * read the same Figure-4 region grid.
 */
using GridCache = std::map<std::string, sweep::SweepResult>;

/** Every figure's name, in the paper's order. */
std::vector<std::string> names();

/**
 * Run the figure named @p name (one of names()).  A grid already in
 * @p grids (run earlier under the same @p opts) is reused; a new one
 * is kept there for the figures after it.
 */
Outcome run(const std::string &name, const Options &opts,
            GridCache &grids);

} // namespace arl::figures

#endif // ARL_FIGURES_FIGURES_HH
