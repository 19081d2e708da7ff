/**
 * @file
 * The paper's predictor scheme sets, named for the figures and tools.
 *
 * Most users want one of two things:
 *
 *  - a *region study* (paper §3): one functional pass feeds the
 *    region profiler, the sliding-window interleaving statistics and
 *    a set of region-prediction schemes — sweep::runRegionPass over
 *    any sim::StepSource for one program, or a sweep::SweepSpec with
 *    schemes for a grid;
 *
 *  - a *timing study* (paper §4): run a program through the
 *    out-of-order data-decoupled core under one or more machine
 *    configurations and compare cycle counts — a sweep::SweepSpec
 *    with configs, run by sweep::runSweep (one row for one program).
 *
 * This header names the schemes both kinds of grid take: Figure 4's
 * five and the 2-bit variants.  Everything underneath is reachable
 * directly (sim::Simulator, predict::RegionPredictor, ooo::OooCore)
 * when finer control is needed.
 */

#ifndef ARL_CORE_EXPERIMENT_HH
#define ARL_CORE_EXPERIMENT_HH

#include <string>
#include <vector>

#include "predict/region_predictor.hh"
#include "sweep/sweep.hh"

namespace arl::core
{

/** A named predictor scheme for a region study. */
struct NamedScheme
{
    std::string name;
    predict::RegionPredictorConfig config;
};

/**
 * The five schemes evaluated in Figure 4: STATIC, 1BIT, 1BIT-GBH,
 * 1BIT-CID, and 1BIT-HYBRID, all with an unlimited ARPT.
 */
std::vector<NamedScheme> figure4Schemes();

/** NamedSchemes as a sweep-engine scheme grid. */
std::vector<sweep::SchemeSpec>
toSweepSchemes(const std::vector<NamedScheme> &schemes);

/** The 2-bit variants (§3.4.1 footnote: consistently inferior). */
std::vector<NamedScheme> twoBitSchemes();

} // namespace arl::core

#endif // ARL_CORE_EXPERIMENT_HH
