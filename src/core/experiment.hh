/**
 * @file
 * Public facade of the arl library.
 *
 * Most users want one of two things:
 *
 *  - a *region study* (paper §3): run a program functionally and
 *    collect the per-instruction region classification, the
 *    sliding-window interleaving statistics, and the accuracy of a
 *    set of region-prediction schemes — Experiment::regionStudy, or
 *    a sweep::SweepSpec with schemes for a grid;
 *
 *  - a *timing study* (paper §4): run a program through the
 *    out-of-order data-decoupled core under one or more machine
 *    configurations and compare cycle counts — a sweep::SweepSpec
 *    with configs, run by sweep::runSweep (one row for one program).
 *
 * This header adds the scheme sets and the one-program region study
 * so examples stay one-screen programs.  Everything underneath is
 * reachable directly (sim::Simulator, predict::RegionPredictor,
 * ooo::OooCore) when finer control is needed.
 */

#ifndef ARL_CORE_EXPERIMENT_HH
#define ARL_CORE_EXPERIMENT_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "predict/compiler_hints.hh"
#include "predict/region_predictor.hh"
#include "sweep/sweep.hh"
#include "vm/program.hh"

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

/** Results of a region study (the sweep engine's region row). */
using RegionStudyResult = sweep::RegionPoint;

/** Facade over one program's functional simulation. */
class Experiment
{
  public:
    /**
     * @param program the guest program to study (from the workload
     *        registry, the ProgramBuilder, or the assembler).
     */
    explicit Experiment(std::shared_ptr<const vm::Program> program);

    /**
     * Run the §3 profiling methodology: one functional pass feeding
     * the region/window profilers and every scheme in @p schemes
     * (sweep::runRegionPass over a live simulator).
     *
     * @param use_hints when true, a prior profiling pass builds
     *        compiler hints (§3.5.2) and every scheme consults them.
     * @param max_insts optional instruction cap (0 = to completion).
     */
    RegionStudyResult regionStudy(const std::vector<NamedScheme> &schemes,
                                  bool use_hints = false,
                                  InstCount max_insts = 0);

    /** Build profile-based compiler hints (one functional pass). */
    predict::CompilerHints buildHints(InstCount max_insts = 0) const;

    /** The program under study. */
    const vm::Program &program() const { return *prog; }

  private:
    std::shared_ptr<const vm::Program> prog;
};

} // namespace arl::core

#endif // ARL_CORE_EXPERIMENT_HH
