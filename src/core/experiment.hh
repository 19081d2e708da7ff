/**
 * @file
 * Public facade of the arl library.
 *
 * Most users want one of two things:
 *
 *  - a *region study* (paper §3): run a program functionally and
 *    collect the per-instruction region classification, the
 *    sliding-window interleaving statistics, and the accuracy of a
 *    set of region-prediction schemes;
 *
 *  - a *timing study* (paper §4): run a program through the
 *    out-of-order data-decoupled core under one or more machine
 *    configurations and compare cycle counts.
 *
 * Experiment wraps both behind a small API so examples stay
 * one-screen programs; grids of either run through sweep::runSweep.
 * Everything underneath is reachable directly (sim::Simulator,
 * predict::RegionPredictor, ooo::OooCore) when finer control is
 * needed.
 */

#ifndef ARL_CORE_EXPERIMENT_HH
#define ARL_CORE_EXPERIMENT_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ooo/config.hh"
#include "ooo/core.hh"
#include "predict/compiler_hints.hh"
#include "predict/region_predictor.hh"
#include "sweep/sweep.hh"
#include "vm/program.hh"

namespace arl::obs
{
struct Hooks;
}

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

/** Results of one timing configuration. */
using TimingResult = ooo::OooStats;

/** Facade over the functional and timing simulators. */
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

    /**
     * Run the §4 timing methodology for one machine configuration.
     *
     * @param warmup_insts functional fast-forward before timing.
     * @param max_insts timed instruction budget (0 = to completion).
     * @param hooks optional observability context: the core registers
     *        its stats into @p hooks->registry, (re)starts interval
     *        sampling after warmup, and emits pipeline-trace events
     *        when the hooks carry a tracer.
     * @param step_source optional committed-stream source (e.g. a
     *        trace::ReplaySource); null embeds a live functional
     *        simulator.  Timing is bit-identical either way.
     * @param warmup_window warm microarchitectural state only from
     *        the last N fast-forward instructions (0 = all; see
     *        OooCore::warmup).  The sweep engine combines this with
     *        trace checkpoints for seek-based fast-forward.
     */
    TimingResult timingStudy(
        const ooo::MachineConfig &config, InstCount warmup_insts = 0,
        InstCount max_insts = 0, obs::Hooks *hooks = nullptr,
        std::shared_ptr<sim::StepSource> step_source = nullptr,
        InstCount warmup_window = 0) const;

    /** timingStudy over a set of configurations. */
    std::vector<TimingResult>
    timingSweep(const std::vector<ooo::MachineConfig> &configs,
                InstCount warmup_insts = 0,
                InstCount max_insts = 0) const;

    /** Build profile-based compiler hints (one functional pass). */
    predict::CompilerHints buildHints(InstCount max_insts = 0) const;

    /** The program under study. */
    const vm::Program &program() const { return *prog; }

  private:
    std::shared_ptr<const vm::Program> prog;
};

} // namespace arl::core

#endif // ARL_CORE_EXPERIMENT_HH
