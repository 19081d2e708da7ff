/**
 * @file
 * The complete stack/non-stack region prediction mechanism of §3.4:
 * compiler hints (optional) → addressing-mode rules → ARPT.
 *
 * Resolution order for one dynamic memory reference:
 *  1. If compiler hints are enabled and the instruction carries a
 *     conclusive tag, the tag is the prediction; the ARPT is neither
 *     consulted nor trained (saving table space, §3.5.2).
 *  2. If the addressing mode is conclusive ($sp/$fp => stack; $gp or
 *     constant => non-stack), that is the prediction; again the ARPT
 *     is bypassed and not trained ("these instructions are not
 *     recorded", §3.4.1).
 *  3. Otherwise the ARPT predicts, and is trained with the actual
 *     region once the address resolves.  A cold entry predicts
 *     non-stack (rule 4's default).
 *
 * The STATIC scheme of Figure 4 is this mechanism with the ARPT
 * disabled (rule 4's fixed prediction stands in).
 */

#ifndef ARL_PREDICT_REGION_PREDICTOR_HH
#define ARL_PREDICT_REGION_PREDICTOR_HH

#include <array>
#include <cstdint>
#include <memory>

#include "isa/addr_mode.hh"
#include "predict/arpt.hh"
#include "predict/compiler_hints.hh"
#include "sim/step_info.hh"

namespace arl::obs
{
class StatsRegistry;
}

namespace arl::predict
{

/** Where a prediction came from. */
enum class PredictionSource : std::uint8_t
{
    CompilerHint = 0,
    AddrMode,
    Arpt,
    NumSources
};

constexpr unsigned NumPredictionSources =
    static_cast<unsigned>(PredictionSource::NumSources);

/** Lower-case source name ("hint", "addr_mode", "arpt"). */
const char *predictionSourceName(PredictionSource source);

/** Predictor configuration. */
struct RegionPredictorConfig
{
    ArptConfig arpt{};
    /** false = the STATIC scheme (addressing-mode rules only). */
    bool useArpt = true;
    /** Consult profile-derived compiler tags first. */
    bool useCompilerHints = false;
};

/** Accuracy accounting over a run. */
struct PredictorReport
{
    std::uint64_t total = 0;
    std::uint64_t correct = 0;
    std::array<std::uint64_t, NumPredictionSources> totalBySource{};
    std::array<std::uint64_t, NumPredictionSources> correctBySource{};
    std::size_t arptOccupancy = 0;

    /** Overall correct-classification percentage (Fig 4/5 metric). */
    double
    accuracyPct() const
    {
        return total ? 100.0 * static_cast<double>(correct) /
                           static_cast<double>(total)
                     : 100.0;
    }

    /** Share of dynamic refs resolved by the addressing mode alone. */
    double
    addrModeResolvedPct() const
    {
        auto index = static_cast<unsigned>(PredictionSource::AddrMode);
        return total ? 100.0 * static_cast<double>(totalBySource[index]) /
                           static_cast<double>(total)
                     : 0.0;
    }

    /** Share of dynamic refs resolved by compiler hints. */
    double
    hintResolvedPct() const
    {
        auto index = static_cast<unsigned>(PredictionSource::CompilerHint);
        return total ? 100.0 * static_cast<double>(totalBySource[index]) /
                           static_cast<double>(total)
                     : 0.0;
    }

    /**
     * Share of dynamic refs that fell through to the ARPT (rule 4).
     * Computed from the ARPT's own per-source tally — NOT as
     * 100 − hints − addr-mode, which would fold the rounding error
     * of the other shares into this one.
     */
    double
    arptResolvedPct() const
    {
        auto index = static_cast<unsigned>(PredictionSource::Arpt);
        return total ? 100.0 * static_cast<double>(totalBySource[index]) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/** Combined hint + addressing-mode + ARPT predictor. */
class RegionPredictor
{
  public:
    /**
     * @param hints required iff config.useCompilerHints; the caller
     *              keeps ownership (one hint set is shared by many
     *              predictor configurations in a region pass).
     */
    explicit RegionPredictor(const RegionPredictorConfig &config,
                             const HintSource *hints = nullptr);

    /**
     * Predict, verify, train and account one functional-simulator
     * step: the reference is resolved once, and only an
     * ARPT-resolved one probes (and trains) the table, once.
     * Ignores non-memory steps.
     */
    void
    observe(const sim::StepInfo &step)
    {
        if (step.isMem)
            observe(step, isa::classifyAddrMode(step.inst));
    }

    /**
     * observe() of a memory step whose addressing mode the caller
     * classified once for every scheme (a region pass).
     */
    void observe(const sim::StepInfo &step, isa::AddrModeHint mode);

    /** Accuracy/occupancy summary of everything observed. */
    PredictorReport report() const;

    /** The underlying table (valid only when useArpt). */
    const Arpt &arpt() const { return *table; }

    /** The configuration in force. */
    const RegionPredictorConfig &configuration() const { return config; }

    /**
     * Register accuracy accounting under "<prefix>.": totals,
     * correct counts, per-source tallies
     * ("<prefix>.by_source.arpt.total", ...), accuracy/resolved
     * formulas, and (when enabled) the ARPT's own stats under
     * "<prefix>.arpt".
     */
    void registerStats(obs::StatsRegistry &registry,
                       const std::string &prefix) const;

  private:
    RegionPredictorConfig config;
    const HintSource *hints;
    std::unique_ptr<Arpt> table;

    // Accounting.
    std::uint64_t total = 0;
    std::uint64_t correct = 0;
    std::array<std::uint64_t, NumPredictionSources> totalBySource{};
    std::array<std::uint64_t, NumPredictionSources> correctBySource{};
};

} // namespace arl::predict

#endif // ARL_PREDICT_REGION_PREDICTOR_HH
