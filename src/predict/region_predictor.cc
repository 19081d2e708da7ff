#include "predict/region_predictor.hh"

#include "common/logging.hh"
#include "obs/stats_registry.hh"
#include "vm/layout.hh"

namespace arl::predict
{

const char *
predictionSourceName(PredictionSource source)
{
    switch (source) {
      case PredictionSource::CompilerHint: return "hint";
      case PredictionSource::AddrMode: return "addr_mode";
      case PredictionSource::Arpt: return "arpt";
      case PredictionSource::NumSources: break;
    }
    return "unknown";
}

RegionPredictor::RegionPredictor(const RegionPredictorConfig &config_in,
                                 const HintSource *hints_in)
    : config(config_in), hints(hints_in)
{
    if (config.useCompilerHints && !hints)
        fatal("RegionPredictor: compiler hints enabled but none supplied");
    if (config.useArpt)
        table = std::make_unique<Arpt>(config.arpt);
}

void
RegionPredictor::observe(const sim::StepInfo &step, isa::AddrModeHint mode)
{
    const bool actual_stack = (step.region == vm::Region::Stack);
    // A conclusive hint, then a conclusive addressing mode, then the
    // ARPT, which alone trains.  Without an ARPT (the STATIC scheme)
    // rule 4's fixed prediction stands: non-stack.
    PredictionSource source = PredictionSource::Arpt;
    bool stack = false;
    const HintTag tag =
        config.useCompilerHints ? hints->tag(step.pc) : HintTag::Unknown;
    if (tag != HintTag::Unknown) {
        source = PredictionSource::CompilerHint;
        stack = (tag == HintTag::Stack);
    } else if (isa::isConclusive(mode)) {
        source = PredictionSource::AddrMode;
        stack = isa::hintSaysStack(mode);
    } else if (table) {
        stack = table->predictAndUpdate(step.pc, step.gbh, step.cid,
                                        actual_stack);
    }
    ++total;
    auto source_index = static_cast<unsigned>(source);
    ++totalBySource[source_index];
    if (stack == actual_stack) {
        ++correct;
        ++correctBySource[source_index];
    }
}

PredictorReport
RegionPredictor::report() const
{
    PredictorReport out;
    out.total = total;
    out.correct = correct;
    out.totalBySource = totalBySource;
    out.correctBySource = correctBySource;
    out.arptOccupancy = config.useArpt ? table->occupiedEntries() : 0;
    return out;
}

void
RegionPredictor::registerStats(obs::StatsRegistry &registry,
                               const std::string &prefix) const
{
    registry.addCounter(prefix + ".total", &total,
                        "dynamic references predicted");
    registry.addCounter(prefix + ".correct", &correct,
                        "correctly classified references");
    registry.addFormula(prefix + ".accuracy_pct",
                        [this] { return report().accuracyPct(); },
                        "overall classification accuracy");
    for (unsigned i = 0; i < NumPredictionSources; ++i) {
        std::string source = std::string(".by_source.") +
            predictionSourceName(static_cast<PredictionSource>(i));
        registry.addCounter(prefix + source + ".total",
                            &totalBySource[i]);
        registry.addCounter(prefix + source + ".correct",
                            &correctBySource[i]);
    }
    if (config.useArpt)
        table->registerStats(registry, prefix + ".arpt");
}

} // namespace arl::predict
