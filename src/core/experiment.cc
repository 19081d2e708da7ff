#include "core/experiment.hh"

#include "common/logging.hh"
#include "obs/hooks.hh"
#include "sim/simulator.hh"

namespace arl::core
{

namespace
{

predict::RegionPredictorConfig
makeUnlimited(predict::ContextKind kind, bool use_arpt)
{
    predict::RegionPredictorConfig config;
    config.useArpt = use_arpt;
    config.arpt.entries = 0;  // unlimited
    config.arpt.counterBits = 1;
    config.arpt.context.kind = kind;
    config.arpt.context.gbhBits = 8;
    config.arpt.context.cidBits = 24;
    return config;
}

} // namespace

std::vector<NamedScheme>
figure4Schemes()
{
    return {
        {"STATIC", makeUnlimited(predict::ContextKind::None, false)},
        {"1BIT", makeUnlimited(predict::ContextKind::None, true)},
        {"1BIT-GBH", makeUnlimited(predict::ContextKind::Gbh, true)},
        {"1BIT-CID", makeUnlimited(predict::ContextKind::Cid, true)},
        {"1BIT-HYBRID",
         makeUnlimited(predict::ContextKind::Hybrid, true)},
    };
}

std::vector<sweep::SchemeSpec>
toSweepSchemes(const std::vector<NamedScheme> &schemes)
{
    std::vector<sweep::SchemeSpec> specs;
    specs.reserve(schemes.size());
    for (const NamedScheme &scheme : schemes)
        specs.push_back({scheme.name, scheme.config});
    return specs;
}

std::vector<NamedScheme>
twoBitSchemes()
{
    auto with_bits = [](predict::ContextKind kind) {
        predict::RegionPredictorConfig config = makeUnlimited(kind, true);
        config.arpt.counterBits = 2;
        return config;
    };
    return {
        {"2BIT", with_bits(predict::ContextKind::None)},
        {"2BIT-HYBRID", with_bits(predict::ContextKind::Hybrid)},
    };
}

Experiment::Experiment(std::shared_ptr<const vm::Program> program)
    : prog(std::move(program))
{
    ARL_ASSERT(prog != nullptr);
}

predict::CompilerHints
Experiment::buildHints(InstCount max_insts) const
{
    predict::CompilerHints hints;
    sim::Simulator simulator(prog);
    simulator.run(max_insts, [&hints](const sim::StepInfo &step) {
        hints.observe(step);
    });
    return hints;
}

RegionStudyResult
Experiment::regionStudy(const std::vector<NamedScheme> &schemes,
                        bool use_hints, InstCount max_insts)
{
    predict::CompilerHints hints;
    if (use_hints)
        hints = buildHints(max_insts);
    std::vector<sweep::SchemeSpec> specs = toSweepSchemes(schemes);
    for (sweep::SchemeSpec &spec : specs)
        spec.config.useCompilerHints = use_hints;

    sim::Simulator simulator(prog);
    sim::SimulatorSource source(simulator);
    return sweep::runRegionPass(prog->name, source, specs, max_insts,
                                use_hints ? &hints : nullptr);
}

TimingResult
Experiment::timingStudy(const ooo::MachineConfig &config,
                        InstCount warmup_insts,
                        InstCount max_insts,
                        obs::Hooks *hooks,
                        std::shared_ptr<sim::StepSource> step_source,
                        InstCount warmup_window) const
{
    ooo::OooCore core(config, prog, std::move(step_source));
    if (hooks)
        core.attachObs(hooks);
    if (warmup_insts)
        core.warmup(warmup_insts, warmup_window);
    // Sampling (re)starts here so the baseline reflects the
    // post-warmup state and the frozen name set includes every stat
    // the core just registered.
    if (hooks)
        hooks->restartSampling();
    TimingResult result = core.run(max_insts);
    // The registry's live entries point into `core`, which dies at
    // return; flush the trailing partial sampling interval, then
    // freeze the values so reports stay valid.
    if (hooks) {
        hooks->finishSampling(result.instructions);
        hooks->finalize();
    }
    return result;
}

std::vector<TimingResult>
Experiment::timingSweep(const std::vector<ooo::MachineConfig> &configs,
                        InstCount warmup_insts,
                        InstCount max_insts) const
{
    std::vector<TimingResult> results;
    results.reserve(configs.size());
    for (const ooo::MachineConfig &config : configs)
        results.push_back(timingStudy(config, warmup_insts, max_insts));
    return results;
}

} // namespace arl::core
