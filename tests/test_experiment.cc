/**
 * @file
 * Scheme-set and cross-module integration tests: the named scheme
 * sets, the §3 region pass over a live simulator, profile hints,
 * one-row timing sweeps, and the paper's headline invariants at
 * reduced scale.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "sim/simulator.hh"
#include "sweep/sweep.hh"
#include "workloads/workloads.hh"

using namespace arl;

namespace
{

/**
 * The §3 region pass over a live run of @p program, capped at
 * @p insts.  With @p hinted, every scheme consults profile hints
 * trained on the same window first.
 */
sweep::RegionPoint
studyOf(std::shared_ptr<const vm::Program> program,
        const std::vector<core::NamedScheme> &schemes, InstCount insts,
        bool hinted = false)
{
    predict::CompilerHints hints;
    if (hinted)
        hints = predict::profileHints(program, insts);
    std::vector<sweep::SchemeSpec> specs = core::toSweepSchemes(schemes);
    for (sweep::SchemeSpec &spec : specs)
        spec.config.useCompilerHints = hinted;
    sim::Simulator simulator(program);
    sim::SimulatorSource source(simulator);
    return sweep::runRegionPass(program->name, source, specs, insts,
                                hinted ? &hints : nullptr);
}

/** Time @p workload under @p configs: a one-row sweep. */
std::vector<ooo::OooStats>
timeWorkload(const std::string &workload, InstCount warmup,
             InstCount timed,
             const std::vector<ooo::MachineConfig> &configs)
{
    sweep::WorkloadSpec w;
    w.name = workload;
    w.warmup = warmup;
    w.timed = timed;
    sweep::SweepSpec spec;
    spec.workloads = {w};
    spec.configs = configs;
    std::vector<ooo::OooStats> results;
    for (const sweep::TimingPoint &point : sweep::runSweep(spec).timing)
        results.push_back(point.stats);
    return results;
}

} // namespace

TEST(ExperimentSchemes, Figure4SetIsComplete)
{
    auto schemes = core::figure4Schemes();
    ASSERT_EQ(schemes.size(), 5u);
    EXPECT_EQ(schemes[0].name, "STATIC");
    EXPECT_FALSE(schemes[0].config.useArpt);
    EXPECT_EQ(schemes[4].name, "1BIT-HYBRID");
    EXPECT_EQ(schemes[4].config.arpt.context.kind,
              predict::ContextKind::Hybrid);
    EXPECT_EQ(schemes[4].config.arpt.context.gbhBits, 8u);
    EXPECT_EQ(schemes[4].config.arpt.context.cidBits, 24u);
    for (const auto &scheme : schemes)
        EXPECT_EQ(scheme.config.arpt.entries, 0u) << scheme.name;
    auto two_bit = core::twoBitSchemes();
    for (const auto &scheme : two_bit)
        EXPECT_EQ(scheme.config.arpt.counterBits, 2u);
}

TEST(RegionPass, ProducesCoherentResults)
{
    auto result = studyOf(workloads::buildWorkload("li_like", 1),
                          core::figure4Schemes(), 500'000);
    EXPECT_EQ(result.workload, "li_like");
    EXPECT_EQ(result.instructions, 500'000u);
    EXPECT_EQ(result.schemes.size(), 5u);
    // The profilers and the predictors saw the same stream.
    std::uint64_t refs = result.profile.dynamicTotal();
    for (const auto &[name, report] : result.schemes) {
        EXPECT_EQ(report.total, refs) << name;
        EXPECT_LE(report.correct, report.total) << name;
        EXPECT_GE(report.accuracyPct(), 0.0);
        EXPECT_LE(report.accuracyPct(), 100.0);
    }
    // Window stats exist for both sizes.
    EXPECT_EQ(result.window32.windowSize, 32u);
    EXPECT_EQ(result.window64.windowSize, 64u);
    EXPECT_GT(result.window32.samples, 0u);
}

TEST(RegionPass, HintsNeverHurtAccuracy)
{
    for (const char *name : {"li_like", "m88ksim_like"}) {
        auto base = studyOf(workloads::buildWorkload(name, 1),
                            core::figure4Schemes(), 400'000);
        auto with_hints = studyOf(workloads::buildWorkload(name, 1),
                                  core::figure4Schemes(), 400'000, true);
        for (std::size_t i = 0; i < base.schemes.size(); ++i) {
            EXPECT_GE(with_hints.schemes[i].second.accuracyPct() + 1e-9,
                      base.schemes[i].second.accuracyPct())
                << name << " / " << base.schemes[i].first;
        }
    }
}

TEST(ProfileHints, ProfilePassMatchesDirectConstruction)
{
    InstCount trained = 0;
    auto hints = predict::profileHints(workloads::buildWorkload("go_like", 1),
                                       200'000, &trained);
    EXPECT_EQ(trained, 200'000u);
    EXPECT_GT(hints.staticInstructions(), 10u);
    // go has no multi-region instructions: everything classifiable.
    EXPECT_EQ(hints.classifiedInstructions(),
              hints.staticInstructions());
}

TEST(ExperimentTiming, SweepPreservesConfigOrder)
{
    std::vector<ooo::MachineConfig> configs = {
        ooo::MachineConfig::nPlusM(2, 0),
        ooo::MachineConfig::nPlusM(3, 3),
    };
    auto results = timeWorkload("vortex_like", 10'000, 100'000, configs);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].configName, "(2+0)");
    EXPECT_EQ(results[1].configName, "(3+3)");
    EXPECT_EQ(results[0].instructions, 100'000u);
    EXPECT_EQ(results[1].instructions, 100'000u);
    // Decoupling helps the stack-dominant workload.
    EXPECT_LT(results[1].cycles, results[0].cycles);
}

TEST(IntegrationHeadline, HybridPredictorAbove99OnEveryWorkload)
{
    // The paper's central §3 claim at reduced scale: the hybrid
    // 1-bit scheme classifies >99% of references on every program.
    std::vector<core::NamedScheme> schemes = {
        core::figure4Schemes().back()};  // 1BIT-HYBRID
    for (const auto &info : workloads::allWorkloads()) {
        auto result = studyOf(info.build(1), schemes, 700'000);
        EXPECT_GT(result.schemes[0].second.accuracyPct(), 99.0)
            << info.name;
    }
}

TEST(IntegrationHeadline, StackCacheHitRateAbove99)
{
    // §3.3: a 4KB direct-mapped stack cache is essentially perfect.
    cache::Cache lvc(cache::CacheGeometry{"LVC", 4096, 32, 1});
    sim::Simulator simulator(workloads::buildWorkload("gcc_like", 1));
    simulator.run(1'000'000, [&](const sim::StepInfo &step) {
        if (step.isMem && step.region == vm::Region::Stack)
            lvc.access(step.effAddr, !step.isLoad);
    });
    EXPECT_GT(lvc.hitRatePct(), 99.0);
}

TEST(IntegrationHeadline, DecouplingRecoversBandwidth)
{
    // §4 shape on the most bandwidth-hungry integer program: the
    // (2+2) decoupled design beats the (2+0) baseline, and the
    // sixteen-port (16+0) machine beats (2+0) as well.
    const auto &info = workloads::workloadByName("vortex_like");
    auto results = timeWorkload(info.name, info.warmupInsts, 200'000,
                                {ooo::MachineConfig::nPlusM(2, 0),
                                 ooo::MachineConfig::nPlusM(2, 2),
                                 ooo::MachineConfig::nPlusM(16, 0)});
    double base = static_cast<double>(results[0].cycles);
    EXPECT_GT(base / results[1].cycles, 1.2) << "(2+2) speedup";
    EXPECT_GT(base / results[2].cycles, 1.05) << "(16+0) speedup";
}
