#include "core/experiment.hh"

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

} // namespace arl::core
