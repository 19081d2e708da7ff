#include "predict/arpt.hh"

#include "common/bits.hh"
#include "common/logging.hh"
#include "obs/stats_registry.hh"

namespace arl::predict
{

Arpt::Arpt(const ArptConfig &config_in) : config(config_in)
{
    ARL_ASSERT(config.counterBits >= 1 && config.counterBits <= 2,
               "counterBits must be 1 or 2");
    maxCounter =
        static_cast<std::uint8_t>((1u << config.counterBits) - 1);
    threshold = static_cast<std::uint8_t>(1u << (config.counterBits - 1));
    ARL_ASSERT(fitsContextWord(config.context),
               "ARPT context widths must fit one 32-bit word");
    if (config.entries) {
        ARL_ASSERT(isPowerOf2(config.entries),
                   "ARPT entry count must be a power of two");
        table.assign(config.entries, 0);
        touched.assign(config.entries, false);
    }
}

bool
Arpt::predictStack(Addr pc, Word gbh, Word cid) const
{
    if (config.entries)
        return counterSaysStack(table[tableIndex(pc, gbh, cid)]);
    auto it = map.find(mapKey(pc, gbh, cid));
    // Cold entries read as 0: predict non-stack (static rule 4).
    return it == map.end() ? false : counterSaysStack(it->second);
}

void
Arpt::update(Addr pc, Word gbh, Word cid, bool actual_stack)
{
    if (config.entries) {
        std::uint32_t index = tableIndex(pc, gbh, cid);
        table[index] = trainCounter(table[index], actual_stack);
        if (!touched[index]) {
            touched[index] = true;
            ++touchedCount;
        }
        return;
    }
    std::uint8_t &counter = map[mapKey(pc, gbh, cid)];
    counter = trainCounter(counter, actual_stack);
}

bool
Arpt::predictAndUpdate(Addr pc, Word gbh, Word cid, bool actual_stack)
{
    std::uint8_t *counter;
    if (config.entries) {
        std::uint32_t index = tableIndex(pc, gbh, cid);
        counter = &table[index];
        if (!touched[index]) {
            touched[index] = true;
            ++touchedCount;
        }
    } else {
        counter = &map[mapKey(pc, gbh, cid)];
    }
    bool predicted = counterSaysStack(*counter);
    *counter = trainCounter(*counter, actual_stack);
    return predicted;
}

std::size_t
Arpt::occupiedEntries() const
{
    return config.entries ? touchedCount : map.size();
}

std::size_t
Arpt::storageBytes() const
{
    if (!config.entries)
        return 0;
    return (static_cast<std::size_t>(config.entries) * config.counterBits +
            7) / 8;
}

void
Arpt::reset()
{
    if (config.entries) {
        table.assign(config.entries, 0);
        touched.assign(config.entries, false);
        touchedCount = 0;
    } else {
        map.clear();
    }
}

void
Arpt::registerStats(obs::StatsRegistry &registry,
                    const std::string &prefix) const
{
    registry.addFormula(
        prefix + ".capacity",
        [this] { return static_cast<double>(capacity()); },
        "table entries (0 = unlimited)");
    registry.addFormula(
        prefix + ".occupancy",
        [this] { return static_cast<double>(occupiedEntries()); },
        "entries ever touched");
    registry.addFormula(
        prefix + ".storage_bytes",
        [this] { return static_cast<double>(storageBytes()); },
        "prediction state size");
}

} // namespace arl::predict
