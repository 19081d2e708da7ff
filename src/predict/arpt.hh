/**
 * @file
 * The Access Region Prediction Table (ARPT), paper §3.4–3.5.
 *
 * Structurally a branch-prediction-table sibling: a tagless array of
 * 1-bit (or 2-bit, with hysteresis) entries indexed by PC bits XOR'ed
 * with an optional run-time context.  '1' predicts a stack access,
 * '0' a non-stack access; entries initialise to 0, which coincides
 * with static rule 4's default prediction ("predict non-stack").
 *
 * Two capacity modes:
 *  - limited: N (power-of-two) entries, index = (pc>>2 ^ ctx) mod N.
 *    Distinct instructions may alias (positive or negative
 *    interference, §3.5.1).
 *  - unlimited: keyed by the full (pc, ctx) pair; used for the
 *    limit studies of Fig 4 and for Table 3's occupancy counts.
 */

#ifndef ARL_PREDICT_ARPT_HH
#define ARL_PREDICT_ARPT_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "predict/context.hh"

namespace arl::obs
{
class StatsRegistry;
}

namespace arl::predict
{

/** ARPT configuration. */
struct ArptConfig
{
    /** Entry count; 0 = unlimited. Must be a power of two if >0. */
    std::uint32_t entries = 32 * 1024;
    /** 1-bit last-region or 2-bit saturating-counter entries. */
    unsigned counterBits = 1;
    /** Context folded into the index. */
    ContextConfig context{};
};

/** Tagless access-region prediction table. */
class Arpt
{
  public:
    explicit Arpt(const ArptConfig &config);

    /**
     * Predict whether the instruction at @p pc (with the given
     * run-time context inputs) will access the stack.
     */
    bool predictStack(Addr pc, Word gbh, Word cid) const;

    /** Train with the resolved region of the access. */
    void update(Addr pc, Word gbh, Word cid, bool actual_stack);

    /**
     * predictStack() then update() through one probe of the entry:
     * returns the prediction the training overwrote.  A cold
     * unlimited entry is inserted at 0 and predicts non-stack.
     */
    bool predictAndUpdate(Addr pc, Word gbh, Word cid, bool actual_stack);

    /**
     * Number of entries ever touched: distinct (pc, ctx) pairs in
     * unlimited mode (Table 3), distinct table indices in limited
     * mode.
     */
    std::size_t occupiedEntries() const;

    /** Table capacity (0 = unlimited). */
    std::uint32_t capacity() const { return config.entries; }

    /** Table size in bytes of prediction state (capacity * bits / 8). */
    std::size_t storageBytes() const;

    /** Reset all entries (and occupancy tracking). */
    void reset();

    /** The configuration in force. */
    const ArptConfig &configuration() const { return config; }

    /**
     * Register capacity/occupancy/storage under "<prefix>."
     * (occupancy is a formula so it tracks later training).
     */
    void registerStats(obs::StatsRegistry &registry,
                       const std::string &prefix) const;

  private:
    /** Flat index for limited mode. */
    std::uint32_t
    tableIndex(Addr pc, Word gbh, Word cid) const
    {
        std::uint32_t ctx = makeContext(config.context, gbh, cid);
        return ((pc >> 2) ^ ctx) & (config.entries - 1);
    }

    /** 64-bit key for unlimited mode. */
    std::uint64_t
    mapKey(Addr pc, Word gbh, Word cid) const
    {
        std::uint64_t ctx = makeContext(config.context, gbh, cid);
        return (static_cast<std::uint64_t>(pc >> 2) << 32) | ctx;
    }

    /** Predict from a counter value. */
    bool
    counterSaysStack(std::uint8_t counter) const
    {
        return counter >= threshold;
    }

    /** Saturating update toward @p stack. */
    std::uint8_t
    trainCounter(std::uint8_t counter, bool stack) const
    {
        if (stack)
            return counter < maxCounter ? counter + 1 : counter;
        return counter > 0 ? counter - 1 : counter;
    }

    ArptConfig config;
    std::uint8_t maxCounter;
    std::uint8_t threshold;

    /** Limited mode storage. */
    std::vector<std::uint8_t> table;
    std::vector<bool> touched;
    std::size_t touchedCount = 0;

    /** Unlimited mode storage. */
    std::unordered_map<std::uint64_t, std::uint8_t> map;
};

} // namespace arl::predict

#endif // ARL_PREDICT_ARPT_HH
