/**
 * @file
 * Run-time context formation for ARPT indexing (paper §3.4.1).
 *
 * Two context sources are considered:
 *  - GBH: the global branch-history register, as used by gshare-style
 *    branch predictors — captures the control path to the memory
 *    instruction.
 *  - CID: the caller's identification — the link register ($ra)
 *    value, i.e. the return address of the innermost call, which
 *    uniquely identifies the call site.  Its two least-significant
 *    bits are always zero (word-aligned PCs) and are skipped.
 *
 * The hybrid context concatenates low GBH bits with low CID bits
 * (the paper's unlimited-table experiments use 8 + 24; the limited
 * 32 K-entry ARPT of §4.3 uses 8 + 7).
 */

#ifndef ARL_PREDICT_CONTEXT_HH
#define ARL_PREDICT_CONTEXT_HH

#include <cstdint>
#include <string>

#include "common/bits.hh"
#include "common/types.hh"

namespace arl::predict
{

/** Which run-time context is folded into the ARPT index. */
enum class ContextKind : std::uint8_t
{
    None = 0,  ///< PC only (the "simple" schemes)
    Gbh,       ///< PC xor global branch history
    Cid,       ///< PC xor caller id
    Hybrid     ///< PC xor (GBH bits concatenated with CID bits)
};

/** Display name. */
std::string contextKindName(ContextKind kind);

/** Bit-width configuration for context formation. */
struct ContextConfig
{
    ContextKind kind = ContextKind::None;
    unsigned gbhBits = 8;    ///< GBH bits used (Gbh/Hybrid kinds)
    unsigned cidBits = 24;   ///< CID bits used (Cid/Hybrid kinds)
};

/**
 * True when makeContext() can form @p config's context word: each
 * width at most 32 bits, and a hybrid context's two fields side by
 * side in one word, with the GBH field shifted by fewer than 32 bits.
 */
constexpr bool
fitsContextWord(const ContextConfig &config)
{
    if (config.gbhBits > 32 || config.cidBits > 32)
        return false;
    return config.kind != ContextKind::Hybrid ||
           (config.gbhBits + config.cidBits <= 32 && config.cidBits < 32);
}

/**
 * Form the context word for one prediction.
 * @param gbh current global branch-history register.
 * @param cid current link-register ($ra) value.
 */
inline std::uint32_t
makeContext(const ContextConfig &config, Word gbh, Word cid)
{
    std::uint32_t cid_bits = cid >> 2;  // skip the aligned-zero bits
    switch (config.kind) {
      case ContextKind::None:
        return 0;
      case ContextKind::Gbh:
        return bits(gbh, 0, config.gbhBits);
      case ContextKind::Cid:
        return bits(cid_bits, 0, config.cidBits);
      case ContextKind::Hybrid:
        return (bits(gbh, 0, config.gbhBits) << config.cidBits) |
               bits(cid_bits, 0, config.cidBits);
    }
    return 0;
}

} // namespace arl::predict

#endif // ARL_PREDICT_CONTEXT_HH
