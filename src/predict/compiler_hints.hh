/**
 * @file
 * Profile-derived compiler region tags (paper §3.5.2).
 *
 * The paper evaluates the upper bound of compiler assistance by
 * tagging each static memory instruction from a profiling run: an
 * instruction observed to access only a single region is assumed
 * classifiable by the compiler (Figure 6's algorithm); anything that
 * touched multiple regions is tagged Unknown and falls back to the
 * hardware mechanism.  We reproduce exactly that protocol.
 */

#ifndef ARL_PREDICT_COMPILER_HINTS_HH
#define ARL_PREDICT_COMPILER_HINTS_HH

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/types.hh"
#include "sim/step_info.hh"
#include "vm/layout.hh"
#include "vm/program.hh"

namespace arl::predict
{

/** Per-static-instruction compiler tag. */
enum class HintTag : std::uint8_t
{
    Unknown = 0,  ///< compiler could not classify (multi-region)
    Stack,        ///< provably stack-only
    NonStack      ///< provably non-stack-only
};

/**
 * Anything that can tag a static memory instruction: profile-derived
 * hints (§3.5.2's upper bound) or the Figure-6 static analysis
 * (predict::StaticClassifier).
 */
class HintSource
{
  public:
    virtual ~HintSource() = default;
    /** Tag for the memory instruction at @p pc. */
    virtual HintTag tag(Addr pc) const = 0;
};

/** Profile-constructed region tags, keyed by PC. */
class CompilerHints : public HintSource
{
  public:
    /** Record one executed instruction of the profiling run. */
    void
    observe(const sim::StepInfo &step)
    {
        if (!step.isMem)
            return;
        masks[step.pc] |=
            1u << static_cast<unsigned>(step.region);
    }

    /**
     * Tag for the instruction at @p pc.  Single-region instructions
     * are classified; multi-region (or never-profiled) instructions
     * are Unknown.
     */
    HintTag
    tag(Addr pc) const override
    {
        auto it = masks.find(pc);
        if (it == masks.end())
            return HintTag::Unknown;
        constexpr unsigned data_bit =
            1u << static_cast<unsigned>(vm::Region::Data);
        constexpr unsigned heap_bit =
            1u << static_cast<unsigned>(vm::Region::Heap);
        constexpr unsigned stack_bit =
            1u << static_cast<unsigned>(vm::Region::Stack);
        if (it->second == stack_bit)
            return HintTag::Stack;
        if (it->second == data_bit || it->second == heap_bit)
            return HintTag::NonStack;
        return HintTag::Unknown;
    }

    /** Number of distinct static memory instructions profiled. */
    std::size_t staticInstructions() const { return masks.size(); }

    /** Number of instructions the "compiler" classified. */
    std::size_t classifiedInstructions() const;

  private:
    std::unordered_map<Addr, unsigned> masks;
};

/**
 * Train profile hints on one functional run of @p program, capped at
 * @p max_insts instructions (0 = to completion).  The one training
 * pass: the sweep's hinted region rows, `arl_sim predict --hints
 * profile` and Figure 6 all call it.
 * @param trained when non-null, receives the instructions the run
 *        retired.
 */
CompilerHints profileHints(std::shared_ptr<const vm::Program> program,
                           InstCount max_insts = 0,
                           InstCount *trained = nullptr);

} // namespace arl::predict

#endif // ARL_PREDICT_COMPILER_HINTS_HH
