/**
 * @file
 * Figure 6 of the paper: a *static* compiler analysis that
 * classifies the access region of each memory instruction.
 *
 * The paper evaluates compiler hints using profiles as an upper
 * bound ("a real compiler will produce more unknown cases").  This
 * module implements the real thing: an intraprocedural forward
 * dataflow analysis over the program binary that tracks the
 * *provenance* of every general-purpose register —
 *
 *     Stack    : derived from $sp/$fp (local-variable pointers)
 *     NonStack : derived from $gp, from address constants in the
 *                data/heap range, or from a malloc/sbrk system call
 *     Int      : definitely not a pointer (small constants, flags)
 *     Unknown  : anything else — loaded pointers, function
 *                parameters (Figure 6's is_function_param case),
 *                merges of conflicting paths
 *
 * — and tags each load/store by its base register's provenance at
 * the fixpoint.  Function entries are seeded conservatively
 * (argument and temporary registers Unknown; $sp/$fp Stack; $gp
 * NonStack), calls clobber the caller-saved set, and control-flow
 * merges join pointwise.
 *
 * The analysis is sound but deliberately conservative, exactly as
 * the paper predicts of real compilers: compare its coverage against
 * the profile-derived upper bound with
 * `arl_sim figure fig6_static_analysis`.
 */

#ifndef ARL_PREDICT_STATIC_CLASSIFIER_HH
#define ARL_PREDICT_STATIC_CLASSIFIER_HH

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "predict/compiler_hints.hh"
#include "vm/program.hh"

namespace arl::predict
{

/** Abstract provenance of a register value. */
enum class Provenance : std::uint8_t
{
    Bottom = 0,  ///< no information yet (unreached)
    Stack,       ///< $sp/$fp-derived pointer
    NonStack,    ///< $gp/data-constant/malloc-derived pointer
    Int,         ///< definitely not a pointer
    Unknown      ///< could be anything (top)
};

/** Lattice join. */
Provenance joinProvenance(Provenance a, Provenance b);

/** Figure-6 static region classification of one program. */
class StaticClassifier : public HintSource
{
  public:
    explicit StaticClassifier(const vm::Program &program);

    /** Tag for the memory instruction at @p pc (HintSource). */
    HintTag tag(Addr pc) const override;

    /** Static memory instructions in the program. */
    std::size_t memInstructions() const { return memTotal; }

    /** Memory instructions the analysis classified conclusively. */
    std::size_t classifiedInstructions() const { return memClassified; }

    /** Coverage in percent. */
    double
    coveragePct() const
    {
        return memTotal ? 100.0 * static_cast<double>(memClassified) /
                              static_cast<double>(memTotal)
                        : 0.0;
    }

  private:
    /** Per-instruction analysis state: provenance of each GPR plus
     *  optionally-known constant values (for syscall numbers and
     *  materialised addresses). */
    struct RegState
    {
        std::array<Provenance, 32> prov;
        std::array<std::optional<std::uint32_t>, 32> constant;

        RegState();
        bool join(const RegState &other);  ///< true when changed
    };

    /** Seed state at a function entry. */
    static RegState entryState();

    /** Apply instruction @p index's transfer function. */
    RegState transfer(std::size_t index, const RegState &in) const;

    /** Provenance of an address constant. */
    static Provenance classifyConstant(std::uint32_t value);

    /** CFG successors (instruction indices) of instruction @p index. */
    void successors(std::size_t index,
                    std::vector<std::size_t> &out) const;

    void analyze(const vm::Program &program);

    std::vector<isa::DecodedInst> text;
    Addr textBase = 0;
    std::vector<RegState> stateBefore;
    std::unordered_map<Addr, HintTag> tags;
    std::size_t memTotal = 0;
    std::size_t memClassified = 0;
};

} // namespace arl::predict

#endif // ARL_PREDICT_STATIC_CLASSIFIER_HH
