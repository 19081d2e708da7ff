#include "predict/compiler_hints.hh"

#include "sim/simulator.hh"

namespace arl::predict
{

std::size_t
CompilerHints::classifiedInstructions() const
{
    std::size_t count = 0;
    for (const auto &[pc, mask] : masks) {
        (void)pc;
        constexpr unsigned data_bit =
            1u << static_cast<unsigned>(vm::Region::Data);
        constexpr unsigned heap_bit =
            1u << static_cast<unsigned>(vm::Region::Heap);
        constexpr unsigned stack_bit =
            1u << static_cast<unsigned>(vm::Region::Stack);
        if (mask == data_bit || mask == heap_bit || mask == stack_bit)
            ++count;
    }
    return count;
}

CompilerHints
profileHints(std::shared_ptr<const vm::Program> program,
             InstCount max_insts, InstCount *trained)
{
    CompilerHints hints;
    sim::Simulator simulator(std::move(program));
    const InstCount ran =
        simulator.run(max_insts, [&hints](const sim::StepInfo &step) {
            hints.observe(step);
        });
    if (trained)
        *trained = ran;
    return hints;
}

} // namespace arl::predict
