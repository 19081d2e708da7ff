/**
 * @file
 * Architectural state of one running guest program.
 */

#ifndef ARL_SIM_PROCESS_HH
#define ARL_SIM_PROCESS_HH

#include <array>
#include <memory>
#include <string>

#include "common/random.hh"
#include "common/types.hh"
#include "vm/heap.hh"
#include "vm/layout.hh"
#include "vm/memory.hh"
#include "vm/program.hh"

namespace arl::sim
{

/**
 * A loaded guest process: registers, memory, heap, and region map.
 *
 * Construction performs the "exec": the data image is copied to
 * DataBase, $sp/$fp are pointed at the stack top, $gp at the data
 * base, and the PC at the program entry.
 */
class Process
{
  public:
    explicit Process(std::shared_ptr<const vm::Program> prog);

    /** The program being run. */
    const vm::Program &program() const { return *prog; }

    /** Guest memory. */
    vm::SparseMemory memory;

    /** Heap allocator behind malloc/free/sbrk. */
    vm::HeapAllocator heap;

    /** Address-to-region resolution for this process. */
    vm::RegionMap regions;

    /** General-purpose registers; index 0 reads as 0. */
    std::array<Word, 32> gpr{};

    /** FP registers (IEEE single bits). */
    std::array<Word, 32> fpr{};

    /** Program counter. */
    Addr pc = 0;

    /** True once the guest called Exit (or ran off a limit). */
    bool halted = false;

    /** Exit status passed to the Exit syscall. */
    Word exitCode = 0;

    /** Text accumulated by the Print* syscalls. */
    std::string output;

    /** Deterministic generator behind the Rand syscall. */
    Rng rng;

    /** Read GPR (enforces $zero == 0). */
    Word
    readGpr(RegIndex index) const
    {
        return index == 0 ? 0 : gpr[index];
    }

    /** Write GPR (writes to $zero are discarded). */
    void
    writeGpr(RegIndex index, Word value)
    {
        if (index != 0)
            gpr[index] = value;
    }

  private:
    std::shared_ptr<const vm::Program> prog;
};

} // namespace arl::sim

#endif // ARL_SIM_PROCESS_HH
