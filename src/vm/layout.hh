/**
 * @file
 * Guest address-space layout and access-region definitions.
 *
 * The layout follows SimpleScalar's (and the paper's run-time
 * system's) convention:
 *
 *      0x0040'0000  text (instructions)
 *      0x1000'0000  data (static/global variables, then bss)
 *      ...          heap, growing upward from the end of bss
 *      0x2fff'ffff  heap ceiling
 *      0x7fef'c000  stack floor (1 MB guard below the top)
 *      0x7fff'c000  stack top, growing downward
 *
 * An access region R = (L, U) is a contiguous address range; the
 * three regions of interest are Data, Heap, and Stack (§3).  The
 * RegionMap resolves an address to its region; the TLB model's
 * per-page stack bit (§4.2) is derived from the same boundaries.
 */

#ifndef ARL_VM_LAYOUT_HH
#define ARL_VM_LAYOUT_HH

#include <string>

#include "common/types.hh"

namespace arl::vm
{

/** The three data access regions plus sentinels. */
enum class Region : std::uint8_t
{
    Data = 0,   ///< static/global data segment (includes bss)
    Heap = 1,   ///< dynamically allocated storage
    Stack = 2,  ///< procedure frames
    Text = 3,   ///< instruction space (not a data region)
    Unknown = 4 ///< unmapped
};

/** Number of *data* regions (Data/Heap/Stack). */
constexpr unsigned NumDataRegions = 3;

/** Human-readable region name. */
std::string regionName(Region region);

/** Fixed layout constants. */
namespace layout
{
constexpr Addr TextBase = 0x00400000;
constexpr Addr DataBase = 0x10000000;
constexpr Addr HeapCeiling = 0x30000000;
constexpr Addr StackTop = 0x7fffc000;
constexpr Addr StackMaxBytes = 0x01000000;  ///< 16 MB of stack space
constexpr Addr StackFloor = StackTop - StackMaxBytes;
constexpr unsigned PageBytes = 4096;
constexpr unsigned PageShift = 12;
} // namespace layout

/**
 * Resolves addresses to regions for one loaded program.
 *
 * Boundaries are fixed at load time except the heap break, which
 * grows with sbrk; classification deliberately uses the *static*
 * interval bounds (data ends where heap begins; everything at or
 * above the stack floor is stack), mirroring how the paper's TLB
 * stack bit is assigned per page when the page is allocated.
 */
class RegionMap
{
  public:
    RegionMap() = default;

    /**
     * @param heap_base first heap address (end of data+bss, page
     *                  aligned); data is [DataBase, heap_base).
     */
    explicit RegionMap(Addr heap_base) : heapBase(heap_base) {}

    /** Classify @p addr. */
    Region
    classify(Addr addr) const
    {
        if (addr >= layout::StackFloor && addr < layout::StackTop + 4)
            return Region::Stack;
        if (addr >= heapBase && addr < layout::HeapCeiling)
            return Region::Heap;
        if (addr >= layout::DataBase && addr < heapBase)
            return Region::Data;
        if (addr >= layout::TextBase && addr < layout::DataBase)
            return Region::Text;
        return Region::Unknown;
    }

    /** True when @p addr lies in the stack region (the TLB bit). */
    bool isStack(Addr addr) const { return classify(addr) == Region::Stack; }

  private:
    Addr heapBase = layout::HeapCeiling;
};

} // namespace arl::vm

#endif // ARL_VM_LAYOUT_HH
