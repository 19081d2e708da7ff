/**
 * @file
 * Shared code-emission helpers for the synthetic SPEC95-substitute
 * workloads.
 *
 * Each workload is a standalone guest program authored against
 * ProgramBuilder.  These helpers emit the little "libc" routines a
 * statically linked 1990s binary would carry — and, importantly for
 * the paper, the *cross-region* utility routines (memcpy/sum over a
 * caller-supplied pointer) whose loads/stores can touch data, heap,
 * and stack depending on the call site: exactly the `*parm1` pattern
 * of the paper's Figure 1 that produces multi-region instructions
 * and exercises the caller-id (CID) context.
 */

#ifndef ARL_WORKLOADS_UTIL_HH
#define ARL_WORKLOADS_UTIL_HH

#include <cstdint>

#include "builder/program_builder.hh"
#include "workloads/workloads.hh"

namespace arl::workloads
{

/**
 * The loop count @p per_scale × @p scale as an `li` immediate.  Fatal
 * when @p per_scale exceeds MaxCountPerScale or @p scale lies outside
 * 1..MaxScale, so no count wraps into a short or negative loop.
 */
std::int32_t scaledCount(std::int64_t per_scale, unsigned scale);

/**
 * Emit one step of the classic LCG (state = state*1103515245+12345)
 * leaving a 15-bit pseudo-random value in @p rd.  @p rstate is both
 * input and output; @p rtmp is clobbered.
 */
void emitLcgStep(builder::ProgramBuilder &b, RegIndex rd, RegIndex rstate,
                 RegIndex rtmp);

/**
 * Define `memset_w(ptr, words, value)`: word-fill through the $a0
 * pointer (rule-4 addressing; region depends on the call site).
 */
void emitMemsetWords(builder::ProgramBuilder &b);

/**
 * Define `memcpy_w(dst, src, words)`: word copy through two pointer
 * arguments.  Call sites across regions turn its lw/sw into the
 * multi-region class of Fig 2.
 */
void emitMemcpyWords(builder::ProgramBuilder &b);

/**
 * Define `sum_w(ptr, words) -> v0`: word-sum through a pointer
 * argument — the archetypal `*parm1` multi-region instruction.
 */
void emitSumWords(builder::ProgramBuilder &b);

/**
 * Define `lcg_next() -> v0`: global-state LCG returning a 15-bit
 * value; state lives in the data segment (named "__lcg_state"),
 * accessed $gp-relative.
 */
void emitLcgGlobal(builder::ProgramBuilder &b);

} // namespace arl::workloads

#endif // ARL_WORKLOADS_UTIL_HH
