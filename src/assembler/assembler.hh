/**
 * @file
 * Two-pass text assembler for the ARL ISA.
 *
 * Accepts a MIPS-flavoured dialect:
 *
 *     # comments run to end of line
 *             .data
 *     tbl:    .word 1, 2, 3          # initialised words
 *     buf:    .space 256             # zeroed bytes (word aligned)
 *             .text
 *     main:   addi $sp, $sp, -16
 *             sw   $ra, 12($sp)
 *             la   $t0, tbl          # pseudo: lui+ori
 *             lw   $t1, 0($t0)
 *             beq  $t1, $zero, done
 *             jal  helper
 *     done:   li   $v0, 10           # exit syscall number
 *             syscall
 *
 * An opcode's operands are parsed by walking its syntax's operand
 * list (isa/operands.hh).  Pseudo-instructions: li (addi or
 * lui+ori), la (lui+ori), move (add), b (unconditional beq
 * $zero,$zero).  Register names accept the symbolic ($sp, $t0) and
 * numeric ($29, r29) forms; FP registers are $f0..$f31.
 *
 * Pass 1 sizes every statement and binds labels; pass 2 encodes and
 * resolves references.  A unit with no instruction at all (empty,
 * comments or data only) is an error, since there would be nothing to
 * run.  Errors carry 1-based line numbers.
 */

#ifndef ARL_ASSEMBLER_ASSEMBLER_HH
#define ARL_ASSEMBLER_ASSEMBLER_HH

#include <memory>
#include <string>
#include <vector>

#include "vm/program.hh"

namespace arl::assembler
{

/** One diagnostic. */
struct AsmError
{
    unsigned line = 0;       ///< 1-based source line
    std::string message;

    std::string format() const;
};

/** Result of an assembly run. */
struct AsmResult
{
    std::shared_ptr<vm::Program> program;  ///< null on failure
    std::vector<AsmError> errors;

    bool ok() const { return program != nullptr; }
};

/**
 * Assemble @p source into a program named @p name.
 * Never throws; failures are reported through AsmResult::errors.
 */
AsmResult assemble(const std::string &source,
                   const std::string &name = "asm");

/** Convenience wrapper: fatal() with diagnostics on failure. */
std::shared_ptr<vm::Program>
assembleOrDie(const std::string &source,
              const std::string &name = "asm");

} // namespace arl::assembler

#endif // ARL_ASSEMBLER_ASSEMBLER_HH
