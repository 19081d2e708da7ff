/**
 * @file
 * Registry of the twelve SPEC95-substitute workloads.
 *
 * SPEC95 binaries and inputs are proprietary, so the reproduction
 * substitutes one synthetic program per benchmark, engineered to
 * match the published per-program region behaviour (see DESIGN.md §3
 * for the mapping table and EXPERIMENTS.md for paper-vs-measured).
 * Every workload is deterministic: same scale => bit-identical
 * execution.
 *
 * `scale` multiplies the main iteration counts; scale 1 targets
 * roughly 1–5 M dynamic instructions per program (the paper ran
 * 220–684 M on real SPEC inputs; we document this reduction in
 * DESIGN.md — region behaviour is phase-stable, so shorter runs
 * preserve the distributions).  Every count is a 32-bit immediate, so
 * a scale runs from 1 to MaxScale.
 */

#ifndef ARL_WORKLOADS_WORKLOADS_HH
#define ARL_WORKLOADS_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "vm/program.hh"

namespace arl::workloads
{

/**
 * The most iterations any workload runs per scale unit (m88ksim_like's
 * simulated instructions); every loop count is at most this times the
 * scale, emitted through scaledCount (util.hh).
 */
constexpr std::int64_t MaxCountPerScale = 120000;

/** The largest scale whose loop counts all fit a 32-bit immediate. */
constexpr unsigned MaxScale =
    static_cast<unsigned>(INT32_MAX / MaxCountPerScale);

/** Descriptor of one substitute workload. */
struct WorkloadInfo
{
    std::string name;          ///< e.g. "compress_like"
    std::string paperAnalog;   ///< e.g. "129.compress"
    bool floatingPoint;        ///< FP program (paper's lower group)
    /**
     * Instructions covering the program's initialisation phase
     * (buffer filling, allocation); timing studies fast-forward past
     * this point so the measured window is the steady-state kernel.
     */
    InstCount warmupInsts;
    /** Build the program at the given scale (1..MaxScale; fatal
     *  outside it). */
    std::function<std::shared_ptr<vm::Program>(unsigned scale)> build;
};

/** All twelve workloads, paper (Table 1) order. */
const std::vector<WorkloadInfo> &allWorkloads();

/** Look up by name; fatal when unknown. */
const WorkloadInfo &workloadByName(const std::string &name);

/** Build one workload by name. */
std::shared_ptr<vm::Program> buildWorkload(const std::string &name,
                                           unsigned scale = 1);

// Individual builders (exposed for targeted tests).
std::shared_ptr<vm::Program> buildGoLike(unsigned scale);
std::shared_ptr<vm::Program> buildM88ksimLike(unsigned scale);
std::shared_ptr<vm::Program> buildGccLike(unsigned scale);
std::shared_ptr<vm::Program> buildCompressLike(unsigned scale);
std::shared_ptr<vm::Program> buildLiLike(unsigned scale);
std::shared_ptr<vm::Program> buildIjpegLike(unsigned scale);
std::shared_ptr<vm::Program> buildPerlLike(unsigned scale);
std::shared_ptr<vm::Program> buildVortexLike(unsigned scale);
std::shared_ptr<vm::Program> buildTomcatvLike(unsigned scale);
std::shared_ptr<vm::Program> buildSwimLike(unsigned scale);
std::shared_ptr<vm::Program> buildSu2corLike(unsigned scale);
std::shared_ptr<vm::Program> buildMgridLike(unsigned scale);

} // namespace arl::workloads

#endif // ARL_WORKLOADS_WORKLOADS_HH
