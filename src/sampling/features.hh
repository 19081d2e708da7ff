/**
 * @file
 * Per-interval region-access feature vectors.
 *
 * Phase-sampled simulation (sampling.hh) needs a cheap fingerprint
 * of each fixed-length trace interval that separates the program's
 * phases by *memory* behaviour — the quantities the paper's §2
 * figures are built from.  Following the "Memory Access Vectors"
 * result (PAPERS.md) that access-signature clustering beats
 * basic-block vectors for memory-system studies, each interval is
 * summarised by per-instruction rates of:
 *
 *   - references into each data region (data / heap / stack),
 *   - the load/store mix,
 *   - the region-transition rate (consecutive data references that
 *     land in *different* regions — the access-region locality the
 *     ARPT exploits, Fig 3),
 *   - branch density and taken rate.
 *
 * All features are rates in [0, 1], so k-means distances are
 * meaningful without per-feature whitening (kmeans.cc still rescales
 * defensively).  Extraction is a single streaming pass over records
 * and their decoded instructions (FeatureStream) — no StepInfo
 * reconstitution, no simulator — so it can ride along with any other
 * pass over the stream: recording it, or validating a cached copy.
 */

#ifndef ARL_SAMPLING_FEATURES_HH
#define ARL_SAMPLING_FEATURES_HH

#include <algorithm>
#include <array>
#include <vector>

#include "common/types.hh"
#include "trace/replay.hh"
#include "vm/layout.hh"

namespace arl::sampling
{

/** Dimensionality of an interval feature vector. */
constexpr unsigned NumFeatures = 8;

/** Human-readable name of feature dimension @p i. */
const char *featureName(unsigned i);

/** One interval's fingerprint. */
struct IntervalFeatures
{
    /** First record index of the interval. */
    InstCount start = 0;
    /** Records in the interval (the last one may be short). */
    InstCount length = 0;
    /**
     * Feature rates: [0] data refs/inst, [1] heap refs/inst,
     * [2] stack refs/inst, [3] loads/inst, [4] stores/inst,
     * [5] region transitions per data ref, [6] branches/inst,
     * [7] taken per branch.
     */
    std::array<double, NumFeatures> f{};
};

/**
 * Streaming fingerprinter: records arrive in order, from record 0,
 * and those in [start, start + limit) are sliced into intervals of
 * interval_insts records (limit 0: to the end of the stream).
 */
class FeatureStream final : public trace::RecordVisitor
{
  public:
    /** Fatal when @p interval_insts is 0. */
    FeatureStream(InstCount interval_insts, InstCount start = 0,
                  InstCount limit = 0);

    void visit(const trace::TraceRecord &record,
               const isa::DecodedInst &inst) override;

    /**
     * Treat every record before the window as already visited — for
     * callers with random access, which need not decode the prefix.
     */
    void skipPrefix() { next = std::max(next, first); }

    /** The intervals, the last one kept with its true length. */
    std::vector<IntervalFeatures> finish();

  private:
    void closeInterval();

    InstCount interval;
    InstCount first;
    /** One past the last record fingerprinted. */
    InstCount end;
    /** Index of the next record visited. */
    InstCount next = 0;
    std::vector<IntervalFeatures> intervals;

    // The open interval's counters.
    InstCount length = 0;
    std::uint64_t regionRefs[vm::NumDataRegions] = {};
    std::uint64_t loads = 0, stores = 0, transitions = 0;
    std::uint64_t branches = 0, taken = 0, memRefs = 0;
    /**
     * Region of the interval's last data reference; none at its
     * start, since phases are fingerprinted independently and the
     * first reference has no predecessor to transition from.
     */
    unsigned prevRegion = vm::NumDataRegions;
};

/**
 * Slice records [@p start, @p start + @p limit) of @p t into
 * intervals of @p interval_insts records and fingerprint each one.
 * @p limit = 0 means "to the end of the trace"; a final partial
 * interval is kept with its true length.  IntervalFeatures::start is
 * the absolute record index.  Deterministic: depends only on the
 * record bytes.
 */
std::vector<IntervalFeatures>
extractFeatures(const trace::InMemoryTrace &t, InstCount interval_insts,
                InstCount start = 0, InstCount limit = 0);

} // namespace arl::sampling

#endif // ARL_SAMPLING_FEATURES_HH
