/**
 * @file
 * Shared pieces of the campaign benchmark: clocks, the Table-1-weighted
 * SDC interval, the correctness gate, host provenance and the result
 * line.
 *
 * Everything here talks to the library only through its public
 * headers; the benchmark measures the library, it never patches it.
 */

#ifndef PERFBENCH_BENCH_CORE_HPP
#define PERFBENCH_BENCH_CORE_HPP

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ecc/scheme.hpp"
#include "faultsim/evaluator.hpp"
#include "faultsim/patterns.hpp"
#include "faultsim/shard.hpp"
#include "faultsim/weighted.hpp"

namespace perfbench {

using gpuecc::ErrorPattern;
using gpuecc::OutcomeCounts;

/** Per-pattern tallies of one scheme, as weightedOutcome takes them. */
using PatternCounts = std::map<ErrorPattern, OutcomeCounts>;

/**
 * Seed the benchmark uses when none is given. NOTES.md names a
 * held-out seed for checking claims after the fact.
 */
constexpr std::uint64_t kDefaultSeed = 0x5EED;

/** @name Clocks */
///@{
/** Monotonic wall clock, seconds. */
double wallSeconds();
/** CPU seconds of this process plus its reaped children (getrusage). */
double cpuSeconds();
/** High-water RSS of this process image or any reaped child, MiB. */
double peakRssMb();
///@}

/** Median of a non-empty sample. */
double median(std::vector<double> values);

/** SplitMix64-style mix of a seed with up to two indices. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t a,
                         std::uint64_t b = 0);

/** Metric-name-safe scheme id ("ssc-dsd+" -> "ssc-dsd-plus"). */
std::string safeSchemeName(const std::string& scheme_id);
/** Metric-name-safe pattern name ("bit", ..., "3bit", "beat", "entry"). */
std::string safePatternName(ErrorPattern p);

/** The five exhaustively enumerable Table 1 patterns. */
std::vector<ErrorPattern> enumerablePatterns();
/** The nine organizations of Table 2, in paper order. */
std::vector<std::string> tableTwoSchemes();
/** The schemes whose dense-mask cells are sampled (duet, trio, ssc-dsd+). */
std::vector<std::string> rareSchemes();
/** The two sampled Table 1 patterns: 1 Beat and 1 Entry. */
std::vector<ErrorPattern> sampledPatterns();

/** Whether two tallies agree in every count and in exactness. */
bool sameCounts(const OutcomeCounts& a, const OutcomeCounts& b);

/** Table-1-weighted SDC probability with its interval. */
struct WeightedInterval
{
    double sdc = 0.0;
    double lo = 0.0;
    double hi = 0.0;
    /** Sum over patterns of weight * (hi - lo). */
    double width = 0.0;
};

/**
 * Combine per-pattern tallies into the weighted SDC interval: 95%
 * Wilson intervals for sampled cells, zero width for exhaustive
 * (exact) cells, each weighted by its Table 1 probability. Patterns
 * absent from @p counts contribute nothing.
 */
WeightedInterval weightedSdcInterval(const PatternCounts& counts);

/**
 * Exact tallies of an exhaustive cell. They do not depend on the seed
 * (every code is linear, so the outcome of a mask is independent of
 * the stored data); nullopt for cells the table does not pin.
 */
std::optional<OutcomeCounts> pinnedExactCounts(const std::string& scheme,
                                               ErrorPattern p);

/**
 * Reference tallies of a sampled cell, from one large campaign of the
 * library as it was when the benchmark was written (pinned_rates.inc);
 * nullopt for cells the table does not pin.
 */
std::optional<OutcomeCounts> referenceCounts(const std::string& scheme,
                                             ErrorPattern p);

/** The class one decoded entry falls in. */
enum class Outcome
{
    dce,
    due,
    sdc
};

const char* outcomeName(Outcome o);

/** Decode golden ^ mask and classify it the way the kernel tallies it. */
Outcome classifyDecode(const gpuecc::EntryScheme& scheme,
                       const gpuecc::GoldenEntry& golden,
                       const gpuecc::Bits288& mask);

/**
 * Correctness gate. Every checked cell and every standalone check
 * counts as attempted; each failure counts as failed and leaves a
 * message.
 */
class Gate
{
  public:
    /**
     * Check one cell: an exhaustive cell must equal its pinned exact
     * counts; a sampled cell must be self-consistent and hold exactly
     * @p sampled_trials trials.
     */
    void checkCell(const std::string& scheme, ErrorPattern p,
                   const OutcomeCounts& counts,
                   std::uint64_t sampled_trials);

    /**
     * Check a cell against a reference tally of the same cell (fleet
     * versus in-process, or a later rep versus the first). Does not
     * count a new attempt; a mismatch marks the cell failed.
     */
    void checkIdentical(const std::string& scheme, ErrorPattern p,
                        const OutcomeCounts& got,
                        const OutcomeCounts& want);

    /**
     * Check a sampled cell's rates against its reference tallies: for
     * each of DCE, DUE and SDC, a conditional (two-sample) binomial
     * test of the cell against the reference. A class whose two-sided
     * p-value is below 1e-9 fails the cell: small enough that the few
     * thousand tests a full set of benchmark runs makes almost never
     * fail a correct program. Counts as one attempted check.
     */
    void checkRates(const std::string& scheme, ErrorPattern p,
                    const OutcomeCounts& counts);

    /**
     * Decode every mask pinned for @p scheme_id (pinned_masks.inc) with
     * @p scheme and check each lands in its pinned class. The masks
     * include SDC masks of the sampled cells, so a decoder that turns
     * those SDCs into DUEs fails here even when the sampled tallies
     * hold too few SDCs to show it. One attempted check per mask.
     */
    void checkPinnedDecodes(const std::string& scheme_id,
                            const gpuecc::EntryScheme& scheme);

    /**
     * Check the paper's headline figures where the scheme has one:
     * NI:SEC-DED leaves 5.4% SDC, TrioECC corrects 97% of events.
     * Counts as one attempted check.
     */
    void checkHeadline(const std::string& scheme,
                       const gpuecc::WeightedOutcome& weighted);

    /** Record a failed standalone check (attempted and failed). */
    void fail(const std::string& message);

    bool ok() const { return failed_ == 0; }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<std::string>& messages() const { return messages_; }

  private:
    /** Fail a check already counted as attempted. */
    void reject(const std::string& message);

    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> messages_;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The final result line: {"correct", "attempted", "failed", "metrics"}. */
std::string resultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics);

/** Whether timings from this build mean anything (Release, no sanitizer). */
bool timingsValid();

/**
 * Host and build provenance as one JSON object: CPU model, online
 * CPUs, scaling governor (when readable), gf256 ISA, codec backend,
 * compiler, build type and whether timings are valid.
 */
std::string provenanceJson();

} // namespace perfbench

#endif // PERFBENCH_BENCH_CORE_HPP
