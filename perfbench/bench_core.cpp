#include "bench_core.hpp"

#include <sys/resource.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>

#include "common/codec_mode.hpp"
#include "gf256/gf256_vec.hpp"
#include "obs/manifest.hpp"

namespace perfbench {

namespace {

double
toSeconds(const struct timeval& tv)
{
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
}

/** One exhaustive cell's pinned tallies. */
struct PinnedCell
{
    const char* scheme;
    ErrorPattern pattern;
    std::uint64_t trials;
    std::uint64_t dce;
    std::uint64_t due;
    std::uint64_t sdc;
};

// Exact tallies of every Table 2 scheme on every enumerable pattern,
// as the library computed them when the benchmark was written
// (campaign_bench --print-exact regenerates this table). A change to
// the enumeration or a decoder that moves any of them is a behaviour
// change, not a speed-up.
constexpr PinnedCell kPinned[] = {
#include "pinned_counts.inc"
};

// Tallies of the sampled cells from one 2^24-sample-per-cell campaign
// at the default seed (campaign_bench --print-rates regenerates this
// table). checkRates holds every sampled cell of a run against them.
constexpr PinnedCell kReference[] = {
#include "pinned_rates.inc"
};

/** One mask of a sampled cell with the class it decodes to. */
struct PinnedMask
{
    const char* scheme;
    ErrorPattern pattern;
    Outcome outcome;
    std::uint64_t words[gpuecc::Bits288::numWords];
};

// The first masks the sampler drew for each sampled cell at the
// default seed, plus SDC masks found further along the same stream
// (campaign_bench --print-masks regenerates this table). Every code is
// linear, so a mask's class does not depend on the stored data.
constexpr PinnedMask kPinnedMasks[] = {
#include "pinned_masks.inc"
};

std::optional<OutcomeCounts>
findCell(const PinnedCell* begin, const PinnedCell* end,
         const std::string& scheme, ErrorPattern p, bool exhaustive)
{
    for (const PinnedCell* cell = begin; cell != end; ++cell) {
        if (cell->pattern == p && scheme == cell->scheme) {
            OutcomeCounts c;
            c.trials = cell->trials;
            c.dce = cell->dce;
            c.due = cell->due;
            c.sdc = cell->sdc;
            c.exhaustive = exhaustive;
            return c;
        }
    }
    return std::nullopt;
}

/** P(X <= k) and P(X >= k) for X ~ Binomial(n, q), summed exactly. */
std::pair<double, double>
binomialTails(std::uint64_t k, std::uint64_t n, double q)
{
    const double log_q = std::log(q);
    const double log_1q = std::log1p(-q);
    const double log_n1 = std::lgamma(static_cast<double>(n) + 1.0);
    double below = 0.0;
    double above = 0.0;
    for (std::uint64_t i = 0; i <= n; ++i) {
        const double x = static_cast<double>(i);
        const double pmf =
            std::exp(log_n1 - std::lgamma(x + 1.0) -
                     std::lgamma(static_cast<double>(n - i) + 1.0) +
                     x * log_q + static_cast<double>(n - i) * log_1q);
        if (i <= k)
            below += pmf;
        if (i >= k)
            above += pmf;
    }
    return {below, above};
}

/** checkRates rejects a class below this two-sided p-value. */
constexpr double kRateAlpha = 1e-9;

/**
 * Two-sided p-value that @p k of @p n trials and @p k_ref of @p n_ref
 * come from one rate: conditional on k + k_ref, k is binomial with
 * probability n / (n + n_ref). Exact on the rarer side up to 20000
 * events, normal beyond.
 */
double
twoSampleRateP(std::uint64_t k, std::uint64_t n, std::uint64_t k_ref,
               std::uint64_t n_ref)
{
    if (n == 0 || n_ref == 0)
        return 1.0;
    // Test the rarer side: the class or its complement.
    if (k + k_ref > (n + n_ref) / 2) {
        k = n - k;
        k_ref = n_ref - k_ref;
    }
    const std::uint64_t total = k + k_ref;
    if (total == 0)
        return 1.0;
    const double q =
        static_cast<double>(n) / static_cast<double>(n + n_ref);
    constexpr std::uint64_t kExactEvents = 20000;
    if (total <= kExactEvents) {
        const auto [below, above] = binomialTails(k, total, q);
        return std::min(1.0, 2.0 * std::min(below, above));
    }
    const double mean = static_cast<double>(total) * q;
    const double sd = std::sqrt(mean * (1.0 - q));
    return std::erfc(std::fabs(static_cast<double>(k) - mean) / sd /
                     std::sqrt(2.0));
}

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

/** First line of a file, or "" when unreadable. */
std::string
firstLine(const std::string& path)
{
    std::ifstream in(path);
    std::string line;
    if (!in || !std::getline(in, line))
        return std::string();
    return line;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos) {
                std::size_t start = colon + 1;
                while (start < line.size() && line[start] == ' ')
                    ++start;
                return line.substr(start);
            }
        }
    }
    return "unknown";
}

bool
sanitizedBuild()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#else
    return false;
#endif
}

} // namespace

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuSeconds()
{
    struct rusage self = {};
    struct rusage children = {};
    ::getrusage(RUSAGE_SELF, &self);
    ::getrusage(RUSAGE_CHILDREN, &children);
    return toSeconds(self.ru_utime) + toSeconds(self.ru_stime) +
           toSeconds(children.ru_utime) + toSeconds(children.ru_stime);
}

double
peakRssMb()
{
    struct rusage self = {};
    struct rusage children = {};
    ::getrusage(RUSAGE_SELF, &self);
    ::getrusage(RUSAGE_CHILDREN, &children);
    // ru_maxrss survives execve, so for this process it would include
    // whatever launched it; VmHWM belongs to this image alone. Forked
    // children (fleet workers) never exec, so their ru_maxrss is
    // theirs. Both are in KiB.
    long self_kb = self.ru_maxrss;
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            self_kb = std::strtol(line.c_str() + 6, nullptr, 10);
            break;
        }
    }
    return static_cast<double>(std::max(self_kb, children.ru_maxrss)) /
           1024.0;
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n == 0)
        return 0.0;
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t a, std::uint64_t b)
{
    auto mix = [](std::uint64_t z) {
        z += 0x9E3779B97F4A7C15ull;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    };
    return mix(mix(mix(seed) ^ a) ^ (b * 0xD1B54A32D192ED03ull));
}

std::string
safeSchemeName(const std::string& scheme_id)
{
    std::string out;
    for (char c : scheme_id) {
        if (c == '+')
            out += "-plus";
        else
            out += c;
    }
    return out;
}

std::string
safePatternName(ErrorPattern p)
{
    switch (p) {
    case ErrorPattern::oneBit:
        return "bit";
    case ErrorPattern::onePin:
        return "pin";
    case ErrorPattern::oneByte:
        return "byte";
    case ErrorPattern::twoBits:
        return "2bit";
    case ErrorPattern::threeBits:
        return "3bit";
    case ErrorPattern::oneBeat:
        return "beat";
    case ErrorPattern::wholeEntry:
        return "entry";
    }
    return "unknown";
}

std::vector<ErrorPattern>
enumerablePatterns()
{
    return {ErrorPattern::oneBit, ErrorPattern::onePin,
            ErrorPattern::oneByte, ErrorPattern::twoBits,
            ErrorPattern::threeBits};
}

std::vector<std::string>
tableTwoSchemes()
{
    return {"ni-secded", "i-secded", "duet",      "ni-sec2bec", "i-sec2bec",
            "trio",      "i-ssc",    "i-ssc-csc", "ssc-dsd+"};
}

WeightedInterval
weightedSdcInterval(const PatternCounts& counts)
{
    WeightedInterval out;
    for (const gpuecc::PatternInfo& info : gpuecc::patternTable()) {
        const auto it = counts.find(info.pattern);
        if (it == counts.end())
            continue;
        const gpuecc::Interval ci = it->second.sdcInterval();
        out.sdc += info.probability * it->second.sdcRate();
        out.lo += info.probability * ci.lo;
        out.hi += info.probability * ci.hi;
        out.width += info.probability * (ci.hi - ci.lo);
    }
    return out;
}

std::vector<std::string>
rareSchemes()
{
    return {"duet", "trio", "ssc-dsd+"};
}

std::vector<ErrorPattern>
sampledPatterns()
{
    return {ErrorPattern::oneBeat, ErrorPattern::wholeEntry};
}

std::optional<OutcomeCounts>
pinnedExactCounts(const std::string& scheme, ErrorPattern p)
{
    return findCell(std::begin(kPinned), std::end(kPinned), scheme, p,
                    true);
}

std::optional<OutcomeCounts>
referenceCounts(const std::string& scheme, ErrorPattern p)
{
    return findCell(std::begin(kReference), std::end(kReference), scheme,
                    p, false);
}

const char*
outcomeName(Outcome o)
{
    switch (o) {
    case Outcome::dce:
        return "dce";
    case Outcome::due:
        return "due";
    case Outcome::sdc:
        return "sdc";
    }
    return "unknown";
}

Outcome
classifyDecode(const gpuecc::EntryScheme& scheme,
               const gpuecc::GoldenEntry& golden,
               const gpuecc::Bits288& mask)
{
    gpuecc::Bits288 received = golden.entry;
    received ^= mask;
    const gpuecc::EntryDecode result = scheme.decode(received);
    if (result.status == gpuecc::EntryDecode::Status::due)
        return Outcome::due;
    return result.data == golden.data ? Outcome::dce : Outcome::sdc;
}

namespace {

std::string
describe(const OutcomeCounts& c)
{
    std::ostringstream out;
    out << "trials=" << c.trials << " dce=" << c.dce << " due=" << c.due
        << " sdc=" << c.sdc << (c.exhaustive ? " exact" : " sampled");
    return out.str();
}

} // namespace

bool
sameCounts(const OutcomeCounts& a, const OutcomeCounts& b)
{
    return a.trials == b.trials && a.dce == b.dce && a.due == b.due &&
           a.sdc == b.sdc && a.exhaustive == b.exhaustive;
}

void
Gate::checkCell(const std::string& scheme, ErrorPattern p,
                const OutcomeCounts& counts,
                std::uint64_t sampled_trials)
{
    ++attempted_;
    const std::string cell =
        scheme + "/" + gpuecc::patternInfo(p).label + ": ";
    if (!counts.selfConsistent()) {
        reject(cell + "dce+due+sdc != trials (" + describe(counts) + ")");
        return;
    }
    if (gpuecc::patternIsEnumerable(p)) {
        const std::optional<OutcomeCounts> want =
            pinnedExactCounts(scheme, p);
        if (!want) {
            reject(cell + "no pinned exact counts for this cell");
        } else if (!sameCounts(counts, *want)) {
            reject(cell + "got " + describe(counts) + ", pinned " +
                 describe(*want));
        }
        return;
    }
    if (counts.exhaustive || counts.trials != sampled_trials) {
        reject(cell + "expected " + std::to_string(sampled_trials) +
             " sampled trials, got " + describe(counts));
    }
}

void
Gate::checkIdentical(const std::string& scheme, ErrorPattern p,
                     const OutcomeCounts& got, const OutcomeCounts& want)
{
    if (!sameCounts(got, want)) {
        reject(scheme + "/" + gpuecc::patternInfo(p).label +
             ": tallies " + describe(got) + " differ from reference " +
             describe(want));
    }
}

void
Gate::checkRates(const std::string& scheme, ErrorPattern p,
                 const OutcomeCounts& counts)
{
    ++attempted_;
    const std::string cell =
        scheme + "/" + gpuecc::patternInfo(p).label + ": ";
    const std::optional<OutcomeCounts> ref = referenceCounts(scheme, p);
    if (!ref) {
        reject(cell + "no reference rates for this cell");
        return;
    }
    const std::pair<const char*, std::pair<std::uint64_t, std::uint64_t>>
        classes[] = {{"dce", {counts.dce, ref->dce}},
                     {"due", {counts.due, ref->due}},
                     {"sdc", {counts.sdc, ref->sdc}}};
    for (const auto& [name, k] : classes) {
        const double pv =
            twoSampleRateP(k.first, counts.trials, k.second, ref->trials);
        if (pv < kRateAlpha) {
            std::ostringstream msg;
            msg << cell << name << " rate departs from the reference (p="
                << pv << "; got " << describe(counts) << ", reference "
                << describe(*ref) << ")";
            reject(msg.str());
            return;
        }
    }
}

void
Gate::checkPinnedDecodes(const std::string& scheme_id,
                         const gpuecc::EntryScheme& scheme)
{
    const gpuecc::GoldenEntry golden = gpuecc::makeGolden(scheme, 0);
    for (const PinnedMask& pin : kPinnedMasks) {
        if (scheme_id != pin.scheme)
            continue;
        ++attempted_;
        gpuecc::Bits288 mask;
        for (int w = 0; w < gpuecc::Bits288::numWords; ++w)
            mask.setWord(w, pin.words[w]);
        const Outcome got = classifyDecode(scheme, golden, mask);
        if (got != pin.outcome)
            reject(scheme_id + "/" + gpuecc::patternInfo(pin.pattern).label +
                   ": pinned " + outcomeName(pin.outcome) +
                   " mask decodes to " + outcomeName(got));
    }
}

void
Gate::checkHeadline(const std::string& scheme,
                    const gpuecc::WeightedOutcome& weighted)
{
    // Tolerances match the library's own headline tests.
    if (scheme == "ni-secded") {
        ++attempted_;
        if (std::fabs(weighted.sdc - 0.054) > 0.007)
            reject("ni-secded weighted SDC " +
                 std::to_string(weighted.sdc) + " is not 5.4% +- 0.7%");
    } else if (scheme == "trio") {
        ++attempted_;
        if (std::fabs(weighted.correct - 0.97) > 0.01)
            reject("trio weighted correction " +
                 std::to_string(weighted.correct) +
                 " is not 97% +- 1%");
    }
}

void
Gate::fail(const std::string& message)
{
    ++attempted_;
    reject(message);
}

void
Gate::reject(const std::string& message)
{
    ++failed_;
    messages_.push_back(message);
}

std::string
resultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric>& metrics)
{
    std::ostringstream out;
    out.precision(17);
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        out << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << v
            << ", \"unit\": \"" << m.unit << "\"}";
    }
    out << "}}";
    return out.str();
}

bool
timingsValid()
{
    const std::string type = gpuecc::obs::buildInfo().build_type;
    return !sanitizedBuild() &&
           (type == "Release" || type == "RelWithDebInfo");
}

std::string
provenanceJson()
{
    const gpuecc::obs::BuildInfo build = gpuecc::obs::buildInfo();
    const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
    const std::string governor = firstLine(
        "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
    std::ostringstream out;
    out << "{\"cpu_model\": \"" << jsonEscape(cpuModel())
        << "\", \"nproc\": " << online << ", \"governor\": \""
        << jsonEscape(governor.empty() ? "unreadable" : governor)
        << "\", \"gf256_isa\": \""
        << gpuecc::gf256::isaName(gpuecc::gf256::bestIsa())
        << "\", \"codec_backend\": \"" << gpuecc::codecBackendName()
        << "\", \"compiler\": \"" << jsonEscape(build.compiler)
        << "\", \"build_type\": \"" << jsonEscape(build.build_type)
        << "\", \"platform\": \"" << jsonEscape(build.platform)
        << "\", \"sanitized\": " << (sanitizedBuild() ? "true" : "false")
        << ", \"timings_valid\": " << (timingsValid() ? "true" : "false")
        << "}";
    return out.str();
}

} // namespace perfbench
