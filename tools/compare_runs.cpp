/**
 * @file
 * compare_runs: diff the manifests and throughput of two reports.
 *
 * Loads two JSON artifacts this repo emits (campaign reports,
 * BENCH_throughput.json), prints any run-manifest differences (build
 * type, compiler, hardware, backend — the usual reasons two numbers
 * aren't comparable), then compares every throughput metric found in
 * both documents. A drop beyond --threshold percent is a regression:
 * each is flagged and the exit code is 2, so CI can annotate without
 * hard-failing (|| true) or gate (plain invocation) as it chooses.
 *
 * Metrics and manifest keys present on only one side are vintage,
 * not breakage: a baseline that predates decode_batch_mops /
 * sample_mops / simd_isa is noted and those entries skipped, so any
 * historical BENCH artifact stays diffable against today's.
 *
 * --scaling-floor additionally gates the candidate's strong-scaling
 * sweeps (bench_throughput's campaign_scaling and fleet_scaling
 * sections): parallel efficiency below the floor at any point with
 * 2..hardware_threads workers exits 2. With a floor set the baseline
 * becomes optional —
 * the gate judges the candidate alone — and sweeps marked
 * "valid": false (1-hardware-thread hosts) are skipped, not failed.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "sim/json.hpp"
#include "sim/report.hpp"

using namespace gpuecc;

namespace {

/** Keys whose numeric values mean "higher is better" throughput. */
const char* const kThroughputKeys[] = {
    "trials_per_second", "encode_mops",  "decode_clean_mops",
    "decode_1bit_mops",  "speedup",      "campaign_speedup",
    "decode_speedup_vs_reference",
    // Per-(scheme, backend) keys from bench_throughput's "backends"
    // blocks — how an RS SIMD decode regression on one backend is
    // caught even when the other backend's numbers hold.
    "decode_mops", "decode_batch_mops",
    // Mask-sampler throughput per pattern: sampleErrorMask
    // (mask_sampling) and the lock-step sampleErrorMasks
    // (lane_sampling).
    "sample_mops",
};

bool
isThroughputKey(const std::string& key)
{
    for (const char* k : kThroughputKeys) {
        if (key == k)
            return true;
    }
    return false;
}

struct Metric
{
    std::string path;
    double value;
};

/** Stable label for one array element (scheme/threads if present). */
std::string
elementLabel(const sim::JsonValue& element, std::size_t index)
{
    if (element.isObject()) {
        if (const sim::JsonValue* scheme = element.find("scheme")) {
            if (scheme->isString())
                return scheme->asString().value();
        }
        if (const sim::JsonValue* backend = element.find("backend")) {
            if (backend->isString())
                return backend->asString().value();
        }
        if (const sim::JsonValue* threads = element.find("threads")) {
            if (threads->isNumber()) {
                return "threads=" +
                       std::to_string(static_cast<long long>(
                           threads->asDouble().valueOr(0.0)));
            }
        }
        if (const sim::JsonValue* pattern = element.find("pattern")) {
            if (pattern->isString())
                return pattern->asString().value();
        }
    }
    return std::to_string(index);
}

void
collectMetrics(const sim::JsonValue& value, const std::string& path,
               std::vector<Metric>& out)
{
    if (value.isObject()) {
        for (const auto& [key, member] : value.members()) {
            const std::string child =
                path.empty() ? key : path + "." + key;
            if (member.isNumber() && isThroughputKey(key)) {
                out.push_back(
                    {child, member.asDouble().valueOr(0.0)});
            } else {
                collectMetrics(member, child, out);
            }
        }
    } else if (value.isArray()) {
        std::size_t i = 0;
        for (const sim::JsonValue& element : value.elements()) {
            collectMetrics(element,
                           path + "[" + elementLabel(element, i) +
                               "]",
                           out);
            ++i;
        }
    }
}

const Metric*
findMetric(const std::vector<Metric>& metrics,
           const std::string& path)
{
    for (const Metric& m : metrics) {
        if (m.path == path)
            return &m;
    }
    return nullptr;
}

/** Flatten a manifest subtree to "dotted.key = scalar text" pairs. */
void
flattenScalars(const sim::JsonValue& value, const std::string& path,
               std::vector<std::pair<std::string, std::string>>& out)
{
    if (value.isObject()) {
        for (const auto& [key, member] : value.members()) {
            flattenScalars(member,
                           path.empty() ? key : path + "." + key,
                           out);
        }
    } else if (value.isArray()) {
        std::size_t i = 0;
        for (const sim::JsonValue& element : value.elements())
            flattenScalars(element,
                           path + "[" + std::to_string(i++) + "]",
                           out);
    } else if (value.isString()) {
        out.emplace_back(path, value.asString().value());
    } else if (value.isNumber()) {
        out.emplace_back(path,
                         std::to_string(
                             value.asDouble().valueOr(0.0)));
    } else if (value.isBool()) {
        out.emplace_back(path,
                         value.asBool().valueOr(false) ? "true"
                                                       : "false");
    }
}

std::string
lookupFlat(
    const std::vector<std::pair<std::string, std::string>>& flat,
    const std::string& key)
{
    for (const auto& [k, v] : flat) {
        if (k == key)
            return v;
    }
    return "<absent>";
}

/**
 * Flatten a manifest, excluding the "hosts" array: per-host unit
 * splits are scheduling, not provenance — two correct fleet runs of
 * the same spec legitimately divide the units differently, so diffing
 * them scalar-by-scalar would cry wolf on every rerun. The section
 * gets its own tolerant comparison below.
 */
void
flattenManifest(const sim::JsonValue& manifest,
                std::vector<std::pair<std::string, std::string>>& out)
{
    if (!manifest.isObject()) {
        flattenScalars(manifest, "", out);
        return;
    }
    for (const auto& [key, member] : manifest.members()) {
        if (key == "hosts")
            continue;
        flattenScalars(member, key, out);
    }
}

/** Sum one numeric field over a manifest "hosts" array. */
double
sumHostField(const sim::JsonValue& hosts, const char* field)
{
    double total = 0.0;
    for (const sim::JsonValue& host : hosts.elements()) {
        if (const sim::JsonValue* v = host.find(field))
            total += v->asDouble().valueOr(0.0);
    }
    return total;
}

/**
 * Compare the manifest "hosts" sections with older-baseline
 * tolerance: a baseline that predates the section (or an in-process
 * run, which omits it) compares clean. When both sides carry it, the
 * per-host split is scheduling noise, so only the fleet-wide sums —
 * host count, units, shards, trials — are diffed, informationally.
 */
void
compareHostsSections(const sim::JsonValue* base_manifest,
                     const sim::JsonValue* cand_manifest)
{
    const sim::JsonValue* base_hosts =
        base_manifest != nullptr ? base_manifest->find("hosts")
                                 : nullptr;
    const sim::JsonValue* cand_hosts =
        cand_manifest != nullptr ? cand_manifest->find("hosts")
                                 : nullptr;
    if (cand_hosts == nullptr && base_hosts == nullptr)
        return; // neither run was a fleet campaign
    if (cand_hosts == nullptr) {
        std::printf("manifest hosts: baseline has %zu host(s), "
                    "candidate ran in-process (informational)\n",
                    base_hosts->elements().size());
        return;
    }
    if (base_hosts == nullptr) {
        std::printf("manifest hosts: candidate has %zu host(s); "
                    "baseline predates the section or ran "
                    "in-process (skipped)\n",
                    cand_hosts->elements().size());
        return;
    }
    const char* const sums[] = {"units", "shards", "trials"};
    bool differs =
        base_hosts->elements().size() != cand_hosts->elements().size();
    for (const char* field : sums) {
        if (sumHostField(*base_hosts, field) !=
            sumHostField(*cand_hosts, field))
            differs = true;
    }
    if (!differs) {
        std::printf("manifest hosts: %zu host(s), fleet-wide sums "
                    "match\n",
                    cand_hosts->elements().size());
        return;
    }
    std::printf("manifest hosts: %zu -> %zu host(s)\n",
                base_hosts->elements().size(),
                cand_hosts->elements().size());
    for (const char* field : sums) {
        const double b = sumHostField(*base_hosts, field);
        const double c = sumHostField(*cand_hosts, field);
        if (b != c) {
            std::printf("manifest hosts.%-22s %.0f -> %.0f "
                        "(fleet-wide sum)\n",
                        field, b, c);
        }
    }
}

sim::JsonValue
loadReport(const std::string& path)
{
    Result<std::string> text = sim::loadTextFile(path);
    if (!text.ok())
        fatal(text.status().toString());
    Result<sim::JsonValue> doc = sim::parseJson(text.value());
    if (!doc.ok())
        fatal(path + ": " + doc.status().toString());
    return std::move(doc).value();
}

/**
 * Gate one strong-scaling section of the candidate: every sweep
 * point with 2 <= threads/workers <= hardware_threads must reach the
 * efficiency floor. Points beyond the core count only measure
 * oversubscription and are exempt. Returns the number of violations;
 * a section that is missing (older artifacts predate fleet_scaling),
 * marked "valid": false, or captured on a 1-hardware-thread host is
 * reported and skipped (0 violations) — a host that cannot show
 * parallelism must not fail for lacking it.
 */
int
gateScalingSection(const sim::JsonValue& cand, const char* section,
                   const char* unit_key, double floor)
{
    const sim::JsonValue* scaling = cand.find(section);
    if (scaling == nullptr || !scaling->isObject()) {
        std::printf("scaling gate: no %s object in candidate; "
                    "skipping\n",
                    section);
        return 0;
    }
    const sim::JsonValue* hw = scaling->find("hardware_threads");
    const long long hardware_threads =
        hw != nullptr
            ? static_cast<long long>(hw->asDouble().valueOr(0.0))
            : 0;
    const sim::JsonValue* valid = scaling->find("valid");
    if (valid != nullptr && !valid->asBool().valueOr(true)) {
        std::printf("scaling gate: %s marked invalid "
                    "(%lld hardware thread(s)); skipping\n",
                    section, hardware_threads);
        return 0;
    }
    if (hardware_threads <= 1) {
        std::printf("scaling gate: host has %lld hardware thread(s); "
                    "skipping %s\n",
                    hardware_threads, section);
        return 0;
    }
    const sim::JsonValue* points = scaling->find("points");
    if (points == nullptr || !points->isArray()) {
        std::printf("scaling gate: %s has no points array; "
                    "skipping\n",
                    section);
        return 0;
    }

    std::printf("scaling gate: %s efficiency floor %.2f up to %lld "
                "hardware thread(s)\n",
                section, floor, hardware_threads);
    int violations = 0;
    int gated = 0;
    for (const sim::JsonValue& point : points->elements()) {
        const sim::JsonValue* units = point.find(unit_key);
        const sim::JsonValue* efficiency = point.find("efficiency");
        if (units == nullptr || efficiency == nullptr)
            continue;
        const long long t = static_cast<long long>(
            units->asDouble().valueOr(0.0));
        const double e = efficiency->asDouble().valueOr(0.0);
        if (t < 2 || t > hardware_threads)
            continue;
        ++gated;
        const bool below = e < floor;
        std::printf("scaling %s=%-3lld efficiency %.3f%s\n",
                    unit_key, t, e, below ? "  BELOW FLOOR" : "");
        if (below)
            ++violations;
    }
    if (gated == 0)
        std::printf("scaling gate: no %s point inside [2, %lld]; "
                    "nothing gated\n",
                    section, hardware_threads);
    return violations;
}

/** Gate both scaling sections: in-process threads and fleet workers. */
int
gateScalingFloor(const sim::JsonValue& cand, double floor)
{
    return gateScalingSection(cand, "campaign_scaling", "threads",
                              floor) +
        gateScalingSection(cand, "fleet_scaling", "workers", floor);
}

} // namespace

int
main(int argc, char** argv)
{
    Cli cli;
    cli.addFlag("baseline", "", "baseline report JSON (required)");
    cli.addFlag("candidate", "", "candidate report JSON (required)");
    cli.addFlag("threshold", "10",
                "regression threshold in percent throughput drop");
    cli.addFlag("scaling-floor", "",
                "minimum parallel efficiency the candidate's "
                "strong-scaling sweep must reach at 2..hardware "
                "threads (empty = off; skipped when the sweep is "
                "marked invalid or the host has one hardware thread)");
    cli.parse(argc, argv,
              "Diff two report manifests and flag throughput "
              "regressions.");

    const std::string base_path = cli.getString("baseline");
    const std::string cand_path = cli.getString("candidate");
    const std::string floor_text = cli.getString("scaling-floor");
    if (cand_path.empty())
        fatal("--candidate is required");
    // With a scaling floor the baseline becomes optional: the gate
    // judges the candidate's own sweep, no comparison needed.
    if (base_path.empty() && floor_text.empty())
        fatal("--baseline and --candidate are both required");
    const double threshold = cli.getDouble("threshold");

    const sim::JsonValue cand = loadReport(cand_path);
    if (base_path.empty()) {
        const int violations =
            gateScalingFloor(cand, cli.getDouble("scaling-floor"));
        std::printf("\n%d scaling violation(s)\n", violations);
        return violations > 0 ? 2 : 0;
    }
    const sim::JsonValue base = loadReport(base_path);

    // Manifest diff: the provenance facts that explain (or forbid)
    // a throughput comparison.
    std::vector<std::pair<std::string, std::string>> base_manifest;
    std::vector<std::pair<std::string, std::string>> cand_manifest;
    const sim::JsonValue* base_manifest_doc = base.find("manifest");
    const sim::JsonValue* cand_manifest_doc = cand.find("manifest");
    if (base_manifest_doc != nullptr)
        flattenManifest(*base_manifest_doc, base_manifest);
    if (cand_manifest_doc != nullptr)
        flattenManifest(*cand_manifest_doc, cand_manifest);
    if (base_manifest.empty() && cand_manifest.empty()) {
        std::printf("note: neither report carries a manifest "
                    "(pre-telemetry artifact)\n");
    } else {
        bool any_diff = false;
        for (const auto& [key, base_value] : base_manifest) {
            const std::string cand_value =
                lookupFlat(cand_manifest, key);
            if (cand_value != base_value) {
                std::printf("manifest %-28s %s -> %s\n", key.c_str(),
                            base_value.c_str(), cand_value.c_str());
                any_diff = true;
            }
        }
        // Keys only the candidate carries are age, not provenance:
        // older artifacts simply predate them (simd_isa,
        // fleet_workers, ...). Note them so the reader knows the
        // baseline's vintage, but don't count them as a mismatch.
        for (const auto& [key, cand_value] : cand_manifest) {
            if (lookupFlat(base_manifest, key) == "<absent>") {
                std::printf("manifest %-28s %s (baseline predates "
                            "key; skipped)\n",
                            key.c_str(), cand_value.c_str());
            }
        }
        if (!any_diff)
            std::printf("manifests match\n");
        compareHostsSections(base_manifest_doc, cand_manifest_doc);
    }

    std::vector<Metric> base_metrics;
    std::vector<Metric> cand_metrics;
    collectMetrics(base, "", base_metrics);
    collectMetrics(cand, "", cand_metrics);
    if (base_metrics.empty())
        fatal(base_path + ": no throughput metrics found");

    std::printf("\n%-52s %12s %12s %8s\n", "metric", "baseline",
                "candidate", "delta");
    int regressions = 0;
    int compared = 0;
    int baseline_only = 0;
    for (const Metric& b : base_metrics) {
        const Metric* c = findMetric(cand_metrics, b.path);
        if (c == nullptr) {
            std::printf("%-52s %12.4g %12s %8s\n", b.path.c_str(),
                        b.value, "missing", "-");
            ++baseline_only;
            continue;
        }
        ++compared;
        const double delta_pct =
            b.value != 0.0 ? (c->value - b.value) / b.value * 100.0
                           : 0.0;
        const bool regressed = delta_pct < -threshold;
        std::printf("%-52s %12.4g %12.4g %+7.1f%%%s\n",
                    b.path.c_str(), b.value, c->value, delta_pct,
                    regressed ? "  REGRESSION" : "");
        if (regressed)
            ++regressions;
    }
    // Metrics only the candidate carries (decode_batch_mops,
    // sample_mops, ... on a baseline that predates them) have no
    // reference value — note them so additions are visible, but they
    // can neither regress nor fail the diff.
    int candidate_only = 0;
    for (const Metric& c : cand_metrics) {
        if (findMetric(base_metrics, c.path) == nullptr) {
            std::printf("%-52s %12s %12.4g %8s\n", c.path.c_str(),
                        "(predates)", c.value, "-");
            ++candidate_only;
        }
    }
    if (baseline_only > 0 || candidate_only > 0) {
        std::printf("note: %d metric(s) only in baseline, %d only in "
                    "candidate (older artifact vintage; skipped)\n",
                    baseline_only, candidate_only);
    }
    int scaling_violations = 0;
    if (!floor_text.empty()) {
        std::printf("\n");
        scaling_violations =
            gateScalingFloor(cand, cli.getDouble("scaling-floor"));
    }

    std::printf("\n%d metric(s) compared, %d regression(s) beyond "
                "%.1f%%, %d scaling violation(s)\n",
                compared, regressions, threshold,
                scaling_violations);
    // Disjoint metric sets mean the baseline predates (or postdates)
    // the current key set entirely — there is nothing to gate, which
    // is a note, not an error: old BENCH artifacts must stay
    // diffable.
    if (compared == 0)
        std::printf("note: no metric present in both reports; "
                    "nothing gated\n");
    return regressions > 0 || scaling_violations > 0 ? 2 : 0;
}
