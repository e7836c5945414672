#include "workloads.hpp"

#include <algorithm>
#include <optional>

#include "ecc/registry.hpp"
#include "faultsim/shard.hpp"
#include "faultsim/weighted.hpp"
#include "sim/campaign.hpp"

namespace perfbench {

using gpuecc::sim::CampaignResult;
using gpuecc::sim::CampaignRunner;
using gpuecc::sim::CampaignSpec;

namespace {

/** Samples per sampled cell per rare_sdc_ci wave. */
constexpr std::uint64_t kWaveSamples = 12 * 1024;
/** Independent target-driven replicates of rare_sdc_ci's sampled cells. */
constexpr int kReplicates = 4;
/** Caps a runaway target loop (a broken sampler never converges). */
constexpr std::uint64_t kMaxWavesPerReplicate = 4096;
/** Samples per cell of fleet_fine_units. */
constexpr std::uint64_t kFleetSamples = 160 * 1024;
/** Forked workers of fleet_fine_units. */
constexpr int kFleetWorkers = 3;
/** Samples per sampled cell of the untimed headline check. */
constexpr std::uint64_t kHeadlineSamples = 20000;

CampaignSpec
inProcessSpec(const BenchConfig& cfg, std::vector<std::string> schemes,
              std::vector<ErrorPattern> patterns, std::uint64_t samples,
              std::uint64_t seed)
{
    CampaignSpec spec;
    spec.scheme_ids = std::move(schemes);
    spec.patterns = std::move(patterns);
    spec.samples = samples;
    spec.seed = seed;
    spec.threads = cfg.threads;
    return spec;
}

CampaignSpec
fleetSpec(const BenchConfig& cfg, std::uint64_t samples)
{
    CampaignSpec spec = inProcessSpec(cfg, rareSchemes(),
                                      sampledPatterns(), samples, cfg.seed);
    spec.fleet_workers = kFleetWorkers;
    spec.chunk = gpuecc::kStreamBlockSamples;
    spec.fleet_unit_shards = 1;
    return spec;
}

/**
 * Run one campaign and gate every cell it was asked for. Missing
 * (dropped) cells, scheme errors, interruption and poisoned fleet
 * units all fail cells.
 */
CampaignCall
runChecked(const CampaignSpec& spec, Gate& gate)
{
    const std::vector<ErrorPattern> patterns = spec.resolvedPatterns();
    CampaignCall call;
    call.spec = spec;
    gpuecc::Result<CampaignResult> result = CampaignRunner(spec).tryRun();
    if (!result.ok()) {
        for (const std::string& id : spec.scheme_ids) {
            for (ErrorPattern p : patterns)
                gate.fail(id + "/" + gpuecc::patternInfo(p).label +
                          ": campaign failed: " +
                          result.status().toString());
        }
        return call;
    }
    const CampaignResult& r = result.value();
    for (const gpuecc::sim::CampaignError& e : r.errors)
        gate.fail("campaign error: " + e.scheme_id + ": " + e.message);
    if (r.interrupted)
        gate.fail("campaign interrupted");
    if (r.fleet.units_poisoned > 0)
        gate.fail("fleet poisoned " +
                  std::to_string(r.fleet.units_poisoned) + " units");
    call.threads = r.spec.threads;
    call.cells.assign(r.cells.begin(), r.cells.end());
    call.seconds = r.seconds;
    call.pool = r.pool;
    call.pool.worker_busy_seconds.clear();
    call.fleet = r.fleet;
    call.fleet.worker_records.clear();
    for (const gpuecc::obs::FleetWorkerRecord& w : r.fleet.worker_records)
        call.fleet_busy_seconds += w.busy_seconds;
    for (const std::string& id : spec.scheme_ids) {
        for (ErrorPattern p : patterns) {
            const gpuecc::sim::CampaignCell* found = nullptr;
            for (const gpuecc::sim::CampaignCell& cell : call.cells) {
                if (cell.scheme_id == id && cell.pattern == p)
                    found = &cell;
            }
            if (found == nullptr) {
                gate.fail(id + "/" + gpuecc::patternInfo(p).label +
                          ": cell dropped");
                continue;
            }
            gate.checkCell(id, p, found->counts, spec.samples);
        }
    }
    return call;
}

void
addCall(RepResult& rep, CampaignCall call)
{
    rep.trials += call.trials();
    rep.calls.push_back(std::move(call));
}

RepResult
rareSdcRep(const BenchConfig& cfg, Gate& gate)
{
    RepResult rep;
    const std::vector<std::string> schemes = rareSchemes();
    const std::vector<ErrorPattern> sampled_patterns = sampledPatterns();
    addCall(rep, runChecked(inProcessSpec(cfg, schemes,
                                          enumerablePatterns(), 0,
                                          cfg.seed),
                            gate));
    std::map<std::string, PatternCounts> exact;
    for (const gpuecc::sim::CampaignCell& cell : rep.calls.back().cells)
        exact[cell.scheme_id][cell.pattern] = cell.counts;

    for (int r = 0; r < kReplicates; ++r) {
        const std::uint64_t replicate_seed =
            deriveSeed(cfg.seed, static_cast<std::uint64_t>(r) + 1);
        std::map<std::string, PatternCounts> merged = exact;
        for (const std::string& id : schemes) {
            for (ErrorPattern p : sampled_patterns)
                merged[id][p] = OutcomeCounts{};
        }
        std::vector<std::string> active = schemes;
        std::uint64_t sampled = 0;
        for (std::uint64_t wave = 0; !active.empty(); ++wave) {
            if (wave == kMaxWavesPerReplicate) {
                gate.fail("rare_sdc_ci: replicate " + std::to_string(r) +
                          " did not reach the target width");
                break;
            }
            addCall(rep, runChecked(inProcessSpec(
                                        cfg, active, sampled_patterns,
                                        kWaveSamples,
                                        deriveSeed(replicate_seed, wave)),
                                    gate));
            ++rep.waves;
            for (const gpuecc::sim::CampaignCell& cell :
                 rep.calls.back().cells) {
                merged[cell.scheme_id][cell.pattern].merge(cell.counts);
                sampled += cell.counts.trials;
            }
            std::erase_if(active, [&](const std::string& id) {
                return weightedSdcInterval(merged[id]).width <=
                       kTargetWidth;
            });
        }
        for (const std::string& id : schemes) {
            for (ErrorPattern p : sampled_patterns)
                gate.checkRates(id, p, merged[id][p]);
        }
        rep.replicates.push_back(std::move(merged));
        rep.replicate_trials.push_back(sampled);
    }
    return rep;
}

} // namespace

std::optional<Workload>
parseWorkload(const std::string& name)
{
    for (Workload w : {Workload::rare_sdc_ci, Workload::exhaustive_tab2,
                       Workload::fleet_fine_units}) {
        if (name == workloadName(w))
            return w;
    }
    return std::nullopt;
}

const char*
workloadName(Workload w)
{
    switch (w) {
    case Workload::rare_sdc_ci:
        return "rare_sdc_ci";
    case Workload::exhaustive_tab2:
        return "exhaustive_tab2";
    case Workload::fleet_fine_units:
        return "fleet_fine_units";
    }
    return "unknown";
}

RepResult
runRep(const BenchConfig& cfg, Gate& gate)
{
    switch (cfg.workload) {
    case Workload::rare_sdc_ci:
        return rareSdcRep(cfg, gate);
    case Workload::exhaustive_tab2: {
        RepResult rep;
        addCall(rep, runChecked(inProcessSpec(cfg, tableTwoSchemes(),
                                              enumerablePatterns(), 0,
                                              cfg.seed),
                                gate));
        return rep;
    }
    case Workload::fleet_fine_units: {
        RepResult rep;
        addCall(rep, runChecked(fleetSpec(cfg, kFleetSamples), gate));
        rep.waves = 1;
        return rep;
    }
    }
    return {};
}

void
runSetup(const BenchConfig& cfg, Gate& gate)
{
    const std::uint64_t block = gpuecc::kStreamBlockSamples;
    switch (cfg.workload) {
    case Workload::rare_sdc_ci:
        runChecked(inProcessSpec(cfg, rareSchemes(), sampledPatterns(),
                                 block, cfg.seed),
                   gate);
        return;
    case Workload::exhaustive_tab2:
        runChecked(inProcessSpec(cfg, tableTwoSchemes(),
                                 {ErrorPattern::oneBit}, 0, cfg.seed),
                   gate);
        return;
    case Workload::fleet_fine_units:
        runChecked(fleetSpec(cfg, block), gate);
        return;
    }
}

double
verifyWorkload(const BenchConfig& cfg, const RepResult& rep, Gate& gate)
{
    if (rep.calls.empty())
        return 0.0;
    for (const std::string& id : rareSchemes())
        gate.checkPinnedDecodes(id, *gpuecc::makeScheme(id));
    switch (cfg.workload) {
    case Workload::rare_sdc_ci: {
        // TrioECC's headline correction rate, from the first
        // replicate's tallies (all seven patterns present).
        for (const auto& [id, counts] : rep.replicates.front())
            gate.checkHeadline(id, gpuecc::weightedOutcome(counts));
        return 0.0;
    }
    case Workload::exhaustive_tab2: {
        // The exact cells plus a small untimed sample of the two
        // sampled patterns give the weighted headline figures.
        const std::vector<std::string> headline = {"ni-secded", "trio"};
        const CampaignCall sampled = runChecked(
            inProcessSpec(cfg, headline, sampledPatterns(),
                          kHeadlineSamples, cfg.seed),
            gate);
        for (const std::string& id : headline) {
            PatternCounts counts;
            for (const CampaignCall& call :
                 {rep.calls.front(), sampled}) {
                for (const gpuecc::sim::CampaignCell& cell :
                     call.cells) {
                    if (cell.scheme_id == id)
                        counts[cell.pattern] = cell.counts;
                }
            }
            if (counts.size() == gpuecc::numErrorPatterns)
                gate.checkHeadline(id, gpuecc::weightedOutcome(counts));
            else
                gate.fail(id + ": headline check lacks patterns");
        }
        return 0.0;
    }
    case Workload::fleet_fine_units: {
        CampaignSpec spec = fleetSpec(cfg, kFleetSamples);
        spec.fleet_workers = 0;
        const double cpu0 = cpuSeconds();
        const CampaignCall local = runChecked(spec, gate);
        const double cpu = cpuSeconds() - cpu0;
        for (const gpuecc::sim::CampaignCell& want : local.cells) {
            gate.checkRates(want.scheme_id, want.pattern, want.counts);
            for (const gpuecc::sim::CampaignCell& got :
                 rep.calls.front().cells) {
                if (got.scheme_id == want.scheme_id &&
                    got.pattern == want.pattern)
                    gate.checkIdentical(want.scheme_id, want.pattern,
                                        got.counts, want.counts);
            }
        }
        return cpu;
    }
    }
    return 0.0;
}

} // namespace perfbench
