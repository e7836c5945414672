#include "runner.hpp"

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "common/thread_pool.hpp"
#include "ecc/registry.hpp"
#include "layers.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace {

/** Set-up-shaped runs after each timed rep. */
constexpr int kSetupPerRep = 3;
/** Timed reps at least, however short --seconds is. */
constexpr int kMinReps = 3;
/** Untraced and traced reps of the traced run, each. */
constexpr int kTracePairs = 2;

struct Timed
{
    RepResult rep;
    double wall = 0.0;
    double cpu = 0.0;
};

Timed
timedRep(const BenchConfig& cfg, Gate& gate)
{
    Timed t;
    const double w0 = wallSeconds();
    const double c0 = cpuSeconds();
    t.rep = runRep(cfg, gate);
    t.cpu = cpuSeconds() - c0;
    t.wall = wallSeconds() - w0;
    return t;
}

/** Append kSetupPerRep wall times of the set-up-shaped run. */
void
measureSetup(const BenchConfig& cfg, Gate& gate, std::vector<double>& walls)
{
    for (int i = 0; i < kSetupPerRep; ++i) {
        const double w0 = wallSeconds();
        runSetup(cfg, gate);
        walls.push_back(wallSeconds() - w0);
    }
}

/** A later rep must reproduce the first rep's tallies exactly. */
void
checkRepAgrees(const RepResult& rep, const RepResult& first, Gate& gate)
{
    if (rep.calls.size() != first.calls.size() ||
        rep.trials != first.trials) {
        gate.fail("a rep did different work than the first");
        return;
    }
    for (std::size_t c = 0; c < rep.calls.size(); ++c) {
        const auto& got = rep.calls[c].cells;
        const auto& want = first.calls[c].cells;
        for (std::size_t i = 0; i < got.size() && i < want.size(); ++i)
            gate.checkIdentical(got[i].scheme_id, got[i].pattern,
                                got[i].counts, want[i].counts);
    }
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

std::vector<Metric>
measureEndToEnd(const RunOptions& o, Gate& gate)
{
    runSetup(o.cfg, gate); // warms lazy process state; not timed
    // Set-up is timed a few times after every rep rather than all at
    // once, so a short burst of host load cannot move its median.
    std::vector<double> setups;
    // Only the first rep's results are kept; each later rep is checked
    // against it and dropped, so memory does not grow with the rep
    // count.
    const Timed first = timedRep(o.cfg, gate);
    // Read after the first rep: later reps redo the same work, and
    // their transient allocations interleaved with the first rep's
    // kept records would only add heap fragmentation of the
    // benchmark's own making.
    const double peak_rss = peakRssMb();
    std::vector<double> walls = {first.wall};
    std::vector<double> cpus = {first.cpu};
    const double start = wallSeconds() - first.wall;
    measureSetup(o.cfg, gate, setups);
    while (static_cast<int>(walls.size()) < kMinReps ||
           wallSeconds() - start < o.seconds) {
        const Timed t = timedRep(o.cfg, gate);
        checkRepAgrees(t.rep, first.rep, gate);
        walls.push_back(t.wall);
        cpus.push_back(t.cpu);
        measureSetup(o.cfg, gate, setups);
    }
    verifyWorkload(o.cfg, first.rep, gate);

    std::cerr << "campaign_bench: " << workloadName(o.cfg.workload) << " "
              << walls.size() << " reps, " << first.rep.calls.size()
              << " campaigns per rep; rep wall/cpu s:";
    for (std::size_t i = 0; i < walls.size(); ++i)
        std::cerr << " " << walls[i] << "/" << cpus[i];
    std::cerr << "\n";
    const double attempted = static_cast<double>(gate.attempted());
    return {
        {"setup_s", median(setups), "s"},
        {"wall_s", median(walls), "s"},
        {"cpu_s", median(cpus), "s"},
        {"trials", static_cast<double>(first.rep.trials), "count"},
        {"peak_rss_mb", peak_rss, "MiB"},
        // A cell can fail more than one check, hence the clamp.
        {"cell_pass_frac",
         std::max(0.0, 1.0 - ratio(static_cast<double>(gate.failed()),
                                   attempted)),
         "fraction"},
    };
}

std::vector<Metric>
measureLayers(const RunOptions& o, Gate& gate)
{
    const BenchConfig& cfg = o.cfg;
    const bool fleet = cfg.workload == Workload::fleet_fine_units;
    setTraceWorkload(std::string(workloadName(cfg.workload)) + "/" +
                     std::to_string(cfg.seed));
    runSetup(cfg, gate); // warm lazy state, as the timed runs do
    // kTracePairs untraced reps, then as many traced ones; the replay
    // and the per-rep figures use the first (base) rep.
    const Timed base = timedRep(cfg, gate);
    double untraced_wall = base.wall;
    double untraced_cpu = base.cpu;
    for (int i = 1; i < kTracePairs; ++i) {
        const Timed t = timedRep(cfg, gate);
        checkRepAgrees(t.rep, base.rep, gate);
        untraced_wall += t.wall;
        untraced_cpu += t.cpu;
    }
    const double rep_cpu = untraced_cpu / kTracePairs;
    const double inprocess_cpu = verifyWorkload(cfg, base.rep, gate);

    gpuecc::obs::startTrace(o.trace_out);
    double traced_wall = 0.0;
    ReplayResult replay;
    WireCost wire;
    {
        LayerSpan root("sim", std::string("campaign_bench ") +
                                  workloadName(cfg.workload));
        {
            LayerSpan span("obs", "obs.buildInfo");
            std::cerr << "campaign_bench: provenance " << provenanceJson()
                      << "\n";
        }
        // The replay runs right after the untraced reps whose CPU it
        // accounts for, so host load drifts as little as possible
        // between the two.
        replay = replayCalls(base.rep.calls, cfg.threads, gate);
        if (fleet && !base.rep.calls.empty())
            wire = probeWire(base.rep.calls.front(),
                             replay.task_counts.front(), gate);
        for (int i = 0; i < kTracePairs; ++i) {
            LayerSpan span("sim", "sim.CampaignRunner::run rep");
            const Timed t = timedRep(cfg, gate);
            checkRepAgrees(t.rep, base.rep, gate);
            traced_wall += t.wall;
        }
    }
    if (gpuecc::Status s = gpuecc::obs::stopTraceAndWrite(); !s.ok())
        gate.fail("trace write failed: " + s.toString());

    const StageTotals& st = replay.stages;
    const double stage_ns = st.stageNs();
    std::vector<Metric> m = {
        {"faultsim.sample_ns.beat", ratio(st.sample_beat_ns,
                                          double(st.sampled_beat)), "ns"},
        {"faultsim.sample_ns.entry", ratio(st.sample_entry_ns,
                                           double(st.sampled_entry)), "ns"},
        {"faultsim.enumerate_ns", ratio(st.enumerate_ns,
                                        double(st.enumerated)), "ns"},
        {"faultsim.inject_ns", ratio(st.inject_ns, double(st.kernel_trials)),
         "ns"},
        {"faultsim.tally_ns", ratio(st.tally_ns, double(st.kernel_trials)),
         "ns"},
        {"faultsim.kernel_ns", ratio(st.kernel_ns, double(st.kernel_trials)),
         "ns"},
        {"faultsim.sample_share", ratio(st.sampleNs(), stage_ns), "fraction"},
        {"faultsim.enumerate_share", ratio(st.enumerate_ns, stage_ns),
         "fraction"},
        {"ecc.decode_share", ratio(st.decodeNs(), stage_ns), "fraction"},
    };

    // Measured layer time: the kernel calls, every scheme construction
    // the rep's campaigns made, and for the fleet the wire codec per
    // unit plus one construction per worker.
    double layer_s = st.kernel_ns * 1e-9;
    for (const CampaignCall& call : base.rep.calls) {
        const double copies = 1.0 + call.spec.fleet_workers;
        for (const std::string& id : call.spec.scheme_ids) {
            const auto it = replay.construct_ms.find(id);
            if (it != replay.construct_ms.end())
                layer_s += copies * median(it->second) * 1e-3;
        }
    }
    layer_s += double(wire.units) * (wire.encode_us + wire.decode_us) * 1e-6;

    for (const std::string& id : tableTwoSchemes()) {
        const auto d = st.decode.find(id);
        m.push_back({"ecc.decode_ns." + safeSchemeName(id),
                     d == st.decode.end()
                         ? 0.0
                         : ratio(d->second.first, double(d->second.second)),
                     "ns"});
    }
    for (const std::string& id : tableTwoSchemes()) {
        const auto c = replay.construct_ms.find(id);
        m.push_back({"ecc.construct_ms." + safeSchemeName(id),
                     c == replay.construct_ms.end() ? 0.0 : median(c->second),
                     "ms"});
    }

    double pool_busy = 0.0;
    double pool_capacity = 0.0;
    double busy = 0.0;
    double steals = 0.0;
    const gpuecc::obs::FleetTelemetry* ft = nullptr;
    double fleet_wall = 0.0;
    for (const CampaignCall& call : base.rep.calls) {
        const gpuecc::obs::PoolTelemetry& pool = call.pool;
        pool_busy += pool.busy_seconds;
        pool_capacity += pool.wall_seconds * pool.threads;
        steals += static_cast<double>(pool.steals);
        if (call.spec.fleet_workers > 0) {
            ft = &call.fleet;
            fleet_wall += call.seconds;
            busy += call.fleet_busy_seconds;
        }
    }
    m.push_back({"common.pool_idle_frac",
                 pool_capacity > 0.0 ? 1.0 - pool_busy / pool_capacity : 0.0,
                 "fraction"});
    m.push_back({"common.pool_steals", steals, "count"});

    m.push_back({"sim.cpu_s", rep_cpu, "s"});
    m.push_back({"sim.layer_cpu_s", layer_s, "s"});
    m.push_back({"sim.unattributed_cpu_s", rep_cpu - layer_s, "s"});
    m.push_back({"sim.waves", double(base.rep.waves), "count"});

    const double units = ft != nullptr ? double(ft->units) : 0.0;
    m.push_back({"fleet.overhead_ms_per_unit",
                 fleet ? ratio(rep_cpu - inprocess_cpu, units) * 1e3 : 0.0,
                 "ms"});
    m.push_back({"fleet.worker_busy_frac",
                 ft != nullptr
                     ? ratio(busy, fleet_wall * ft->workers)
                     : 0.0,
                 "fraction"});
    m.push_back({"fleet.encode_result_us", wire.encode_us, "us"});
    m.push_back({"fleet.decode_result_us", wire.decode_us, "us"});
    m.push_back({"fleet.result_line_bytes", wire.line_bytes, "bytes"});
    m.push_back({"fleet.requeues",
                 ft != nullptr ? double(ft->requeues) : 0.0, "count"});
    m.push_back({"fleet.duplicate_results",
                 ft != nullptr ? double(ft->duplicate_results) : 0.0,
                 "count"});
    m.push_back({"fleet.units_poisoned",
                 ft != nullptr ? double(ft->units_poisoned) : 0.0, "count"});
    m.push_back({"obs.trace_overhead_frac",
                 ratio(traced_wall, untraced_wall) - 1.0, "fraction"});
    m.push_back({"sim.cell_fail_frac",
                 ratio(double(gate.failed()), double(gate.attempted())),
                 "fraction"});
    return m;
}

namespace {

const char* const kPatternEnum[] = {"oneBit",  "onePin",    "oneByte",
                                    "twoBits", "threeBits", "oneBeat",
                                    "wholeEntry"};

void
printCells(const std::vector<gpuecc::sim::CampaignCell>& cells)
{
    for (const gpuecc::sim::CampaignCell& cell : cells) {
        std::printf("{\"%s\", ErrorPattern::%s, %llu, %llu, %llu, %llu},\n",
                    cell.scheme_id.c_str(),
                    kPatternEnum[static_cast<int>(cell.pattern)],
                    static_cast<unsigned long long>(cell.counts.trials),
                    static_cast<unsigned long long>(cell.counts.dce),
                    static_cast<unsigned long long>(cell.counts.due),
                    static_cast<unsigned long long>(cell.counts.sdc));
    }
}

} // namespace

void
printExactTable(const BenchConfig& base)
{
    BenchConfig cfg = base;
    cfg.workload = Workload::exhaustive_tab2;
    Gate ignored;
    const RepResult rep = runRep(cfg, ignored);
    printCells(rep.calls.front().cells);
}

void
printRateTable(const BenchConfig& cfg)
{
    constexpr std::uint64_t kReferenceSamples = std::uint64_t{1} << 24;
    gpuecc::sim::CampaignSpec spec;
    spec.scheme_ids = rareSchemes();
    spec.patterns = sampledPatterns();
    spec.samples = kReferenceSamples;
    spec.seed = cfg.seed;
    spec.threads = cfg.threads;
    printCells(gpuecc::sim::CampaignRunner(spec).run().cells);
}

void
printMaskTable(const BenchConfig& cfg)
{
    // Per cell: the first kFirstMasks draws, then SDC masks until
    // kSdcMasks are pinned or the search budget runs out.
    constexpr std::uint64_t kFirstMasks = 8;
    constexpr int kSdcMasks = 4;
    constexpr std::uint64_t kSearchSamples = std::uint64_t{1} << 23;
    struct Cell
    {
        std::string id;
        ErrorPattern pattern;
        std::vector<std::pair<Outcome, gpuecc::Bits288>> masks;
    };
    std::vector<Cell> cells;
    for (const std::string& id : rareSchemes()) {
        for (ErrorPattern p : sampledPatterns())
            cells.push_back({id, p, {}});
    }
    gpuecc::ThreadPool pool(cfg.threads);
    pool.parallelFor(cells.size(), [&](std::uint64_t c) {
        Cell& cell = cells[c];
        const std::shared_ptr<gpuecc::EntryScheme> scheme =
            gpuecc::makeScheme(cell.id);
        const gpuecc::GoldenEntry golden = gpuecc::makeGolden(*scheme, 0);
        gpuecc::Rng rng(deriveSeed(cfg.seed, c));
        int sdc = 0;
        for (std::uint64_t i = 0; i < kSearchSamples && sdc < kSdcMasks;
             ++i) {
            const gpuecc::Bits288 mask =
                gpuecc::sampleErrorMask(cell.pattern, rng);
            const Outcome o = classifyDecode(*scheme, golden, mask);
            if (i < kFirstMasks || o == Outcome::sdc)
                cell.masks.push_back({o, mask});
            if (o == Outcome::sdc)
                ++sdc;
        }
    });
    for (const Cell& cell : cells) {
        for (const auto& [o, mask] : cell.masks) {
            std::printf("{\"%s\", ErrorPattern::%s, Outcome::%s, {",
                        cell.id.c_str(),
                        kPatternEnum[static_cast<int>(cell.pattern)],
                        outcomeName(o));
            for (int w = 0; w < gpuecc::Bits288::numWords; ++w)
                std::printf("%s0x%016llxull", w ? ", " : "",
                            static_cast<unsigned long long>(mask.word(w)));
            std::printf("}},\n");
        }
    }
}

} // namespace perfbench
