#include "layers.hpp"

#include <time.h>

#include <atomic>
#include <chrono>
#include <memory>

#include "common/codec_mode.hpp"
#include "common/thread_pool.hpp"
#include "ecc/registry.hpp"
#include "faultsim/shard.hpp"
#include "fleet/protocol.hpp"
#include "sim/checkpoint.hpp"

namespace perfbench {

using gpuecc::Bits288;
using gpuecc::EntryDecode;
using gpuecc::EntryScheme;
using gpuecc::GoldenEntry;
using gpuecc::Shard;
using gpuecc::ShardBatchArena;
using gpuecc::kShardBatchEntries;
using gpuecc::kStreamBlockSamples;

namespace {

std::string g_workload_id;
std::atomic<std::uint64_t> g_next_span{0};
thread_local std::uint64_t t_open_span = 0;

/** This thread's CPU time, ns. */
double
threadCpuNs()
{
    struct timespec ts = {};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e9 +
           static_cast<double>(ts.tv_nsec);
}

double
nowNs()
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Run @p stage, inside a span when @p traced, and return its wall
 * time in ns. The clock starts after the span opens and stops before
 * it closes, so the span's own cost stays out of the stage time.
 */
template <class Stage>
double
timedStage(bool traced, const char* layer, const char* name, Stage&& stage)
{
    std::optional<LayerSpan> span;
    if (traced)
        span.emplace(layer, name);
    const double t0 = nowNs();
    stage();
    return nowNs() - t0;
}

/** The plan a call's runner built (same chunk rule as the runner). */
struct Plan
{
    std::vector<std::string> ids;
    std::vector<ErrorPattern> patterns;
    std::uint64_t chunk = 0;
    struct Task
    {
        std::size_t scheme;
        std::size_t cell;
        Shard shard;
    };
    std::vector<Task> tasks;
};

Plan
planOf(const CampaignCall& call)
{
    const gpuecc::sim::CampaignSpec& spec = call.spec;
    Plan plan;
    plan.ids = spec.scheme_ids;
    plan.patterns = spec.resolvedPatterns();
    // In-process runs split for their threads, pipe fleets for their
    // worker slots; tallies are chunk-invariant either way.
    const int width =
        spec.fleet_workers > 0
            ? spec.fleet_workers *
                  static_cast<int>(spec.fleet_unit_shards)
            : call.threads;
    plan.chunk =
        gpuecc::effectiveShardChunk(spec.samples, spec.chunk, width);
    for (std::size_t s = 0; s < plan.ids.size(); ++s) {
        for (std::size_t p = 0; p < plan.patterns.size(); ++p) {
            const std::size_t cell = s * plan.patterns.size() + p;
            for (const Shard& shard : gpuecc::planShards(
                     plan.patterns[p], spec.samples, plan.chunk))
                plan.tasks.push_back({s, cell, shard});
        }
    }
    return plan;
}

/**
 * The batched kernel, stage by stage: identical draws, injection,
 * decode and tally to evaluateShardBatched, with a clock read around
 * each stage of each batch. Stage spans are recorded for the shard's
 * first batch only, which keeps the trace small; the totals cover
 * every batch.
 */
OutcomeCounts
stagedShard(const EntryScheme& scheme, const std::string& scheme_id,
            const GoldenEntry& golden, std::uint64_t seed,
            const Shard& shard, ShardBatchArena& arena, StageTotals& t)
{
    OutcomeCounts counts;
    std::pair<double, std::uint64_t>& decode = t.decode[scheme_id];
    std::size_t filled = 0;
    bool first_batch = true;
    double flush_ns = 0.0;

    auto flush = [&] {
        if (filled == 0)
            return;
        const double flush_start = nowNs();
        const bool traced = first_batch;
        first_batch = false;
        t.inject_ns += timedStage(traced, "faultsim", "faultsim.inject", [&] {
            for (std::size_t i = 0; i < filled; ++i)
                arena.received[i] = golden.entry ^ arena.masks[i];
        });
        decode.first += timedStage(
            traced, "ecc", "ecc.EntryScheme::decodeBatch", [&] {
                scheme.decodeBatch(arena.received.data(),
                                   arena.decodes.data(), filled);
            });
        decode.second += filled;
        t.tally_ns += timedStage(traced, "faultsim", "faultsim.tally", [&] {
            for (std::size_t i = 0; i < filled; ++i) {
                const EntryDecode& result = arena.decodes[i];
                ++counts.trials;
                if (result.status == EntryDecode::Status::due)
                    ++counts.due;
                else if (result.data == golden.data)
                    ++counts.dce;
                else
                    ++counts.sdc;
            }
        });
        // The whole flush, spans included, for the enumeration's self
        // time below.
        flush_ns += nowNs() - flush_start;
        filled = 0;
    };

    if (gpuecc::patternIsEnumerable(shard.pattern)) {
        counts.exhaustive = true;
        std::uint64_t visited = 0;
        const double call_ns = timedStage(
            true, "faultsim", "faultsim.forEachErrorMaskInRange", [&] {
                visited = gpuecc::forEachErrorMaskInRange(
                    shard.pattern, shard.begin, shard.end,
                    [&](const Bits288& mask) {
                        arena.masks[filled++] = mask;
                        if (filled == kShardBatchEntries)
                            flush();
                    });
            });
        // Enumeration self time: the call minus the batches it
        // flushed from inside its callback.
        t.enumerate_ns += call_ns - flush_ns;
        t.enumerated += visited;
    } else {
        const bool beat = shard.pattern == ErrorPattern::oneBeat;
        double& sample_ns = beat ? t.sample_beat_ns : t.sample_entry_ns;
        std::uint64_t& sampled = beat ? t.sampled_beat : t.sampled_entry;
        const std::uint64_t num_blocks =
            (shard.end - shard.begin + kStreamBlockSamples - 1) /
            kStreamBlockSamples;
        const double t0 = nowNs();
        if (arena.block_rngs.size() < num_blocks)
            arena.block_rngs.resize(num_blocks);
        gpuecc::Rng::forStreams(seed, shard.stream, num_blocks,
                                arena.block_rngs.data());
        sample_ns += nowNs() - t0;
        for (std::uint64_t i = shard.begin; i < shard.end;) {
            const std::uint64_t stop = std::min<std::uint64_t>(
                shard.end, i + kShardBatchEntries);
            sample_ns += timedStage(
                first_batch, "faultsim", "faultsim.sampleErrorMask", [&] {
                    for (; i < stop; ++i) {
                        gpuecc::Rng& rng =
                            arena.block_rngs[(i - shard.begin) /
                                             kStreamBlockSamples];
                        arena.masks[filled++] =
                            gpuecc::sampleErrorMask(shard.pattern, rng);
                    }
                });
            flush();
        }
        sampled += shard.end - shard.begin;
    }
    flush();
    return counts;
}

/** Per-worker state of a replay. */
struct ReplayWorker
{
    ShardBatchArena arena;
    StageTotals stages;
    std::vector<OutcomeCounts> kernel_cells;
    std::vector<OutcomeCounts> staged_cells;
};

} // namespace

void
setTraceWorkload(const std::string& workload_id)
{
    g_workload_id = workload_id;
}

LayerSpan::LayerSpan(const char* layer, const std::string& name,
                     std::uint64_t parent)
{
    if (!gpuecc::obs::traceEnabled())
        return;
    id_ = g_next_span.fetch_add(1, std::memory_order_relaxed) + 1;
    restore_ = t_open_span;
    span_.emplace(name, layer);
    span_->arg("id", id_)
        .arg("parent", parent == kInherit ? t_open_span : parent)
        .arg("workload", g_workload_id);
    t_open_span = id_;
}

LayerSpan::~LayerSpan()
{
    if (id_ != 0)
        t_open_span = restore_;
}

std::uint64_t
CampaignCall::trials() const
{
    std::uint64_t total = 0;
    for (const gpuecc::sim::CampaignCell& cell : cells)
        total += cell.counts.trials;
    return total;
}

void
StageTotals::merge(const StageTotals& o)
{
    sample_beat_ns += o.sample_beat_ns;
    sampled_beat += o.sampled_beat;
    sample_entry_ns += o.sample_entry_ns;
    sampled_entry += o.sampled_entry;
    enumerate_ns += o.enumerate_ns;
    enumerated += o.enumerated;
    inject_ns += o.inject_ns;
    tally_ns += o.tally_ns;
    kernel_ns += o.kernel_ns;
    kernel_trials += o.kernel_trials;
    for (const auto& [id, d] : o.decode) {
        decode[id].first += d.first;
        decode[id].second += d.second;
    }
}

double
StageTotals::decodeNs() const
{
    double ns = 0.0;
    for (const auto& entry : decode)
        ns += entry.second.first;
    return ns;
}

double
StageTotals::stageNs() const
{
    return sampleNs() + enumerate_ns + inject_ns + decodeNs() + tally_ns;
}

ReplayResult
replayCalls(const std::vector<CampaignCall>& calls, int threads,
            Gate& gate)
{
    ReplayResult out;
    LayerSpan replay_span("sim", "replay");
    for (const CampaignCall& call : calls) {
        LayerSpan call_span("sim", "replay CampaignRunner::run");
        const Plan plan = planOf(call);
        const std::uint64_t seed = call.spec.seed;

        std::vector<std::shared_ptr<EntryScheme>> schemes;
        std::vector<GoldenEntry> goldens;
        for (const std::string& id : plan.ids) {
            {
                LayerSpan span("ecc", "ecc.makeScheme " + id);
                const double t0 = nowNs();
                schemes.push_back(gpuecc::makeScheme(id));
                out.construct_ms[id].push_back((nowNs() - t0) * 1e-6);
            }
            goldens.push_back(gpuecc::makeGolden(*schemes.back(), seed));
        }

        const std::size_t num_cells = plan.ids.size() * plan.patterns.size();
        const bool keep_tasks = call.spec.fleet_workers > 0;
        std::vector<OutcomeCounts> task_counts(
            keep_tasks ? plan.tasks.size() : 0);
        std::atomic<bool> shard_mismatch{false};

        LayerSpan pool_span("common", "common.ThreadPool::parallelFor");
        const std::uint64_t pool_span_id = pool_span.id();
        gpuecc::ThreadPool pool(threads);
        gpuecc::WorkerArena<ReplayWorker> workers(pool);
        for (int w = 0; w < workers.size(); ++w) {
            workers.at(w).kernel_cells.resize(num_cells);
            workers.at(w).staged_cells.resize(num_cells);
        }
        pool.parallelFor(plan.tasks.size(), [&](std::uint64_t i) {
            const Plan::Task& task = plan.tasks[i];
            const std::string& id = plan.ids[task.scheme];
            ReplayWorker& w = workers.local();
            LayerSpan shard_span("faultsim",
                                 "faultsim.shard " + id + " " +
                                     safePatternName(task.shard.pattern),
                                 pool_span_id);
            OutcomeCounts kernel;
            {
                LayerSpan span("faultsim",
                               "faultsim.evaluateShardBatched");
                // CPU, not wall: the kernel's time is what
                // sim.layer_cpu_s sets against the campaign's CPU
                // seconds.
                const double t0 = threadCpuNs();
                kernel = gpuecc::evaluateShardBatched(
                    *schemes[task.scheme], goldens[task.scheme], seed,
                    task.shard, w.arena);
                w.stages.kernel_ns += threadCpuNs() - t0;
            }
            w.stages.kernel_trials += kernel.trials;
            const OutcomeCounts staged =
                stagedShard(*schemes[task.scheme], id,
                            goldens[task.scheme], seed, task.shard,
                            w.arena, w.stages);
            if (!sameCounts(kernel, staged))
                shard_mismatch.store(true, std::memory_order_relaxed);
            w.kernel_cells[task.cell].merge(kernel);
            w.staged_cells[task.cell].merge(staged);
            if (keep_tasks)
                task_counts[i] = kernel;
        });

        std::vector<OutcomeCounts> kernel_cells(num_cells);
        std::vector<OutcomeCounts> staged_cells(num_cells);
        for (int w = 0; w < workers.size(); ++w) {
            const ReplayWorker& rw = workers.at(w);
            out.stages.merge(rw.stages);
            for (std::size_t c = 0; c < num_cells; ++c) {
                if (rw.kernel_cells[c].trials > 0) {
                    kernel_cells[c].merge(rw.kernel_cells[c]);
                    staged_cells[c].merge(rw.staged_cells[c]);
                }
            }
        }
        if (shard_mismatch.load())
            gate.fail("replay: staged pass disagrees with "
                      "evaluateShardBatched on some shard");
        for (std::size_t c = 0; c < num_cells; ++c) {
            const std::string& id = plan.ids[c / plan.patterns.size()];
            const ErrorPattern p = plan.patterns[c % plan.patterns.size()];
            bool found = false;
            for (const gpuecc::sim::CampaignCell& cell :
                 call.cells) {
                if (cell.scheme_id != id || cell.pattern != p)
                    continue;
                found = true;
                if (!sameCounts(cell.counts, kernel_cells[c]) ||
                    !sameCounts(cell.counts, staged_cells[c]))
                    gate.fail("replay: " + id + "/" +
                              gpuecc::patternInfo(p).label +
                              " tallies differ from the campaign's");
            }
            if (!found)
                gate.fail("replay: campaign has no cell " + id + "/" +
                          gpuecc::patternInfo(p).label);
        }
        out.task_counts.push_back(std::move(task_counts));
    }
    return out;
}

WireCost
probeWire(const CampaignCall& call,
          const std::vector<OutcomeCounts>& task_counts, Gate& gate)
{
    namespace fleet = gpuecc::sim::fleet;
    const Plan plan = planOf(call);
    const std::string fingerprint = gpuecc::sim::campaignFingerprint(
        plan.ids, plan.patterns, call.spec.samples, call.spec.seed,
        plan.chunk, gpuecc::codecBackendName(), plan.tasks.size());
    const std::uint64_t per_unit = call.spec.fleet_unit_shards;

    // The messages the workers send: one per unit, in unit order.
    std::vector<fleet::WorkerMessage> messages;
    for (std::uint64_t first = 0; first < task_counts.size();
         first += per_unit) {
        fleet::WorkerMessage m;
        m.unit = messages.size();
        m.worker = static_cast<int>(m.unit %
                                    static_cast<std::uint64_t>(std::max(
                                        1, call.spec.fleet_workers)));
        m.busy_us = static_cast<std::uint64_t>(
            call.fleet_busy_seconds * 1e6 /
            static_cast<double>(std::max<std::uint64_t>(
                1, call.fleet.units)));
        m.checkpoint.fingerprint = fingerprint;
        const std::uint64_t end =
            std::min<std::uint64_t>(task_counts.size(), first + per_unit);
        for (std::uint64_t i = first; i < end; ++i)
            m.checkpoint.done.push_back({i, task_counts[i]});
        messages.push_back(std::move(m));
    }

    WireCost cost;
    cost.units = messages.size();
    if (messages.empty())
        return cost;
    std::vector<std::string> lines(messages.size());
    std::vector<double> encode_ns;
    std::vector<double> decode_ns;
    double bytes = 0.0;
    constexpr int kPasses = 5;
    for (int pass = 0; pass < kPasses; ++pass) {
        encode_ns.push_back(
            timedStage(true, "fleet", "fleet.encodeResultLine", [&] {
                for (std::size_t u = 0; u < messages.size(); ++u)
                    lines[u] = fleet::encodeResultLine(messages[u]);
            }));
        if (pass == 0) {
            for (const std::string& line : lines)
                bytes += static_cast<double>(line.size());
        }
        // The line reader hands the decoder lines without their
        // terminator.
        for (std::string& line : lines) {
            if (!line.empty() && line.back() == '\n')
                line.pop_back();
        }
        bool round_trip = true;
        decode_ns.push_back(
            timedStage(true, "fleet", "fleet.decodeWorkerLine", [&] {
                for (std::size_t u = 0; u < lines.size(); ++u) {
                    gpuecc::Result<fleet::WorkerMessage> decoded =
                        fleet::decodeWorkerLine(lines[u]);
                    if (!decoded.ok() ||
                        decoded.value().checkpoint.done.size() !=
                            messages[u].checkpoint.done.size()) {
                        round_trip = false;
                        continue;
                    }
                    const auto& got = decoded.value().checkpoint.done;
                    const auto& want = messages[u].checkpoint.done;
                    for (std::size_t e = 0; e < got.size(); ++e) {
                        if (got[e].task != want[e].task ||
                            !sameCounts(got[e].counts, want[e].counts))
                            round_trip = false;
                    }
                }
            }));
        if (!round_trip && pass == 0)
            gate.fail("fleet wire: result lines do not round-trip");
    }
    const double units = static_cast<double>(messages.size());
    cost.encode_us = median(encode_ns) * 1e-3 / units;
    cost.decode_us = median(decode_ns) * 1e-3 / units;
    cost.line_bytes = bytes / units;
    return cost;
}

} // namespace perfbench
