/**
 * @file
 * Self-timed throughput benchmarks: encode and decode rates per 32B
 * entry for every organization (supporting the paper's implicit claim
 * that all proposed decoders remain simple single-pass operations),
 * per-pattern error-mask sampling rates (the scalar front-end ahead
 * of the batched decoders) and 1 Beat / 1 Entry rates of the 4-lane
 * lock-step sampler, plus two campaign-engine scaling sweeps —
 * the same fault-injection campaign run at 1, 2, 4, ... worker
 * threads and again at 1, 2, 4, ... forked worker processes
 * (--fleet-workers), each with a bit-identity check against the
 * single-threaded run and the wall-clock/speedup recorded in
 * BENCH_throughput.json.
 *
 * Every codec is measured under both backends (the compiled
 * table-lookup path and the matrix/bit-by-bit reference), and one
 * campaign is run under each backend with a cell-by-cell bit-identity
 * check — the bench-level form of the differential harness guarantee.
 */

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/codec_mode.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "ecc/registry.hpp"
#include "faultsim/patterns.hpp"
#include "gf256/gf256_vec.hpp"
#include "obs/trace.hpp"
#include "sim/campaign.hpp"
#include "sim/report.hpp"

using namespace gpuecc;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

struct CodecRates
{
    double encode_mops;
    double decode_clean_mops;
    double decode_1bit_mops;
    double decode_batch_mops;
};

CodecRates
codecRates(const std::string& id, std::uint64_t iters,
           CodecBackend backend)
{
    setCodecBackend(backend);
    const auto scheme = makeScheme(id);
    Rng rng(1);
    CodecRates r{};

    EntryData data{rng.next64(), rng.next64(), rng.next64(),
                   rng.next64()};
    auto start = std::chrono::steady_clock::now();
    Bits288 sink;
    for (std::uint64_t i = 0; i < iters; ++i) {
        sink = sink ^ scheme->encode(data);
        data[0] += 1; // defeat caching
    }
    r.encode_mops = iters / secondsSince(start) / 1e6;

    const Bits288 entry = scheme->encode(data);
    std::uint64_t guard = sink.popcount();
    start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < iters; ++i)
        guard += scheme->decode(entry).data[0];
    r.decode_clean_mops = iters / secondsSince(start) / 1e6;

    Bits288 flipped = entry;
    int bit = 0;
    start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
        flipped.flip(bit);
        guard += scheme->decode(flipped).data[0];
        flipped.flip(bit);
        bit = (bit + 1) % 288;
    }
    r.decode_1bit_mops = iters / secondsSince(start) / 1e6;

    // Batched entry point on a campaign-like mix: mostly-clean
    // entries with a rotating single-bit error in every fourth slot,
    // so both the clean early-out and the correcting path are on the
    // clock. No scheme overrides decodeBatch, so this is the default
    // per-entry loop over decode(); the shard kernel itself
    // classifies error masks instead (classifyErrorBatch).
    constexpr std::size_t kBatch = 512;
    std::vector<Bits288> received(kBatch, entry);
    for (std::size_t i = 0; i < kBatch; i += 4)
        received[i].flip(static_cast<int>((i * 7) % 288));
    std::vector<EntryDecode> out(kBatch);
    std::uint64_t done = 0;
    start = std::chrono::steady_clock::now();
    while (done < iters) {
        scheme->decodeBatch(received.data(), out.data(), kBatch);
        guard += out[done % kBatch].data[0];
        done += kBatch;
    }
    r.decode_batch_mops = done / secondsSince(start) / 1e6;

    if (guard == 0x5EED5EED) // never true; defeats dead-code removal
        std::printf("guard\n");
    setCodecBackend(CodecBackend::compiled);
    return r;
}

} // namespace

int
main(int argc, char** argv)
{
    Cli cli;
    cli.addFlag("iters", "200000", "iterations per codec measurement");
    cli.addFlag("samples", "200000",
                "campaign samples per sampled pattern");
    cli.addFlag("threads", "8",
                "max worker threads for the scaling sweep "
                "(0 = one per hardware thread)");
    cli.addFlag("affinity", "false",
                "pin sweep workers to hardware threads (placement "
                "hint; tallies are identical either way)");
    cli.addFlag("seed", "0x5EED", "campaign seed");
    cli.addFlag("json", "BENCH_throughput.json",
                "output JSON path (empty to skip)");
    cli.addFlag("trace", "",
                "write a Chrome trace-event JSON of the measurement "
                "phases to this file");
    cli.parse(argc, argv,
              "Codec throughput and campaign-engine scaling.");

    const std::string trace_path = cli.getString("trace");
    if (!trace_path.empty())
        obs::startTrace(trace_path);

    const auto iters = static_cast<std::uint64_t>(cli.getInt("iters"));
    const int max_threads = ThreadPool::resolveThreadCount(
        static_cast<int>(cli.getInt("threads")));

    sim::JsonWriter json;
    json.beginObject();
    json.kv("iters", iters);

    // The gf256 vector ISA the bulk GF(2^8) kernels select on this
    // host (also echoed in the manifest). No codec in this table
    // dispatches to them: RS decode runs through a packed syndrome
    // table, so the figures here do not depend on it.
    const std::string simd_isa = gf256::isaName(gf256::bestIsa());
    json.kv("simd_isa", simd_isa);
    std::printf("gf256 vector ISA: %s\n", simd_isa.c_str());

    const char* ids[] = {"ni-secded", "duet",      "trio",
                         "i-ssc",     "i-ssc-csc", "ssc-dsd+",
                         "dsc",       "ssc-tsd"};
    TextTable codecs({"scheme", "encode M/s", "decode clean M/s",
                      "decode 1bit M/s", "decode batch M/s",
                      "ref decode M/s", "decode speedup"});
    json.key("codecs").beginArray();
    for (const char* id : ids) {
        obs::TraceSpan span(std::string("codec-rates:") + id,
                            "bench");
        const CodecRates r =
            codecRates(id, iters, CodecBackend::compiled);
        const CodecRates ref =
            codecRates(id, iters, CodecBackend::reference);
        const double speedup = ref.decode_clean_mops > 0.0
                                   ? r.decode_clean_mops /
                                         ref.decode_clean_mops
                                   : 0.0;
        codecs.addRow({id, formatFixed(r.encode_mops, 2),
                       formatFixed(r.decode_clean_mops, 2),
                       formatFixed(r.decode_1bit_mops, 2),
                       formatFixed(r.decode_batch_mops, 2),
                       formatFixed(ref.decode_clean_mops, 2),
                       formatFixed(speedup, 2) + "x"});
        json.beginObject();
        json.kv("scheme", std::string(id));
        json.kv("encode_mops", r.encode_mops);
        json.kv("decode_clean_mops", r.decode_clean_mops);
        json.kv("decode_1bit_mops", r.decode_1bit_mops);
        json.kv("reference_encode_mops", ref.encode_mops);
        json.kv("reference_decode_clean_mops", ref.decode_clean_mops);
        json.kv("reference_decode_1bit_mops", ref.decode_1bit_mops);
        json.kv("decode_speedup_vs_reference", speedup);
        // Per-backend block with the batched entry point: the shape
        // tools/compare_runs walks (elementLabel "backend"), so an RS
        // decode_mops or decode_batch_mops drop on either backend is
        // flagged per (scheme, backend) cell.
        json.key("backends").beginArray();
        for (const auto* side : {&r, &ref}) {
            json.beginObject();
            json.kv("backend", std::string(side == &r ? "compiled"
                                                      : "reference"));
            json.kv("encode_mops", side->encode_mops);
            json.kv("decode_mops", side->decode_clean_mops);
            json.kv("decode_batch_mops", side->decode_batch_mops);
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }
    json.endArray();
    std::printf("== Codec throughput (millions of 32B entries/s) ==\n");
    codecs.print();

    // Error-mask sampling: sampleErrorMask is the scalar front-end
    // that feeds the batched decoders. The table reports masks/s per
    // pattern, including the redraws of the pin/byte/beat/entry shapes
    // that must classify as requested.
    TextTable sampling({"pattern", "sample M/s"});
    json.key("mask_sampling").beginArray();
    {
        Rng mask_rng(0xA5);
        Bits288 mask_sink;
        for (ErrorPattern p : allErrorPatterns()) {
            const std::string& label = patternInfo(p).label;
            obs::TraceSpan span("mask-sampling:" + label, "bench");
            const auto start = std::chrono::steady_clock::now();
            for (std::uint64_t i = 0; i < iters; ++i)
                mask_sink = mask_sink ^ sampleErrorMask(p, mask_rng);
            const double mops = iters / secondsSince(start) / 1e6;
            sampling.addRow({label, formatFixed(mops, 2)});
            json.beginObject();
            json.kv("pattern", label);
            json.kv("sample_mops", mops);
            json.endObject();
        }
        if (mask_sink.popcount() == 0x5EED) // defeats dead-code removal
            std::printf("guard\n");
    }
    json.endArray();
    std::printf(
        "\n== Error-mask sampling (millions of masks/s) ==\n");
    sampling.print();

    // Lock-step sampling: sampleErrorMasks over four block
    // generators, as the shard kernel samples a 4-block shard; masks/s
    // counts the masks of all four lanes.
    TextTable lane_sampling({"pattern", "lanes", "sample M/s"});
    json.key("lane_sampling").beginArray();
    {
        constexpr std::size_t lanes = 4;
        Bits288 lane_sink;
        auto sink = [&](std::size_t, const Bits288& mask) {
            lane_sink = lane_sink ^ mask;
        };
        for (ErrorPattern p :
             {ErrorPattern::oneBeat, ErrorPattern::wholeEntry}) {
            const std::string& label = patternInfo(p).label;
            std::vector<Rng> rngs;
            for (std::size_t i = 0; i < lanes; ++i)
                rngs.push_back(Rng::forStream(0xA5, i));
            const std::vector<std::uint64_t> counts(
                lanes, (iters + lanes - 1) / lanes);
            obs::TraceSpan span("lane-sampling:" + label, "bench");
            const auto start = std::chrono::steady_clock::now();
            sampleErrorMasks(p, rngs, counts, std::ref(sink));
            const double mops =
                lanes * counts[0] / secondsSince(start) / 1e6;
            lane_sampling.addRow({label, std::to_string(lanes),
                                  formatFixed(mops, 2)});
            json.beginObject();
            json.kv("pattern", label);
            json.kv("lanes", static_cast<std::uint64_t>(lanes));
            json.kv("sample_mops", mops);
            json.endObject();
        }
        if (lane_sink.popcount() == 0x5EED) // defeats dead-code removal
            std::printf("guard\n");
    }
    json.endArray();
    std::printf("\n== Lock-step error-mask sampling (millions of "
                "masks/s, all lanes) ==\n");
    lane_sampling.print();

    // Campaign-engine strong scaling: the same spec at every thread
    // count from 1 to the sweep maximum (all integers up to 8, then
    // powers of two plus the max). Counts must be bit-identical at
    // every width; speedup is relative to the single-threaded run and
    // efficiency is speedup / threads — the number the CI scaling
    // gate (compare_runs --scaling-floor) enforces.
    sim::CampaignSpec spec;
    spec.scheme_ids = {"duet", "trio"};
    spec.patterns = {ErrorPattern::oneBeat, ErrorPattern::wholeEntry};
    spec.samples = static_cast<std::uint64_t>(cli.getInt("samples"));
    spec.seed = static_cast<std::uint64_t>(cli.getInt("seed"));
    spec.affinity = cli.getBool("affinity");

    const int hardware_threads = ThreadPool::hardwareThreads();
    // A 1-hardware-thread host cannot demonstrate parallel speedup:
    // every multi-threaded point just timeslices one core. Mark the
    // section invalid so nobody (human or gate) mistakes the flat
    // curve for an engine regression.
    const bool scaling_valid = hardware_threads > 1;
    if (!scaling_valid) {
        std::printf(
            "\n*** WARNING ********************************************\n"
            "*** This host has ONE hardware thread: the scaling    ***\n"
            "*** sweep below measures timeslicing, not parallelism.***\n"
            "*** The scaling section is marked \"valid\": false and  ***\n"
            "*** must not be committed as a performance baseline.  ***\n"
            "********************************************************\n");
    }

    std::vector<int> sweep;
    if (max_threads <= 8) {
        for (int t = 1; t <= max_threads; ++t)
            sweep.push_back(t);
    } else {
        for (int t = 1; t <= max_threads; t *= 2)
            sweep.push_back(t);
        if (sweep.back() != max_threads)
            sweep.push_back(max_threads);
    }

    std::printf("\n== Campaign engine strong scaling (%llu samples x "
                "%zu schemes x %zu patterns) ==\n",
                static_cast<unsigned long long>(spec.samples),
                spec.scheme_ids.size(), spec.patterns.size());
    TextTable scaling({"threads", "seconds", "trials/s", "speedup",
                       "efficiency", "bit-identical"});
    json.kv("campaign_samples", spec.samples);
    json.key("campaign_scaling").beginObject();
    json.kv("hardware_threads", hardware_threads);
    json.kv("valid", scaling_valid);
    json.kv("max_threads", max_threads);

    double base_seconds = 0.0;
    std::vector<sim::CampaignCell> reference;
    bool all_identical = true;
    bool affinity_applied = false;
    json.key("points").beginArray();
    for (int t : sweep) {
        spec.threads = t;
        obs::TraceSpan span("scaling:" + std::to_string(t) +
                                "-threads",
                            "bench");
        const sim::CampaignResult result =
            sim::CampaignRunner(spec).run();
        if (t == 1) {
            base_seconds = result.seconds;
            reference = result.cells;
        }
        affinity_applied = result.pool.affinity;
        bool identical = result.cells.size() == reference.size();
        for (std::size_t i = 0; identical && i < reference.size();
             ++i) {
            const OutcomeCounts& a = reference[i].counts;
            const OutcomeCounts& b = result.cells[i].counts;
            identical = a.trials == b.trials && a.dce == b.dce &&
                a.due == b.due && a.sdc == b.sdc;
        }
        all_identical = all_identical && identical;
        const double speedup =
            result.seconds > 0.0 ? base_seconds / result.seconds : 0.0;
        const double efficiency = speedup / t;
        scaling.addRow({std::to_string(t),
                        formatFixed(result.seconds, 3),
                        formatScientific(result.trialsPerSecond()),
                        formatFixed(speedup, 2) + "x",
                        formatFixed(efficiency, 2),
                        identical ? "yes" : "NO"});
        json.beginObject();
        json.kv("threads", t);
        json.kv("seconds", result.seconds);
        json.kv("trials_per_second", result.trialsPerSecond());
        json.kv("speedup", speedup);
        json.kv("efficiency", efficiency);
        json.kv("bit_identical", identical);
        json.endObject();
    }
    json.endArray();
    json.kv("affinity", affinity_applied);
    json.endObject();
    json.kv("all_thread_counts_bit_identical", all_identical);
    json.kv("hardware_threads", hardware_threads);
    scaling.print();
    std::printf("(host has %d hardware thread(s); speedup saturates "
                "there%s)\n",
                hardware_threads,
                scaling_valid ? "" : " — sweep marked invalid");
    if (!all_identical) {
        std::printf("ERROR: thread counts disagreed — determinism "
                    "violation\n");
        return 1;
    }

    // Fleet strong scaling: the same campaign dispatched as work
    // units to forked single-threaded worker processes over pipes.
    // Speedup is relative to the single-threaded in-process run
    // above, so the curve prices in the dispatch overhead (fork,
    // pipe round-trips, JSON wire format); every worker count must
    // tally bit-identically to the in-process reference. The gate
    // (compare_runs --scaling-floor) enforces efficiency inside
    // [2, hardware_threads] and skips sweeps marked invalid.
    std::printf("\n== Fleet strong scaling (forked worker "
                "processes) ==\n");
    TextTable fleet_table({"workers", "seconds", "trials/s",
                           "speedup", "efficiency", "bit-identical"});
    json.key("fleet_scaling").beginObject();
    json.kv("hardware_threads", hardware_threads);
    json.kv("valid", scaling_valid);
    json.kv("max_workers", max_threads);
    bool fleet_identical = true;
    double efficiency_sum = 0.0;
    int efficiency_points = 0;
    json.key("points").beginArray();
    for (int w : sweep) {
        spec.threads = 1;
        spec.fleet_workers = w;
        obs::TraceSpan span("fleet-scaling:" + std::to_string(w) +
                                "-workers",
                            "bench");
        const sim::CampaignResult result =
            sim::CampaignRunner(spec).run();
        bool identical = result.cells.size() == reference.size();
        for (std::size_t i = 0; identical && i < reference.size();
             ++i) {
            const OutcomeCounts& a = reference[i].counts;
            const OutcomeCounts& b = result.cells[i].counts;
            identical = a.trials == b.trials && a.dce == b.dce &&
                a.due == b.due && a.sdc == b.sdc;
        }
        fleet_identical = fleet_identical && identical;
        const double speedup =
            result.seconds > 0.0 ? base_seconds / result.seconds
                                 : 0.0;
        const double efficiency = speedup / w;
        if (w >= 2 && w <= hardware_threads) {
            efficiency_sum += efficiency;
            ++efficiency_points;
        }
        fleet_table.addRow({std::to_string(w),
                            formatFixed(result.seconds, 3),
                            formatScientific(
                                result.trialsPerSecond()),
                            formatFixed(speedup, 2) + "x",
                            formatFixed(efficiency, 2),
                            identical ? "yes" : "NO"});
        json.beginObject();
        json.kv("workers", w);
        json.kv("seconds", result.seconds);
        json.kv("trials_per_second", result.trialsPerSecond());
        json.kv("speedup", speedup);
        json.kv("efficiency", efficiency);
        json.kv("bit_identical", identical);
        json.endObject();
    }
    json.endArray();
    // The single number the ≥0.7 deliverable tracks: mean efficiency
    // over the gated range (0 when the host cannot show parallelism).
    json.kv("aggregate_efficiency",
            efficiency_points > 0 ? efficiency_sum / efficiency_points
                                  : 0.0);
    json.endObject();
    spec.fleet_workers = 0; // the equivalence runs stay in-process
    fleet_table.print();
    if (!scaling_valid)
        std::printf("(1-hardware-thread host: fleet sweep measures "
                    "timeslicing + dispatch overhead; marked "
                    "invalid)\n");
    if (!fleet_identical) {
        std::printf("ERROR: fleet tallies diverged from the "
                    "in-process run — determinism violation\n");
        return 1;
    }

    // Backend equivalence: the same campaign under the compiled and
    // the reference codec must tally identically, cell by cell.
    spec.threads = max_threads;
    sim::CampaignResult compiled_run, reference_run;
    {
        obs::TraceSpan span("backend-equivalence", "bench");
        setCodecBackend(CodecBackend::compiled);
        compiled_run = sim::CampaignRunner(spec).run();
        setCodecBackend(CodecBackend::reference);
        reference_run = sim::CampaignRunner(spec).run();
        setCodecBackend(CodecBackend::compiled);
    }

    bool backends_identical =
        compiled_run.cells.size() == reference_run.cells.size();
    for (std::size_t i = 0;
         backends_identical && i < compiled_run.cells.size(); ++i) {
        const OutcomeCounts& a = compiled_run.cells[i].counts;
        const OutcomeCounts& b = reference_run.cells[i].counts;
        backends_identical = a.trials == b.trials && a.dce == b.dce &&
            a.due == b.due && a.sdc == b.sdc;
    }
    const double campaign_speedup = compiled_run.seconds > 0.0
        ? reference_run.seconds / compiled_run.seconds
        : 0.0;
    std::printf("\n== Codec backend equivalence ==\n"
                "compiled %.3fs vs reference %.3fs (%.2fx), "
                "cells bit-identical: %s\n",
                compiled_run.seconds, reference_run.seconds,
                campaign_speedup, backends_identical ? "yes" : "NO");
    json.key("codec_equivalence").beginObject();
    json.kv("compiled_seconds", compiled_run.seconds);
    json.kv("reference_seconds", reference_run.seconds);
    json.kv("campaign_speedup", campaign_speedup);
    json.kv("bit_identical", backends_identical);
    json.endObject();

    // Provenance + where the time went (for tools/compare_runs). The
    // timing section describes the compiled backend-equivalence run —
    // the last full campaign this bench executed.
    json.key("manifest");
    sim::writeRunManifest(json,
                          sim::campaignRunManifest(compiled_run));
    json.key("timing");
    sim::writeCampaignTiming(json, compiled_run);
    json.endObject();
    if (!backends_identical) {
        std::printf("ERROR: compiled and reference codecs disagreed\n");
        return 1;
    }

    const std::string path = cli.getString("json");
    if (!path.empty()) {
        sim::writeTextFile(path, json.str());
        std::printf("wrote %s\n", path.c_str());
    }
    if (obs::traceEnabled()) {
        if (Status s = obs::stopTraceAndWrite(); !s.ok()) {
            warn("bench_throughput: trace write failed: " +
                 s.toString());
            return 1;
        }
        std::printf("wrote %s\n", trace_path.c_str());
    }
    return 0;
}
