/// \file bench_micro_kernel.cpp
/// \brief Micro-benchmarks of the discrete-event kernel's hot paths.
///
/// Four workloads, each reported as events/sec/core (single-threaded,
/// best-of-N steady-state reps against a warm EventArena):
///   - schedule_dispatch: 200k one-shot events, scheduled then drained.
///     This is the headline kernel-throughput metric tracked in
///     BENCH_<n>.json across PRs.
///   - periodic: 100 processes at 1 Hz over 1000 simulated seconds
///     (in-place re-arm path; zero allocations per firing).
///   - churn: 200k randomized-deadline events, every other one
///     cancelled via its EventHandle before the drain.
///   - churn90: the cancel-heavy variant (9 of 10 events cancelled);
///     every cancelled event is still popped from the kernel's heap and
///     released one by one, so this is the cancel worst case.
///   - bus: 64 subscribers x 20k publishes over an ideal channel
///     (pooled messages + inline delivery callbacks).
///
/// Besides throughput, the report carries the allocation counters that
/// back the "zero per-event heap allocation" claim: arena chunk/heap
/// callback counts and message-pool slot allocations measured across a
/// warm rep (both must be 0 in steady state).
///
/// The reference numbers this bench is compared against live in
/// bench/baselines/ (captured on the heap + per-event-`new` kernel that
/// preceded the arena, with the exact same workload constants); tools/bench_baseline.sh computes the
/// speedup and writes BENCH_<n>.json.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_io.hpp"
#include "net/net.hpp"
#include "sim/sim.hpp"

using namespace mcps;
using namespace mcps::sim::literals;
using Clock = std::chrono::steady_clock;

namespace {

// Workload constants — MUST stay in sync with the checked-in reference
// capture (bench/baselines/), or the speedup ratio becomes meaningless.
std::size_t g_schedule_events = 200000;
std::size_t g_periodic_procs = 100;
std::int64_t g_periodic_horizon_s = 1000;
std::size_t g_churn_events = 200000;
std::size_t g_churn90_events = 200000;
std::size_t g_bus_subscribers = 64;
std::size_t g_bus_publishes = 20000;
int g_reps = 5;

/// Shared warm arena: every rep resets it, so reps measure steady-state
/// throughput (recycled nodes, no chunk growth) rather than first-run
/// page faults. The first call is the warm-up and is never timed.
sim::EventArena g_arena;

double best_seconds(int reps, double (*fn)()) {
    (void)fn();  // warm-up rep (populates arena slabs); excluded
    double best = 1e100;
    for (int r = 0; r < reps; ++r) {
        const double s = fn();
        if (s < best) best = s;
    }
    return best;
}

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double run_schedule_dispatch() {
    g_arena.reset();
    const auto t0 = Clock::now();
    sim::Simulation s{1, &g_arena};
    for (std::size_t i = 0; i < g_schedule_events; ++i) {
        s.schedule_after(sim::SimDuration::micros(static_cast<std::int64_t>(i)),
                         [] {});
    }
    s.run_all();
    const double elapsed = seconds_since(t0);
    if (s.events_dispatched() != g_schedule_events) std::abort();
    return elapsed;
}

double run_periodic() {
    g_arena.reset();
    const auto t0 = Clock::now();
    sim::Simulation s{1, &g_arena};
    for (std::size_t i = 0; i < g_periodic_procs; ++i) {
        s.schedule_periodic(1_s, [] {});
    }
    s.run_until(sim::SimTime::origin() +
                sim::SimDuration::seconds(g_periodic_horizon_s));
    return seconds_since(t0);
}

double run_churn() {
    g_arena.reset();
    const auto t0 = Clock::now();
    sim::Simulation s{1, &g_arena};
    auto rng = s.rng("bench.churn");
    std::vector<sim::EventHandle> handles;
    handles.reserve(g_churn_events);
    for (std::size_t i = 0; i < g_churn_events; ++i) {
        const auto delay = sim::SimDuration::micros(rng.uniform_int(0, 1000000));
        handles.push_back(s.schedule_after(delay, [] {}));
        if ((i & 1u) != 0) handles.back().cancel();
    }
    s.run_all();
    return seconds_since(t0);
}

double run_churn90() {
    g_arena.reset();
    const auto t0 = Clock::now();
    sim::Simulation s{1, &g_arena};
    auto rng = s.rng("bench.churn90");
    std::vector<sim::EventHandle> handles;
    handles.reserve(g_churn90_events);
    for (std::size_t i = 0; i < g_churn90_events; ++i) {
        const auto delay = sim::SimDuration::micros(rng.uniform_int(0, 1000000));
        handles.push_back(s.schedule_after(delay, [] {}));
        if (i % 10 != 0) handles.back().cancel();
    }
    s.run_all();
    return seconds_since(t0);
}

/// Pool slot allocations observed during the most recent bus rep after
/// the first publish (zero once the pool is warm within the rep).
std::uint64_t g_bus_steady_slot_allocs = 0;

double run_bus_publish() {
    g_arena.reset();
    const auto t0 = Clock::now();
    sim::Simulation s{1, &g_arena};
    net::Bus bus{s, net::ChannelParameters::ideal()};
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < g_bus_subscribers; ++i) {
        bus.subscribe("sub" + std::to_string(i), "vitals/*",
                      [&sink](const net::Message& m) { sink += m.seq; });
    }
    std::uint64_t slot_allocs_after_first = 0;
    for (std::size_t i = 0; i < g_bus_publishes; ++i) {
        bus.publish("pub", "vitals/bed1/spo2",
                    net::VitalSignPayload{"spo2", 97.0, true});
        s.run_all();
        if (i == 0) slot_allocs_after_first = bus.pool_stats().slot_allocs;
    }
    const double elapsed = seconds_since(t0);
    if (sink == 0) std::abort();
    g_bus_steady_slot_allocs =
        bus.pool_stats().slot_allocs - slot_allocs_after_first;
    return elapsed;
}

}  // namespace

int main(int argc, char** argv) {
    benchio::JsonReporter report{argc, argv, "micro_kernel"};
    report.set_seed(1);
    if (benchio::quick_mode(argc, argv)) {
        g_schedule_events = 20000;
        g_periodic_procs = 20;
        g_periodic_horizon_s = 100;
        g_churn_events = 20000;
        g_churn90_events = 20000;
        g_bus_subscribers = 8;
        g_bus_publishes = 1000;
        g_reps = 2;
    }

    const double sd = best_seconds(g_reps, run_schedule_dispatch);

    // Allocation audit: one extra warm rep bracketed by arena stats. In
    // steady state the kernel must not touch the heap at all.
    const sim::ArenaStats before = g_arena.stats();
    (void)run_schedule_dispatch();
    const sim::ArenaStats after = g_arena.stats();
    const double steady_heap_allocs =
        static_cast<double>(after.heap_allocs() - before.heap_allocs());
    const double steady_recycled =
        static_cast<double>(after.nodes_recycled - before.nodes_recycled);

    const double pe = best_seconds(g_reps, run_periodic);
    const double ch = best_seconds(g_reps, run_churn);
    const double ch90 = best_seconds(g_reps, run_churn90);
    const double bp = best_seconds(std::max(2, g_reps - 2), run_bus_publish);

    const double sd_eps = static_cast<double>(g_schedule_events) / sd;
    const double pe_eps = static_cast<double>(g_periodic_procs) *
                          static_cast<double>(g_periodic_horizon_s) / pe;
    const double ch_eps = static_cast<double>(g_churn_events) / ch;
    const double ch90_eps = static_cast<double>(g_churn90_events) / ch90;
    const double bp_eps = static_cast<double>(g_bus_subscribers) *
                          static_cast<double>(g_bus_publishes) / bp;

    std::printf("kernel micro-benchmarks (single core, steady-state)\n");
    std::printf("  %-22s %12.0f events/sec\n", "schedule+dispatch", sd_eps);
    std::printf("  %-22s %12.0f events/sec\n", "periodic re-arm", pe_eps);
    std::printf("  %-22s %12.0f events/sec\n", "churn (50% cancel)", ch_eps);
    std::printf("  %-22s %12.0f events/sec\n", "churn (90% cancel)", ch90_eps);
    std::printf("  %-22s %12.0f deliveries/sec\n", "bus publish", bp_eps);
    std::printf("  steady-state heap allocs/rep: %.0f (arena), %llu (bus pool)\n",
                steady_heap_allocs,
                static_cast<unsigned long long>(g_bus_steady_slot_allocs));

    report.metric("schedule_dispatch_events_per_sec_core", sd_eps,
                  "events/sec/core");
    report.metric("periodic_events_per_sec_core", pe_eps, "events/sec/core");
    report.metric("churn_events_per_sec_core", ch_eps, "events/sec/core");
    report.metric("churn_cancel90_events_per_sec_core", ch90_eps,
                  "events/sec/core");
    report.metric("bus_deliveries_per_sec_core", bp_eps, "events/sec/core");
    report.metric("steady_state_arena_heap_allocs", steady_heap_allocs,
                  "allocs/rep");
    report.metric("steady_state_arena_nodes_recycled", steady_recycled,
                  "nodes/rep");
    report.metric("steady_state_bus_pool_slot_allocs",
                  static_cast<double>(g_bus_steady_slot_allocs), "allocs/rep");
    report.metric("arena_chunk_allocs_total",
                  static_cast<double>(g_arena.stats().chunk_allocs), "chunks");
    report.metric("arena_heap_callbacks_total",
                  static_cast<double>(g_arena.stats().heap_callbacks),
                  "callbacks");
    if (!report.write()) return 1;
    return 0;
}
