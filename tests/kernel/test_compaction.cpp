/// \file test_compaction.cpp
/// \brief Cancel semantics of queued events ("tombstones").
///
/// cancel() only flags an event's node; the cancelled event stays in the
/// kernel's heap until its turn comes, and dispatch() then releases its
/// slot without running the callback. (The suite name is kept from the
/// calendar-queue kernel, which swept tombstones out in bulk.) These
/// tests pin:
///  - a cancel-heavy population fires exactly its survivors, in the
///    sorted order of their keys, identically run to run;
///  - a Simulation destroyed with cancelled events still queued leaves
///    a warm external arena with no live nodes;
///  - a periodic event cancelling itself mid-dispatch is not pending
///    and is never re-armed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_arena.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace {

using namespace mcps::sim;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
}

TEST(TombstoneCompaction, CancelledPopulationNeverFires) {
    Simulation s{7};
    auto rng = s.rng("compact.sweep");
    constexpr std::size_t kEvents = 20000;
    std::vector<EventHandle> handles;
    handles.reserve(kEvents);
    std::uint64_t fired = 0;
    for (std::size_t i = 0; i < kEvents; ++i) {
        const auto delay = SimDuration::micros(rng.uniform_int(1, 1000000));
        handles.push_back(s.schedule_after(delay, [&fired] { ++fired; }));
        if (i % 10 != 0) handles.back().cancel();  // 90% tombstones
    }
    EXPECT_EQ(s.events_pending(), kEvents);  // tombstones stay queued
    s.run_all();
    EXPECT_EQ(fired, kEvents / 10);
    EXPECT_EQ(s.events_dispatched(), kEvents / 10);
    EXPECT_EQ(s.events_pending(), 0u);
}

/// Order witness: the dispatch hash of the surviving events must be the
/// same on every run and equal to the hash of the survivors sorted by
/// (when, seq) — all events share one priority.
TEST(TombstoneCompaction, DispatchOrderMatchesCancelSemantics) {
    auto run = [](std::uint32_t events) {
        Simulation s{42};
        auto rng = s.rng("compact.order");
        std::uint64_t hash = 0x6d637073ULL;
        std::vector<EventHandle> handles;
        handles.reserve(events);
        for (std::uint32_t i = 0; i < events; ++i) {
            const auto delay =
                SimDuration::micros(rng.uniform_int(1, 1000000));
            handles.push_back(s.schedule_after(
                delay, [i, &hash] { hash = mix(hash, i); }));
            if (i % 4 != 0) handles.back().cancel();
        }
        s.run_all();
        return hash;
    };
    auto reference = [](std::uint32_t events) {
        RngStream rng{42, "compact.order"};
        std::vector<std::pair<std::int64_t, std::uint32_t>> survivors;
        for (std::uint32_t i = 0; i < events; ++i) {
            const std::int64_t delay = rng.uniform_int(1, 1000000);
            if (i % 4 == 0) survivors.emplace_back(delay, i);
        }
        std::sort(survivors.begin(), survivors.end());
        std::uint64_t hash = 0x6d637073ULL;
        for (const auto& e : survivors) hash = mix(hash, e.second);
        return hash;
    };
    const std::uint64_t big = run(20000);
    EXPECT_EQ(big, run(20000));
    EXPECT_EQ(big, reference(20000));
    const std::uint64_t small = run(1000);
    EXPECT_EQ(small, run(1000));
    EXPECT_EQ(small, reference(1000));
}

TEST(TombstoneCompaction, WarmArenaReuseStartsClean) {
    EventArena arena;
    {
        Simulation s{9, &arena};
        std::vector<EventHandle> handles;
        for (std::size_t i = 0; i < 4096; ++i) {
            handles.push_back(s.schedule_after(
                SimDuration::micros(static_cast<std::int64_t>(i + 1)), [] {}));
            handles.back().cancel();
        }
        EXPECT_EQ(arena.live_nodes(), 4096u);
        // Destroyed with tombstones still queued: the destructor must
        // release every one of their slots.
    }
    EXPECT_EQ(arena.live_nodes(), 0u);
    arena.reset();
    Simulation s2{9, &arena};
    EXPECT_EQ(s2.events_pending(), 0u);
    std::uint64_t fired = 0;
    auto h = s2.schedule_after(SimDuration::micros(5), [&fired] { ++fired; });
    (void)h;
    s2.run_all();
    EXPECT_EQ(fired, 1u);
    EXPECT_EQ(arena.live_nodes(), 0u);
}

TEST(TombstoneCompaction, PeriodicCancelMidDispatchIsNotCounted) {
    Simulation s{11};
    EventHandle self;
    std::uint64_t fired = 0;
    self = s.schedule_periodic(SimDuration::micros(10), [&] {
        ++fired;
        // Cancel from inside the callback: the node is mid-dispatch
        // (kFired set) and out of the heap, so nothing is pending; it is
        // released on the re-arm check instead of re-queued.
        EXPECT_TRUE(self.cancel());
        EXPECT_FALSE(self.pending());
        EXPECT_EQ(s.events_pending(), 0u);
    });
    s.run_for(SimDuration::micros(100));
    EXPECT_EQ(fired, 1u);
    EXPECT_EQ(s.events_pending(), 0u);
    EXPECT_FALSE(self.pending());
}

}  // namespace
