/// \file test_event_queue.cpp
/// \brief Differential tests of the kernel's event order against a
/// reference std::priority_queue model.
///
/// The kernel's determinism contract is that dispatch order is EXACTLY
/// ascending (when, priority, sequence). These tests drive Simulation's
/// public scheduling API with randomized workloads and assert the
/// dispatch order matches the reference comparator element-for-element,
/// so any heap-ordering bug fails loudly here instead of surfacing as a
/// golden-trace diff.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_arena.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace {

using namespace mcps::sim;

SimTime at_us(std::int64_t us) { return SimTime::at(SimDuration::micros(us)); }

struct RefKey {
    std::int64_t when;
    std::uint64_t seq;
    std::int8_t prio;
};

/// Exact mirror of the kernel's dispatch order: ascending
/// (when, prio, seq). priority_queue pops the "largest", so the
/// comparator is the reverse.
struct RefAfter {
    bool operator()(const RefKey& a, const RefKey& b) const noexcept {
        if (a.when != b.when) return a.when > b.when;
        if (a.prio != b.prio) return a.prio > b.prio;
        return a.seq > b.seq;
    }
};

using RefQueue = std::priority_queue<RefKey, std::vector<RefKey>, RefAfter>;

/// Schedules every event into both a Simulation and the reference
/// queue. Each callback records (its schedule order, the dispatch
/// instant); since the harness is the only scheduler, schedule order is
/// the kernel's seq.
class DifferentialHarness {
public:
    void push(std::int64_t when, std::int8_t prio) {
        const std::uint64_t seq = next_seq_++;
        sim_.schedule_at(
            at_us(when),
            [this, seq] { dispatched_.emplace_back(seq, sim_.now().ticks()); },
            static_cast<EventPriority>(prio));
        ref_.push(RefKey{when, seq, prio});
    }

    /// Runs the kernel to \p limit, pops the reference up to the same
    /// limit, and asserts both dispatched the same keys in the same
    /// order. Returns the number of events dispatched.
    std::size_t run_until_and_compare(std::int64_t limit) {
        dispatched_.clear();
        sim_.run_until(at_us(limit));
        std::size_t i = 0;
        for (; !ref_.empty() && ref_.top().when <= limit; ++i) {
            const RefKey expect = ref_.top();
            ref_.pop();
            if (i >= dispatched_.size()) {
                ADD_FAILURE() << "kernel dispatched too few events by " << limit;
                return i;
            }
            EXPECT_EQ(dispatched_[i].first, expect.seq)
                << "order diverged at when=" << expect.when;
            EXPECT_EQ(dispatched_[i].second, expect.when);
        }
        EXPECT_EQ(dispatched_.size(), i);
        EXPECT_EQ(sim_.events_pending(), ref_.size());
        return i;
    }

    [[nodiscard]] std::int64_t now() const noexcept { return sim_.now().ticks(); }

private:
    Simulation sim_{2024};
    RefQueue ref_;
    std::vector<std::pair<std::uint64_t, std::int64_t>> dispatched_;
    std::uint64_t next_seq_ = 0;
};

TEST(EventQueueDifferential, RandomizedPushThenDrain) {
    DifferentialHarness h;
    RngStream rng{2024, "queue.random"};
    for (int i = 0; i < 20000; ++i) {
        // Coarse timestamps force plenty of exact collisions.
        h.push(rng.uniform_int(0, 5000),
               static_cast<std::int8_t>(rng.uniform_int(-1, 1)));
    }
    EXPECT_EQ(h.run_until_and_compare(SimTime::never().ticks()), 20000u);
}

TEST(EventQueueDifferential, InterleavedPushPop) {
    DifferentialHarness h;
    RngStream rng{7, "queue.interleave"};
    std::size_t pushed = 0;
    std::size_t popped = 0;
    for (int round = 0; round < 4000; ++round) {
        const int burst = static_cast<int>(rng.uniform_int(1, 8));
        for (int i = 0; i < burst; ++i) {
            h.push(h.now() + rng.uniform_int(0, 1000),
                   static_cast<std::int8_t>(rng.uniform_int(-1, 1)));
            ++pushed;
        }
        // Advance a random span so some of the outstanding events fire
        // and later pushes land among the ones still pending.
        popped += h.run_until_and_compare(h.now() + rng.uniform_int(0, 400));
    }
    popped += h.run_until_and_compare(SimTime::never().ticks());
    EXPECT_EQ(popped, pushed);
}

TEST(EventQueueDifferential, AllSameInstantPopsInFifoOrder) {
    Simulation s{1};
    std::vector<int> order;
    for (int i = 0; i < 1000; ++i) {
        s.schedule_at(at_us(42), [&order, i] { order.push_back(i); });
    }
    s.run_all();
    ASSERT_EQ(order.size(), 1000u);
    for (int i = 0; i < 1000; ++i) EXPECT_EQ(order[i], i);  // insertion order
    EXPECT_EQ(s.events_pending(), 0u);
}

TEST(EventQueueDifferential, PriorityBeatsFifoAtSameInstant) {
    DifferentialHarness h;
    // Insertion order deliberately scrambles priorities at one instant.
    h.push(10, 0);
    h.push(10, 1);
    h.push(10, -1);
    h.push(10, 0);
    h.push(10, -1);
    EXPECT_EQ(h.run_until_and_compare(SimTime::never().ticks()), 5u);
}

TEST(EventQueueDifferential, PopRespectsLimit) {
    Simulation s{1};
    std::vector<std::int64_t> fired;
    for (const std::int64_t when : {100, 200, 300}) {
        s.schedule_at(at_us(when), [&fired, &s] { fired.push_back(s.now().ticks()); });
    }
    s.run_until(at_us(99));
    EXPECT_TRUE(fired.empty());
    EXPECT_EQ(s.events_pending(), 3u);  // a refused pop leaves the queue untouched
    EXPECT_EQ(s.now(), at_us(99));
    s.run_until(at_us(100));  // events at exactly the limit run
    EXPECT_EQ(fired, (std::vector<std::int64_t>{100}));
    s.run_until(at_us(150));
    EXPECT_EQ(fired.size(), 1u);
    EXPECT_EQ(s.events_pending(), 2u);
    s.run_all();
    EXPECT_EQ(fired, (std::vector<std::int64_t>{100, 200, 300}));
}

/// Reference model of the full Simulation seq-assignment contract:
/// every push (including a periodic re-arm at dispatch time) takes the
/// next global sequence number, and callbacks run before their event's
/// re-arm is assigned its new seq.
TEST(SimulationDifferential, RandomOneShotsMatchSortedOrder) {
    Simulation s{99};
    auto rng = s.rng("test.diff");
    struct Scheduled {
        std::int64_t when;
        std::int8_t prio;
        std::uint64_t seq;
        int id;
    };
    std::vector<Scheduled> model;
    std::vector<int> dispatched;
    for (int i = 0; i < 5000; ++i) {
        const std::int64_t delay = rng.uniform_int(0, 2000);
        const auto prio = static_cast<std::int8_t>(rng.uniform_int(-1, 1));
        model.push_back(Scheduled{delay, prio, static_cast<std::uint64_t>(i), i});
        s.schedule_after(SimDuration::micros(delay),
                         [&dispatched, i] { dispatched.push_back(i); },
                         static_cast<EventPriority>(prio));
    }
    s.run_all();

    std::sort(model.begin(), model.end(),
              [](const Scheduled& a, const Scheduled& b) {
                  if (a.when != b.when) return a.when < b.when;
                  if (a.prio != b.prio) return a.prio < b.prio;
                  return a.seq < b.seq;
              });
    ASSERT_EQ(dispatched.size(), model.size());
    for (std::size_t i = 0; i < model.size(); ++i) {
        EXPECT_EQ(dispatched[i], model[i].id) << "divergence at position " << i;
    }
}

TEST(SimulationDifferential, PeriodicRearmTakesFreshSeqAfterCallback) {
    // One periodic process at t=10,20,30 and one-shots scheduled BY its
    // callback at the same instants it re-arms to. The re-arm happens
    // after the callback returns, so the re-armed event carries a LARGER
    // seq than anything the callback scheduled — the one-shot runs first
    // at the next instant. This pins the exact heap-era contract.
    Simulation s{5};
    std::vector<std::string> order;
    s.schedule_periodic(SimDuration::micros(10), [&s, &order] {
        order.push_back("periodic@" + std::to_string(s.now().ticks()));
        s.schedule_after(SimDuration::micros(10), [&order, &s] {
            order.push_back("oneshot@" + std::to_string(s.now().ticks()));
        });
    });
    s.run_for(SimDuration::micros(45));
    ASSERT_GE(order.size(), 4u);
    EXPECT_EQ(order[0], "periodic@10");
    EXPECT_EQ(order[1], "oneshot@20");  // scheduled first => smaller seq
    EXPECT_EQ(order[2], "periodic@20");
    EXPECT_EQ(order[3], "oneshot@30");
}

/// Cancelled events stay in the heap and are popped and released one by
/// one. With 90% of events cancelled — some right after scheduling, some
/// later from an earlier round while other events have already fired —
/// and the run advanced in random run_until steps, the dispatch order
/// must be exactly the sorted order of the surviving events.
TEST(SimulationDifferential, CancelHeavyInterleavedRunUntilMatchesSortedSurvivors) {
    EventArena arena;
    Simulation s{31, &arena};
    RngStream rng{31, "queue.cancel90"};
    struct Scheduled {
        std::int64_t when;
        std::int8_t prio;
        int id;  // schedule order == kernel seq
        bool cancelled;
    };
    std::vector<Scheduled> model;
    std::vector<EventHandle> handles;
    std::vector<int> dispatched;
    std::vector<bool> fired;
    for (int round = 0; round < 300; ++round) {
        const int burst = static_cast<int>(rng.uniform_int(1, 40));
        for (int i = 0; i < burst; ++i) {
            const int id = static_cast<int>(model.size());
            const std::int64_t when = s.now().ticks() + rng.uniform_int(0, 3000);
            const auto prio = static_cast<std::int8_t>(rng.uniform_int(-1, 1));
            model.push_back(Scheduled{when, prio, id, false});
            fired.push_back(false);
            handles.push_back(s.schedule_at(
                at_us(when),
                [&dispatched, &fired, id] {
                    dispatched.push_back(id);
                    fired[static_cast<std::size_t>(id)] = true;
                },
                static_cast<EventPriority>(prio)));
            if (rng.uniform_int(0, 9) != 0) {  // 90% cancelled up front
                EXPECT_TRUE(handles.back().cancel());
                model.back().cancelled = true;
            }
        }
        // Try to cancel a few older events: a pending one is cancelled,
        // a fired (or already cancelled) one reports false.
        for (int k = 0; k < 3; ++k) {
            const auto victim = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(model.size()) - 1));
            const bool was_pending = !fired[victim] && !model[victim].cancelled;
            EXPECT_EQ(handles[victim].cancel(), was_pending);
            if (was_pending) model[victim].cancelled = true;
        }
        s.run_until(at_us(s.now().ticks() + rng.uniform_int(0, 1500)));
        const auto due = std::count_if(
            model.begin(), model.end(), [&](const Scheduled& e) {
                return !e.cancelled && e.when <= s.now().ticks();
            });
        EXPECT_EQ(dispatched.size(), static_cast<std::size_t>(due));
    }
    s.run_all();

    std::vector<Scheduled> survivors;
    std::copy_if(model.begin(), model.end(), std::back_inserter(survivors),
                 [](const Scheduled& e) { return !e.cancelled; });
    std::sort(survivors.begin(), survivors.end(),
              [](const Scheduled& a, const Scheduled& b) {
                  if (a.when != b.when) return a.when < b.when;
                  if (a.prio != b.prio) return a.prio < b.prio;
                  return a.id < b.id;
              });
    EXPECT_LT(survivors.size(), model.size() / 5);
    ASSERT_EQ(dispatched.size(), survivors.size());
    for (std::size_t i = 0; i < survivors.size(); ++i) {
        EXPECT_EQ(dispatched[i], survivors[i].id) << "divergence at position " << i;
    }
    // Every tombstone was popped and its slot released.
    EXPECT_EQ(s.events_pending(), 0u);
    EXPECT_EQ(arena.live_nodes(), 0u);
}

}  // namespace
