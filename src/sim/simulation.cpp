#include "simulation.hpp"

#include <algorithm>
#include <utility>

namespace mcps::sim {

bool EventHandle::cancel() noexcept {
    EventNode* n = live_node();
    if (n == nullptr) return false;
    if ((n->flags & EventNode::kCancelled) != 0) return false;
    if ((n->flags & EventNode::kFired) != 0 && !n->periodic()) return false;
    // A queued node stays in the heap and is released when popped; a
    // periodic mid-dispatch (kFired set) is released instead of re-armed.
    n->flags = static_cast<std::uint8_t>(n->flags | EventNode::kCancelled);
    return true;
}

bool EventHandle::pending() const noexcept {
    const EventNode* n = live_node();
    if (n == nullptr) return false;
    if ((n->flags & EventNode::kCancelled) != 0) return false;
    return n->periodic() || (n->flags & EventNode::kFired) == 0;
}

Simulation::Simulation(std::uint64_t master_seed, EventArena* arena)
    : master_seed_{master_seed},
      owned_arena_{arena == nullptr ? std::make_unique<EventArena>() : nullptr},
      arena_{arena != nullptr ? arena : owned_arena_.get()} {}

Simulation::~Simulation() {
    // Destroy the callbacks of still-pending events so captured
    // resources (message refs, device pointers) are released even when
    // the arena is external and outlives this run.
    for (const Pending& e : pending_) arena_->release(e.idx);
}

void Simulation::enqueue(std::uint32_t idx) {
    const EventNode& n = arena_->node(idx);
    pending_.push_back(Pending{n.when.ticks(), n.seq, idx,
                               static_cast<std::int8_t>(n.prio)});
    std::push_heap(pending_.begin(), pending_.end(), later);
}

EventHandle Simulation::push(SimTime when, EventPriority prio, Callback cb,
                             SimDuration period) {
    const std::uint32_t idx = arena_->acquire();
    EventNode& n = arena_->node(idx);
    n.when = when;
    n.seq = next_seq_++;
    n.period = period;
    n.prio = prio;
    n.cb = std::move(cb);
    if (n.cb.on_heap()) arena_->note_heap_callback();
    enqueue(idx);
    return EventHandle{arena_->slab(), idx, n.gen};
}

EventHandle Simulation::schedule_at(SimTime when, Callback cb,
                                    EventPriority prio) {
    if (when < now_) {
        throw SimulationError("schedule_at: " + when.to_string() +
                              " is before now (" + now_.to_string() + ")");
    }
    if (!cb) throw SimulationError("schedule_at: empty callback");
    return push(when, prio, std::move(cb), SimDuration::zero());
}

EventHandle Simulation::schedule_after(SimDuration delay, Callback cb,
                                       EventPriority prio) {
    if (delay < SimDuration::zero()) {
        throw SimulationError("schedule_after: negative delay " +
                              delay.to_string());
    }
    if (!cb) throw SimulationError("schedule_after: empty callback");
    return push(now_ + delay, prio, std::move(cb), SimDuration::zero());
}

EventHandle Simulation::schedule_periodic(SimDuration period, Callback cb,
                                          EventPriority prio) {
    if (period <= SimDuration::zero()) {
        throw SimulationError("schedule_periodic: period must be positive, got " +
                              period.to_string());
    }
    if (!cb) throw SimulationError("schedule_periodic: empty callback");
    // The chain is one arena node re-armed in place after every firing:
    // a single cancel() silences all future repetitions, and the chain
    // never allocates again.
    return push(now_ + period, prio, std::move(cb), period);
}

void Simulation::dispatch(std::uint32_t idx) {
    EventNode& n = arena_->node(idx);
    if ((n.flags & EventNode::kCancelled) != 0) {
        arena_->release(idx);
        return;
    }
    n.flags = static_cast<std::uint8_t>(n.flags | EventNode::kFired);
    ++events_dispatched_;
    n.cb();
    // Node addresses are stable (chunked slab), so `n` stays valid even
    // if the callback scheduled new events.
    if (!n.periodic() || (n.flags & EventNode::kCancelled) != 0) {
        arena_->release(idx);
        return;
    }
    n.flags = static_cast<std::uint8_t>(n.flags & ~EventNode::kFired);
    n.when = now_ + n.period;
    n.seq = next_seq_++;
    enqueue(idx);
}

void Simulation::drain(SimTime until) {
    running_ = true;
    stop_requested_ = false;
    const std::int64_t limit = until.ticks();
    while (!stop_requested_ && !pending_.empty() &&
           pending_.front().when <= limit) {
        std::pop_heap(pending_.begin(), pending_.end(), later);
        const Pending e = pending_.back();
        pending_.pop_back();
        now_ = SimTime::at(SimDuration::micros(e.when));
        dispatch(e.idx);
    }
    running_ = false;
}

void Simulation::run_until(SimTime until) {
    if (running_) throw SimulationError("run_until: kernel is already running");
    if (until < now_) {
        throw SimulationError("run_until: target " + until.to_string() +
                              " is before now (" + now_.to_string() + ")");
    }
    drain(until);
    if (!stop_requested_ && now_ < until) now_ = until;
}

void Simulation::run_all() {
    if (running_) throw SimulationError("run_all: kernel is already running");
    drain(SimTime::never());
}

}  // namespace mcps::sim
