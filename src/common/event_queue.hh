/**
 * @file
 * Discrete-event simulation kernel. A single EventQueue orders callbacks
 * by (tick, priority, sequence); components schedule callbacks and the
 * kernel drives time forward.
 */

#ifndef LADDER_COMMON_EVENT_QUEUE_HH
#define LADDER_COMMON_EVENT_QUEUE_HH

#include <cstdint>
#include <vector>

#include "inline_function.hh"
#include "slab.hh"
#include "types.hh"

namespace ladder
{

/**
 * An event's callback. Captures stay small: a component captures
 * `this` plus a few scalars or a slot index, never a payload.
 */
using EventCallback = InlineFunction<void(), 64>;

/**
 * The event queue at the heart of the simulator.
 *
 * Events at the same tick execute in (priority, insertion) order so that
 * behaviour is fully deterministic. The order lives in a 4-ary min-heap
 * of 24-byte keys; each key names the Slab slot that holds the
 * callback, and freed slots are reused, so a steady-state run schedules
 * and executes events without allocating.
 */
class EventQueue
{
  public:
    /** Default priority for ordinary events. */
    static constexpr int defaultPriority = 0;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p callback at absolute time @p when.
     *
     * @pre when >= now()
     */
    void schedule(Tick when, EventCallback callback,
                  int priority = defaultPriority);

    /** Schedule @p callback @p delay ticks in the future. */
    void
    scheduleIn(Tick delay, EventCallback callback,
               int priority = defaultPriority)
    {
        schedule(now_ + delay, std::move(callback), priority);
    }

    /** Whether any events remain. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    std::uint64_t pending() const { return heap_.size(); }

    /**
     * Run events until the queue is empty or time would pass @p limit.
     * Events scheduled exactly at @p limit are executed.
     *
     * @return Number of events executed.
     */
    std::uint64_t runUntil(Tick limit = maxTick);

    /** Tick of the earliest event, or maxTick when the queue is empty. */
    Tick
    nextEventTick() const
    {
        return heap_.empty() ? maxTick : heap_.front().when;
    }

    /** Execute exactly one event if any; returns false when empty. */
    bool step();

    /** Total events executed over the queue's lifetime. */
    std::uint64_t executed() const { return executed_; }

  private:
    /** Heap order key; @c slot indexes slots_. */
    struct Key
    {
        Tick when;
        std::uint64_t seq;
        std::int32_t priority;
        std::uint32_t slot;
    };

    static bool
    before(const Key &a, const Key &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.priority != b.priority)
            return a.priority < b.priority;
        return a.seq < b.seq;
    }

    std::vector<Key> heap_;
    Slab<EventCallback> slots_;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t executed_ = 0;

    /** Pop the earliest event and run it. @pre !heap_.empty() */
    void runTop();
};

} // namespace ladder

#endif // LADDER_COMMON_EVENT_QUEUE_HH
