/** @file Tests for the discrete-event kernel and its callback type. */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/event_queue.hh"
#include "common/rng.hh"

namespace ladder
{
namespace
{

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&]() { order.push_back(3); });
    q.schedule(10, [&]() { order.push_back(1); });
    q.schedule(20, [&]() { order.push_back(2); });
    q.runUntil();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickPriorityThenFifo)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&]() { order.push_back(1); }, 1);
    q.schedule(5, [&]() { order.push_back(0); }, 0);
    q.schedule(5, [&]() { order.push_back(2); }, 1);
    q.runUntil();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue q;
    Tick seen = 0;
    q.schedule(100, [&]() {
        q.scheduleIn(50, [&]() { seen = q.now(); });
    });
    q.runUntil();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, RunUntilLimit)
{
    EventQueue q;
    int count = 0;
    q.schedule(10, [&]() { ++count; });
    q.schedule(20, [&]() { ++count; });
    q.schedule(30, [&]() { ++count; });
    EXPECT_EQ(q.runUntil(20), 2u);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(q.now(), 20u);
    EXPECT_EQ(q.pending(), 1u);
    q.runUntil();
    EXPECT_EQ(count, 3);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue q;
    int depth = 0;
    std::function<void()> recurse = [&]() {
        if (++depth < 5)
            q.scheduleIn(1, recurse);
    };
    q.schedule(0, recurse);
    q.runUntil();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(q.now(), 4u);
}

TEST(EventQueue, StepExecutesOne)
{
    EventQueue q;
    int count = 0;
    q.schedule(1, [&]() { ++count; });
    q.schedule(2, [&]() { ++count; });
    EXPECT_TRUE(q.step());
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(q.step());
    EXPECT_FALSE(q.step());
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, ExecutedCounter)
{
    EventQueue q;
    for (int i = 0; i < 7; ++i)
        q.schedule(i, []() {});
    q.runUntil();
    EXPECT_EQ(q.executed(), 7u);
}

TEST(EventQueue, ZeroDelaySameTick)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&]() {
        order.push_back(1);
        q.schedule(5, [&]() { order.push_back(2); });
    });
    q.runUntil();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}


/**
 * The kernel against a std::priority_queue kept here as the reference:
 * random ticks, same-tick priorities, and events that schedule more
 * events (at their own tick too) from inside their callbacks. Both
 * sides spawn the same children per label, so equal orders give equal
 * labels.
 */
TEST(EventQueue, MatchesPriorityQueueReference)
{
    struct Spawn
    {
        Tick delay;
        int priority;
    };
    // Children of the event labelled @p label: 0-2, seeded by label.
    auto children = [](int label) {
        Rng rng(mix64(static_cast<std::uint64_t>(label) ^ 0x5eed));
        std::vector<Spawn> out;
        unsigned count = static_cast<unsigned>(rng.nextBounded(3));
        for (unsigned i = 0; i < count; ++i) {
            // A quarter of the children land on the current tick.
            Tick delay = rng.nextBool(0.25) ? 0 : 1 + rng.nextBounded(40);
            int priority = static_cast<int>(rng.nextBounded(3)) - 1;
            out.push_back({delay, priority});
        }
        return out;
    };
    constexpr int initial = 64;
    constexpr int maxLabels = 20000;
    Rng seeds(97);
    std::vector<Spawn> roots;
    for (int i = 0; i < initial; ++i)
        roots.push_back({seeds.nextBounded(100),
                         static_cast<int>(seeds.nextBounded(3)) - 1});

    // Reference: (tick, priority, insertion) order, one pop at a time.
    struct Ref
    {
        Tick when;
        int priority;
        std::uint64_t seq;
        int label;
        bool
        operator>(const Ref &o) const
        {
            if (when != o.when)
                return when > o.when;
            if (priority != o.priority)
                return priority > o.priority;
            return seq > o.seq;
        }
    };
    std::priority_queue<Ref, std::vector<Ref>, std::greater<Ref>> ref;
    std::uint64_t seq = 0;
    int refLabels = 0;
    for (const Spawn &s : roots)
        ref.push({s.delay, s.priority, seq++, refLabels++});
    std::vector<std::pair<int, Tick>> expected;
    while (!ref.empty()) {
        Ref top = ref.top();
        ref.pop();
        expected.emplace_back(top.label, top.when);
        for (const Spawn &s : children(top.label)) {
            if (refLabels < maxLabels)
                ref.push({top.when + s.delay, s.priority, seq++,
                          refLabels++});
        }
    }

    EventQueue q;
    std::vector<std::pair<int, Tick>> got;
    int labels = 0;
    std::function<void(int)> fire = [&](int label) {
        got.emplace_back(label, q.now());
        for (const Spawn &s : children(label)) {
            if (labels < maxLabels) {
                int child = labels++;
                q.scheduleIn(s.delay, [&fire, child]() { fire(child); },
                             s.priority);
            }
        }
    };
    for (const Spawn &s : roots) {
        int label = labels++;
        q.schedule(s.delay, [&fire, label]() { fire(label); },
                   s.priority);
    }
    // Drive the queue in uneven slices: bounded runs and single steps.
    Rng drive(5);
    while (!q.empty()) {
        if (drive.nextBool(0.3)) {
            q.step();
        } else {
            Tick limit = q.now() + drive.nextBounded(30);
            q.runUntil(limit);
            EXPECT_TRUE(q.empty() || q.nextEventTick() > limit);
        }
    }
    ASSERT_EQ(got.size(), expected.size());
    EXPECT_GT(got.size(), 1000u);
    EXPECT_EQ(got, expected);
    EXPECT_EQ(q.executed(), expected.size());
}

TEST(EventQueue, CallbacksAreDestroyedExactlyOnce)
{
    auto token = std::make_shared<int>(0);
    {
        EventQueue q;
        for (int i = 0; i < 100; ++i)
            q.schedule(i, [token]() { ++*token; });
        EXPECT_EQ(token.use_count(), 101);
        q.runUntil(49);
        // The 50 executed callbacks are gone; their slots are reused.
        EXPECT_EQ(token.use_count(), 51);
        for (int i = 0; i < 10; ++i)
            q.scheduleIn(1, [token]() { ++*token; });
        EXPECT_EQ(token.use_count(), 61);
    }
    // Destroying the queue releases the callbacks that never ran.
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_EQ(*token, 50);
}

TEST(EventQueue, AcceptsMoveOnlyCaptures)
{
    EventQueue q;
    int seen = 0;
    auto value = std::make_unique<int>(42);
    q.schedule(1, [&seen, v = std::move(value)]() { seen = *v; });
    q.runUntil();
    EXPECT_EQ(seen, 42);
}

using SmallFunction = InlineFunction<int(int), 32>;

static_assert(!std::is_copy_constructible_v<SmallFunction>);
static_assert(!std::is_copy_assignable_v<SmallFunction>);
static_assert(std::is_nothrow_move_constructible_v<SmallFunction>);
static_assert(std::is_nothrow_move_assignable_v<SmallFunction>);
static_assert(!std::is_copy_constructible_v<EventCallback>);

TEST(InlineFunction, CallsItsTarget)
{
    int base = 10;
    SmallFunction f = [&base](int x) { return base + x; };
    ASSERT_TRUE(f);
    EXPECT_EQ(f(5), 15);
    SmallFunction empty;
    EXPECT_FALSE(empty);
}

TEST(InlineFunction, MoveTransfersTheCaptureWithoutCopying)
{
    auto token = std::make_shared<int>(3);
    SmallFunction f = [token](int x) { return *token * x; };
    EXPECT_EQ(token.use_count(), 2);
    SmallFunction g = std::move(f);
    EXPECT_FALSE(f);
    EXPECT_EQ(token.use_count(), 2); // moved, not copied
    EXPECT_EQ(g(2), 6);
    SmallFunction h;
    h = std::move(g);
    EXPECT_FALSE(g);
    EXPECT_EQ(token.use_count(), 2);
    EXPECT_EQ(h(3), 9);
    h.reset();
    EXPECT_FALSE(h);
    EXPECT_EQ(token.use_count(), 1);
}

TEST(InlineFunction, EachCaptureIsDestroyedExactlyOnce)
{
    auto a = std::make_shared<int>(1);
    auto b = std::make_shared<int>(2);
    {
        SmallFunction f = [a](int) { return *a; };
        SmallFunction g = [b](int) { return *b; };
        EXPECT_EQ(a.use_count(), 2);
        EXPECT_EQ(b.use_count(), 2);
        // Assigning over f destroys f's old target, and only it.
        f = std::move(g);
        EXPECT_EQ(a.use_count(), 1);
        EXPECT_EQ(b.use_count(), 2);
        EXPECT_EQ(f(0), 2);
        // Self-move leaves the target alone.
        SmallFunction &self = f;
        f = std::move(self);
        EXPECT_EQ(b.use_count(), 2);
        std::vector<SmallFunction> moved;
        for (int i = 0; i < 20; ++i)
            moved.emplace_back([b](int x) { return *b + x; });
        EXPECT_EQ(b.use_count(), 22); // survives the vector's regrowth
    }
    EXPECT_EQ(a.use_count(), 1);
    EXPECT_EQ(b.use_count(), 1);
}

TEST(InlineFunction, HoldsAStdFunction)
{
    // perfbench's kernel probe passes a std::function lvalue.
    int calls = 0;
    std::function<void()> hop = [&calls]() { ++calls; };
    EventQueue q;
    q.scheduleIn(3, hop);
    q.scheduleIn(4, hop);
    q.runUntil();
    EXPECT_EQ(calls, 2);
}

} // namespace
} // namespace ladder
