/**
 * @file
 * The event-queue storage layer introduced by the hot-path overhaul:
 * InlineFunction's inline-vs-heap boundary and move/destroy discipline,
 * the chunked slab + LIFO free-list slot recycler, and — the contract
 * everything else rests on — pop-order identity with a naive reference
 * implementation: across a million randomly scheduled events, and on the
 * per-tick FIFO's edge cases (run limits inside a tick, scheduling at
 * now(), reset() of a mixed FIFO, FIFOs spanning slab chunks).
 */

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/check.hh"
#include "sim/event_queue.hh"
#include "sim/inline_function.hh"

namespace duet
{
namespace
{

// ---------------------------------------------------------------------
// InlineFunction: the inline-vs-heap boundary
// ---------------------------------------------------------------------

using SmallFn = InlineFunction<int(), 64>;

TEST(InlineFunction, CaptureAtTheBudgetStaysInline)
{
    char blob[SmallFn::kInlineBytes - sizeof(int)] = {};
    int tag = 7;
    SmallFn f = [blob, tag] { return tag + blob[0]; };
    EXPECT_TRUE(f.storedInline());
    EXPECT_EQ(f(), 7);
}

TEST(InlineFunction, CapturePastTheBudgetGoesToTheHeap)
{
    char blob[SmallFn::kInlineBytes + 1] = {};
    blob[SmallFn::kInlineBytes] = 3;
    SmallFn f = [blob] { return blob[sizeof(blob) - 1]; };
    EXPECT_FALSE(f.storedInline());
    EXPECT_EQ(f(), 3);
}

TEST(InlineFunction, EventBudgetMatchesTheDeclaredBoundary)
{
    // The queue's Event type must store a budget-sized capture inline
    // and spill one byte past it; a silent budget change would move
    // hot captures onto the heap without any test noticing.
    char atLimit[EventQueue::Event::kInlineBytes] = {};
    EventQueue::Event inlineEv = [atLimit] { (void)atLimit[0]; };
    EXPECT_TRUE(inlineEv.storedInline());

    char pastLimit[EventQueue::Event::kInlineBytes + 1] = {};
    EventQueue::Event heapEv = [pastLimit] { (void)pastLimit[0]; };
    EXPECT_FALSE(heapEv.storedInline());
}

/** Counts live instances and move-constructions of a capture. */
struct Probe
{
    static int live;
    static int moves;
    Probe() { ++live; }
    Probe(Probe &&) noexcept
    {
        ++live;
        ++moves;
    }
    Probe(const Probe &) = delete;
    Probe &operator=(const Probe &) = delete;
    Probe &operator=(Probe &&) = delete;
    ~Probe() { --live; }
};

int Probe::live = 0;
int Probe::moves = 0;

TEST(InlineFunction, InlineMoveMovesTheCaptureExactlyOnce)
{
    Probe::live = 0;
    Probe::moves = 0;
    {
        SmallFn f = [p = Probe{}] { return 1; };
        ASSERT_TRUE(f.storedInline());
        EXPECT_EQ(Probe::live, 1);
        const int movesBefore = Probe::moves;
        SmallFn g = std::move(f);
        // Inline storage cannot be stolen: the capture itself moves,
        // once, and the source's copy is destroyed.
        EXPECT_EQ(Probe::moves, movesBefore + 1);
        EXPECT_EQ(Probe::live, 1);
        EXPECT_EQ(g(), 1);
    }
    EXPECT_EQ(Probe::live, 0);
}

TEST(InlineFunction, HeapMoveTransfersOwnershipWithoutMovingTheCapture)
{
    Probe::live = 0;
    Probe::moves = 0;
    {
        SmallFn f = [p = Probe{},
                     pad = std::array<char, SmallFn::kInlineBytes>{}] {
            return static_cast<int>(pad[0]) + 2;
        };
        ASSERT_FALSE(f.storedInline());
        EXPECT_EQ(Probe::live, 1);
        const int movesBefore = Probe::moves;
        SmallFn g = std::move(f);
        // A heap capture moves as a pointer swap: zero capture moves.
        EXPECT_EQ(Probe::moves, movesBefore);
        EXPECT_EQ(Probe::live, 1);
        EXPECT_EQ(g(), 2);
    }
    EXPECT_EQ(Probe::live, 0);
}

TEST(InlineFunction, ResetAndReassignDestroyExactlyOnce)
{
    Probe::live = 0;
    SmallFn f = [p = Probe{}] { return 1; };
    EXPECT_EQ(Probe::live, 1);
    f.reset();
    EXPECT_EQ(Probe::live, 0);
    EXPECT_FALSE(static_cast<bool>(f));

    f = [p = Probe{}] { return 2; };
    EXPECT_EQ(Probe::live, 1);
    f = [] { return 3; }; // replacement destroys the old capture
    EXPECT_EQ(Probe::live, 0);
    EXPECT_EQ(f(), 3);
}

// ---------------------------------------------------------------------
// EventQueue: slab growth and LIFO slot recycling
// ---------------------------------------------------------------------

TEST(EventQueueSlab, RunReturnsEverySlotToTheFreeList)
{
    EventQueue eq;
    constexpr std::size_t kEvents = 100;
    for (std::size_t i = 0; i < kEvents; ++i)
        eq.schedule(static_cast<Tick>(i), [] {});
    EXPECT_EQ(eq.slabSlots(), kEvents);
    EXPECT_EQ(eq.freeSlots(), 0u);
    eq.run();
    EXPECT_EQ(eq.executed(), kEvents);
    EXPECT_EQ(eq.freeSlots(), kEvents);
}

TEST(EventQueueSlab, SteadyStateSchedulingReusesSlotsWithoutGrowth)
{
    EventQueue eq;
    // Warm up: one burst creates the slots...
    for (int i = 0; i < 50; ++i)
        eq.schedule(eq.now() + 1, [] {});
    eq.run();
    const std::size_t warm = eq.slabSlots();
    // ...and every later burst of the same width recycles them.
    for (int round = 0; round < 10; ++round) {
        for (int i = 0; i < 50; ++i)
            eq.schedule(eq.now() + 1, [] {});
        eq.run();
        EXPECT_EQ(eq.slabSlots(), warm);
        EXPECT_EQ(eq.freeSlots(), warm);
    }
}

TEST(EventQueueSlab, CallbackGrowingTheSlabRunsInPlace)
{
    // An executing event that schedules enough events to force new
    // chunks must keep running safely (pointer-stable chunk storage:
    // the running callback is never moved).
    EventQueue eq;
    std::uint64_t ran = 0;
    eq.schedule(0, [&eq, &ran] {
        for (int i = 0; i < 10000; ++i)
            eq.schedule(eq.now() + 1 + i, [&ran] { ++ran; });
    });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(ran, 10000u);
    EXPECT_EQ(eq.executed(), 10001u);
    EXPECT_GE(eq.slabSlots(), 10000u);
    EXPECT_EQ(eq.freeSlots(), eq.slabSlots());
}

// ---------------------------------------------------------------------
// Pop-order identity with a reference implementation
// ---------------------------------------------------------------------

/** SplitMix64: tiny, seedable, and good enough to scatter ticks. */
std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * A straight-line reference queue: an ordered set of (when, seq, id)
 * keys, popped smallest-first — the semantics the seed implementation's
 * single sorted vector had, with none of the production queue's tick
 * buckets, slab or free-list machinery.
 */
struct ReferenceQueue
{
    std::set<std::tuple<Tick, std::uint64_t, std::uint32_t>> pending;
    std::uint64_t seq = 0;
    Tick now = 0;

    void
    schedule(Tick when, std::uint32_t id)
    {
        pending.insert({when, seq++, id});
    }
};

/// Deterministic per-event behavior, shared by both engines: where an
/// executing event schedules its successors. Same-tick deltas included,
/// so same-tick insertion order is exercised, not just the tick ordering.
struct Successor
{
    Tick delta;
    int count;
};

Successor
successorsOf(std::uint32_t id, std::uint64_t seed)
{
    std::uint64_t s = seed ^ (0x1234567891ull * (id + 1));
    const std::uint64_t r = splitmix64(s);
    return Successor{static_cast<Tick>(r % 257), // 0 => same-tick ties
                     static_cast<int>((r >> 32) % 3)};
}

TEST(EventQueueOrder, MillionEventPopOrderMatchesReferenceImplementation)
{
    constexpr std::uint32_t kTotal = 1'000'000;
    constexpr std::uint32_t kSeedEvents = 4096;
    constexpr std::uint64_t kSeed = 0xd0e7f00d5eed0001ull;

    // --- production queue ---
    std::vector<std::uint32_t> got;
    got.reserve(kTotal);
    {
        EventQueue eq;
        std::uint32_t next = kSeedEvents;
        // self-referential scheduling: each executed event spawns its
        // deterministic successors until kTotal ids are out.
        std::function<void(std::uint32_t)> body;
        auto runOne = [&](std::uint32_t id) {
            got.push_back(id);
            const Successor s = successorsOf(id, kSeed);
            for (int c = 0; c < s.count && next < kTotal; ++c) {
                const std::uint32_t child = next++;
                eq.schedule(eq.now() + s.delta + static_cast<Tick>(c),
                            [&, child] { body(child); });
            }
        };
        body = runOne;
        std::uint64_t rng = kSeed;
        for (std::uint32_t id = 0; id < kSeedEvents; ++id)
            eq.schedule(static_cast<Tick>(splitmix64(rng) % 100000),
                        [&, id] { body(id); });
        EXPECT_TRUE(eq.run());
        EXPECT_GE(eq.executed(), kSeedEvents);
    }

    // --- reference queue, same scripted behavior ---
    std::vector<std::uint32_t> want;
    want.reserve(kTotal);
    {
        ReferenceQueue rq;
        std::uint32_t next = kSeedEvents;
        std::uint64_t rng = kSeed;
        for (std::uint32_t id = 0; id < kSeedEvents; ++id)
            rq.schedule(static_cast<Tick>(splitmix64(rng) % 100000), id);
        while (!rq.pending.empty()) {
            const auto [when, seq, id] = *rq.pending.begin();
            rq.pending.erase(rq.pending.begin());
            rq.now = when;
            want.push_back(id);
            const Successor s = successorsOf(id, kSeed);
            for (int c = 0; c < s.count && next < kTotal; ++c)
                rq.schedule(rq.now + s.delta + static_cast<Tick>(c),
                            next++);
        }
    }

    ASSERT_EQ(got.size(), want.size());
    // Element-wise compare (EXPECT_EQ on the vectors would print a
    // million-entry diff on failure).
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], want[i]) << "pop order diverges at event " << i;
    }
}

// ---------------------------------------------------------------------
// Per-tick FIFO edge cases, each checked against the reference engine
// ---------------------------------------------------------------------

/// A deterministic event program shared by both engines: the events an
/// executing event @p id schedules, as (absolute tick, child id) pairs.
/// Programs may keep state (firing counters); each engine runs its own
/// copy, so both see the same call sequence as long as their pop orders
/// agree.
using Program = std::function<std::vector<std::pair<Tick, std::uint32_t>>(
    std::uint32_t id, Tick now)>;

/**
 * A Program driven through the production queue. Ids registered with
 * bindRearm() live in re-armable slots: scheduling such an id re-arms its
 * slot instead of taking a fresh one.
 */
struct ProgramRun
{
    explicit ProgramRun(Program p) : prog(std::move(p)) {}

    EventQueue eq;
    Program prog;
    std::map<std::uint32_t, std::uint32_t> rearmSlot; // id -> slab slot
    std::vector<std::uint32_t> order;

    void
    bindRearm(std::uint32_t id)
    {
        rearmSlot[id] = eq.bindRearmable([this, id] { fire(id); });
    }

    void
    schedule(Tick when, std::uint32_t id)
    {
        if (auto it = rearmSlot.find(id); it != rearmSlot.end())
            eq.armRearmable(it->second, when);
        else
            eq.schedule(when, [this, id] { fire(id); });
    }

    void
    fire(std::uint32_t id)
    {
        order.push_back(id);
        for (const auto &[when, child] : prog(id, eq.now()))
            schedule(when, child);
    }
};

/// The same Program on the reference engine, where every firing —
/// re-armed or not — is a plain (when, seq) insert.
struct ReferenceRun
{
    explicit ReferenceRun(Program p) : prog(std::move(p)) {}

    ReferenceQueue rq;
    Program prog;
    std::vector<std::uint32_t> order;

    void schedule(Tick when, std::uint32_t id) { rq.schedule(when, id); }

    bool
    run(Tick limit = kMaxTick)
    {
        while (!rq.pending.empty()) {
            const auto [when, seq, id] = *rq.pending.begin();
            if (when > limit) {
                rq.now = limit;
                return false;
            }
            rq.pending.erase(rq.pending.begin());
            rq.now = when;
            order.push_back(id);
            for (const auto &[at, child] : prog(id, when))
                schedule(at, child);
        }
        return true;
    }
};

/** Turns paranoid checks on for one test, so a wrongly re-armed slot
 *  would trap instead of corrupting a FIFO. */
class ParanoidOn
{
  public:
    ParanoidOn() : prev_(paranoidChecks()) { setParanoidChecks(true); }
    ~ParanoidOn() { setParanoidChecks(prev_); }
    ParanoidOn(const ParanoidOn &) = delete;
    ParanoidOn &operator=(const ParanoidOn &) = delete;

  private:
    bool prev_;
};

TEST(EventQueueFifo, RunLimitOnAMultiEventTickThenResume)
{
    // Tick 10 holds six events and grows while it drains; run(10) must
    // finish the whole tick — late arrivals included — and stop before
    // tick 11, then resume in reference order.
    const Program prog = [](std::uint32_t id, Tick now) {
        std::vector<std::pair<Tick, std::uint32_t>> out;
        if (id == 1)
            out.push_back({now, 20});
        if (id == 3)
            out.push_back({now + 1, 21});
        if (id == 20)
            out.push_back({now, 22});
        return out;
    };
    const std::vector<std::pair<Tick, std::uint32_t>> roots = {
        {10, 0}, {10, 1}, {11, 6}, {9, 8}, {10, 2},
        {10, 3}, {11, 7}, {10, 4}, {10, 5}};
    ProgramRun got(prog);
    ReferenceRun want(prog);
    for (const auto &[when, id] : roots) {
        got.schedule(when, id);
        want.schedule(when, id);
    }

    EXPECT_FALSE(got.eq.run(10));
    EXPECT_FALSE(want.run(10));
    EXPECT_EQ(got.order, want.order);
    EXPECT_EQ(got.order.back(), 22u);
    EXPECT_EQ(got.eq.now(), 10u);
    EXPECT_EQ(got.eq.pending(), want.rq.pending.size());
    EXPECT_EQ(got.eq.pending(), 3u);

    EXPECT_TRUE(got.eq.run());
    EXPECT_TRUE(want.run());
    EXPECT_EQ(got.order, want.order);
    EXPECT_EQ(got.eq.executed(), 12u);
    EXPECT_EQ(got.eq.freeSlots(), got.eq.slabSlots());
}

TEST(EventQueueFifo, ScheduleAtNowWhileTheTickIsOpenAndAfterItDrained)
{
    ParanoidOn paranoid;
    // Id 90 is a re-armable slot that re-arms at now() twice, then one
    // tick later, then stops. One-shots chain at now() both while the
    // tick's FIFO still has entries (0 -> 10 -> 11 -> 12) and after it
    // drained (12 -> 14: 12 is the tick's last entry, so 14 reopens the
    // tick in front of the pending tick 6).
    const Program prog = [firings = 0](std::uint32_t id,
                                       Tick now) mutable {
        std::vector<std::pair<Tick, std::uint32_t>> out;
        switch (id) {
        case 0: out.push_back({now, 10}); break;
        case 10: out.push_back({now, 11}); break;
        case 11: out.push_back({now, 12}); break;
        case 12:
            out.push_back({now, 14});
            out.push_back({now + 1, 13});
            break;
        case 90:
            ++firings;
            if (firings <= 2)
                out.push_back({now, 90});
            else if (firings == 3)
                out.push_back({now + 1, 90});
            break;
        default: break;
        }
        return out;
    };
    const std::vector<std::pair<Tick, std::uint32_t>> roots = {
        {5, 0}, {5, 1}, {5, 90}, {5, 2}, {6, 3}};
    ProgramRun got(prog);
    ReferenceRun want(prog);
    got.bindRearm(90);
    for (const auto &[when, id] : roots) {
        got.schedule(when, id);
        want.schedule(when, id);
    }
    EXPECT_TRUE(got.eq.run());
    EXPECT_TRUE(want.run());
    EXPECT_EQ(got.order, want.order);
    const std::vector<std::uint32_t> expected = {0,  1, 90, 2, 10, 90, 11,
                                                 90, 12, 14, 3, 90, 13};
    EXPECT_EQ(got.order, expected);
    got.eq.releaseRearmable(got.rearmSlot.at(90));
    EXPECT_EQ(got.eq.freeSlots(), got.eq.slabSlots());
}

TEST(EventQueueFifo, ResetDropsAMixedFifoAndTheQueueIsReusable)
{
    ParanoidOn paranoid;
    // Every dropped one-shot holds a copy of the token, so use_count()
    // shows whether reset() destroyed the captures.
    auto token = std::make_shared<int>(0);
    int droppedRan = 0;
    auto dropped = [token, &droppedRan] { ++droppedRan; };

    // Phase 1: tick 7's FIFO mixes one-shots with two re-armed slots.
    // Slot 50's owner dies while armed (the teardown path); slot 51's
    // owner survives the reset.
    ProgramRun got([](std::uint32_t, Tick) {
        return std::vector<std::pair<Tick, std::uint32_t>>{};
    });
    got.bindRearm(50);
    got.bindRearm(51);
    got.schedule(3, 1);
    got.eq.schedule(7, dropped);
    got.schedule(7, 50);
    got.eq.schedule(7, dropped);
    got.schedule(7, 51);
    got.eq.schedule(8, dropped);
    EXPECT_FALSE(got.eq.run(5));
    EXPECT_EQ(got.order, std::vector<std::uint32_t>{1});
    got.eq.releaseRearmable(got.rearmSlot.at(50));
    got.rearmSlot.erase(50);
    const std::size_t slots = got.eq.slabSlots();
    EXPECT_EQ(slots, 6u);

    got.eq.reset();
    EXPECT_EQ(token.use_count(), 2); // `token` and the `dropped` lambda
    EXPECT_EQ(droppedRan, 0);
    EXPECT_EQ(got.eq.now(), 0u);
    EXPECT_EQ(got.eq.executed(), 0u);
    EXPECT_EQ(got.eq.pending(), 0u);
    EXPECT_TRUE(got.eq.empty());
    // Everything but the surviving bound slot 51 is back on the
    // free-list, and no slot is on it twice.
    EXPECT_EQ(got.eq.slabSlots(), slots);
    EXPECT_EQ(got.eq.freeSlots(), slots - 1);

    // Phase 2: reuse. Slot 51 re-arms every two ticks up to tick 8 (its
    // first arm after the reset must not trap as a double arm), and
    // one-shots chain at now() and later, recycling the freed slots.
    const Program prog = [](std::uint32_t id, Tick now) {
        std::vector<std::pair<Tick, std::uint32_t>> out;
        if (id == 51 && now < 8)
            out.push_back({now + 2, 51});
        if (id == 60)
            out.push_back({now, 61});
        if (id == 62)
            out.push_back({now, 64});
        if (id == 64) {
            out.push_back({now + 2, 65});
            out.push_back({now + 2, 66});
        }
        return out;
    };
    got.prog = prog;
    got.order.clear();
    ReferenceRun want(prog);
    const std::vector<std::pair<Tick, std::uint32_t>> roots = {
        {2, 51}, {2, 60}, {4, 62}, {4, 63}, {1, 67}};
    for (const auto &[when, id] : roots) {
        got.schedule(when, id);
        want.schedule(when, id);
    }
    EXPECT_TRUE(got.eq.run());
    EXPECT_TRUE(want.run());
    EXPECT_EQ(got.order, want.order);
    EXPECT_EQ(got.eq.slabSlots(), slots);
    got.eq.releaseRearmable(got.rearmSlot.at(51));
    EXPECT_EQ(got.eq.freeSlots(), got.eq.slabSlots());
}

TEST(EventQueueFifo, FifoSpanningASlabChunkBoundaryGrowsTheLinksMidRun)
{
    // Event 0 fills tick 100 with 4090 one-shots; event 1 then appends
    // 20 more from inside its dispatch, so tick 100's FIFO threads slots
    // on both sides of the 4096-slot chunk boundary and the link array
    // grows mid-run. Every seventh entry appends one more at now() while
    // that FIFO drains.
    constexpr std::uint32_t kFirst = 4090;
    constexpr std::uint32_t kSecond = 20;
    constexpr std::uint32_t kBase = 1000;
    const Program prog = [](std::uint32_t id, Tick now) {
        std::vector<std::pair<Tick, std::uint32_t>> out;
        if (id == 0)
            for (std::uint32_t i = 0; i < kFirst; ++i)
                out.push_back({100, kBase + i});
        if (id == 1)
            for (std::uint32_t i = 0; i < kSecond; ++i)
                out.push_back({100, kBase + kFirst + i});
        if (id >= kBase && id < kBase + kFirst + kSecond && id % 7 == 0)
            out.push_back({now, id + 100000});
        return out;
    };
    ProgramRun got(prog);
    ReferenceRun want(prog);
    for (const auto &[when, id] :
         std::vector<std::pair<Tick, std::uint32_t>>{{0, 0}, {1, 1}}) {
        got.schedule(when, id);
        want.schedule(when, id);
    }
    EXPECT_TRUE(got.eq.run());
    EXPECT_TRUE(want.run());
    EXPECT_GT(got.eq.slabSlots(), 4096u);
    ASSERT_EQ(got.order.size(), want.order.size());
    for (std::size_t i = 0; i < got.order.size(); ++i)
        ASSERT_EQ(got.order[i], want.order[i]) << "diverges at event " << i;
    EXPECT_EQ(got.eq.freeSlots(), got.eq.slabSlots());
}

} // namespace
} // namespace duet
