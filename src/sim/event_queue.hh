/**
 * @file
 * The global discrete-event queue driving the simulation.
 *
 * Events are arbitrary callbacks scheduled at absolute ticks. Events
 * scheduled for the same tick execute in insertion order, which makes every
 * simulation bit-for-bit deterministic.
 *
 * Layout: pending events are grouped into per-tick FIFO buckets — a small
 * vector of {when, head, tail} records sorted by descending tick, so the
 * earliest tick sits at the back — and each slab slot carries one link_
 * successor word that threads it into its tick's FIFO. Scheduling walks
 * the bucket vector from the earliest end (new events land a few ticks
 * after now, so the walk is short) and appends to the matching FIFO or
 * opens a bucket; dispatch pops the head of the back bucket. Appending is
 * insertion order, so the pop order is exactly the (when, insertion) total
 * order with no comparison between two events of the same tick. This is
 * the calendar-queue idea (Brown, CACM 1988) cut down to this simulator's
 * traffic: lockstep cores spinning on a shared clock put many events on
 * few distinct ticks.
 *
 * Cost model: scheduling is linear in the number of distinct pending ticks
 * D earlier than the new event, so a wide spread of ticks loses to a
 * heap. BM_EventQueueDistinctTicks (BENCH_micro.json; 4-vCPU Xeon VM, GCC
 * 12 RelWithDebInfo) against the former (when, seq) 4-ary heap: 0.66-0.90x
 * the heap's time for D = 4..64, 1.07x at D = 256, 3.4x at D = 1024. The
 * measured peak D is 24 on the Fig. 12 set at 16 cores (bfs/duet; every
 * workload at its registered default size) and 46 on the benchmark
 * scenarios (sort/fpsoc at 128 elements), well inside the winning range.
 *
 * The callbacks themselves sit in a chunked side slab indexed by slot and
 * recycled through a LIFO free-list. Chunk storage is pointer-stable, so a
 * due callback is invoked in place (no per-event move) even if it
 * schedules further events; and — because Event stores its capture
 * inline — steady-state scheduling touches malloc only when the slab or
 * the bucket vector grows.
 */

#ifndef DUET_SIM_EVENT_QUEUE_HH
#define DUET_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/check.hh"
#include "sim/inline_function.hh"
#include "sim/types.hh"

namespace duet
{

/**
 * A deterministic discrete-event queue.
 *
 * One EventQueue instance drives one Simulation. Components capture a
 * reference and schedule callbacks at absolute ticks.
 */
class EventQueue
{
  public:
    /**
     * A scheduled callback as a value type, for call sites that build an
     * event before picking its tick. The inline budget covers the
     * simulator's largest hot capture (a private-cache miss continuation
     * carrying a CacheReq); bigger captures still work, they just
     * heap-allocate. Internally the slab stores one-shot slots
     * (OneShotFunction) so dispatch costs a single indirect call; an
     * Event passed by value is wrapped on its way in.
     */
    using Event = InlineFunction<void(), 168>;
    /// Historical name, kept for call sites that predate Event.
    using Callback = Event;
    /// The slab slot type: run-and-destroy fused into one trampoline.
    using Slot = OneShotFunction<168>;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p cb to run at absolute tick @p when.
     * @pre when >= now()
     */
    void schedule(Tick when, Event cb);

    /**
     * Schedule a raw callable at absolute tick @p when, type-erasing it
     * directly into its slab slot — the hot-path overload, skipping the
     * intermediate Event move the by-value overload pays.
     * @pre when >= now()
     */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::remove_cvref_t<F>, Event> &&
                  std::is_invocable_r_v<void, std::remove_cvref_t<F> &>>>
    void
    schedule(Tick when, F &&fn)
    {
        const std::uint32_t slot = acquireSlot(when);
        slotRef(slot).emplace(std::forward<F>(fn));
        commit(when, slot);
    }

    /** Schedule @p cb to run @p delta ticks from now. */
    template <typename F>
    void
    scheduleAfter(Tick delta, F &&fn)
    {
        schedule(now_ + delta, std::forward<F>(fn));
    }

    // ------------------------------------------------------------------
    // Re-armable events: a repeating callback (a pipeline cadence firing
    // every simulated cycle) binds its capture into a slab slot ONCE and
    // then re-arms the same slot with a new due tick per firing. Dispatch
    // runs the capture without destroying it and never returns the slot
    // to the free-list, so the steady state is one FIFO append per
    // firing — no destroy+free+acquire+emplace round trip. An arm is
    // appended to its tick's FIFO exactly like schedule(), so pop order
    // and executed-event counts stay bit-identical to the equivalent
    // schedule-per-firing pattern. A slot has one link_ word, so it can
    // sit in at most one FIFO: one pending firing at a time.
    // ------------------------------------------------------------------

    /**
     * Claim a slab slot for a re-armable event and build @p fn in it.
     * The slot is idle (in no FIFO) until armRearmable(); the owner must
     * eventually releaseRearmable() it.
     * @return the slot handle to pass to armRearmable/releaseRearmable
     */
    template <typename F>
    std::uint32_t
    bindRearmable(F &&fn)
    {
        const std::uint32_t slot = acquireSlot(now_);
        slotRef(slot).emplace(std::forward<F>(fn));
        return slot;
    }

    /**
     * Append the bound slot @p slot to the FIFO of tick @p when. The slot
     * must be idle: arming a slot whose previous firing is still pending
     * traps under paranoid checks (the cadence contract — one pending
     * firing at a time).
     * @pre when >= now()
     */
    void
    armRearmable(std::uint32_t slot, Tick when)
    {
        DUET_ASSERT(when >= now_,
                    "re-armable event armed in the past (tick " +
                        std::to_string(when) + " < now " +
                        std::to_string(now_) + ")");
        DUET_DCHECK(link_[slot] == kIdle,
                    "re-armable slot " + std::to_string(slot) +
                        " armed while its previous firing is pending");
        commit(when, slot | kRearmFlag);
    }

    /**
     * Destroy the bound capture and give the slot back. Only legal when
     * the slot is not armed — or when the queue is about to be
     * reset()/destroyed and will never dispatch again (the teardown path
     * for coroutine frames reclaimed after the run). An armed slot is
     * still linked into its tick's FIFO, so it joins the free-list only
     * when reset() unlinks it.
     */
    void
    releaseRearmable(std::uint32_t slot)
    {
        slotRef(slot).reset();
        if (link_[slot] == kIdle)
            free_.push_back(slot);
    }

    /**
     * Run events until the queue drains or @p limit is reached.
     * @return true if the queue drained, false if the limit stopped us.
     */
    bool run(Tick limit = kMaxTick);

    /** Number of pending events. */
    std::size_t pending() const { return pending_; }

    /** True when no events are pending. */
    bool empty() const { return buckets_.empty(); }

    /** Total number of events executed so far. */
    std::uint64_t executed() const { return executed_; }

    /// @{ Slab introspection for tests: total slots ever created, and
    /// how many are currently parked on the free-list.
    std::size_t slabSlots() const { return link_.size(); }
    std::size_t freeSlots() const { return free_.size(); }
    /// @}

    /**
     * Drop every pending event and rewind time to tick zero, keeping the
     * slab chunks and free-list warm (scenario warm-start). Pending
     * callbacks are destroyed without running.
     */
    void reset();

  private:
    /// High bit of a FIFO entry: the slot is re-armable — dispatch runs
    /// the capture without destroying it and leaves the slot bound.
    static constexpr std::uint32_t kRearmFlag = 0x80000000u;
    /// link_ value of the last entry of a tick's FIFO.
    static constexpr std::uint32_t kNone = 0xffffffffu;
    /// link_ value of a slot that is in no FIFO (free, bound-but-idle,
    /// or running).
    static constexpr std::uint32_t kIdle = 0xfffffffeu;
    /// Slot indices stay below this, so no tagged entry collides with
    /// kNone or kIdle.
    static constexpr std::uint32_t kSlotLimit = kIdle & ~kRearmFlag;

    /** The FIFO of one pending tick. head/tail are tagged slots (slot
     *  index plus kRearmFlag); the chain runs through link_. */
    struct Bucket
    {
        Tick when;
        std::uint32_t head;
        std::uint32_t tail;
    };

    /// Slab chunk geometry: 4096 events per chunk.
    static constexpr std::uint32_t kChunkShift = 12;
    static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;

    Slot &
    slotRef(std::uint32_t slot)
    {
        return chunks_[slot >> kChunkShift][slot & (kChunkSlots - 1)];
    }

    /** Claim an (empty) slab slot for an event due at @p when. */
    std::uint32_t
    acquireSlot(Tick when)
    {
        DUET_ASSERT(when >= now_,
                    "event scheduled in the past (tick " +
                        std::to_string(when) + " < now " +
                        std::to_string(now_) + ")");
        if (free_.empty())
            return growSlab();
        const std::uint32_t slot = free_.back();
        free_.pop_back();
        return slot;
    }

    /** Create a fresh slot, adding a chunk when the last one is full. */
    std::uint32_t growSlab();

    /** Append the filled slot (tagged entry @p id) to the FIFO of tick
     *  @p when, opening the tick's bucket if it has none. */
    void
    commit(Tick when, std::uint32_t id)
    {
        link_[id & ~kRearmFlag] = kNone;
        ++pending_;
        std::size_t i = buckets_.size();
        while (i != 0 && buckets_[i - 1].when < when)
            --i;
        if (i != 0 && buckets_[i - 1].when == when) {
            Bucket &b = buckets_[i - 1];
            link_[b.tail & ~kRearmFlag] = id;
            b.tail = id;
        } else {
            buckets_.insert(buckets_.begin() + i, Bucket{when, id, id});
        }
    }

    /** run()'s slow path when a trace sink or profiler is installed:
     *  emit the dispatch records and time the callback. Out of line so
     *  the disabled hot loop stays branch-plus-call-free. */
    void dispatchObserved(std::uint32_t id);

    /// One FIFO per pending tick, sorted by descending tick: the next
    /// tick to run is back().
    std::vector<Bucket> buckets_;
    /// Per-slot FIFO successor (a tagged entry, kNone or kIdle).
    std::vector<std::uint32_t> link_;
    /// Callback storage, indexed by slot. Chunked so slots never move:
    /// run() can invoke an event in place while the callback grows the
    /// slab.
    std::vector<std::unique_ptr<Slot[]>> chunks_;
    /// LIFO recycler of vacated slab slots.
    std::vector<std::uint32_t> free_;
    std::size_t pending_ = 0;
    Tick now_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace duet

#endif // DUET_SIM_EVENT_QUEUE_HH
