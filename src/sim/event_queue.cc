#include "sim/event_queue.hh"

#include <chrono>
#include <string>

#include "sim/check.hh"
#include "sim/trace.hh"

namespace duet
{

void
EventQueue::schedule(Tick when, Event cb)
{
    DUET_DCHECK(cb != nullptr, "null event callback scheduled");
    const std::uint32_t slot = acquireSlot(when);
    // Cold path: a pre-built Event moves into the one-shot slot behind a
    // small forwarding capture (hot call sites use the template overload,
    // which emplaces the raw lambda directly).
    slotRef(slot).emplace([cb = std::move(cb)] { cb(); });
    commit(when, slot);
}

std::uint32_t
EventQueue::growSlab()
{
    const std::uint32_t slot = static_cast<std::uint32_t>(link_.size());
    DUET_ASSERT(slot < kSlotLimit, "event slab exhausted the slot space");
    if (slot == chunks_.size() << kChunkShift)
        chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
    link_.push_back(kIdle);
    return slot;
}

bool
EventQueue::run(Tick limit)
{
    while (!buckets_.empty()) {
        Bucket &b = buckets_.back();
        if (b.when > limit) {
            now_ = limit;
            return false;
        }
        DUET_DCHECK(b.when >= now_, "event queue lost time monotonicity");
        now_ = b.when;
        // Unlink the head before dispatch: the callback may schedule at
        // now() (appending behind this tick's remaining entries, or
        // reopening the tick once it drained) and may reallocate
        // buckets_, so no reference survives the call.
        const std::uint32_t id = b.head;
        const std::uint32_t slot = id & ~kRearmFlag;
        const std::uint32_t next = link_[slot];
        link_[slot] = kIdle;
        if (next == kNone)
            buckets_.pop_back();
        else
            b.head = next;
        --pending_;
        ++executed_;
        // Invoke in place: chunk storage is pointer-stable, so the
        // callback may schedule new events (growing the slab) without
        // invalidating its own captures, and its slot only joins the
        // free-list after it returns. runDestroy() fuses the call and
        // the capture teardown into one indirect call. Observability
        // costs exactly this one predicted branch when disabled.
        if (obs::g_active != 0) [[unlikely]] {
            dispatchObserved(id);
        } else if (id & kRearmFlag) {
            // Re-armable slot: run the capture in place and keep it
            // bound — the callback re-arms (or its owner releases) the
            // slot; it never joins the free-list here.
            slotRef(slot).run();
        } else {
            slotRef(slot).runDestroy();
            free_.push_back(slot);
        }
    }
    return true;
}

void
EventQueue::reset()
{
    for (const Bucket &b : buckets_) {
        std::uint32_t id = b.head;
        while (id != kNone) {
            const std::uint32_t slot = id & ~kRearmFlag;
            const bool rearm = (id & kRearmFlag) != 0;
            id = link_[slot];
            link_[slot] = kIdle;
            // A re-armable slot is owned by its binder (a Cadence in a
            // coroutine frame). By the reset contract those frames were
            // drained first, releasing the slot while it was still
            // linked here, so it joins the free-list now. A binder that
            // is still alive keeps its (now idle) slot.
            if (rearm && !slotRef(slot).empty())
                continue;
            slotRef(slot).reset(); // destroy without running
            free_.push_back(slot);
        }
    }
    buckets_.clear();
    pending_ = 0;
    now_ = 0;
    executed_ = 0;
}

void
EventQueue::dispatchObserved(std::uint32_t id)
{
    if (TraceSink *ts = obs::trace()) {
        if (ts->enabled(TraceCat::Queue)) {
            ts->instant(TraceCat::Queue, "events", "dispatch", now_);
            // Sample the pending depth sparsely — one counter record per
            // 256 dispatches keeps the track readable and the buffer sane.
            if ((executed_ & 0xffu) == 0) {
                ts->counter(TraceCat::Queue, "events", "pending", now_,
                            pending_);
            }
        }
    }
    const bool rearm = (id & kRearmFlag) != 0;
    const std::uint32_t slot = id & ~kRearmFlag;
    Slot &s = slotRef(slot);
    if (Profiler *p = obs::prof()) {
        p->beginEvent();
        const auto t0 = std::chrono::steady_clock::now();
        if (rearm)
            s.run();
        else
            s.runDestroy();
        const auto t1 = std::chrono::steady_clock::now();
        p->endEvent(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
    } else if (rearm) {
        s.run();
    } else {
        s.runDestroy();
    }
    if (!rearm)
        free_.push_back(slot);
}

} // namespace duet
