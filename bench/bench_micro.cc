/**
 * @file
 * google-benchmark micro-benchmarks of the simulator substrate itself:
 * event-queue throughput, cache-array lookups, functional memory, and
 * end-to-end NoC message delivery. These guard the simulator's own
 * performance (simulation speed), not the modeled system.
 */

#include <cstdint>

#include <benchmark/benchmark.h>

#include "cache/cache_array.hh"
#include "cache/l1_cache.hh"
#include "mem/functional_mem.hh"
#include "noc/mesh.hh"
#include "sim/event_queue.hh"
#include "sim/task.hh"

namespace
{

using namespace duet;

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    // One queue for the whole run: after the first iteration every slab
    // slot is recycled, so this times scheduling and dispatch rather than
    // the first-touch allocation of a slab chunk.
    EventQueue eq;
    int sink = 0;
    for (auto _ : state) {
        const Tick base = eq.now();
        for (int i = 0; i < 1024; ++i)
            eq.schedule(base + static_cast<Tick>(i * 7 % 97), [&] { ++sink; });
        eq.run();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleRun);

/** A self-rescheduling event: each firing schedules its successor a
 *  pseudo-random 1..2D-1 ticks ahead (the classic hold model). */
struct Hop
{
    EventQueue *eq;
    std::uint64_t *rng;
    Tick span;

    void
    operator()() const
    {
        *rng = *rng * 6364136223846793005ull + 1442695040888963407ull;
        eq->schedule(eq->now() + 1 + (*rng >> 33) % span, Hop(*this));
    }
};

void
BM_EventQueueDistinctTicks(benchmark::State &state)
{
    // Steady-state churn with D events pending on about D distinct ticks
    // (D ranges over the queue's scaling regime; Fig. 12 workloads stay
    // at D <= 46). Items are dispatched events.
    const auto d = static_cast<Tick>(state.range(0));
    EventQueue eq;
    std::uint64_t rng = 0x2545f4914f6cdd1dull;
    const Hop hop{&eq, &rng, 2 * d - 1};
    for (Tick i = 0; i < d; ++i)
        eq.schedule(1 + i * 2, hop);
    const std::uint64_t start = eq.executed();
    for (auto _ : state)
        eq.run(eq.now() + 1024);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(eq.executed() - start));
}
BENCHMARK(BM_EventQueueDistinctTicks)
    ->Arg(4)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void
BM_EventQueueLockstep(benchmark::State &state)
{
    // The spin shape of the processor-only baselines: 8 cadences on one
    // clock, each re-armed every cycle, so every pending tick holds an
    // 8-deep FIFO of re-armed slots. Items are dispatched events.
    EventQueue eq;
    ClockDomain clk(eq, "clk", 1000);
    bool stop = false;
    for (int c = 0; c < 8; ++c) {
        spawn([](ClockDomain &k, const bool &halt) -> CoTask<void> {
            Cadence cad(k);
            while (!halt)
                co_await cad(1);
        }(clk, stop));
    }
    const std::uint64_t start = eq.executed();
    for (auto _ : state)
        eq.run(eq.now() + 512 * clk.period());
    const std::uint64_t ran = eq.executed() - start;
    stop = true;
    eq.run();
    drainDetachedTasks();
    state.SetItemsProcessed(static_cast<std::int64_t>(ran));
}
BENCHMARK(BM_EventQueueLockstep);

void
BM_CacheArrayFind(benchmark::State &state)
{
    CacheArray<L1Line> arr(128, 4);
    for (Addr a = 0; a < 512 * kLineBytes; a += kLineBytes) {
        L1Line &slot = arr.victimFor(a);
        arr.install(slot, a);
    }
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(arr.find(a));
        a = (a + kLineBytes) % (512 * kLineBytes);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheArrayFind);

void
BM_FunctionalMemoryReadWrite(benchmark::State &state)
{
    FunctionalMemory mem;
    Addr a = 0;
    for (auto _ : state) {
        mem.write(a, 8, a);
        benchmark::DoNotOptimize(mem.read(a, 8));
        a = (a + 8) % (1 << 20);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FunctionalMemoryReadWrite);

void
BM_MeshDelivery(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        ClockDomain clk(eq, "sys", 1000);
        Mesh mesh(clk, MeshConfig{4, 4});
        int delivered = 0;
        for (unsigned t = 0; t < 16; ++t) {
            mesh.registerEndpoint(
                {static_cast<std::uint16_t>(t), TilePort::L3},
                [&](const Message &) { ++delivered; });
        }
        for (unsigned i = 0; i < 256; ++i) {
            Message m;
            m.type = MsgType::GetS;
            m.src = {static_cast<std::uint16_t>(i % 16), TilePort::L2};
            m.dst = {static_cast<std::uint16_t>((i * 7) % 16),
                     TilePort::L3};
            mesh.inject(m);
        }
        eq.run();
        benchmark::DoNotOptimize(delivered);
    }
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_MeshDelivery);

} // namespace

BENCHMARK_MAIN();
