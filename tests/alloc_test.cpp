// Allocation regression test for task submission. It is its own binary: the
// global operator new and delete below count every allocation the process
// makes, so they must touch no other test.
//
// After a warm-up batch has sized the runtime's node pool, the registry's
// interval store and the ready queue, a task whose accesses and closure fit
// the task node's inline storage costs no allocation, on any path that
// submits one: submit, submit_independent and taskwait_on's sentinel.
// Larger tasks still run, in order, through the heap fallbacks.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/lockdep.hpp"
#include "tasking/runtime.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// The replacements pair operator new with std::free on purpose.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
    throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t align) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(align);
    if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
    throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace dfamr::tasking {
namespace {

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

class SubmitAllocations : public ::testing::TestWithParam<int> {
protected:
    // Counts the runtime's allocations as a default build makes them.
    // DFAMR_VERIFY builds enable lockdep, whose bookkeeping allocates when
    // a new worker thread first reaches a lock depth or a new edge appears,
    // at times that depend on scheduling.
    void SetUp() override { lockdep::disable(); }
};

INSTANTIATE_TEST_SUITE_P(WorkerCounts, SubmitAllocations, ::testing::Values(0, 1),
                         [](const auto& pinfo) {
                             return "workers" + std::to_string(pinfo.param);
                         });

constexpr int kSlots = 8;
constexpr int kBatch = 1000;  // a multiple of kSlots: every batch repeats one pattern
static_assert(kBatch % kSlots == 0);

struct Cells {
    std::array<double, kSlots> a{};
    std::array<double, kSlots> b{};
};

/// `tasks` tasks of the inline shape, then a taskwait. Task i updates a[k]
/// from a[k + 1] and writes b[k] (k = i mod kSlots): three accesses, and a
/// closure of TaskBody::kInlineBytes. A gate task holds the workers until
/// the last task is submitted, so no task completes while the batch is
/// registered and the registry sees the same history at every worker
/// count; the node pool then holds every task of the batch at once.
void submit_batch(Runtime& rt, Cells& c, int tasks) {
    static_assert(3 <= Task::kInlineDeps);
    std::atomic<bool> open{false};
    rt.submit(
        [&open] {
            while (!open.load(std::memory_order_acquire)) std::this_thread::yield();
        },
        {}, "gate");
    for (int i = 0; i < tasks; ++i) {
        const int k = i % kSlots;
        const int next = (k + 1) % kSlots;
        // Pads the closure (a reference and two ints besides) to the buffer.
        std::array<std::uint64_t, (TaskBody::kInlineBytes - 16) / 8> pad{};
        pad.back() = 1;
        auto body = [&c, k, next, pad] {
            c.a[static_cast<std::size_t>(k)] += c.a[static_cast<std::size_t>(next)] * 0.5 +
                                                static_cast<double>(pad.back());
            c.b[static_cast<std::size_t>(k)] = c.a[static_cast<std::size_t>(k)];
        };
        static_assert(sizeof(body) == TaskBody::kInlineBytes);
        static_assert(TaskBody::stored_inline<decltype(body)>());
        rt.submit(std::move(body),
                  {inout(&c.a[static_cast<std::size_t>(k)], sizeof(double)),
                   in(&c.a[static_cast<std::size_t>(next)], sizeof(double)),
                   out(&c.b[static_cast<std::size_t>(k)], sizeof(double))},
                  "inline");
    }
    open.store(true, std::memory_order_release);
    rt.taskwait();
}

TEST_P(SubmitAllocations, InlineShapedTasksAllocateNothing) {
    Runtime rt(GetParam());
    Cells c;
    Cells expected;
    // Warm-up: twice a batch, so the pool also covers the nodes the
    // registry still holds from the batch before the measured one.
    submit_batch(rt, c, 2 * kBatch);
    const std::uint64_t before = allocations();
    submit_batch(rt, c, kBatch);
    const std::uint64_t made = allocations() - before;
    EXPECT_EQ(made, 0u);
    // The same updates in submission order: the dependencies serialize
    // every pair of tasks that touch the same cell.
    for (int i = 0; i < 3 * kBatch; ++i) {
        const auto k = static_cast<std::size_t>(i % kSlots);
        expected.a[k] += expected.a[(k + 1) % kSlots] * 0.5 + 1.0;
        expected.b[k] = expected.a[k];
    }
    EXPECT_EQ(c.a, expected.a);
    EXPECT_EQ(c.b, expected.b);
}

TEST_P(SubmitAllocations, IndependentBatchesAndTaskwaitOnAllocateNothing) {
    Runtime rt(GetParam());
    std::atomic<int> ran{0};
    double x = 0;
    const auto round = [&] {
        std::array<TaskBody, 4> bodies;
        for (TaskBody& b : bodies) b = [&ran] { ran.fetch_add(1, std::memory_order_relaxed); };
        rt.submit_independent(bodies, "independent");
        rt.submit([&x] { x += 1; }, {inout(&x, sizeof x)}, "producer");
        rt.taskwait_on({in(&x, sizeof x)});
        EXPECT_GE(x, 1);
        rt.taskwait();
    };
    constexpr int kWarmup = 100, kRounds = 250;
    for (int i = 0; i < kWarmup; ++i) round();
    const std::uint64_t before = allocations();
    for (int i = 0; i < kRounds; ++i) round();
    const std::uint64_t made = allocations() - before;
    EXPECT_EQ(made, 0u);
    EXPECT_EQ(ran.load(), 4 * (kWarmup + kRounds));
    EXPECT_EQ(x, kWarmup + kRounds);
}

TEST_P(SubmitAllocations, OversizedTasksRunInOrderThroughTheHeap) {
    Runtime rt(GetParam());
    std::array<double, 64> cells{};
    double x = 0;
    std::vector<int> order;
    order.reserve(16);
    const std::uint64_t before = allocations();
    rt.submit(
        [&] {
            x = 1;
            order.push_back(0);
        },
        {out(&x, sizeof x)});
    // A merge's shape: 8 reads and a write.
    std::vector<Dep> nine{inout(&x, sizeof x)};
    for (std::size_t i = 0; i < 8; ++i) nine.push_back(in(&cells[i], sizeof(double)));
    rt.submit(
        [&] {
            x *= 2;
            order.push_back(1);
        },
        nine);
    std::vector<Dep> forty{inout(&x, sizeof x)};
    for (std::size_t i = 0; i < 39; ++i) forty.push_back(in(&cells[8 + i], sizeof(double)));
    rt.submit(
        [&] {
            x += 3;
            order.push_back(2);
        },
        forty);
    // Ten readers of x: the last writer's successors spill past the inline
    // list, and so do the next writer's predecessors' edges.
    std::atomic<int> readers{0};
    for (int r = 0; r < 10; ++r) {
        rt.submit(
            [&] {
                EXPECT_EQ(x, 5);
                readers.fetch_add(1, std::memory_order_relaxed);
            },
            {in(&x, sizeof x)});
    }
    std::array<std::uint64_t, 16> big{};
    big[15] = 7;
    auto large = [&x, &order, &readers, big] {
        EXPECT_EQ(readers.load(), 10);
        x *= static_cast<double>(big[15]);
        order.push_back(3);
    };
    static_assert(!TaskBody::stored_inline<decltype(large)>());
    rt.submit(std::move(large), {inout(&x, sizeof x)});
    rt.taskwait();
    EXPECT_GT(allocations() - before, 0u);
    EXPECT_EQ(x, 35);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace dfamr::tasking
