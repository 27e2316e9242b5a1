// Tests for the data-flow tasking runtime (the OmpSs-2 substitute).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "tasking/parallel_for.hpp"
#include "tasking/runtime.hpp"

namespace dfamr::tasking {
namespace {

class RuntimeTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(WorkerCounts, RuntimeTest, ::testing::Values(0, 1, 2, 4),
                         [](const auto& pinfo) {
                             return "workers" + std::to_string(pinfo.param);
                         });

TEST_P(RuntimeTest, TasksRunAndTaskwaitDrains) {
    Runtime rt(GetParam());
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i) {
        rt.submit([&count] { ++count; }, {});
    }
    rt.taskwait();
    EXPECT_EQ(count.load(), 100);
}

TEST_P(RuntimeTest, DependencyOrderIsRespected) {
    Runtime rt(GetParam());
    double data = 0;
    std::vector<int> order;
    std::mutex order_mutex;
    auto record = [&](int id) {
        std::lock_guard lock(order_mutex);
        order.push_back(id);
    };
    rt.submit([&] { record(1); }, {out(&data, sizeof data)});
    rt.submit([&] { record(2); }, {inout(&data, sizeof data)});
    rt.submit([&] { record(3); }, {in(&data, sizeof data)});
    rt.taskwait();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_P(RuntimeTest, IndependentChainsInterleaveCorrectly) {
    Runtime rt(GetParam());
    constexpr int kChains = 8;
    constexpr int kLinks = 20;
    double slots[kChains] = {};
    std::vector<std::vector<int>> seen(kChains);
    std::mutex m;
    for (int link = 0; link < kLinks; ++link) {
        for (int c = 0; c < kChains; ++c) {
            rt.submit(
                [&, c, link] {
                    std::lock_guard lock(m);
                    seen[static_cast<std::size_t>(c)].push_back(link);
                },
                {inout(&slots[c], sizeof(double))});
        }
    }
    rt.taskwait();
    for (int c = 0; c < kChains; ++c) {
        std::vector<int> expect(kLinks);
        std::iota(expect.begin(), expect.end(), 0);
        EXPECT_EQ(seen[static_cast<std::size_t>(c)], expect) << "chain " << c;
    }
}

TEST_P(RuntimeTest, ReadersAfterWriterSeeValue) {
    Runtime rt(GetParam());
    double x = 0;
    std::atomic<int> sum{0};
    rt.submit([&x] { x = 21; }, {out(&x, sizeof x)});
    for (int i = 0; i < 10; ++i) {
        rt.submit([&] { sum += static_cast<int>(x); }, {in(&x, sizeof x)});
    }
    rt.taskwait();
    EXPECT_EQ(sum.load(), 210);
}

TEST_P(RuntimeTest, NestedTasksAndTaskwaitInsideTask) {
    Runtime rt(GetParam());
    std::atomic<int> inner{0};
    std::atomic<bool> inner_done_at_parent_exit{false};
    rt.submit(
        [&] {
            for (int i = 0; i < 10; ++i) {
                Runtime::current()->submit([&inner] { ++inner; }, {});
            }
            Runtime::current()->taskwait();
            inner_done_at_parent_exit = (inner.load() == 10);
        },
        {});
    rt.taskwait();
    EXPECT_EQ(inner.load(), 10);
    EXPECT_TRUE(inner_done_at_parent_exit.load());
}

TEST_P(RuntimeTest, TaskwaitWaitsForGrandchildren) {
    Runtime rt(GetParam());
    std::atomic<int> grandchildren{0};
    rt.submit(
        [&] {
            for (int i = 0; i < 5; ++i) {
                Runtime::current()->submit(
                    [&] {
                        for (int j = 0; j < 5; ++j) {
                            Runtime::current()->submit([&grandchildren] { ++grandchildren; }, {});
                        }
                    },
                    {});
            }
        },
        {});
    rt.taskwait();
    EXPECT_EQ(grandchildren.load(), 25);
}

TEST_P(RuntimeTest, TaskwaitOnWaitsOnlyForProducers) {
    Runtime rt(GetParam());
    double produced = 0;
    std::atomic<bool> producer_done{false};
    std::atomic<bool> unrelated_started{false};
    std::atomic<bool> release_unrelated{false};

    rt.submit(
        [&] {
            produced = 42;
            producer_done = true;
        },
        {out(&produced, sizeof produced)});
    rt.submit(
        [&] {
            unrelated_started = true;
            while (!release_unrelated.load()) std::this_thread::yield();
        },
        {});

    // Cooperative waiting means ANY ready task may execute on the waiting
    // thread — including the unrelated spin task above, which would then
    // deadlock taskwait_on (its release flag is only set afterwards). That
    // is expected task-scheduling-point behaviour, so the scenario needs a
    // real worker to have picked the spin task up first.
    if (GetParam() == 0) {
        release_unrelated = true;
        rt.taskwait();
        return;
    }
    while (!unrelated_started.load()) std::this_thread::yield();
    rt.taskwait_on({in(&produced, sizeof produced)});
    EXPECT_TRUE(producer_done.load());
    EXPECT_EQ(produced, 42);
    release_unrelated = true;
    rt.taskwait();
}

TEST_P(RuntimeTest, ExternalEventsDelayDependencyRelease) {
    Runtime rt(GetParam());
    double data = 0;
    std::atomic<Task*> handle{nullptr};
    std::atomic<bool> successor_ran{false};

    rt.submit(
        [&] {
            data = 7;
            handle = Runtime::current()->increase_current_task_events(1);
        },
        {out(&data, sizeof data)});
    rt.submit([&] { successor_ran = true; }, {in(&data, sizeof data)});

    // Give the runtime a chance to (incorrectly) run the successor.
    if (GetParam() > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        EXPECT_FALSE(successor_ran.load());
        ASSERT_NE(handle.load(), nullptr);
        rt.decrease_task_events(handle.load(), 1);
        rt.taskwait();
        EXPECT_TRUE(successor_ran.load());
    } else {
        // Zero-worker mode: drive execution from a helper thread decrease.
        std::thread releaser([&] {
            while (handle.load() == nullptr) std::this_thread::yield();
            rt.decrease_task_events(handle.load(), 1);
        });
        rt.taskwait();
        releaser.join();
        EXPECT_TRUE(successor_ran.load());
    }
}

// A task's captures live until the task completes and no longer, although
// the dependency registry keeps completed tasks as interval writers until a
// later access to the same bytes or its periodic GC drops them.
class CaptureLifetime : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(WorkerCounts, CaptureLifetime, ::testing::Values(0, 2),
                         [](const auto& pinfo) {
                             return "workers" + std::to_string(pinfo.param);
                         });

TEST_P(CaptureLifetime, CapturesDieWhenTheTaskCompletes) {
    Runtime rt(GetParam());
    double data = 0;
    auto held = std::make_shared<double>(3);
    const std::weak_ptr<double> watch = held;
    rt.submit([held = std::move(held), &data] { data = *held; }, {out(&data, sizeof data)});
    rt.taskwait();
    // No later access to `data`, and one registration: no GC has run.
    EXPECT_EQ(data, 3);
    EXPECT_TRUE(watch.expired());
}

TEST_P(CaptureLifetime, BoundTaskKeepsCapturesUntilItsEventsComplete) {
    Runtime rt(GetParam());
    double data = 0;
    auto held = std::make_shared<double>(3);
    const std::weak_ptr<double> watch = held;
    std::atomic<Task*> handle{nullptr};
    rt.submit(
        [held = std::move(held), &data, &handle] {
            data = *held;
            handle = Runtime::current()->increase_current_task_events(1);
        },
        {out(&data, sizeof data)});
    // Fulfills the event once the body has returned: on a worker, or on the
    // main thread inside the taskwait below without workers.
    std::atomic<bool> alive_after_body{false};
    std::thread releaser([&] {
        const auto body_done = [&] {
            Task* t = handle.load();
            if (t == nullptr) return false;
            std::lock_guard lock(t->node_lock);
            return t->body_done;
        };
        while (!body_done()) std::this_thread::yield();
        alive_after_body = !watch.expired();
        rt.decrease_task_events(handle.load(), 1);
    });
    rt.taskwait();
    releaser.join();
    EXPECT_TRUE(alive_after_body.load());
    EXPECT_TRUE(watch.expired());
}

TEST_P(RuntimeTest, MultidependencySendAfterManyPackers) {
    Runtime rt(GetParam());
    constexpr int kSections = 16;
    double buffer[kSections] = {};
    std::atomic<int> packed{0};
    std::atomic<int> seen_at_send{-1};
    for (int s = 0; s < kSections; ++s) {
        rt.submit(
            [&, s] {
                buffer[s] = s;
                ++packed;
            },
            {out(&buffer[s], sizeof(double))});
    }
    std::vector<Dep> multi;
    for (int s = 0; s < kSections; ++s) multi.push_back(in(&buffer[s], sizeof(double)));
    rt.submit([&] { seen_at_send = packed.load(); }, std::move(multi));
    rt.taskwait();
    EXPECT_EQ(seen_at_send.load(), kSections);
}

TEST_P(RuntimeTest, ExceptionPropagatesAtTaskwait) {
    Runtime rt(GetParam());
    rt.submit([] { throw Error("task exploded"); }, {});
    EXPECT_THROW(rt.taskwait(), Error);
    // The runtime stays usable afterwards.
    std::atomic<int> ok{0};
    rt.submit([&ok] { ++ok; }, {});
    rt.taskwait();
    EXPECT_EQ(ok.load(), 1);
}

TEST_P(RuntimeTest, PollingServiceRunsWhileWaiting) {
    Runtime rt(GetParam());
    std::atomic<int> polls{0};
    rt.register_polling_service("counter", [&polls] {
        ++polls;
        return true;
    });
    double x = 0;
    std::atomic<Task*> handle{nullptr};
    rt.submit([&] { handle = Runtime::current()->increase_current_task_events(1); },
              {out(&x, sizeof x)});
    std::thread releaser([&] {
        while (polls.load() < 3) std::this_thread::yield();
        while (handle.load() == nullptr) std::this_thread::yield();
        rt.decrease_task_events(handle.load(), 1);
    });
    rt.taskwait();
    releaser.join();
    EXPECT_GE(polls.load(), 3);
    rt.unregister_polling_service("counter");
}

TEST_P(RuntimeTest, StatsAreConsistent) {
    Runtime rt(GetParam());
    double x = 0;
    // Hold the writer in its body until the reader is submitted, so the
    // conflict deterministically becomes a real edge (a free-running writer
    // may release before the reader arrives, in which case the registry
    // legitimately elides the edge). Safe with workers==0: inline execution
    // happens at taskwait, after the gate is already open.
    std::atomic<bool> gate{false};
    rt.submit([&] { while (!gate.load()) std::this_thread::yield(); },
              {out(&x, sizeof x)});
    rt.submit([] {}, {in(&x, sizeof x)});
    gate.store(true);
    rt.taskwait();
    const RuntimeStats s = rt.stats();
    EXPECT_EQ(s.tasks_submitted, 2u);
    EXPECT_EQ(s.tasks_executed, 2u);
    EXPECT_EQ(s.edges_added, 1u);
    EXPECT_EQ(s.edges_elided, 0u);
}

TEST_P(RuntimeTest, ConflictCountIsTimingIndependent) {
    // Without any gating the writer may or may not complete before the
    // reader is submitted, so edges_added alone is racy — but every
    // conflict lands in exactly one of {added, elided}, so the sum is
    // deterministic.
    Runtime rt(GetParam());
    double x = 0;
    rt.submit([] {}, {out(&x, sizeof x)});
    rt.submit([] {}, {in(&x, sizeof x)});
    rt.taskwait();
    const RuntimeStats s = rt.stats();
    EXPECT_EQ(s.edges_added + s.edges_elided, 1u);
}

TEST(RuntimeStress, ManyTasksRandomDependencies) {
    Runtime rt(4);
    constexpr int kSlots = 32;
    constexpr int kTasks = 5000;
    std::vector<std::int64_t> slots(kSlots, 0);
    std::vector<std::int64_t> expected(kSlots, 0);
    // simple deterministic LCG to pick slots
    std::uint64_t seed = 12345;
    auto next = [&seed] {
        seed = seed * 6364136223846793005ull + 1442695040888963407ull;
        return seed >> 33;
    };
    for (int t = 0; t < kTasks; ++t) {
        const int slot = static_cast<int>(next() % kSlots);
        ++expected[static_cast<std::size_t>(slot)];
        rt.submit([&slots, slot] { ++slots[static_cast<std::size_t>(slot)]; },
                  {inout(&slots[static_cast<std::size_t>(slot)], sizeof(std::int64_t))});
    }
    rt.taskwait();
    EXPECT_EQ(slots, expected);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
    // Teams of 1 (the caller alone), 2 and 4 over ranges longer and shorter
    // than the team, starting at a nonzero index. A region of one chunk
    // (one item, or a team of one) runs on the caller and submits no task.
    constexpr std::int64_t kBegin = 7;
    const std::thread::id caller = std::this_thread::get_id();
    for (const int workers : {0, 1, 3}) {
        Runtime rt(workers);
        for (const std::int64_t n : {100, 3, 1}) {
            std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
            std::atomic<bool> off_caller{false};
            const std::uint64_t submitted = rt.stats().tasks_submitted;
            parallel_for(rt, kBegin, kBegin + n, [&](std::int64_t i) {
                ++hits[static_cast<std::size_t>(i - kBegin)];
                if (std::this_thread::get_id() != caller) off_caller = true;
            });
            for (auto& h : hits) EXPECT_EQ(h.load(), 1) << "workers " << workers << ", n " << n;
            if (n == 1 || workers == 0) {
                EXPECT_EQ(rt.stats().tasks_submitted, submitted)
                    << "workers " << workers << ", n " << n;
                EXPECT_FALSE(off_caller) << "workers " << workers << ", n " << n;
            }
        }
    }
}

TEST(ParallelFor, CallerJoinsTheTeam) {
    // One item per team member, each waiting until every item has started:
    // that completes only if the caller and every worker run a chunk at
    // once. A split that leaves the caller idle hands some chunk two items,
    // so its first item waits out the deadline instead of hanging. On
    // Runtime(3) the fork must also wake all three parked workers.
    for (const int workers : {1, 3}) {
        Runtime rt(workers);
        const int team = rt.worker_count() + 1;
        std::vector<std::thread::id> ids(static_cast<std::size_t>(team));
        std::atomic<int> started{0};
        std::atomic<bool> timed_out{false};
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
        parallel_for(rt, 0, team, [&](std::int64_t i) {
            ids[static_cast<std::size_t>(i)] = std::this_thread::get_id();
            started.fetch_add(1);
            while (started.load() < team) {
                if (std::chrono::steady_clock::now() > deadline) {
                    timed_out = true;
                    return;
                }
                std::this_thread::yield();
            }
        });
        EXPECT_FALSE(timed_out.load()) << "workers " << workers;
        EXPECT_EQ(started.load(), team);
        const std::set<std::thread::id> distinct(ids.begin(), ids.end());
        EXPECT_EQ(distinct.size(), static_cast<std::size_t>(team)) << "workers " << workers;
        EXPECT_EQ(distinct.count(std::this_thread::get_id()), 1u) << "caller ran no chunk";
    }
}

TEST(ParallelFor, EmptyAndTinyRanges) {
    Runtime rt(4);
    std::atomic<int> n{0};
    parallel_for(rt, 5, 5, [&](std::int64_t) { ++n; });
    EXPECT_EQ(n.load(), 0);
    parallel_for(rt, 0, 1, [&](std::int64_t) { ++n; });
    EXPECT_EQ(n.load(), 1);
}

TEST(RuntimeScheduling, ImmediateSuccessorHitsOccur) {
    Runtime rt(1);
    double x = 0;
    // Gate the head of the chain so the remaining 49 submits happen while
    // it is still running; otherwise the worker can drain each task before
    // the next submit and the chain (and its immediate-successor hand-offs)
    // never materializes.
    std::atomic<bool> gate{false};
    rt.submit([&] { while (!gate.load()) std::this_thread::yield(); },
              {inout(&x, sizeof x)});
    for (int i = 0; i < 49; ++i) {
        rt.submit([] {}, {inout(&x, sizeof x)});
    }
    gate.store(true);
    rt.taskwait();
    EXPECT_GT(rt.stats().immediate_successor_hits, 0u);
}

}  // namespace
}  // namespace dfamr::tasking
