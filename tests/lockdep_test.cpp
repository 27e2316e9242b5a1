// Tests for the lock-order analyzer (common/lockdep.hpp). Every test that
// provokes a witness on purpose calls lockdep::reset() before returning so
// the atexit gate (active in DFAMR_VERIFY builds / under DFAMR_LOCKDEP=1)
// sees a clean graph — these witnesses are the test passing, not a bug.
#include "common/lockdep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__SANITIZE_THREAD__)
#define DFAMR_LOCKDEP_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DFAMR_LOCKDEP_TEST_TSAN 1
#endif
#endif
#ifdef DFAMR_LOCKDEP_TEST_TSAN
// These tests construct real lock-order inversions on purpose — that is
// what lockdep exists to catch — so TSan's own potential-deadlock detector
// would flag every one of them. Keep it out of the way in this binary only;
// the data-race detector stays fully on.
extern "C" const char* __tsan_default_options() { return "detect_deadlocks=0"; }
#endif

namespace dfamr::lockdep {
namespace {

/// Enables lockdep for the test body, then resets and restores.
class ScopedLockdep {
public:
    ScopedLockdep() : was_enabled_(enabled()) {
        reset();
        enable();
    }
    ~ScopedLockdep() {
        reset();
        if (!was_enabled_) disable();
    }

private:
    bool was_enabled_;
};

bool has_witness_mentioning(const Report& r, const std::string& needle) {
    for (const Witness& w : r.witnesses) {
        if (w.message.find(needle) != std::string::npos) return true;
    }
    return false;
}

TEST(Lockdep, ConsistentOrderIsClean) {
    ScopedLockdep guard;
    Mutex a("test.a"), b("test.b");
    for (int i = 0; i < 3; ++i) {
        std::lock_guard la(a);
        std::lock_guard lb(b);
    }
    const Report r = report();
    EXPECT_TRUE(r.clean()) << r.to_string();
}

TEST(Lockdep, InvertedOrderIsReportedWithoutADeadlock) {
    ScopedLockdep guard;
    Mutex a("test.inv_a"), b("test.inv_b");
    {
        std::lock_guard la(a);
        std::lock_guard lb(b);  // records a -> b
    }
    {
        std::lock_guard lb(b);
        std::lock_guard la(a);  // inversion: b -> a closes the cycle
    }
    const Report r = report();
    ASSERT_FALSE(r.clean());
    EXPECT_TRUE(has_witness_mentioning(r, "test.inv_a")) << r.to_string();
    EXPECT_TRUE(has_witness_mentioning(r, "test.inv_b")) << r.to_string();
}

TEST(Lockdep, ThreeLockCycleIsReported) {
    ScopedLockdep guard;
    Mutex a("test.tri_a"), b("test.tri_b"), c("test.tri_c");
    {
        std::lock_guard la(a);
        std::lock_guard lb(b);  // a -> b
    }
    {
        std::lock_guard lb(b);
        std::lock_guard lc(c);  // b -> c
    }
    EXPECT_TRUE(report().clean());  // no cycle yet
    {
        std::lock_guard lc(c);
        std::lock_guard la(a);  // c -> a completes a->b->c->a
    }
    const Report r = report();
    ASSERT_FALSE(r.clean());
    EXPECT_TRUE(has_witness_mentioning(r, "test.tri_a")) << r.to_string();
}

TEST(Lockdep, CycleAcrossThreadsNeedsNoActualDeadlock) {
    // The classic AB/BA bug, but fully serialized: thread 1 finishes before
    // thread 2 starts, so the program cannot deadlock — lockdep still
    // reports the potential, which is the whole point.
    ScopedLockdep guard;
    Mutex a("test.thr_a"), b("test.thr_b");
    std::thread t1([&] {
        std::lock_guard la(a);
        std::lock_guard lb(b);
    });
    t1.join();
    std::thread t2([&] {
        std::lock_guard lb(b);
        std::lock_guard la(a);
    });
    t2.join();
    EXPECT_FALSE(report().clean());
}

TEST(Lockdep, NeverNestingFlagsSameClassPair) {
    ScopedLockdep guard;
    Mutex m1("test.never"), m2("test.never");  // same class, two instances
    {
        std::lock_guard l1(m1);
        std::lock_guard l2(m2);
    }
    const Report r = report();
    ASSERT_FALSE(r.clean());
    EXPECT_TRUE(has_witness_mentioning(r, "test.never")) << r.to_string();
}

TEST(Lockdep, OrderedNestingAcceptsAscendingSubranks) {
    ScopedLockdep guard;
    Mutex s0("test.shard", Nesting::Ordered, 0);
    Mutex s1("test.shard", Nesting::Ordered, 1);
    Mutex s2("test.shard", Nesting::Ordered, 2);
    {
        std::lock_guard l0(s0);
        std::lock_guard l1(s1);
        std::lock_guard l2(s2);
    }
    EXPECT_TRUE(report().clean()) << report().to_string();
}

TEST(Lockdep, OrderedNestingRejectsDescendingSubranks) {
    ScopedLockdep guard;
    Mutex s0("test.shard_d", Nesting::Ordered, 0);
    Mutex s5("test.shard_d", Nesting::Ordered, 5);
    {
        std::lock_guard l5(s5);
        std::lock_guard l0(s0);  // descending: the registry's deadlock recipe
    }
    const Report r = report();
    ASSERT_FALSE(r.clean());
    EXPECT_TRUE(has_witness_mentioning(r, "test.shard_d")) << r.to_string();
}

TEST(Lockdep, SpinLockParticipatesInTheSameGraph) {
    ScopedLockdep guard;
    Mutex m("test.mix_m");
    SpinLock s("test.mix_s");
    {
        std::lock_guard lm(m);
        std::lock_guard ls(s);  // m -> s
    }
    {
        std::lock_guard ls(s);
        std::lock_guard lm(m);  // s -> m: cross-type inversion
    }
    EXPECT_FALSE(report().clean());
}

TEST(Lockdep, DuplicateWitnessesAreDeduplicated) {
    ScopedLockdep guard;
    Mutex a("test.dup_a"), b("test.dup_b");
    for (int i = 0; i < 5; ++i) {
        std::lock_guard la(a);
        std::lock_guard lb(b);
    }
    for (int i = 0; i < 5; ++i) {
        std::lock_guard lb(b);
        std::lock_guard la(a);
    }
    EXPECT_EQ(report().witnesses.size(), 1u) << report().to_string();
}

TEST(Lockdep, DisabledRecordingCostsNothingAndSeesNothing) {
    // Explicitly off: inversions pass unrecorded (the zero-cost default).
    reset();
    const bool was = enabled();
    disable();
    Mutex a("test.off_a"), b("test.off_b");
    {
        std::lock_guard la(a);
        std::lock_guard lb(b);
    }
    {
        std::lock_guard lb(b);
        std::lock_guard la(a);
    }
    EXPECT_TRUE(report().clean());
    if (was) enable();
}

TEST(Lockdep, LockTakenWhileEnabledIsReleasedAfterDisable) {
    // A lock recorded while enabled and released while disabled must leave
    // the held stack: a stale entry would pose as held under every later
    // acquisition and report a same-class nesting or an order never taken.
    ScopedLockdep guard;
    const auto release_while_disabled = [](Mutex& m) {
        m.lock();
        disable();
        m.unlock();
        enable();
    };
    // Both orders, each on its own pair of classes (on one pair they would
    // be a real cycle).
    Mutex a1("test.late_a1"), b1("test.late_b1");
    release_while_disabled(a1);
    {
        std::lock_guard lb(b1);
        std::lock_guard la(a1);
    }
    Mutex a2("test.late_a2"), b2("test.late_b2");
    release_while_disabled(a2);
    {
        std::lock_guard la(a2);
        std::lock_guard lb(b2);
    }
    const Report r = report();
    EXPECT_TRUE(r.clean()) << r.to_string();
    const std::vector<std::pair<std::string, std::string>> expected = {
        {"test.late_b1", "test.late_a1"}, {"test.late_a2", "test.late_b2"}};
    for (const auto& edge : r.edges) {
        if (edge.first.rfind("test.late_", 0) != 0) continue;
        EXPECT_NE(std::find(expected.begin(), expected.end(), edge), expected.end())
            << edge.first << " -> " << edge.second;
    }
}

TEST(Lockdep, WorksWithConditionVariableAny) {
    ScopedLockdep guard;
    Mutex m("test.cv_m");
    std::condition_variable_any cv;
    bool ready = false;
    std::thread t([&] {
        std::unique_lock lk(m);
        ready = true;
        cv.notify_one();
    });
    {
        std::unique_lock lk(m);
        cv.wait(lk, [&] { return ready; });
    }
    t.join();
    EXPECT_TRUE(report().clean()) << report().to_string();
}

TEST(Lockdep, ResetClearsWitnessesButKeepsClasses) {
    ScopedLockdep guard;
    Mutex a("test.rst_a"), b("test.rst_b");
    {
        std::lock_guard la(a);
        std::lock_guard lb(b);
    }
    {
        std::lock_guard lb(b);
        std::lock_guard la(a);
    }
    ASSERT_FALSE(report().clean());
    reset();
    EXPECT_TRUE(report().clean());
    // The clean order re-recorded after reset stays clean.
    {
        std::lock_guard la(a);
        std::lock_guard lb(b);
    }
    EXPECT_TRUE(report().clean());
}

}  // namespace
}  // namespace dfamr::lockdep
