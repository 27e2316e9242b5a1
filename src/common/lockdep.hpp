// Lockdep — lock-order analyzer in the spirit of the Linux kernel's lockdep.
//
// Deadlocks need four locks... no: two locks and two threads acquiring them
// in opposite orders — and the overlap window is so narrow that stress tests
// essentially never hit it. Lockdep removes the timing from the equation:
// every instrumented lock belongs to a named CLASS (all 64 registry shards
// are one class, every Task's node spinlock is one class), and every
// acquisition made while other locks are held records a class-level edge
// "held-class -> acquired-class" in one global acquisition-order graph. A
// cycle in that graph is a potential deadlock, and it is reported the FIRST
// time the inverted order is observed — even on a single thread, even if the
// run never deadlocks.
//
// Same-class nesting is governed by a per-class policy:
//   Nesting::Never   — two locks of the class must never be held at once
//                      (task node locks, mailboxes);
//   Nesting::Ordered — nesting is legal only in ascending subrank order
//                      (registry shards, locked in ascending shard index).
//
// Cost model (the VerifyHook pattern): in a process that never recorded an
// acquisition, lock() and unlock() each add one relaxed atomic load and a
// predictable branch — no call, no allocation, no thread-local access, no
// shared writes. lock() tests whether lockdep is enabled; unlock() tests
// whether any thread ever recorded an acquisition, because a lock taken
// while lockdep was enabled must leave the held stack even when it is
// released after disable(). Enabled, the hot path is a thread-local stack
// walk plus a lock-free edge-matrix probe; the registry mutex is taken only
// when a never-before-seen edge appears.
//
// Enablement: DFAMR_VERIFY builds enable lockdep at static initialization
// and install an atexit gate that fails the process (exit 86) if any
// witness was recorded. The environment overrides in any build:
// DFAMR_LOCKDEP=1 forces it on, DFAMR_LOCKDEP=0 forces it off.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace dfamr::lockdep {

enum class Nesting : std::uint8_t { Never, Ordered };

namespace detail {

inline std::atomic<bool> g_enabled{false};
inline bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

/// Set, and never cleared, by the first recorded acquisition. The thread
/// that records an acquisition stores it itself, so its own later unlock
/// reads true (read-after-write coherence); a thread that never recorded
/// one has an empty held stack and may skip on_release.
inline std::atomic<bool> g_recorded{false};
inline bool recorded() { return g_recorded.load(std::memory_order_relaxed); }

/// Interns a class by name (idempotent); returns its dense id.
int intern(const char* name, Nesting nesting);
void on_acquire(int cls, std::uint32_t subrank);
void on_release(int cls);

}  // namespace detail

/// Starts recording. Existing graph state is kept (cumulative).
void enable();
/// Stops recording; held-stack bookkeeping still unwinds correctly.
void disable();
inline bool enabled() { return detail::enabled(); }
/// Drops every recorded edge and witness (tests; classes stay interned).
void reset();

/// Registers the atexit gate: a dirty report at process exit prints to
/// stderr and terminates with exit code 86. Idempotent.
void install_exit_check();

/// One potential-deadlock witness: either a cycle in the class-level
/// acquisition-order graph or an illegal same-class nesting.
struct Witness {
    std::string message;              // human-readable, includes the chain
    std::vector<std::string> chain;   // class names along the cycle / pair
};

struct Report {
    std::vector<std::string> classes;                       // interned names
    std::vector<std::pair<std::string, std::string>> edges; // observed orders
    std::vector<Witness> witnesses;

    bool clean() const { return witnesses.empty(); }
    std::string to_string() const;
};

/// Snapshot of the global acquisition-order graph and its violations.
Report report();

/// Instrumented std::mutex. Satisfies Lockable — use with std::lock_guard,
/// std::unique_lock and std::condition_variable_any (the plain
/// std::condition_variable accepts only std::mutex). The class is interned
/// lazily on first instrumented acquisition, so constructing wrappers is
/// free while lockdep is off.
class Mutex {
public:
    explicit Mutex(const char* name, Nesting nesting = Nesting::Never,
                   std::uint32_t subrank = 0)
        : name_(name), nesting_(nesting), subrank_(subrank) {}

    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

    /// Same-class rank for Nesting::Ordered classes (e.g. the shard index).
    /// Call before the mutex is shared between threads.
    void set_subrank(std::uint32_t r) { subrank_ = r; }

    void lock() {
        m_.lock();
        if (detail::enabled()) note_acquire();
    }
    bool try_lock() {
        if (!m_.try_lock()) return false;
        if (detail::enabled()) note_acquire();
        return true;
    }
    void unlock() {
        // Gated on recorded(), not on enabled(): a lock acquired while
        // lockdep was on must leave the held stack even if lockdep was
        // disabled in between. on_release is a no-op for an empty stack.
        if (detail::recorded()) note_release();
        m_.unlock();
    }

private:
    void note_acquire() { detail::on_acquire(cls(), subrank_); }
    void note_release() { detail::on_release(cls()); }
    int cls() {
        int c = cls_.load(std::memory_order_relaxed);
        if (c < 0) {
            c = detail::intern(name_, nesting_);
            cls_.store(c, std::memory_order_relaxed);
        }
        return c;
    }

    std::mutex m_;
    const char* name_;
    Nesting nesting_;
    std::uint32_t subrank_;
    std::atomic<int> cls_{-1};
};

/// Instrumented test-and-test-and-set spinlock (see common/threading.hpp);
/// drop-in for very short critical sections like DepNode::node_lock.
class SpinLock {
public:
    explicit SpinLock(const char* name, Nesting nesting = Nesting::Never,
                      std::uint32_t subrank = 0)
        : name_(name), subrank_(subrank), nesting_(nesting) {}

    SpinLock(const SpinLock&) = delete;
    SpinLock& operator=(const SpinLock&) = delete;

    void lock() {
        while (flag_.test_and_set(std::memory_order_acquire)) {
            while (flag_.test(std::memory_order_relaxed)) {
            }
        }
        if (detail::enabled()) note_acquire();
    }
    bool try_lock() {
        if (flag_.test_and_set(std::memory_order_acquire)) return false;
        if (detail::enabled()) note_acquire();
        return true;
    }
    void unlock() {
        if (detail::recorded()) note_release();
        flag_.clear(std::memory_order_release);
    }

private:
    void note_acquire() { detail::on_acquire(cls(), subrank_); }
    void note_release() { detail::on_release(cls()); }
    int cls() {
        int c = cls_.load(std::memory_order_relaxed);
        if (c < 0) {
            c = detail::intern(name_, nesting_);
            cls_.store(c, std::memory_order_relaxed);
        }
        return c;
    }

    // Widest first: every task node carries one.
    const char* name_;
    std::uint32_t subrank_;
    std::atomic<int> cls_{-1};
    std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
    Nesting nesting_;
};

}  // namespace dfamr::lockdep
