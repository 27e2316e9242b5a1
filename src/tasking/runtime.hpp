// Data-flow tasking runtime — the OmpSs-2 substitute.
//
// Features used by the paper's parallelization and provided here:
//  * tasks with in/out/inout region dependencies and multidependencies
//  * nested tasks and taskwait (waits for all descendants of the caller)
//  * taskwait with dependencies (OmpSs-2 `taskwait in(...)`), used by the
//    delayed-checksum optimization of §IV-C
//  * external events (the mechanism TAMPI uses to bind MPI request
//    completion to task dependency release): a task's dependencies are
//    released only when its body has finished AND its event counter is zero
//  * polling services (nanos6-style): callbacks invoked by idle workers,
//    used by the TAMPI progress engine
//  * immediate-successor scheduling: a worker that completes a task runs a
//    just-readied successor next, reusing warm cache state (the paper's
//    stated cause of the IPC improvement)
//
// Scheduler architecture (work stealing; see DESIGN.md §11): each worker
// owns a lock-free Chase–Lev deque (LIFO for the owner, FIFO for thieves)
// plus a `next_task` slot for the immediate successor, non-worker threads
// submit through a mutex-protected injection queue, and idle workers spin
// briefly, steal from victims chosen by rotating scan, then park on a
// condition variable. Wakeups are targeted: a producer wakes at most as
// many parked workers as it made tasks ready. There is no global graph
// mutex — the dependency registry is sharded (see dependency.hpp) and task
// state transitions are guarded by per-task spinlocks.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/lockdep.hpp"
#include "tasking/dependency.hpp"
#include "tasking/inline_vec.hpp"
#include "tasking/node_pool.hpp"
#include "tasking/runtime_stats.hpp"
#include "tasking/task_body.hpp"
#include "tasking/ws_deque.hpp"

namespace dfamr::tasking {

class Runtime;

/// A task instance. Public only as an opaque handle for the external-events
/// API (TaskEventCounter) — users interact through Runtime.
///
/// Submitting a task costs no heap allocation in the common case: the node
/// (this Task plus its shared_ptr control block) comes from the runtime's
/// NodePool, the body's closure sits in the TaskBody's inline buffer, and
/// the accesses and successors sit in inline arrays. Each spills to the
/// heap only past its inline capacity, which the data-flow driver's tasks
/// rarely reach (see the constants). The node takes 360 bytes, less than
/// the same task took in separate heap pieces.
struct Task final : DepNode {
    /// Accesses kept inside the node; 95% of the data-flow driver's tasks on
    /// `cylinder_reflux` declare at most 3 (a merge declares 9).
    static constexpr std::uint32_t kInlineDeps = 3;

    /// User-provided, so allocate_shared's value-initialization does not
    /// zero the node before the members initialize themselves.
    Task() noexcept {}

    /// Destroyed, with everything it captures, when the task completes.
    TaskBody body;
    InlineVec<Dep, kInlineDeps> deps;
    const char* label = "";

    Task* parent = nullptr;
    /// Keeps the parent alive while children may still walk the ancestor
    /// chain (the root task is owned by the Runtime and has no ref).
    std::shared_ptr<Task> parent_ref;
    /// Live descendants (children + their descendants).
    std::atomic<std::int64_t> descendants_live{0};
    /// Outstanding external events (TAMPI-bound MPI requests). Guarded by
    /// node_lock.
    int external_events = 0;
    /// Body finished executing. Guarded by node_lock.
    bool body_done = false;
    /// Fully complete: body done, events zero, deps released.
    std::atomic<bool> completed{false};
    /// Self-ownership from submission until completion: the scheduler's
    /// deques hold raw pointers, so the task keeps itself alive (the
    /// registry's interval references alone are not reliable — a later
    /// writer on the same region supersedes a pending task's entry). A
    /// nested submission copies it as the child's parent_ref.
    std::shared_ptr<Task> self_ref;
};

class Runtime {
public:
    /// Spawns `workers` worker threads. `workers == 0` is valid: tasks then
    /// execute inline on the submitting thread at taskwait points — useful
    /// for deterministic unit tests.
    explicit Runtime(int workers);
    ~Runtime();

    Runtime(const Runtime&) = delete;
    Runtime& operator=(const Runtime&) = delete;

    /// A task taken from the runtime's node pool and not yet submitted: the
    /// caller writes its accesses and its body in place, then submits it.
    class NewTask {
    public:
        InlineVec<Dep, Task::kInlineDeps>& deps() { return task_->deps; }
        TaskBody& body() { return task_->body; }

    private:
        friend class Runtime;
        explicit NewTask(std::shared_ptr<Task> task) : task_(std::move(task)) {}
        std::shared_ptr<Task> task_;
    };

    /// A task of the calling context: nested inside the current task when
    /// called from a task body of this runtime, top-level otherwise.
    NewTask new_task(const char* label = "");

    /// Submits a task with data-flow dependencies. May be called from the
    /// owning thread or from inside a task (nesting). Every submission,
    /// including submit_independent's and taskwait_on's, goes through here.
    void submit(NewTask task);

    /// Submits `body` with the accesses `deps`.
    template <typename F>
    void submit(F&& body, std::span<const Dep> deps, const char* label = "") {
        NewTask task = new_task(label);
        task.deps().assign(deps);
        task.body() = std::forward<F>(body);
        submit(std::move(task));
    }
    template <typename F>
    void submit(F&& body, std::initializer_list<Dep> deps, const char* label = "") {
        submit(std::forward<F>(body), std::span<const Dep>(deps.begin(), deps.size()), label);
    }

    /// Submits dependency-free tasks as one batch — the fork of a
    /// worksharing region — and wakes parked workers for all of them at
    /// once. (Back-to-back submit() calls wake one worker per call but skip
    /// the notify while an earlier one is still in flight, which can leave
    /// a burst of independent tasks to a single woken worker.) The bodies
    /// are moved into the tasks.
    void submit_independent(std::span<TaskBody> bodies, const char* label = "");

    /// Waits until every descendant task of the calling context completed.
    void taskwait();

    /// OmpSs-2 "taskwait with dependencies": waits only until the listed
    /// regions' current producers complete, without draining the whole graph.
    void taskwait_on(std::span<const Dep> deps);
    void taskwait_on(std::initializer_list<Dep> deps) {
        taskwait_on(std::span<const Dep>(deps.begin(), deps.size()));
    }

    /// --- External events (TAMPI integration) ---------------------------
    /// Must be called from inside a task body: registers `n` pending events
    /// on the current task and returns its handle for later decrease.
    Task* increase_current_task_events(int n);
    /// May be called from any thread (e.g. the progress engine).
    void decrease_task_events(Task* task, int n);

    /// Cooperative wait: executes ready tasks and runs polling services on
    /// the calling thread until `done()` returns true. This is the
    /// task-scheduling-point mechanism behind blocking-mode TAMPI: the
    /// worker is never blocked, it helps with other tasks instead.
    void help_until(const std::function<bool()>& done) { wait_until(done); }

    /// Registers a polling service run periodically by idle workers and by
    /// waiting threads. Return value `true` keeps the service registered.
    void register_polling_service(std::string name, std::function<bool()> poll);
    void unregister_polling_service(const std::string& name);

    /// Records an error raised outside any task body — e.g. by a progress
    /// engine detecting a communication timeout. Surfaces at the next
    /// taskwait exactly like a task-body exception, instead of hanging the
    /// worker pool on a task that will never complete.
    void report_external_error(std::exception_ptr err);

    /// True while an error (task-body or external) is recorded and not yet
    /// consumed by a taskwait. Progress engines use this to stop waiting on
    /// transfers of a doomed parallel phase: the next taskwait rethrows no
    /// matter what, so requests that cannot complete any more should be
    /// flushed instead of holding the drain until their deadlines expire.
    bool has_pending_error() const {
        return error_pending_.load(std::memory_order_relaxed);
    }

    /// The runtime the calling thread is currently executing a task of
    /// (nullptr outside of tasks).
    static Runtime* current();
    /// The task the calling thread is executing (nullptr outside of tasks).
    static Task* current_task();

    int worker_count() const { return static_cast<int>(workers_.size()); }

    /// Index of the calling thread within THIS runtime's worker pool, or -1
    /// when the caller is not one of its workers (the owning thread, an
    /// external event source, or another runtime's worker). Used to
    /// attribute traced work to the lane that actually executed it.
    int worker_index_of_calling_thread() const {
        return tls_worker_ != nullptr && tls_worker_->owner == this ? tls_worker_->index : -1;
    }
    /// Lane of the calling thread in per-core timelines: worker w records
    /// on lane w + 1, any other thread (the owning main thread) on lane 0,
    /// so tasks record under the worker that EXECUTED them, not the spawner.
    int trace_lane() const {
        const int w = worker_index_of_calling_thread();
        return w >= 0 ? w + 1 : 0;
    }

    RuntimeStats stats() const;

    /// Attaches a verification observer (see tasking/verify_hook.hpp) that
    /// sees every node registration, edge, release, body execution window,
    /// and the shutdown. Attach before submitting tasks; detach with
    /// nullptr. Zero-cost when detached (a null-pointer check per event).
    /// While attached, registrations and releases are serialized on a
    /// dedicated mutex so the hook observes one total order (DepLint's
    /// logical-clock contract) even though the registry is sharded.
    void set_verify_hook(VerifyHook* hook);

private:
    using TaskPtr = std::shared_ptr<Task>;

    /// Per-worker scheduler state. Owned by the Runtime; `deque` bottom end
    /// and `next_task`/`next_victim` are touched only by the owning thread.
    struct Worker {
        WsDeque<Task> deque;
        Task* next_task = nullptr;  // immediate successor, bypasses the deque
        Runtime* owner = nullptr;
        int index = 0;
        unsigned next_victim = 0;  // rotating steal scan start
    };

    /// FIFO of ready tasks on a power-of-two ring that only grows. A
    /// std::deque frees a chunk and allocates the next every 64 tasks.
    class TaskFifo {
    public:
        bool empty() const { return size_ == 0; }
        void push_back(Task* task) {
            if (size_ == ring_.size()) grow();
            ring_[(head_ + size_) & (ring_.size() - 1)] = task;
            ++size_;
        }
        Task* pop_front() {
            Task* task = ring_[head_];
            head_ = (head_ + 1) & (ring_.size() - 1);
            --size_;
            return task;
        }

    private:
        void grow() {
            std::vector<Task*> bigger(ring_.empty() ? 64 : 2 * ring_.size());
            for (std::size_t i = 0; i < size_; ++i) {
                bigger[i] = ring_[(head_ + i) & (ring_.size() - 1)];
            }
            ring_ = std::move(bigger);
            head_ = 0;
        }
        std::vector<Task*> ring_;
        std::size_t head_ = 0;
        std::size_t size_ = 0;
    };

    /// Relaxed atomic counters behind RuntimeStats, in two cache lines: the
    /// submitting thread's (with the task ids it hands out) and the
    /// workers'. Sharing one line made every submit and every completion
    /// steal it from the other side.
    struct alignas(64) SubmitCounters {
        std::atomic<std::uint64_t> next_task_id{1};
        std::atomic<std::uint64_t> tasks_submitted{0};
        std::atomic<std::uint64_t> edges_added{0};
    };
    struct alignas(64) WorkerCounters {
        std::atomic<std::uint64_t> tasks_executed{0};
        std::atomic<std::uint64_t> immediate_successor_hits{0};
        std::atomic<std::uint64_t> steals{0};
        std::atomic<std::uint64_t> steal_fails{0};
        std::atomic<std::uint64_t> parks{0};
        std::atomic<std::uint64_t> wakeups{0};
    };

    /// A pool slot holds a Task and its control block's header (a vtable
    /// pointer, two counts and the allocator: 24 bytes in libstdc++). A
    /// larger control block, of another standard library, takes the heap.
    static constexpr std::size_t kNodeSlotBytes = sizeof(Task) + 24;
    /// Allocates task nodes from pool_ (std::allocate_shared rebinds it to
    /// the control block that holds the Task).
    template <typename T>
    struct NodeAllocator {
        using value_type = T;
        Runtime* rt;
        explicit NodeAllocator(Runtime* r) noexcept : rt(r) {}
        template <typename U>
        NodeAllocator(const NodeAllocator<U>& other) noexcept : rt(other.rt) {}

        static constexpr bool kPooled =
            sizeof(T) <= kNodeSlotBytes && alignof(T) <= NodePool::kSlotAlign;
        T* allocate(std::size_t n) {
            if (kPooled && n == 1) return static_cast<T*>(rt->pool_.take());
            return static_cast<T*>(::operator new(n * sizeof(T)));
        }
        void deallocate(T* p, std::size_t n) noexcept {
            if (kPooled && n == 1) {
                rt->pool_.give(p);
            } else {
                ::operator delete(p);
            }
        }
        friend bool operator==(const NodeAllocator& a, const NodeAllocator& b) {
            return a.rt == b.rt;
        }
    };

    void worker_loop(int worker_index);
    /// Runs the task body with the thread-local context + verify hooks set.
    void run_body(Task* task);
    /// Runs one task; the immediate successor goes to the worker's
    /// next_task slot (worker threads) or is chained inline (other threads).
    void execute(Task* task);
    /// Marks the body done and releases deps if fully complete. Returns an
    /// immediate successor made ready by the release (if any).
    Task* finish_body(Task* task);
    /// Records the body's end (`body_finished`) or `events_done` fulfilled
    /// external events, then completes the task if nothing is left. Only
    /// the thread that ran the body gets an immediate successor back.
    Task* complete_if_ready(Task* task, bool body_finished, int events_done);
    /// Next-task slot, own deque, injection queue, then stealing.
    Task* find_task(Worker& me);
    Task* pop_injected();
    Task* try_steal(Worker& me);
    /// Puts a ready task where the calling thread can schedule it cheapest.
    void enqueue_ready(Task* task);
    /// Wakes up to `newly_ready` parked workers (targeted, not broadcast).
    void wake_workers(int newly_ready);
    /// Parks the calling worker until new work may exist (epoch change).
    void park(Worker& me);
    /// Racy hint that some queue is non-empty (pre-park recheck).
    bool work_available() const;
    /// Wakes threads blocked in wait_until (completion events).
    void signal_idle();
    void wait_idle_briefly();
    /// Runs all polling services once. Returns true if any made progress.
    bool run_polling_services();
    /// Help-execute tasks / poll until `done()` is true.
    void wait_until(const std::function<bool()>& done);
    /// A task node from the pool, child of `parent`.
    TaskPtr make_task(const char* label, Task* parent);
    /// Registers the task's accesses and drops the submission guard.
    /// Returns true when that made the task ready; the caller then wakes
    /// workers for it.
    bool register_and_release_guard(const TaskPtr& task);

    /// The Worker owned by the calling thread, if it is a worker thread of
    /// some Runtime (check `owner` before using — threads may help other
    /// runtimes through nested taskwaits).
    static thread_local Worker* tls_worker_;

    // Declared first, destroyed last: the registry and root_'s children
    // give their nodes back to it.
    NodePool pool_{kNodeSlotBytes};

    DependencyRegistry registry_;

    SubmitCounters submit_stats_;

    // Implicit task for the owning (non-worker) thread. Its own cache line:
    // every completion decrements its descendants_live.
    alignas(64) Task root_;

    // Worker state lives behind unique_ptr so addresses stay stable for
    // thieves while the vector is built.
    std::vector<std::unique_ptr<Worker>> worker_state_;
    std::vector<std::thread> workers_;

    // Injection queue for ready tasks produced by non-worker threads (the
    // owning thread, external event sources). FIFO: with workers == 0 this
    // is the whole scheduler and preserves deterministic submit order.
    mutable lockdep::Mutex inject_mutex_{"tasking.inject"};
    TaskFifo inject_queue_;
    std::atomic<std::size_t> inject_size_{0};

    // Park/wake protocol: producers bump work_epoch_ after publishing work;
    // a parking worker captures the epoch, registers in parked_workers_,
    // rechecks the queues, then waits for an epoch change. The seq_cst
    // accesses make the publish/park handshake a Dekker pair: either the
    // producer sees the parked worker, or the parker sees the new epoch.
    // pending_wakes_ counts notifies believed to be in flight so producers
    // skip redundant futex wakes while an already-notified worker is still
    // coming up; each parker conservatively resets it before sleeping
    // (stale suppression can only cost an extra notify, never lose one).
    lockdep::Mutex park_mutex_{"tasking.park"};
    std::condition_variable_any ready_cv_;
    std::atomic<std::uint64_t> work_epoch_{0};
    std::atomic<int> parked_workers_{0};
    std::atomic<int> pending_wakes_{0};

    // Completion signal for wait_until (taskwait / help_until waiters).
    lockdep::Mutex idle_mutex_{"tasking.idle"};
    std::condition_variable_any idle_cv_;
    std::atomic<std::uint64_t> idle_epoch_{0};
    std::atomic<int> idle_waiters_{0};

    std::atomic<bool> shutting_down_{false};

    lockdep::Mutex error_mutex_{"tasking.error"};
    std::exception_ptr first_error_;
    /// Lock-free mirror of `first_error_ != nullptr` for hot-path probes.
    std::atomic<bool> error_pending_{false};

    struct PollingService {
        std::string name;
        std::function<bool()> poll;
    };
    lockdep::Mutex polling_mutex_{"tasking.polling"};
    std::vector<PollingService> polling_services_;
    std::atomic<bool> has_polling_{false};

    WorkerCounters stats_;

    // Serializes registrations and releases into one total order while a
    // verify hook is attached (never taken otherwise). Lock order:
    // verify_mutex_ -> registry shard mutexes -> task node locks.
    lockdep::Mutex verify_mutex_{"tasking.verify"};
    VerifyHook* verify_ = nullptr;
};

}  // namespace dfamr::tasking
