#include "tasking/runtime.hpp"

#include <chrono>
#include <exception>

#include "common/error.hpp"
#include "tasking/verify_hook.hpp"

namespace dfamr::tasking {

namespace {
thread_local Runtime* tls_runtime = nullptr;
thread_local Task* tls_task = nullptr;

constexpr auto kIdleWait = std::chrono::microseconds(200);
// Failed find_task rounds (each a full steal scan + poll) before parking.
constexpr int kSpinRounds = 64;
}  // namespace

thread_local Runtime::Worker* Runtime::tls_worker_ = nullptr;

Runtime* Runtime::current() { return tls_runtime; }
Task* Runtime::current_task() { return tls_task; }

Runtime::Runtime(int workers) {
    DFAMR_REQUIRE(workers >= 0, "worker count must be non-negative");
    root_.label = "<root>";
    worker_state_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i) {
        auto w = std::make_unique<Worker>();
        w->owner = this;
        w->index = i;
        // Stagger initial steal-scan start points so thieves don't all hammer
        // worker 0 first.
        w->next_victim = static_cast<unsigned>(i + 1);
        worker_state_.push_back(std::move(w));
    }
    workers_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i) {
        workers_.emplace_back([this, i] { worker_loop(i); });
    }
}

Runtime::~Runtime() {
    try {
        taskwait();
    } catch (...) {
        // A task error surfacing during teardown cannot be rethrown further.
    }
    if (verify_ != nullptr) {
        std::lock_guard lock(verify_mutex_);
        verify_->on_shutdown();
    }
    shutting_down_.store(true, std::memory_order_seq_cst);
    work_epoch_.fetch_add(1, std::memory_order_seq_cst);
    {
        // Empty critical section: a parker between its predicate check and
        // its wait would otherwise miss the notify below.
        std::lock_guard lock(park_mutex_);
    }
    ready_cv_.notify_all();
    for (auto& w : workers_) w.join();
}

void Runtime::set_verify_hook(VerifyHook* hook) {
    std::lock_guard lock(verify_mutex_);
    verify_ = hook;
    registry_.set_verify_hook(hook);
}

Runtime::NewTask Runtime::new_task(const char* label) {
    const bool nested = (tls_runtime == this && tls_task != nullptr);
    TaskPtr task = make_task(label, nested ? tls_task : &root_);
    // The running task's self_ref stays set until it completes, which its
    // own body cannot outlast.
    if (nested) task->parent_ref = tls_task->self_ref;
    return NewTask(std::move(task));
}

void Runtime::submit(NewTask task) {
    const TaskPtr submitted = std::move(task.task_);
    if (register_and_release_guard(submitted)) wake_workers(1);
}

void Runtime::submit_independent(std::span<TaskBody> bodies, const char* label) {
    int ready = 0;
    for (TaskBody& body : bodies) {
        NewTask task = new_task(label);
        task.body() = std::move(body);
        if (register_and_release_guard(task.task_)) ++ready;
    }
    wake_workers(ready);
}

Runtime::TaskPtr Runtime::make_task(const char* label, Task* parent) {
    TaskPtr task = std::allocate_shared<Task>(NodeAllocator<Task>(this));
    task->label = label;
    task->parent = parent;
    return task;
}

bool Runtime::register_and_release_guard(const TaskPtr& task) {
    task->node_id = submit_stats_.next_task_id.fetch_add(1, std::memory_order_relaxed);
    task->self_ref = task;
    // Submission guard: one artificial predecessor held while accesses are
    // registered, so a predecessor releasing concurrently cannot make the
    // task ready (and runnable) halfway through registration.
    task->pred_count.store(1, std::memory_order_relaxed);
    submit_stats_.tasks_submitted.fetch_add(1, std::memory_order_relaxed);
    for (Task* p = task->parent; p != nullptr; p = p->parent) {
        p->descendants_live.fetch_add(1, std::memory_order_relaxed);
    }
    {
        std::unique_lock vlock(verify_mutex_, std::defer_lock);
        if (verify_ != nullptr) {
            // Serialized mode: the whole registration becomes one atomic
            // step in the total order DepLint's logical clock requires.
            vlock.lock();
            verify_->on_node_registered(*task, task->label, task->deps);
        }
        const int added = registry_.register_accesses(task, task->deps);
        submit_stats_.edges_added.fetch_add(static_cast<std::uint64_t>(added),
                                            std::memory_order_relaxed);
    }
    // Drop the guard; whoever brings pred_count to zero schedules the task.
    if (task->pred_count.fetch_sub(1, std::memory_order_acq_rel) != 1) return false;
    enqueue_ready(task.get());
    return true;
}

void Runtime::enqueue_ready(Task* task) {
    if (tls_worker_ != nullptr && tls_worker_->owner == this) {
        tls_worker_->deque.push(task);
        return;
    }
    {
        std::lock_guard lock(inject_mutex_);
        inject_queue_.push_back(task);
    }
    inject_size_.fetch_add(1, std::memory_order_release);
}

void Runtime::wake_workers(int newly_ready) {
    if (newly_ready <= 0 || workers_.empty()) return;
    // Dekker handshake with park(): bump the epoch after publishing work,
    // then look for parked workers. Either we see them (and notify), or
    // they see the new epoch (and skip the wait). parked_workers_ only
    // counts workers committed to sleeping (incremented under park_mutex_),
    // so the parked == 0 fast path — two atomics, no mutex — is the common
    // case while the pool is busy.
    work_epoch_.fetch_add(1, std::memory_order_seq_cst);
    const int parked = parked_workers_.load(std::memory_order_seq_cst);
    if (parked <= 0) return;
    // Suppress redundant futex wakes: a notified worker takes microseconds
    // to come up, during which a fast producer would otherwise pay a
    // syscall per submission. Parkers reset pending_wakes_ before sleeping,
    // so a stale count cannot suppress a needed notify across sleep cycles.
    const int pending = pending_wakes_.load(std::memory_order_seq_cst);
    const int nk = newly_ready < parked ? newly_ready : parked;
    const int k = pending > 0 ? nk - pending : nk;
    if (k <= 0) return;
    pending_wakes_.fetch_add(k, std::memory_order_seq_cst);
    stats_.wakeups.fetch_add(static_cast<std::uint64_t>(k), std::memory_order_relaxed);
    // The empty critical section orders this thread against a parker that
    // advertised but has not yet blocked: either we acquire after it waits
    // (notify lands) or it acquires after us and its predicate re-read sees
    // the bumped epoch. Notifying outside the lock avoids waking a thread
    // straight into a held mutex.
    { std::lock_guard lock(park_mutex_); }
    for (int i = 0; i < k; ++i) ready_cv_.notify_one();
}

bool Runtime::work_available() const {
    if (inject_size_.load(std::memory_order_acquire) != 0) return true;
    for (const auto& w : worker_state_) {
        if (w->deque.size_estimate() > 0) return true;
    }
    return false;
}

void Runtime::park(Worker& me) {
    (void)me;
    // Cheap pre-check outside the lock: the caller already spun through
    // kSpinRounds failed find_task() scans, but the queues can refill at
    // any moment.
    if (work_available() || shutting_down_.load(std::memory_order_acquire)) return;
    std::unique_lock lock(park_mutex_);
    // Dekker handshake with wake_workers(): capture the epoch, advertise as
    // parked, then re-read the epoch (all seq_cst). A producer bumps the
    // epoch after publishing and only skips the notify when it reads
    // parked_workers_ == 0 — the seq_cst total order rules out "producer
    // misses the parker AND the parker misses the bump". Reading the bump
    // also acquire-synchronizes with the publish, so the work_available()
    // recheck below sees the published work.
    const std::uint64_t epoch = work_epoch_.load(std::memory_order_seq_cst);
    parked_workers_.fetch_add(1, std::memory_order_seq_cst);
    const auto woken = [&] {
        return work_epoch_.load(std::memory_order_seq_cst) != epoch ||
               shutting_down_.load(std::memory_order_relaxed);
    };
    if (!woken() && !work_available()) {
        // Entering a real sleep: clear the in-flight notify estimate so no
        // stale count from a notify that landed on nobody can suppress the
        // wake this sleep needs. Clearing while other sleepers still have
        // notifies in flight merely lets producers over-notify.
        pending_wakes_.store(0, std::memory_order_seq_cst);
        stats_.parks.fetch_add(1, std::memory_order_relaxed);
        if (has_polling_.load(std::memory_order_relaxed)) {
            // Bounded sleep so the TAMPI progress engine keeps being polled
            // even when no new work arrives.
            ready_cv_.wait_for(lock, kIdleWait, woken);
        } else {
            ready_cv_.wait(lock, woken);
        }
        // Consume (at most) the notify that woke us; drifting negative just
        // re-enables producer notifies, which is the safe direction.
        pending_wakes_.fetch_sub(1, std::memory_order_seq_cst);
    }
    parked_workers_.fetch_sub(1, std::memory_order_relaxed);
}

void Runtime::signal_idle() {
    idle_epoch_.fetch_add(1, std::memory_order_seq_cst);
    if (idle_waiters_.load(std::memory_order_seq_cst) > 0) {
        std::lock_guard lock(idle_mutex_);
        idle_cv_.notify_all();
    }
}

void Runtime::wait_idle_briefly() {
    idle_waiters_.fetch_add(1, std::memory_order_seq_cst);
    const std::uint64_t epoch = idle_epoch_.load(std::memory_order_seq_cst);
    {
        std::unique_lock lock(idle_mutex_);
        // Bounded: the caller's done() predicate is not observable here, so
        // never sleep longer than kIdleWait without rechecking it.
        idle_cv_.wait_for(lock, kIdleWait, [&] {
            return idle_epoch_.load(std::memory_order_relaxed) != epoch;
        });
    }
    idle_waiters_.fetch_sub(1, std::memory_order_relaxed);
}

void Runtime::run_body(Task* task) {
    Runtime* prev_rt = tls_runtime;
    Task* prev_task = tls_task;
    tls_runtime = this;
    tls_task = task;
    // verify_ is only mutated while no tasks are in flight (attach-before-
    // submit contract), so the unlocked reads here are safe.
    if (verify_ != nullptr) {
        verify_->on_body_start(*task, task->label, task->deps);
    }
    try {
        if (task->body) task->body();
    } catch (...) {
        std::lock_guard lock(error_mutex_);
        if (!first_error_) first_error_ = std::current_exception();
        error_pending_.store(true, std::memory_order_relaxed);
    }
    if (verify_ != nullptr) verify_->on_body_end(*task);
    tls_runtime = prev_rt;
    tls_task = prev_task;
}

void Runtime::execute(Task* task) {
    Worker* me = (tls_worker_ != nullptr && tls_worker_->owner == this) ? tls_worker_ : nullptr;
    run_body(task);
    Task* next = finish_body(task);
    if (me != nullptr) {
        // Immediate-successor fast path: park the warm successor in the
        // worker's next_task slot; the worker loop runs it before touching
        // any queue. The slot can be occupied when execute() is reentered
        // through a nested taskwait — then the deque takes the spill.
        if (next == nullptr) return;
        if (me->next_task == nullptr) {
            me->next_task = next;
        } else {
            me->deque.push(next);
            wake_workers(1);
        }
    } else {
        // Non-worker threads (inline execution, help_until) chain the
        // immediate successors right here, same warm-cache effect.
        while (next != nullptr) {
            Task* chained = next;
            run_body(chained);
            next = finish_body(chained);
        }
    }
}

Task* Runtime::finish_body(Task* task) {
    stats_.tasks_executed.fetch_add(1, std::memory_order_relaxed);
    return complete_if_ready(task, /*body_finished=*/true, /*events_done=*/0);
}

Task* Runtime::complete_if_ready(Task* task, bool body_finished, int events_done) {
    {
        std::unique_lock vlock(verify_mutex_, std::defer_lock);
        if (verify_ != nullptr) vlock.lock();
        {
            std::lock_guard lock(task->node_lock);
            // Record the body's end or the fulfilled events and test for
            // completion in one lock hold. Whichever side arrives second
            // completes the task and may free it right after; the side that
            // arrived first must not touch the task once it unlocks.
            if (body_finished) task->body_done = true;
            DFAMR_REQUIRE(task->external_events >= events_done, "event counter underflow");
            task->external_events -= events_done;
            if (task->completed.load(std::memory_order_relaxed) || !task->body_done ||
                task->external_events > 0) {
                return nullptr;
            }
            task->completed.store(true, std::memory_order_release);
            // Under the node lock: a concurrent add_edge either got its
            // edge in before this (and is drained below) or observes
            // dep_released and elides, so the successor list is final.
            task->dep_released.store(true, std::memory_order_release);
        }
        if (verify_ != nullptr) verify_->on_node_released(*task);
    }

    Task* immediate = nullptr;
    int newly_ready = 0;
    for (DepNode* succ_node : task->successors) {
        auto* succ = static_cast<Task*>(succ_node);
        if (succ->pred_count.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            if (body_finished && immediate == nullptr) {
                immediate = succ;
                stats_.immediate_successor_hits.fetch_add(1, std::memory_order_relaxed);
            } else {
                enqueue_ready(succ);
                ++newly_ready;
            }
        }
    }
    task->successors.clear();
    // Wakeups proportional to newly ready work — no broadcast.
    if (newly_ready > 0) wake_workers(newly_ready);

    // The captures die with the task's completion, not with the Task: the
    // registry keeps completed tasks until a later access or its GC drops
    // them. Destroyed here, outside every lock (a capture may own a block,
    // whose release takes the arena's mutex), and before the ancestors
    // count this task done, so a taskwait that returns has seen it go.
    task->body.reset();

    bool quiescent = false;
    for (Task* p = task->parent; p != nullptr; p = p->parent) {
        if (p->descendants_live.fetch_sub(1, std::memory_order_acq_rel) == 1) quiescent = true;
    }

    // Signal idle waiters only when some ancestor's subtree just drained —
    // that is the transition taskwait blocks on. Waiters on other
    // predicates (taskwait_on's completed flag, help_until conditions) sit
    // in kIdleWait-bounded sleeps and recheck on their own; skipping the
    // per-completion broadcast keeps completions off idle_mutex_ entirely
    // while a taskwait is pending above a deep graph.
    if (quiescent) signal_idle();

    // Drop self-ownership last; the registry may still hold references
    // until garbage collection, and `immediate` is a different task.
    TaskPtr self = std::move(task->self_ref);
    return immediate;
}

Task* Runtime::find_task(Worker& me) {
    if (Task* t = me.next_task; t != nullptr) {
        me.next_task = nullptr;
        return t;
    }
    if (Task* t = me.deque.pop(); t != nullptr) return t;
    if (Task* t = pop_injected(); t != nullptr) return t;
    return try_steal(me);
}

Task* Runtime::pop_injected() {
    if (inject_size_.load(std::memory_order_acquire) == 0) return nullptr;
    std::lock_guard lock(inject_mutex_);
    if (inject_queue_.empty()) return nullptr;
    Task* t = inject_queue_.pop_front();
    inject_size_.fetch_sub(1, std::memory_order_relaxed);
    return t;
}

Task* Runtime::try_steal(Worker& me) {
    const int n = static_cast<int>(worker_state_.size());
    if (n <= 1) return nullptr;
    for (int i = 0; i < n; ++i) {
        const unsigned v = (me.next_victim + static_cast<unsigned>(i)) % static_cast<unsigned>(n);
        if (static_cast<int>(v) == me.index) continue;
        if (Task* t = worker_state_[v]->deque.steal(); t != nullptr) {
            me.next_victim = v;  // keep draining the same loaded victim
            stats_.steals.fetch_add(1, std::memory_order_relaxed);
            return t;
        }
    }
    me.next_victim = (me.next_victim + 1) % static_cast<unsigned>(n);
    stats_.steal_fails.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
}

void Runtime::worker_loop(int worker_index) {
    tls_runtime = this;
    Worker& me = *worker_state_[static_cast<std::size_t>(worker_index)];
    tls_worker_ = &me;
    int idle_rounds = 0;
    for (;;) {
        Task* t = find_task(me);
        if (t != nullptr) {
            idle_rounds = 0;
            execute(t);
            continue;
        }
        if (shutting_down_.load(std::memory_order_acquire)) break;
        if (has_polling_.load(std::memory_order_relaxed)) run_polling_services();
        if (++idle_rounds < kSpinRounds) continue;
        idle_rounds = 0;
        park(me);
    }
    tls_worker_ = nullptr;
    tls_runtime = nullptr;
}

bool Runtime::run_polling_services() {
    std::unique_lock lock(polling_mutex_);
    bool progressed = false;
    for (auto it = polling_services_.begin(); it != polling_services_.end();) {
        if (it->poll()) {
            progressed = true;
            ++it;
        } else {
            it = polling_services_.erase(it);
        }
    }
    has_polling_.store(!polling_services_.empty(), std::memory_order_relaxed);
    return progressed;
}

void Runtime::wait_until(const std::function<bool()>& done) {
    Worker* me = (tls_worker_ != nullptr && tls_worker_->owner == this) ? tls_worker_ : nullptr;
    for (;;) {
        if (done()) return;
        Task* t = nullptr;
        if (me != nullptr) {
            t = find_task(*me);
        } else {
            // Non-worker threads help too: injection queue first (FIFO — the
            // whole scheduler when workers == 0), then relieve the workers.
            t = pop_injected();
            if (t == nullptr) {
                for (const auto& w : worker_state_) {
                    if ((t = w->deque.steal()) != nullptr) {
                        stats_.steals.fetch_add(1, std::memory_order_relaxed);
                        break;
                    }
                }
            }
        }
        if (t != nullptr) {
            execute(t);
            continue;
        }
        if (has_polling_.load(std::memory_order_relaxed)) run_polling_services();
        if (done()) return;
        wait_idle_briefly();
    }
}

void Runtime::report_external_error(std::exception_ptr err) {
    if (!err) return;
    std::lock_guard lock(error_mutex_);
    if (!first_error_) first_error_ = std::move(err);
    error_pending_.store(true, std::memory_order_relaxed);
}

void Runtime::taskwait() {
    Task* ctx = (tls_runtime == this && tls_task != nullptr) ? tls_task : &root_;
    wait_until([ctx] { return ctx->descendants_live.load(std::memory_order_acquire) == 0; });
    std::exception_ptr err;
    {
        std::lock_guard lock(error_mutex_);
        err = first_error_;
        first_error_ = nullptr;
        error_pending_.store(false, std::memory_order_relaxed);
    }
    if (err) std::rethrow_exception(err);
}

void Runtime::taskwait_on(std::span<const Dep> deps) {
    // Not a descendant of the caller: a plain taskwait afterwards must
    // still be able to run it inline.
    TaskPtr sentinel = make_task("<taskwait-on>", &root_);
    sentinel->deps.assign(deps);
    if (register_and_release_guard(sentinel)) wake_workers(1);
    Task* raw = sentinel.get();  // kept alive by the local shared_ptr
    wait_until([raw] { return raw->completed.load(std::memory_order_acquire); });
}

Task* Runtime::increase_current_task_events(int n) {
    DFAMR_REQUIRE(tls_runtime == this && tls_task != nullptr,
                  "external events can only be registered from inside a task");
    DFAMR_REQUIRE(n > 0, "event increase must be positive");
    std::lock_guard lock(tls_task->node_lock);
    tls_task->external_events += n;
    return tls_task;
}

void Runtime::decrease_task_events(Task* task, int n) {
    DFAMR_REQUIRE(task != nullptr && n > 0, "invalid event decrease");
    // May complete the task; `task` must not be touched afterwards (the
    // completing thread drops the task's self-ownership).
    [[maybe_unused]] Task* next = complete_if_ready(task, /*body_finished=*/false, n);
    DFAMR_ASSERT(next == nullptr);
}

void Runtime::register_polling_service(std::string name, std::function<bool()> poll) {
    {
        std::lock_guard lock(polling_mutex_);
        polling_services_.push_back(PollingService{std::move(name), std::move(poll)});
        has_polling_.store(true, std::memory_order_relaxed);
    }
    // Re-arm any worker parked in the unbounded (no-polling) wait into the
    // bounded polling sleep.
    work_epoch_.fetch_add(1, std::memory_order_seq_cst);
    std::lock_guard lock(park_mutex_);
    ready_cv_.notify_all();
}

void Runtime::unregister_polling_service(const std::string& name) {
    std::lock_guard lock(polling_mutex_);
    std::erase_if(polling_services_, [&](const PollingService& s) { return s.name == name; });
    has_polling_.store(!polling_services_.empty(), std::memory_order_relaxed);
}

RuntimeStats Runtime::stats() const {
    RuntimeStats s;
    s.tasks_submitted = submit_stats_.tasks_submitted.load(std::memory_order_relaxed);
    s.tasks_executed = stats_.tasks_executed.load(std::memory_order_relaxed);
    s.immediate_successor_hits =
        stats_.immediate_successor_hits.load(std::memory_order_relaxed);
    s.edges_added = submit_stats_.edges_added.load(std::memory_order_relaxed);
    s.edges_elided = registry_.edges_elided();
    s.steals = stats_.steals.load(std::memory_order_relaxed);
    s.steal_fails = stats_.steal_fails.load(std::memory_order_relaxed);
    s.parks = stats_.parks.load(std::memory_order_relaxed);
    s.wakeups = stats_.wakeups.load(std::memory_order_relaxed);
    return s;
}

}  // namespace dfamr::tasking
