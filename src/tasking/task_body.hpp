// A task's body: a move-only `void()` callable. A closure of up to
// kInlineBytes (pointer-aligned) lives inside the TaskBody itself, so
// inside the task node; a larger or over-aligned one, or one whose move may
// throw, is moved to the heap. Move-only means a body may own what it
// captures (a block, a buffer) outright: no shared_ptr is needed to make
// the closure copyable.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace dfamr::tasking {

class TaskBody {
public:
    /// Sized from the data-flow driver's closures: the largest, a reflux
    /// apply's and a merge's (which owns its 8 children), take 88 bytes.
    static constexpr std::size_t kInlineBytes = 88;
    static constexpr std::size_t kInlineAlign = alignof(void*);

    /// A callable a TaskBody can hold (any `void()` callable but a TaskBody).
    template <typename D>
    static constexpr bool kIsClosure =
        !std::is_same_v<D, TaskBody> && std::is_invocable_r_v<void, D&>;

    TaskBody() noexcept = default;

    // Constrained by enable_if in a default template argument, the form
    // clang-tidy's bugprone-forwarding-reference-overload recognizes: this
    // constructor never competes with the move constructor.
    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<kIsClosure<D>>>
    TaskBody(F&& fn) {  // implicit: a lambda converts to a body
        emplace<D>(std::forward<F>(fn));
    }

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<kIsClosure<D>>>
    TaskBody& operator=(F&& fn) {
        reset();
        emplace<D>(std::forward<F>(fn));
        return *this;
    }

    TaskBody(TaskBody&& other) noexcept { take(other); }
    TaskBody& operator=(TaskBody&& other) noexcept {
        if (this != &other) {
            reset();
            take(other);
        }
        return *this;
    }
    TaskBody(const TaskBody&) = delete;
    TaskBody& operator=(const TaskBody&) = delete;
    ~TaskBody() { reset(); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }
    void operator()() { ops_->invoke(storage_); }

    /// Destroys the closure and everything it captured.
    void reset() noexcept {
        if (ops_ != nullptr) {
            const Ops* ops = std::exchange(ops_, nullptr);
            ops->destroy(storage_);
        }
    }

    /// True when a closure of type F is stored inline (tests, sizing).
    template <typename F>
    static constexpr bool stored_inline() {
        return sizeof(F) <= kInlineBytes && alignof(F) <= kInlineAlign &&
               std::is_nothrow_move_constructible_v<F>;
    }

private:
    struct Ops {
        void (*invoke)(void* storage);
        void (*relocate)(void* from, void* to) noexcept;  // leaves `from` destroyed
        void (*destroy)(void* storage) noexcept;
    };

    template <typename D>
    static constexpr Ops kInline{
        [](void* s) { (*std::launder(static_cast<D*>(s)))(); },
        [](void* from, void* to) noexcept {
            D* src = std::launder(static_cast<D*>(from));
            ::new (to) D(std::move(*src));
            src->~D();
        },
        [](void* s) noexcept { std::launder(static_cast<D*>(s))->~D(); }};

    template <typename D>
    static constexpr Ops kHeap{
        [](void* s) { (**static_cast<D**>(s))(); },
        [](void* from, void* to) noexcept { ::new (to) D*(*static_cast<D**>(from)); },
        [](void* s) noexcept { delete *static_cast<D**>(s); }};

    template <typename D, typename F>
    void emplace(F&& fn) {
        if constexpr (stored_inline<D>()) {
            ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
            ops_ = &kInline<D>;
        } else {
            ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(fn)));
            ops_ = &kHeap<D>;
        }
    }

    void take(TaskBody& other) noexcept {
        if (other.ops_ == nullptr) return;
        other.ops_->relocate(other.storage_, storage_);
        ops_ = std::exchange(other.ops_, nullptr);
    }

    alignas(kInlineAlign) unsigned char storage_[kInlineBytes];
    const Ops* ops_ = nullptr;
};

}  // namespace dfamr::tasking
