// Access-level checker — catches task bodies touching bytes they never
// declared (the dominant bug class in task-based MPI hybrids: an access
// missing from the in/out/inout list becomes a silent data race).
//
// Model: while a task body runs, a per-thread table holds the task's
// declared regions. A checked access verifies every byte it touches against
// that table:
//   * reads  require coverage by the union of In/InOut regions,
//   * writes require coverage by the union of Out/InOut regions
//     (reading an Out-only region is flagged too: out promises no input).
// Contexts that declare nothing are unconstrained: threads outside any task
// body (mpi_only / fork-join master paths) and tasks whose deps list is
// empty or all-empty-regions (pure compute tasks opt out of the region
// model entirely, matching the registry's "no deps, no ordering" rule).
// Violations throw AccessViolation with a precise report (task label, node
// id, offending byte range, declared regions) which surfaces at the next
// taskwait like any other task error.
//
// Wiring: AccessChecker (a tasking::VerifyHook) installs/removes the table
// around every task body; nested bodies push/pop a stack. Hot paths use the
// DFAMR_CHECK_* macros below, which compile to nothing unless the build
// defines DFAMR_VERIFY — the OFF configuration pays zero overhead. The
// underlying functions and checked_span are always compiled, so tests can
// exercise the checker in any build via ScopedDeclaredRegions.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>

#include "common/error.hpp"
#include "tasking/dependency.hpp"
#include "tasking/verify_hook.hpp"

namespace dfamr::verify {

/// Thrown on an access outside the declared regions of the running task.
class AccessViolation : public Error {
public:
    explicit AccessViolation(const std::string& what) : Error(what) {}
};

/// Checks [p, p+n) against the current thread's declared-region table.
/// No-op in unconstrained contexts; throws AccessViolation on failure.
void check_access(const void* p, std::size_t n, bool is_write);

inline void check_read(const void* p, std::size_t n) { check_access(p, n, false); }
inline void check_write(const void* p, std::size_t n) { check_access(p, n, true); }

template <typename T>
void check_read(std::span<const T> s) {
    check_read(s.data(), s.size_bytes());
}
template <typename T>
void check_write(std::span<T> s) {
    check_write(s.data(), s.size_bytes());
}

/// True while the calling thread runs a body with a non-trivial declared
/// access list (i.e. checks are actually enforced right now).
bool access_checking_active();

// ---- wire-region registry -------------------------------------------------
//
// The per-thread declared-region table above cannot see the transport: a
// transport's receiving thread (or the delivery scheduler) memcpy-ing an
// incoming payload into a posted receive buffer runs outside any task body,
// so those writes — including every ghost-exchange landing zone — passed
// unchecked. The wire-region registry closes that blind spot: posting a
// receive registers its buffer [base, base+size) process-globally, the
// delivery paths validate each payload write against the registry, and
// matching/cancelling the receive unregisters it. A wire-path write that
// is not fully inside one registered in-flight buffer throws
// AccessViolation (on the sender/scheduler thread, where the bug is).
//
// The functions are always compiled so tests can drive them in any build;
// production call sites go through the DFAMR_WIRE_* macros below, which
// compile to nothing unless DFAMR_VERIFY is defined.

/// Registers an in-flight receive buffer. Overlapping or duplicate-base
/// registrations are an error (two posted receives may not share bytes).
void register_wire_region(const void* base, std::size_t size, const char* tag);

/// Drops a registration by its base pointer. Unknown base is an error
/// (catches double-unregister / unregister-before-register bugs).
void unregister_wire_region(const void* base);

/// Validates a wire-path write of [p, p+n): it must fall entirely inside
/// one registered region. Throws AccessViolation otherwise. n == 0 is a
/// no-op (empty payloads write nothing).
void check_wire_write(const void* p, std::size_t n);

/// Number of currently registered wire regions (leak checks in tests).
std::size_t wire_regions_registered();

/// RAII: constrains the calling thread to `deps` for the current scope.
/// Used by AccessChecker around task bodies and by tests directly. Nests.
class ScopedDeclaredRegions {
public:
    ScopedDeclaredRegions(const char* label, std::uint64_t task_id,
                          std::span<const tasking::Dep> deps);
    ~ScopedDeclaredRegions();

    ScopedDeclaredRegions(const ScopedDeclaredRegions&) = delete;
    ScopedDeclaredRegions& operator=(const ScopedDeclaredRegions&) = delete;
};

/// Span whose element accesses are validated against the declared regions.
/// Mutable element access checks write permission, const access read
/// permission; `raw()` is the deliberate unchecked escape hatch.
template <typename T>
class checked_span {
public:
    checked_span() = default;
    explicit checked_span(std::span<T> s) : span_(s) {}

    std::size_t size() const { return span_.size(); }
    bool empty() const { return span_.empty(); }

    T& operator[](std::size_t i) const {
        if constexpr (std::is_const_v<T>) {
            check_read(&span_[i], sizeof(T));
        } else {
            check_write(&span_[i], sizeof(T));
        }
        return span_[i];
    }

    /// Read-checked load (also for mutable T, where operator[] would demand
    /// write permission).
    std::remove_const_t<T> load(std::size_t i) const {
        check_read(&span_[i], sizeof(T));
        return span_[i];
    }
    /// Write-checked store.
    void store(std::size_t i, std::remove_const_t<T> value) const
        requires(!std::is_const_v<T>)
    {
        check_write(&span_[i], sizeof(T));
        span_[i] = value;
    }

    std::span<T> raw() const { return span_; }

private:
    std::span<T> span_;
};

template <typename T>
checked_span<T> checked(std::span<T> s) {
    return checked_span<T>(s);
}

/// VerifyHook that enforces the declared-region table around task bodies.
/// Purely thread-local state: the graph-event callbacks are no-ops.
class AccessChecker final : public tasking::VerifyHook {
public:
    void on_body_start(const tasking::DepNode& node, const char* label,
                       std::span<const tasking::Dep> deps) override;
    void on_body_end(const tasking::DepNode& node) override;
};

}  // namespace dfamr::verify

// Hot-path instrumentation: active only in DFAMR_VERIFY builds so the
// default configuration keeps its exact codegen.
#if defined(DFAMR_VERIFY)
#define DFAMR_CHECK_READ(p, n) ::dfamr::verify::check_read((p), (n))
#define DFAMR_CHECK_WRITE(p, n) ::dfamr::verify::check_write((p), (n))
/// Wraps a std::span in a checked_span (ON) or passes it through (OFF);
/// call sites may use only the interface common to both: operator[], size(),
/// empty().
#define DFAMR_CHECKED_SPAN(s) ::dfamr::verify::checked(s)
#define DFAMR_WIRE_REGISTER(p, n, tag) ::dfamr::verify::register_wire_region((p), (n), (tag))
#define DFAMR_WIRE_UNREGISTER(p) ::dfamr::verify::unregister_wire_region(p)
#define DFAMR_CHECK_WIRE_WRITE(p, n) ::dfamr::verify::check_wire_write((p), (n))
#else
#define DFAMR_CHECK_READ(p, n) ((void)0)
#define DFAMR_CHECK_WRITE(p, n) ((void)0)
#define DFAMR_CHECKED_SPAN(s) (s)
#define DFAMR_WIRE_REGISTER(p, n, tag) ((void)0)
#define DFAMR_WIRE_UNREGISTER(p) ((void)0)
#define DFAMR_CHECK_WIRE_WRITE(p, n) ((void)0)
#endif
