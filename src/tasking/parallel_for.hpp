// Fork-join helpers built on top of the tasking runtime.
//
// The MPI+OpenMP fork-join miniAMR variant uses `#pragma omp parallel for
// schedule(static)` regions. We reproduce that shape over the whole
// OpenMP-style team: the calling thread (the master) plus the runtime's
// worker_count() pool threads. The range is split into one balanced static
// chunk per team member. The chunk tasks carry no data dependencies and are
// submitted as one batch, which wakes a parked worker per chunk. The caller
// blocks at the end of the region (the implicit barrier of an OpenMP
// parallel region). The master's share is a task like the others: it picks
// it up inside taskwait, which runs ready tasks while it waits. A region of
// one chunk (one item, or a team of one) runs on the caller with no task,
// wake-up or barrier. Chunk tasks declare no accesses, so DepLint and the
// access checker see the same either way.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "tasking/runtime.hpp"

namespace dfamr::tasking {

/// Runs fn(i) for i in [begin, end) across the caller and the runtime's
/// workers with static scheduling, then waits (implicit barrier). Safe to
/// call with any range. Chunk c of T = worker_count() + 1 covers
/// [begin + n*c/T, begin + n*(c+1)/T), the split the DES's parallel_region
/// models; ranges shorter than T leave the surplus team members idle.
inline void parallel_for(Runtime& rt, std::int64_t begin, std::int64_t end,
                         const std::function<void(std::int64_t)>& fn) {
    const std::int64_t n = end - begin;
    if (n <= 0) return;
    const std::int64_t team = static_cast<std::int64_t>(rt.worker_count()) + 1;
    if (n == 1 || team == 1) {
        for (std::int64_t i = begin; i < end; ++i) fn(i);
        return;
    }
    std::vector<TaskBody> chunks;
    chunks.reserve(static_cast<std::size_t>(team));
    for (std::int64_t c = 0; c < team; ++c) {
        const std::int64_t lo = begin + n * c / team;
        const std::int64_t hi = begin + n * (c + 1) / team;
        if (hi <= lo) continue;
        chunks.emplace_back([lo, hi, &fn] {
            for (std::int64_t i = lo; i < hi; ++i) fn(i);
        });
    }
    rt.submit_independent(chunks, "parallel_for");
    rt.taskwait();
}

}  // namespace dfamr::tasking
