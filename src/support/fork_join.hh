/**
 * @file
 * The simulator's one fork-join primitive: the threaded sweep, the
 * threaded paint, the trace codec, page population and tenant trace
 * synthesis all fan independent tasks out over threads with it and
 * merge the results in task order afterwards, so the parallel result
 * equals the serial one.
 */

#ifndef CHERIVOKE_SUPPORT_FORK_JOIN_HH
#define CHERIVOKE_SUPPORT_FORK_JOIN_HH

#include <cstddef>
#include <functional>

namespace cherivoke {

/**
 * Run task(0) ... task(n - 1), one thread per task, and return once
 * every task has finished. The caller runs task 0, so n == 1 never
 * spawns. A task that throws does not stop the others: after the
 * join the exception of the lowest-index failed task is rethrown, as
 * a serial loop would have raised it.
 */
void forkJoin(size_t n, const std::function<void(size_t)> &task);

/**
 * Split the index range [0, @p n) into @p tasks contiguous ranges, in
 * order, and run task(t, lo, hi) for each through forkJoin. The
 * first n % tasks ranges hold one index more than the rest, so sizes
 * differ by at most one and, when tasks > n, only trailing ranges
 * are empty; no task runs when tasks == 0. Exceptions resurface as
 * forkJoin rethrows them.
 */
void forkJoinRanges(
    size_t n, size_t tasks,
    const std::function<void(size_t, size_t, size_t)> &task);

} // namespace cherivoke

#endif // CHERIVOKE_SUPPORT_FORK_JOIN_HH
