/**
 * @file
 * The simulator's one fork-join primitive: the threaded sweep, the
 * sharded paint and tenant trace synthesis all fan independent
 * tasks out over threads with it and merge the results in task
 * order afterwards, so the parallel result equals the serial one.
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

} // namespace cherivoke

#endif // CHERIVOKE_SUPPORT_FORK_JOIN_HH
