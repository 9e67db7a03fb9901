#include "support/fork_join.hh"

#include <algorithm>
#include <exception>
#include <thread>
#include <vector>

namespace cherivoke {

void
forkJoin(size_t n, const std::function<void(size_t)> &task)
{
    if (n == 0)
        return;
    std::vector<std::exception_ptr> errors(n);
    auto run = [&](size_t i) {
        try {
            task(i);
        } catch (...) {
            errors[i] = std::current_exception();
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(n - 1);
    try {
        for (size_t i = 1; i < n; ++i)
            pool.emplace_back(run, i);
    } catch (...) {
        // A failed spawn: the threads already running still use
        // errors and task, so join them before unwinding.
        for (std::thread &t : pool)
            t.join();
        throw;
    }
    run(0);
    for (std::thread &t : pool)
        t.join();
    for (const std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
}

void
forkJoinRanges(size_t n, size_t tasks,
               const std::function<void(size_t, size_t, size_t)> &task)
{
    if (tasks == 0)
        return;
    const size_t per = n / tasks;
    const size_t extra = n % tasks;
    const auto begin = [&](size_t t) {
        return t * per + std::min(t, extra);
    };
    forkJoin(tasks, [&](size_t t) { task(t, begin(t), begin(t + 1)); });
}

} // namespace cherivoke
