#include "support/fork_join.hh"

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

} // namespace cherivoke
