// Blocking, throwing, and waiver hygiene in hot bodies.
#include "support.hpp"

namespace alsflow {

// Condition waits stall the worker that should be crunching its chunk.
void waits(std::condition_variable& cv, UniqueLock& lk, std::size_t n) {
  parallel::parallel_for(0, n, [&](std::size_t i)
  {
    cv.wait(lk.native());  // check:expect hot-block
    (void)i;
  });
}

// Nested fan-out through a named body: the inner submit blocks the outer
// worker on the pool until the whole batch drains.
void helper_body(std::size_t i);
void nested_fanout(std::size_t n) {
  parallel::parallel_for_chunks(0, n, [&](std::size_t b, std::size_t e)
  {
    parallel::parallel_for(b, e, helper_body);  // check:expect hot-block
  });
}

// Exceptions unwind across the pool boundary.
void throwing(std::size_t n) {
  parallel::parallel_for(0, n, [&](std::size_t i)
  {
    if (i > n) throw std::runtime_error("bad row");  // check:expect hot-throw
  });
}

// A waiver without a reason is itself a violation — and waives nothing,
// so the allocation under it still fires.
void reasonless(std::size_t n) {
  parallel::parallel_for(0, n, [&](std::size_t i)
  {
    // check:expect waiver-reason // check:allow hot-alloc
    std::vector<float> row(n);  // check:expect hot-alloc
    row[0] = float(i);
  });
}

}  // namespace alsflow
