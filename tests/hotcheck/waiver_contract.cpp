// The waiver contract, the same for every pack. A waiver covers its own
// line and the next one, waives only the rules it names, and must give a
// reason; a reasonless waiver waives nothing and is reported as
// waiver-reason. A waiver naming a rule no pack has waives nothing and is
// reported as waiver-unknown.
#include "support.hpp"

namespace alsflow {

// GOOD: a reasoned waiver on the line above covers the flagged line.
void above(std::size_t n) {
  parallel::parallel_for(0, n, [&](std::size_t i)
  {
    // check:allow hot-alloc one row per slice, the inner kernels hold the contract
    std::vector<float> row(n);
    row[0] = float(i);
  });
}

// GOOD: a reasoned trailing waiver covers its own line.
void trailing(std::size_t n) {
  parallel::parallel_for(0, n, [&](std::size_t i)
  {
    std::vector<float> row(n);  // check:allow hot-alloc one row per slice, the inner kernels hold the contract
    row[0] = float(i);
  });
}

// BAD: a waiver naming another rule waives nothing here.
void other_rule(std::size_t n) {
  parallel::parallel_for(0, n, [&](std::size_t i)
  {
    // check:allow hot-lock this names a different rule
    std::vector<float> row(n);  // check:expect hot-alloc
    row[0] = float(i);
  });
}

// BAD: a waiver without a reason waives nothing and is itself a finding.
void no_reason(std::size_t n) {
  parallel::parallel_for(0, n, [&](std::size_t i)
  {
    // check:expect waiver-reason // check:allow hot-alloc
    std::vector<float> row(n);  // check:expect hot-alloc
    row[0] = float(i);
  });
}

// BAD: a waiver naming no known rule waives nothing and is itself a
// finding.
void unknown_rule(std::size_t n) {
  parallel::parallel_for(0, n, [&](std::size_t i)
  {
    // check:expect waiver-unknown // check:allow hot-aloc one row per slice, the inner kernels hold the contract
    std::vector<float> row(n);  // check:expect hot-alloc
    row[0] = float(i);
  });
}

}  // namespace alsflow
