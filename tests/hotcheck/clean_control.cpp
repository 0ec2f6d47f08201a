// Clean control: the arena/hoisting patterns the fixed tree uses. Every
// rule must stay silent here — this file guards against over-firing.
#include "support.hpp"

namespace alsflow {

// Arena scratch acquired before the region opens: the body touches no
// allocator, and the sanctioned WorkerScratch/HotRegion calls never count.
void arena_kernel(std::size_t n) {
  parallel::parallel_for_chunks(0, n, [&](std::size_t b, std::size_t e)
  {
    auto tmp = parallel::WorkerScratch::complex_buffer(
        parallel::WorkerScratch::kFft2Col, n);
    hotguard::HotRegion region("corpus.arena");
    for (std::size_t i = b; i < e; ++i) tmp[i - b] = {1.0, 0.0};
  });
}

// Cold paths may allocate freely.
std::vector<float> cold_setup(std::size_t n) {
  std::vector<float> weights(n, 1.0f);
  return weights;
}

// [[noreturn]] helpers are assumed-cold error exits: calling one in a hot
// body must not charge the body with the helper's effects.
[[noreturn]] void die_bad(std::size_t i);
void checked_kernel(std::size_t n) {
  parallel::parallel_for(0, n, [&](std::size_t i)
  {
    if (i > n) die_bad(i);
  });
}

// A named clean body passed by identifier is hot — and still clean.
void scaled_kernel(std::span<float> out, std::size_t n) {
  auto body = [&](std::size_t i)
  {
    out[i] = float(i) * 2.0f;
  };
  parallel::parallel_for(0, n, body);
}

// Waived with a reason: silent. The waiver covers its own line and the
// statement directly below.
void decomposed(std::vector<std::vector<float>>& rows, std::size_t n) {
  parallel::parallel_for(0, rows.size(), [&](std::size_t z)
  {
    // check:allow hot-alloc slice-level decomposition, inner kernels hold the contract
    rows[z] = cold_setup(n);
  });
}

}  // namespace alsflow
