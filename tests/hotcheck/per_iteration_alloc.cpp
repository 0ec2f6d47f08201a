// Per-iteration allocation shapes. Each expect comment pins the exact line
// where hot-alloc must fire — and nothing else may fire in this file.
#include "support.hpp"

namespace alsflow {

// Direct: a fresh vector every iteration.
void fresh_vector(std::size_t n) {
  parallel::parallel_for(0, n, [&](std::size_t i)
  {
    std::vector<float> row(n);  // check:expect hot-alloc
    row[0] = float(i);
  });
}

// Growth: pushing into a shared container from the hot body reallocates.
void growing_member(std::vector<float>& out, std::size_t n) {
  parallel::parallel_for_chunks(0, n, [&](std::size_t b, std::size_t e)
  {
    for (std::size_t i = b; i < e; ++i) {
      out.push_back(float(i));  // check:expect hot-alloc
    }
  });
}

// Transitive: the helper allocates; the hot body is charged at its call.
void fill_scratch(std::vector<float>& scratch, std::size_t n) {
  scratch.resize(n);
}
void transitive_alloc(std::vector<float>& scratch, std::size_t n) {
  parallel::parallel_for(0, n, [&](std::size_t i)
  {
    fill_scratch(scratch, i);  // check:expect hot-alloc
  });
}

// ALSFLOW_HOT functions are hot regions in their own right.
ALSFLOW_HOT float labelled(std::size_t n) {
  std::string label = std::to_string(n);  // check:expect hot-alloc
  return float(label.size());
}

// A named body passed by identifier is hot, same as an inline lambda.
void named_body(std::size_t n) {
  auto body = [&](std::size_t i)
  {
    float* p = new float[4];  // check:expect hot-alloc
    p[0] = float(i);
    delete[] p;
  };
  parallel::parallel_for(0, n, body);
}

}  // namespace alsflow
