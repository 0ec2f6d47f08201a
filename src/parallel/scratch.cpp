#include "parallel/scratch.hpp"

#include <vector>

namespace alsflow::parallel {

namespace {

thread_local std::vector<std::complex<double>>
    t_complex[WorkerScratch::nComplexSlots];
thread_local std::vector<double> t_double[WorkerScratch::nDoubleSlots];

template <typename T>
std::span<T> grown(std::vector<T>& buf, std::size_t n) {
  if (buf.size() < n) buf.resize(n);
  return std::span<T>(buf.data(), n);
}

}  // namespace

std::span<std::complex<double>> WorkerScratch::complex_buffer(ComplexSlot slot,
                                                              std::size_t n) {
  return grown(t_complex[slot], n);
}

std::span<double> WorkerScratch::double_buffer(DoubleSlot slot,
                                               std::size_t n) {
  return grown(t_double[slot], n);
}

std::size_t WorkerScratch::thread_bytes() noexcept {
  std::size_t total = 0;
  for (const auto& b : t_complex) total += b.capacity() * sizeof(b[0]);
  for (const auto& b : t_double) total += b.capacity() * sizeof(b[0]);
  return total;
}

}  // namespace alsflow::parallel
