// Corpus: escaping-ref-capture. Lambdas handed to submit-style sinks,
// the flow engine, or detached coroutines outlive the enclosing frame;
// locals captured by reference are dead by the time they run. `this`
// captures are allowed (the owner's lifetime contract); locals never
// are. Parsed, never compiled.
#include "corpus_stubs.hpp"

namespace corpus {

struct RefCapture {
  Pool pool_;
  Engine engine_;
  int count_ = 0;

  // BAD: named local captured by reference escapes through submit().
  void bad_submit_ref() {
    int local = 3;
    pool_.submit(
        [&local]() { (void)local; });  // check:expect escaping-ref-capture
  }

  // BAD: blanket [&] handed to register_flow outlives this frame.
  void bad_register_flow_ref() {
    int n = 0;
    engine_.register_flow(
        "corpus",
        [&](int v) { return v + n; });  // check:expect escaping-ref-capture
  }

  // GOOD: value captures may escape freely.
  void good_submit_value() {
    pool_.submit([n = 7]() { (void)n; });
  }

  // GOOD: synchronous parallel_for blocks until every chunk finishes, so
  // reference captures are the intended fan-out idiom.
  void good_parallel_for_ref(std::vector<double>& v) {
    pool_.parallel_for(0, int(v.size()),
                       [&](int i) { v[std::size_t(i)] *= 2.0; });
  }

  // GOOD: `this` capture escapes under the owner's lifetime contract.
  void good_this_capture() {
    pool_.submit([this]() { ++count_; });
  }
};

}  // namespace corpus
