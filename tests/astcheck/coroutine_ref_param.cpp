// Corpus: coroutine-ref-param. The coroutine frame outlives the call
// expression, so reference (and string_view) parameters dangle after the
// first suspension — alsflow takes coroutine arguments by value (the
// GCC 12 convention, src/flow/engine.hpp). Parsed, never compiled.
#include "corpus_stubs.hpp"

namespace corpus {

struct RefParam {
  // BAD: const-ref parameter dangles once the frame suspends.
  Future<int> bad_const_ref(
      const std::string& name) {  // check:expect coroutine-ref-param
    co_await delay(1.0);
    co_return int(name.size());
  }

  // BAD: string_view is a reference in disguise.
  Future<int> bad_string_view(
      std::string_view tag) {  // check:expect coroutine-ref-param
    co_await delay(1.0);
    co_return int(tag.size());
  }

  // GOOD: everything by value.
  Future<int> good_by_value(std::string name, int n) {
    co_await delay(double(n));
    co_return int(name.size());
  }

  // GOOD: plain (non-coroutine) functions may take references.
  int good_plain_ref(const std::string& name) { return int(name.size()); }

  // GOOD: a documented caller-outlives contract, exempted inline — the
  // waiver requires a reason.
  Future<int> good_suppressed(
      const std::string& name) {  // check:allow coroutine-ref-param caller outlives the coroutine by contract
    co_await delay(1.0);
    co_return int(name.size());
  }
};

}  // namespace corpus
