// Corpus: the waiver contract, the same for every pack. A waiver covers
// its own line and the next one, waives only the rules it names, and must
// give a reason; a reasonless waiver waives nothing and is reported as
// waiver-reason. A waiver naming a rule no pack has waives nothing and is
// reported as waiver-unknown. Parsed by tools/alsflow_check.py, never
// compiled.
#include "corpus_stubs.hpp"

namespace corpus {

struct Waivers {
  // GOOD: a reasoned waiver on the line above covers the flagged line.
  // check:allow coroutine-ref-param the caller owns name for the whole flow
  Future<int> above(const std::string& name) {
    co_await delay(1.0);
    co_return int(name.size());
  }

  // GOOD: a reasoned trailing waiver covers its own line.
  Future<int> trailing(const std::string& name) {  // check:allow coroutine-ref-param the caller owns name for the whole flow
    co_await delay(1.0);
    co_return int(name.size());
  }

  // BAD: a waiver naming another rule waives nothing here.
  // check:allow blocking-in-coroutine this names a different rule
  Future<int> other_rule(const std::string& name) {  // check:expect coroutine-ref-param
    co_await delay(1.0);
    co_return int(name.size());
  }

  // BAD: a waiver without a reason waives nothing and is itself a finding.
  // check:expect waiver-reason // check:allow coroutine-ref-param
  Future<int> no_reason(const std::string& name) {  // check:expect coroutine-ref-param
    co_await delay(1.0);
    co_return int(name.size());
  }

  // BAD: a waiver naming no known rule waives nothing and is itself a
  // finding.
  // check:expect waiver-unknown // check:allow coroutine-ref-parm the caller owns name for the whole flow
  Future<int> unknown_rule(const std::string& name) {  // check:expect coroutine-ref-param
    co_await delay(1.0);
    co_return int(name.size());
  }
};

}  // namespace corpus
