// Seeded violation: an alsflow::Mutex declared without a LockRank. The
// runtime tracker skips unranked mutexes entirely, so every production
// mutex must carry a rank (and a name for the abort witness).
#include "support.hpp"

namespace alsflow {

class Orphan {
 public:
  void touch() { LockGuard g(m_); }

 private:
  Mutex m_;  // check:expect unranked-mutex
};

}  // namespace alsflow
