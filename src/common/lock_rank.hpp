// Runtime lock-rank enforcement: the dynamic half of the concurrency
// contract that tools/alsflow_check.py (lock pack) certifies statically.
//
// Every alsflow::Mutex carries a name and a LockRank chosen by
// architectural layer. The invariant is a strict total order:
//
//     a thread may acquire a mutex only if its rank is STRICTLY LOWER
//     than the rank of every mutex that thread already holds.
//
// Outer locks belong to higher layers (monitor > serve > transfer/net >
// flow > telemetry > common) because higher layers call down into lower
// ones — HealthMonitor snapshots the FlightRecorder, which reads the
// Tracer; serve::Frontend renders through TiledService. Under this rule
// no cross-class lock cycle can form (ranks strictly decrease along any
// chain of held locks), and same-rank acquisition is rejected too, which
// catches both accidental reentrancy (self-deadlock on a non-recursive
// mutex) and cross-instance nesting of the same class.
//
// The checker keeps a per-thread stack of held (mutex, rank, name)
// entries and aborts with a witness — the offending acquisition plus the
// full held-lock stack and a backtrace — on any violation. It is compiled
// in unconditionally (the tier-1 death test must fire in RelWithDebInfo
// builds) but gated behind one relaxed atomic load: enforcement defaults
// on when the build defines ALSFLOW_LOCK_RANK_DEFAULT_ON (Debug and
// sanitizer configurations), and the ALSFLOW_LOCK_RANKS environment
// variable (0/1) or lockrank::set_enforcing() overrides either way.
// Disabled cost is one atomic load and a branch per lock operation, the
// same gating idiom the telemetry channel uses.
//
// try_lock acquisitions are recorded but not rank-checked: a try-lock
// never blocks, so it cannot participate in a deadlock cycle.
#pragma once

#include <cstddef>

namespace alsflow {

// One value per mutex-owning class, grouped by layer (hundreds digit) and
// sub-ordered within a layer where classes legitimately nest (e.g.
// HealthMonitor holds its mutex while snapshotting the FlightRecorder).
// The full table — what each lock guards and which callbacks its class
// may invoke — lives in DESIGN.md §15.
enum class LockRank : int {
  kUnranked = 0,  // not tracked; disallowed in src/ by the lock pack

  // common — the innermost leaves.
  kLogSink = 110,          // log.cpp g_mutex: sink pointer + stderr writes
  kPoolQueue = 120,        // parallel::ThreadPool queue/lifecycle
  kPoolBatch = 130,        // parallel::ThreadPool::Batch completion state

  // telemetry
  kTracer = 210,           // telemetry::Tracer span table
  kMetrics = 220,          // telemetry::MetricsRegistry instrument map

  // flow
  kFlowRunDb = 310,        // flow::RunDatabase run/task records
  kFlowEngine = 320,       // flow::FlowEngine idempotency + span maps

  // transfer / net / pipeline
  kTransferService = 410,  // transfer::TransferService routes + history
  kStreamingService = 420, // pipeline::StreamingService sessions + reports

  // access / serve
  kTiledService = 510,     // access::TiledService volume registry
  kServeFlight = 520,      // serve::ChunkCache::Flight result handoff
  kChunkCache = 530,       // serve::ChunkCache LRU + inflight index
  kServeTicket = 540,      // serve::Ticket result + condition variable
  kServeFrontend = 550,    // serve::Frontend tenant queues + scheduler

  // monitor — the outermost layer; sub-ranked so HealthMonitor may hold
  // its mutex across SloEngine calls and FlightRecorder snapshots.
  kFlightRecorder = 610,   // monitor::FlightRecorder ring buffers
  kMonitorSlo = 615,       // monitor::SloEngine series + alert history
  kHealthMonitor = 620,    // monitor::HealthMonitor watermarks + incidents
};

namespace lockrank {

namespace detail {
// Out-of-line implementations; the inline wrappers below keep the
// unranked fast path (tests and scratch mutexes) to a single branch.
void acquire_impl(const void* mx, int rank, const char* name) noexcept;
void try_acquire_impl(const void* mx, int rank, const char* name) noexcept;
void release_impl(const void* mx) noexcept;
}  // namespace detail

// Is rank checking active on this process right now?
bool enforcing() noexcept;
// Toggle enforcement (tests; call with no tracked locks held).
void set_enforcing(bool on) noexcept;

// Introspection for tests: depth of this thread's tracked-lock stack and
// the name/rank of the i-th held entry (0 = outermost). held_name returns
// nullptr out of range; held_rank returns 0.
std::size_t held_count() noexcept;
const char* held_name(std::size_t i) noexcept;
int held_rank(std::size_t i) noexcept;

// Called by Mutex / UniqueLock. note_acquire checks ranks and aborts with
// a witness on violation; note_try_acquire records without checking (a
// successful try_lock cannot deadlock); note_release pops the entry.
inline void note_acquire(const void* mx, LockRank rank,
                         const char* name) noexcept {
  if (rank == LockRank::kUnranked) return;
  detail::acquire_impl(mx, static_cast<int>(rank), name);
}
inline void note_try_acquire(const void* mx, LockRank rank,
                             const char* name) noexcept {
  if (rank == LockRank::kUnranked) return;
  detail::try_acquire_impl(mx, static_cast<int>(rank), name);
}
inline void note_release(const void* mx, LockRank rank) noexcept {
  if (rank == LockRank::kUnranked) return;
  detail::release_impl(mx);
}

}  // namespace lockrank
}  // namespace alsflow
