#pragma once
// Dense thread-id assignment.
//
// Medley, the EBR reclaimer, and the Montage epoch system all keep
// per-thread slots in fixed arrays indexed by a small dense id. Ids are
// leased: a thread acquires the lowest free id on first use and returns it
// at thread exit, so long-running programs that churn threads (tests do!)
// never exhaust the table.

#include <cstdint>

namespace medley::util {

class ThreadRegistry {
 public:
  /// Upper bound on simultaneously registered threads.
  static constexpr int kMaxThreads = 256;

  /// Dense id of the calling thread, assigning one on first call.
  static int tid();

  /// Number of ids ever handed out (high-water mark); callers use this to
  /// bound scans over per-thread arrays.
  static int max_tid();

  /// Test hook: release the calling thread's id immediately (normally done
  /// by a thread_local destructor at thread exit).
  static void release_current();

  /// Run `hook(id)` on a thread giving up its id (exit or release_current()),
  /// before the id returns to the pool, so per-id state can be handed off.
  /// There is one hook (EBR's); setting it replaces it.
  static void on_release(void (*hook)(int id));
};

}  // namespace medley::util
