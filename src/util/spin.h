// Bounded polling for in-process handoffs.
//
// A thread that expects its event within microseconds (a worker whose
// inboxes just ran dry, a client waiting on a transaction it submitted)
// polls for a short window before it falls back to a kernel sleep: a
// futex sleep/wake pair costs the sleeper a scheduler round trip and the
// waker a syscall, which on the in-process commit path is larger than
// the work being handed off. Polling only pays off when the thread being
// waited for runs on another CPU, so callers gate it on HostCpus().
#pragma once

#include <chrono>
#include <thread>

namespace atrapos::util {

/// Spin-loop hint: lets a hyperthread sibling run and saves power while
/// polling; a no-op where the target has no such instruction.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Online CPUs, read once: hardware_concurrency() reads sysfs on every
/// call, far too slow for a per-wait check.
inline unsigned HostCpus() {
  static const unsigned n = std::thread::hardware_concurrency();
  return n;
}

/// Probes `ready` with a CpuRelax between probes until it returns true or
/// `window` elapsed; returns whether it did. Once per 16 probes it reads
/// the clock and yields the CPU: the scheduler may have placed another
/// runnable thread on this CPU — often the very thread being waited for
/// (an unpinned client woken on a pinned worker's CPU) — and a poller that
/// never yields holds it off for the whole window. With nothing else
/// runnable the yield returns at once without a context switch.
template <typename Pred>
bool PollFor(std::chrono::nanoseconds window, Pred ready) {
  if (ready()) return true;
  const auto deadline = std::chrono::steady_clock::now() + window;
  for (unsigned i = 1;; ++i) {
    CpuRelax();
    if (ready()) return true;
    if ((i & 15u) == 0) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::yield();
    }
  }
}

}  // namespace atrapos::util
