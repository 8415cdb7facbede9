// TxnFuture: the completion handle PartitionedExecutor::Submit returns.
//
// Submission is pipelined: Submit enqueues the graph's first stage and
// returns immediately, so one client thread can keep many transactions in
// flight. The future completes exactly once — when the last stage's last
// action (and the finalizer, if any) finished, or when an action failed
// and the abort-at-RVP path cancelled the downstream stages — with the
// first failing Status. Completion callbacks and the executor's
// TxnCompletionListener run on the worker thread that completed the graph,
// strictly before Wait() returns.
//
// Completion protocol: one std::atomic<uint32_t> word per transaction
// (TxnState::word) with four bits — callback-registered, completing,
// done, waiter — replaces a per-transaction mutex and condition
// variable. Each pair of parties meets in one read-modify-write on that
// word: OnComplete's CAS of the callback bit against the completer's
// fetch_or(completing) decides who runs the callback; Wait()'s
// fetch_or(waiter) against the completer's fetch_or(done) decides whether
// the completer must notify. So a callback runs exactly once, a sleeping
// waiter is always woken, and the completer makes a futex call only when
// a waiter is actually asleep. Wait() polls the word for kWaitPollWindow
// (on multi-CPU hosts) before it sleeps in std::atomic::wait. Done(),
// status() and payload() are lock-free acquire loads.
#pragma once

#include <any>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "engine/action_graph.h"
#include "util/spin.h"
#include "util/status.h"

namespace atrapos::log {
struct CommitTicket;
}  // namespace atrapos::log

namespace atrapos::engine {

namespace internal {

/// How long Wait() polls the completion word before it sleeps. In-process
/// commits on a cache-resident working set complete in tens of
/// microseconds, so most waits end inside the window without a futex
/// sleep/wake pair; a longer wait pays at most this much CPU before it
/// sleeps. Chosen by a window sweep on tatp-commit (see CHANGES.md).
inline constexpr std::chrono::microseconds kWaitPollWindow{50};

/// Most partitions a durability-enabled executor supports (the touched-set
/// bitmask below is fixed-size so TxnState stays allocation-free).
inline constexpr size_t kMaxLogPartitions = 256;

/// Shared state of one in-flight transaction graph; owned jointly by the
/// executor's queued work items and the client's TxnFuture.
struct TxnState {
  explicit TxnState(ActionGraph g)
      : graph(std::move(g)), payloads(graph.num_actions()) {}

  ActionGraph graph;
  std::vector<std::any> payloads;  ///< one slot per action

  // Stage progress — touched only by the executor/workers.
  std::atomic<size_t> stage_remaining{0};
  std::atomic<bool> failed{false};
  size_t next_stage = 0;

  /// Executor-side keep-alive: set by Submit before the first stage is
  /// published, released by the worker that completes the transaction.
  /// Queued ActionTasks carry only a raw TxnState* — this single reference
  /// replaces a shared_ptr copy (two atomic refcount ops) per action. The
  /// inbox publish/drain pair orders the write against every reader, and
  /// only the unique stage-finishing worker moves it out.
  std::shared_ptr<TxnState> self;

  // ---- durability (set only when the executor logs; see src/log/) -------
  /// Engine-assigned transaction id for log records and trace events
  /// (0 when both logging and tracing are off).
  uint64_t txn_id = 0;
  /// Id stamped on this transaction's trace events: the graph's
  /// caller-supplied trace id when set (wire requests), else txn_id.
  uint64_t trace_id = 0;
  /// Submit timestamp (registry clock) for the commit-latency histogram
  /// and the transaction's async trace span; 0 when metrics and tracing
  /// are both off at submit time.
  uint64_t submit_ts_ns = 0;
  /// Bitmask of partition seqs whose workers logged data records for this
  /// transaction; the completing worker publishes one commit marker per
  /// set bit (the action-completion release/acquire pair orders the bits).
  std::atomic<uint64_t> touched[kMaxLogPartitions / 64] = {};
  /// Commit metadata the marker-staging workers read; written by the
  /// completing worker before the marker tasks are published.
  uint64_t commit_epoch = 0;
  uint16_t marker_expected = 0;
  log::CommitTicket* ticket = nullptr;
  /// Final status held until the commit ack defers CompleteTxn (group and
  /// async durability); ordered by the marker publish/ticket atomics.
  Status pending_status;

  std::atomic<bool> completed{false};  ///< exactly-once completion guard

  // ---- the completion word ----------------------------------------------
  // Completion publishes through one atomic word so the in-process hot
  // path never takes a lock or enters the kernel unless a client actually
  // sleeps:
  //   - OnComplete stores `callback`, then CASes kCallback in — unless it
  //     finds kCompleting, in which case it runs the callback itself.
  //   - The completer writes `status`, fetch_or(kCompleting) (which tells
  //     it whether a callback was registered), runs that callback, then
  //     fetch_or(kDone) and notifies only if kWaiter was set.
  //   - Wait polls kDone briefly, then fetch_or(kWaiter) and sleeps in
  //     std::atomic::wait.
  // Registration/completion and waiter/done each meet in one RMW on this
  // word, so a callback is never both run and dropped, a wake is never
  // lost, and the callback returns strictly before Wait() does.
  static constexpr uint32_t kCallback = 1u;    ///< callback registered
  static constexpr uint32_t kCompleting = 2u;  ///< status final
  static constexpr uint32_t kDone = 4u;        ///< callback (if any) returned
  static constexpr uint32_t kWaiter = 8u;      ///< a Wait() may be asleep
  std::atomic<uint32_t> word{0};
  /// Final status; written once before kCompleting (release) is set.
  Status status;
  /// The first failing action's status: written only by the action that
  /// won `failed` by exchange; the stage-completion acq_rel chain orders
  /// the write before the stage's last finisher reads it.
  Status first_error;
  /// Written before kCallback is CASed in; read by the completer only
  /// when its fetch_or(kCompleting) saw kCallback.
  std::function<void(const Status&)> callback;
};

}  // namespace internal

class TxnFuture {
 public:
  /// A default-constructed future is invalid: Done() is false, Wait() and
  /// status() return InvalidArgument immediately, payload() is nullptr,
  /// and OnComplete fires at once with the error.
  TxnFuture() = default;

  /// False for a default-constructed handle.
  bool valid() const { return state_ != nullptr; }

  bool Done() const {
    return state_ && (state_->word.load(std::memory_order_acquire) &
                      internal::TxnState::kDone) != 0;
  }

  /// Blocks until the transaction completed; returns its final Status.
  /// Polls for kWaitPollWindow first when another CPU can run the
  /// completing worker, then sleeps on the completion word.
  Status Wait() {
    if (!state_) return InvalidFuture();
    using S = internal::TxnState;
    std::atomic<uint32_t>& word = state_->word;
    uint32_t cur = word.load(std::memory_order_acquire);
    if ((cur & S::kDone) == 0 && util::HostCpus() > 1) {
      util::PollFor(internal::kWaitPollWindow, [&] {
        cur = word.load(std::memory_order_acquire);
        return (cur & S::kDone) != 0;
      });
    }
    while ((cur & S::kDone) == 0) {
      // Announce the sleeper in the same word the completer sets kDone
      // in: whichever RMW comes second sees the other's bit.
      cur = word.fetch_or(S::kWaiter, std::memory_order_acq_rel) | S::kWaiter;
      if ((cur & S::kDone) != 0) break;
      word.wait(cur, std::memory_order_acquire);
      cur = word.load(std::memory_order_acquire);
    }
    return state_->status;
  }

  /// Final status; only meaningful once Done() (OK before completion).
  Status status() const {
    if (!state_) return InvalidFuture();
    if ((state_->word.load(std::memory_order_acquire) &
         internal::TxnState::kCompleting) == 0)
      return Status::OK();
    return state_->status;
  }

  /// Payload emitted by action `id` (its Add() return value). nullptr
  /// until the transaction completed (a completion callback already sees
  /// the payloads), if the action emitted nothing, or for a different
  /// type.
  template <typename T>
  const T* payload(size_t id) const {
    if (!state_ || id >= state_->payloads.size()) return nullptr;
    if ((state_->word.load(std::memory_order_acquire) &
         internal::TxnState::kCompleting) == 0)
      return nullptr;
    return std::any_cast<T>(&state_->payloads[id]);
  }

  /// Registers a completion callback (at most one per future). Runs on
  /// the completing worker thread strictly before Wait() returns, or
  /// immediately on the caller when registration races with (or follows)
  /// completion.
  void OnComplete(std::function<void(const Status&)> cb) {
    if (!state_) {
      cb(InvalidFuture());
      return;
    }
    using S = internal::TxnState;
    S* st = state_.get();
    st->callback = std::move(cb);
    uint32_t cur = st->word.load(std::memory_order_acquire);
    while ((cur & S::kCompleting) == 0) {
      if (st->word.compare_exchange_weak(cur, cur | S::kCallback,
                                         std::memory_order_release,
                                         std::memory_order_acquire))
        return;  // the completer will run it
    }
    // Completion already claimed the slot without seeing our bit: the
    // callback is ours to run, with the final status it published.
    std::function<void(const Status&)> mine = std::move(st->callback);
    mine(st->status);
  }

 private:
  friend class PartitionedExecutor;
  explicit TxnFuture(std::shared_ptr<internal::TxnState> s)
      : state_(std::move(s)) {}

  static Status InvalidFuture() {
    return Status::InvalidArgument("invalid (default-constructed) TxnFuture");
  }

  std::shared_ptr<internal::TxnState> state_;
};

}  // namespace atrapos::engine
