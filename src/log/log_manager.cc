#include "log/log_manager.h"

#include <algorithm>
#include <chrono>

#include "obs/registry.h"

namespace atrapos::log {

LogManager::LogManager() : LogManager(Options{}) {}

LogManager::LogManager(Options opt) : opt_(opt) {
  if (opt_.start_flusher) flusher_ = std::thread([this] { FlusherLoop(); });
}

LogManager::~LogManager() {
  Stop();
  // Markers appended after Stop() can never become durable; drop their
  // occurrences' references without acking or advancing the watermark.
  std::lock_guard lk(shards_mu_);
  for (auto& s : shards_) {
    for (CommitTicket* t : s->TakeUnsettledWaiters()) ReleaseCommitTicket(t);
  }
}

int LogManager::AddShard(std::shared_ptr<mem::ChunkPool> pool,
                         mem::Arena* arena) {
  if (pool == nullptr)
    pool = std::make_shared<mem::ChunkPool>(opt_.chunk_payload_bytes, arena);
  std::lock_guard lk(shards_mu_);
  int id = static_cast<int>(shards_.size());
  shards_.push_back(
      std::make_unique<LogShard>(id, generation_, std::move(pool), arena));
  active_.push_back(shards_.back().get());
  return id;
}

void LogManager::BeginGeneration() {
  std::vector<CommitTicket*> fired;
  {
    std::lock_guard lk(shards_mu_);
    for (LogShard* s : active_) s->Seal(&fired);
    active_.clear();
    ++generation_;
  }
  SettleDurable(fired);
}

LogShard* LogManager::shard(int id) {
  std::lock_guard lk(shards_mu_);
  if (id < 0 || static_cast<size_t>(id) >= shards_.size()) return nullptr;
  return shards_[static_cast<size_t>(id)].get();
}

size_t LogManager::num_shards() const {
  std::lock_guard lk(shards_mu_);
  return shards_.size();
}

size_t LogManager::num_active_shards() const {
  std::lock_guard lk(shards_mu_);
  return active_.size();
}

int LogManager::generation() const {
  std::lock_guard lk(shards_mu_);
  return generation_;
}

CommitTicket* LogManager::BeginCommit(int expected, void* cookie,
                                      bool fire_on_append) {
  uint64_t epoch = epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  return new CommitTicket(expected, epoch, cookie, fire_on_append);
}

void LogManager::OnMarkersAppended(std::span<CommitTicket* const> tickets) {
  CommitSink* sink = sink_.load(std::memory_order_acquire);
  for (CommitTicket* t : tickets) {
    // Only append-fired (async) tickets reach here (see AppendBatch); the
    // append-side reference keeps *t alive against a racing flusher.
    if (t->cookie != nullptr && sink != nullptr)
      sink->OnCommitAcked(t->epoch, t->cookie);
    ReleaseCommitTicket(t);
  }
  // Acked on append, durable on the idle flusher's next pass.
  if (!tickets.empty()) NoteFlushOwed();
}

void LogManager::SettleDurable(const std::vector<CommitTicket*>& tickets) {
  CommitSink* sink = sink_.load(std::memory_order_acquire);
  for (CommitTicket* t : tickets) {
    if (t->remaining_durable.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last marker of this commit just became durable. Watermark first,
      // so an acked client observes a durable epoch covering its commit.
      MarkEpochDurable(t->epoch);
      if (!t->fire_on_append && t->cookie != nullptr && sink != nullptr)
        sink->OnCommitAcked(t->epoch, t->cookie);
    }
    ReleaseCommitTicket(t);  // one reference per settled occurrence
  }
}

void LogManager::MarkEpochDurable(uint64_t epoch) {
  std::lock_guard lk(epoch_mu_);
  uint64_t mark = durable_epoch_.load(std::memory_order_relaxed);
  if (epoch != mark + 1) {
    durable_out_of_order_.push_back(epoch);
    std::push_heap(durable_out_of_order_.begin(), durable_out_of_order_.end(),
                   std::greater<>());
    return;
  }
  mark = epoch;
  while (!durable_out_of_order_.empty() &&
         durable_out_of_order_.front() == mark + 1) {
    std::pop_heap(durable_out_of_order_.begin(), durable_out_of_order_.end(),
                  std::greater<>());
    durable_out_of_order_.pop_back();
    ++mark;
  }
  durable_epoch_.store(mark, std::memory_order_release);
}

void LogManager::FlushAll() {
  obs::Registry* reg = opt_.registry;
  const bool rec =
      reg != nullptr && (reg->metrics_enabled() || reg->trace_enabled());
  const uint64_t t0 = rec ? reg->NowNs() : 0;
  std::vector<CommitTicket*> fired;
  bool short_write = false;
  {
    std::lock_guard lk(shards_mu_);
    // Active shards only: Seal() already performed a sealed shard's final
    // flush and settled its waiters, and its durable point can never
    // advance — scanning old generations would make the flusher's
    // per-window work grow with every repartition.
    for (LogShard* s : active_) short_write |= !s->Flush(&fired);
  }
  SettleDurable(fired);
  // A short (faulted) write left part of a window buffered: the idle
  // flusher owes the pass that finishes it.
  if (short_write) NoteFlushOwed();
  if (rec) {
    const uint64_t dt = reg->NowNs() - t0;
    reg->Count(obs::CounterId::kLogFlushes);
    reg->RecordLatency(obs::HistId::kLogFlushUs, dt / 1000);
    const uint64_t last = last_epoch();
    const uint64_t durable = durable_epoch();
    reg->SetGauge(obs::GaugeId::kDurableLagEpochs,
                  static_cast<int64_t>(last > durable ? last - durable : 0));
    reg->Trace(obs::SpanId::kLogFlush, obs::TracePhase::kComplete, 0, dt);
  }
}

void LogManager::RequestFlush() {
  if (!opt_.start_flusher || stop_.load(std::memory_order_relaxed)) return;
  // The request store must precede the leader exchange in LeadFlushes
  // (seq_cst on both): a leader that releases after this store sees it.
  flush_requested_.store(true);
  LeadFlushes();
}

void LogManager::LeadFlushes() {
  int passes = 0;
  while (flush_requested_.load()) {
    // Follower: the current leader re-reads flush_requested_ after it
    // releases, so this request is served without us.
    if (flush_leader_.exchange(true)) return;
    // Each pass clears the request first, so a request stored during a
    // pass stays pending for the next one.
    while (passes < kMaxLeaderPasses && flush_requested_.exchange(false)) {
      FlushAll();
      ++passes;
    }
    flush_leader_.store(false);
    // Pass bound reached: a pending request waits for the next leader or
    // the idle flusher rather than holding this worker. Read after the
    // release, so a request that lost the leader race to us is seen.
    if (passes == kMaxLeaderPasses) {
      if (flush_requested_.load()) NoteFlushOwed();
      return;
    }
  }
}

void LogManager::NoteFlushOwed() {
  if (!opt_.start_flusher) return;
  // Only the not-owed -> owed edge notifies; while the flusher ticks the
  // word is usually already set and this is one load.
  if (flush_owed_.load(std::memory_order_relaxed) || flush_owed_.exchange(true))
    return;
  // Under tick_mu_ so a flusher between its predicate check and its sleep
  // cannot miss the notify. A ticking flusher waits on tick_cv_, so this
  // finds no waiter and makes no futex call.
  std::lock_guard lk(tick_mu_);
  idle_cv_.notify_one();
}

void LogManager::FlusherLoop() {
  // The idle flusher: group commits are flushed by their committers
  // (RequestFlush); this thread serves only what is owed to it
  // (NoteFlushOwed) — async-mode durability, windows a kLogShortFlush
  // fault left unfinished and requests a leader left at its pass bound.
  // Woken by the first owed flush, it
  // ticks every flush_interval_us and runs a pass at each tick that finds
  // one owed; after kQuietTicks ticks in a row with nothing owed it
  // sleeps until the next. So a steady stream of owed work (async
  // commits) sees the same tick as an unconditional flusher, and an
  // idle or committer-led log sees no wake-ups. It takes the same leader
  // flag, so at most one leader pass runs at a time.
  const auto tick = std::chrono::microseconds(opt_.flush_interval_us);
  auto stopping = [this] { return stop_.load(std::memory_order_acquire); };
  std::unique_lock lk(tick_mu_);
  for (;;) {
    idle_cv_.wait(lk, [&] { return stopping() || flush_owed_.load(); });
    // Interruptible, so Stop() never waits out a long tick.
    for (int quiet = 0; quiet < kQuietTicks;) {
      if (tick_cv_.wait_for(lk, tick, stopping)) return;
      if (!flush_owed_.load()) {
        ++quiet;
        continue;
      }
      quiet = 0;
      lk.unlock();
      // Cleared before the pass: whatever is noted owed from here on is
      // either covered by this pass or sets the flag for the next tick.
      flush_owed_.store(false);
      flush_requested_.store(true);
      LeadFlushes();
      lk.lock();
    }
  }
}

void LogManager::Stop() {
  if (stopped_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard lk(tick_mu_);
    stop_.store(true, std::memory_order_release);
  }
  tick_cv_.notify_all();
  idle_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
  // Final group commit: everything appended so far becomes durable and
  // every settled waiter is acked, so no committer hangs at shutdown.
  FlushAll();
  stopped_.store(true, std::memory_order_release);
}

DurablePoint LogManager::durable_point() const {
  DurablePoint p;
  std::lock_guard lk(shards_mu_);
  p.shard_lsns.reserve(shards_.size());
  for (const auto& s : shards_) p.shard_lsns.push_back(s->durable_lsn());
  p.epoch = durable_epoch_.load(std::memory_order_acquire);
  return p;
}

std::vector<ShardSnapshot> LogManager::SnapshotDurable() const {
  std::lock_guard lk(shards_mu_);
  std::vector<ShardSnapshot> out;
  out.reserve(shards_.size());
  for (const auto& s : shards_) out.push_back(s->SnapshotDurable());
  return out;
}

uint64_t LogManager::num_records() const {
  std::lock_guard lk(shards_mu_);
  uint64_t n = 0;
  for (const auto& s : shards_) n += s->num_records();
  return n;
}

uint64_t LogManager::bytes_logged() const {
  std::lock_guard lk(shards_mu_);
  uint64_t n = 0;
  for (const auto& s : shards_) n += s->bytes_logged();
  return n;
}

}  // namespace atrapos::log
