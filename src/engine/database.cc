#include "engine/database.h"

#include <cstdio>

namespace atrapos::engine {

Database::Database(Options opt)
    : opt_(std::move(opt)),
      obs_(std::make_unique<obs::Registry>(opt_.obs)),
      mem_(opt_.topo, opt_.mem) {
  if (opt_.sampler.enabled) {
    sampler_ = std::make_unique<obs::Sampler>(
        [this] { return StatsSnapshot(); }, opt_.sampler);
    sampler_->Start();
  }
}

bool Database::DumpTimeSeries(const std::string& path) const {
  if (sampler_ == nullptr) return false;
  bool csv = path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  std::string body = csv ? sampler_->ToCsv() : sampler_->ToJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot write time series to %s\n",
                 path.c_str());
    return false;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  return true;
}

obs::StatsSnapshot Database::StatsSnapshot() {
  obs::StatsSnapshot s = obs_->Snapshot();
  const mem::AllocStats& ms = mem_.stats();
  s.remote_traffic_ratio = ms.AccessRemoteRatio();
  s.alloc_remote_ratio = ms.AllocRemoteRatio();
  s.migrated_bytes = ms.migrated_bytes();
  return s;
}

int Database::AddTable(std::unique_ptr<storage::Table> table) {
  tables_.push_back(std::move(table));
  return static_cast<int>(tables_.size()) - 1;
}

void Database::RegisterDrainable(Drainable* d) {
  std::lock_guard lk(drain_mu_);
  drainables_.push_back(d);
}

void Database::UnregisterDrainable(Drainable* d) {
  std::lock_guard lk(drain_mu_);
  for (size_t i = 0; i < drainables_.size(); ++i) {
    if (drainables_[i] == d) {
      drainables_.erase(drainables_.begin() + static_cast<ptrdiff_t>(i));
      break;
    }
  }
}

void Database::Drain() {
  // Copy under the lock: Drain() must not hold drain_mu_ across the
  // potentially long waits (an executor destructor unregisters under it).
  std::vector<Drainable*> ds;
  {
    std::lock_guard lk(drain_mu_);
    ds = drainables_;
  }
  // Seal everything first, then wait: a transaction in flight on executor
  // A cannot sneak a new submission into already-drained executor B.
  for (Drainable* d : ds) d->SealIntake();
  for (Drainable* d : ds) d->Drain();
}

}  // namespace atrapos::engine
