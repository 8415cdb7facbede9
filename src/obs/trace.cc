#include "obs/trace.h"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace atrapos::obs {

const char* SpanName(SpanId s) {
  switch (s) {
    case SpanId::kTxn: return "txn";
    case SpanId::kSubmitPublish: return "submit_publish";
    case SpanId::kDrain: return "drain";
    case SpanId::kAction: return "action";
    case SpanId::kRvpResolve: return "rvp_resolve";
    case SpanId::kCommitMarker: return "commit_marker_append";
    case SpanId::kDurableAck: return "durable_ack";
    case SpanId::kRepartition: return "repartition";
    case SpanId::kLogFlush: return "log_flush";
    case SpanId::kClientSend: return "client_send";
    case SpanId::kWireDecode: return "wire_decode";
    case SpanId::kWireAck: return "wire_ack";
    case SpanId::kCount: break;
  }
  return "?";
}

TraceRing::TraceRing(uint32_t capacity) {
  cap_ = std::bit_ceil(std::max<uint32_t>(capacity, 8));
  mask_ = cap_ - 1;
  slots_ = std::make_unique<Slot[]>(cap_);
}

void TraceRing::Record(uint64_t ts_ns, SpanId span, TracePhase phase,
                       uint64_t txn, uint64_t arg) {
  uint64_t h = head_.load(std::memory_order_relaxed);
  Slot& s = slots_[h & mask_];
  s.ts.store(ts_ns, std::memory_order_relaxed);
  s.txn.store(txn, std::memory_order_relaxed);
  s.meta.store((arg << 16) | (static_cast<uint64_t>(span) << 8) |
                   static_cast<uint64_t>(phase),
               std::memory_order_relaxed);
  // Publish: a reader that observes this head sees the slot's fields.
  head_.store(h + 1, std::memory_order_release);
}

uint64_t TraceRing::Collect(uint16_t shard,
                            std::vector<TraceEvent>* out) const {
  uint64_t h = head_.load(std::memory_order_acquire);
  uint64_t n = std::min<uint64_t>(h, cap_);
  uint64_t first = h - n;  // oldest surviving event
  out->reserve(out->size() + n);
  for (uint64_t i = first; i < h; ++i) {
    const Slot& s = slots_[i & mask_];
    TraceEvent e;
    e.ts_ns = s.ts.load(std::memory_order_relaxed);
    e.txn = s.txn.load(std::memory_order_relaxed);
    uint64_t meta = s.meta.load(std::memory_order_relaxed);
    e.arg = meta >> 16;
    uint8_t span = static_cast<uint8_t>((meta >> 8) & 0xff);
    e.span = span < static_cast<uint8_t>(SpanId::kCount)
                 ? static_cast<SpanId>(span)
                 : SpanId::kTxn;
    e.phase = static_cast<TracePhase>(meta & 0x3);
    e.shard = shard;
    out->push_back(e);
  }
  return h;
}

bool WriteChromeTrace(const std::string& path,
                      std::vector<TraceEvent> events) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot write trace to %s\n", path.c_str());
    return false;
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.ts_ns < b.ts_ns;
            });
  std::fputc('[', f);
  bool first = true;
  for (const TraceEvent& e : events) {
    // chrome://tracing wants microsecond timestamps; keep sub-us detail.
    double ts_us = static_cast<double>(e.ts_ns) / 1000.0;
    const char* name = SpanName(e.span);
    if (!first) std::fputc(',', f);
    first = false;
    std::fputc('\n', f);
    switch (e.phase) {
      case TracePhase::kBegin:
      case TracePhase::kEnd:
        std::fprintf(f,
                     "{\"name\":\"%s\",\"cat\":\"txn\",\"ph\":\"%s\","
                     "\"id\":%llu,\"pid\":1,\"tid\":%u,\"ts\":%.3f}",
                     name, e.phase == TracePhase::kBegin ? "b" : "e",
                     static_cast<unsigned long long>(e.txn), e.shard, ts_us);
        break;
      case TracePhase::kComplete: {
        double dur_us = static_cast<double>(e.arg) / 1000.0;
        std::fprintf(f,
                     "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"txn\":%llu}}",
                     name, e.shard, ts_us, dur_us,
                     static_cast<unsigned long long>(e.txn));
        break;
      }
      case TracePhase::kInstant:
        std::fprintf(f,
                     "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,"
                     "\"tid\":%u,\"ts\":%.3f,\"args\":{\"txn\":%llu,"
                     "\"arg\":%llu}}",
                     name, e.shard, ts_us,
                     static_cast<unsigned long long>(e.txn),
                     static_cast<unsigned long long>(e.arg));
        break;
    }
  }
  std::fputs("\n]\n", f);
  std::fclose(f);
  return true;
}

}  // namespace atrapos::obs
