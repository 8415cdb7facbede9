// Streaming statistics and the sliding throughput window used
// by the adaptive monitoring controller (paper §V-D).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace atrapos {

/// Welford streaming mean/variance plus min/max. O(1) per observation.
class StreamingStats {
 public:
  void Add(double x);
  uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  void Reset();

 private:
  uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Sliding window over the last N observations; the ATraPos adaptive
/// controller asks "is the current throughput within 10% of the average of
/// the previous 5 measurements?" (paper §V-D).
class SlidingWindow {
 public:
  explicit SlidingWindow(size_t capacity) : capacity_(capacity) {}
  void Add(double v);
  size_t size() const { return vals_.size(); }
  bool full() const { return vals_.size() == capacity_; }
  double Average() const;
  void Reset() { vals_.clear(); }

 private:
  size_t capacity_;
  std::deque<double> vals_;
};

}  // namespace atrapos
