#include "obs/metrics.h"

#include <algorithm>
#include <stdexcept>

#include "obs/log.h"
#include "util/env.h"
#include "util/sync.h"

namespace cs::obs {

namespace detail {

int init_detailed_metrics_from_env() noexcept {
  int on = 0;
  if (const auto env = util::env_text(util::Knob::kMetrics)) {
    if (const auto flag = util::parse_env_flag(*env)) {
      on = *flag ? 1 : 0;
    } else {
      log_warn("obs", "{}",
               util::env_malformed(util::Knob::kMetrics, *env,
                                   "1/true/on/yes or 0/false/off/no"));
    }
  }
  g_detailed_metrics.store(on, std::memory_order_relaxed);
  return on;
}

}  // namespace detail

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty())
    throw std::invalid_argument{"Histogram: bounds must be non-empty"};
  std::sort(bounds_.begin(), bounds_.end());
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    buckets_[i].store(0, std::memory_order_relaxed);
}

void Histogram::observe(double sample) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), sample);
  const auto index = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(sample, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  return out;
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    buckets_[i].store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

double HistogramSnapshot::quantile(double q) const noexcept {
  if (count == 0 || bounds.empty() || buckets.size() != bounds.size() + 1)
    return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    const double reached = static_cast<double>(cumulative + in_bucket);
    if (reached >= target) {
      if (i == bounds.size()) return bounds.back();  // open overflow bucket
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double hi = bounds[i];
      const double into =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      return lo + (hi - lo) * into;
    }
    cumulative += in_bucket;
  }
  return bounds.back();
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const noexcept {
  for (const auto& c : counters)
    if (c.name == name) return c.value;
  return 0;
}

MetricsRegistry& MetricsRegistry::instance() {
  // Intentionally leaked: atexit handlers (trace export, bench sidecars)
  // read metrics after ordinary static destruction would have run.
  static MetricsRegistry* registry = new MetricsRegistry;
  return *registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  util::LockGuard lock{mutex_};
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  return *counters_.emplace(std::string{name}, std::make_unique<Counter>())
              .first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  util::LockGuard lock{mutex_};
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  return *histograms_
              .emplace(std::string{name},
                       std::make_unique<Histogram>(std::move(bounds)))
              .first->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  util::LockGuard lock{mutex_};
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_)
    snap.counters.push_back({name, c->value()});
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.bounds = h->bounds();
    hs.buckets = h->bucket_counts();
    hs.count = h->count();
    hs.sum = h->sum();
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

void MetricsRegistry::reset_values() {
  util::LockGuard lock{mutex_};
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace cs::obs
