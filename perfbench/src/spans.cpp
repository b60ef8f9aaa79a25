#include "spans.h"

#include <fstream>
#include <iomanip>

namespace perfbench {

double seconds_since(Clock::time_point start) noexcept {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

SpanLog::Scope::Scope(SpanLog* log, std::string name, std::uint64_t id)
    : log_(log), start_(Clock::now()) {
  if (log_) index_ = log_->open(std::move(name), id, start_);
}

double SpanLog::Scope::stop() {
  if (seconds_ >= 0.0) return seconds_;
  const auto now = Clock::now();
  seconds_ = std::chrono::duration<double>(now - start_).count();
  if (log_) log_->close(index_, now);
  return seconds_;
}

int SpanLog::open(std::string name, std::uint64_t id, Clock::time_point now) {
  Span span;
  span.name = std::move(name);
  span.start_us =
      std::chrono::duration<double, std::micro>(now - epoch_).count();
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.id = id;
  spans_.push_back(std::move(span));
  stack_.push_back(static_cast<int>(spans_.size() - 1));
  return stack_.back();
}

void SpanLog::close(int index, Clock::time_point now) {
  spans_[index].end_us =
      std::chrono::duration<double, std::micro>(now - epoch_).count();
  // Scopes nest lexically, so the closing span is the innermost open one.
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  if (!out) return false;
  // Span names are the benchmark's own [A-Za-z0-9_.-] identifiers, so
  // they need no JSON escaping.
  out << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_us
        << ",\"dur\":" << (s.end_us - s.start_us)
        << ",\"args\":{\"index\":" << i << ",\"parent\":" << s.parent
        << ",\"id\":" << s.id << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
