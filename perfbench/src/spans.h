#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

/// In-memory span log for the traced run. Spans are recorded from the
/// benchmark's own thread, around its calls into each layer's public API;
/// nothing inside the program is instrumented. The log is written out once,
/// when the run ends, as Chrome trace-event JSON (chrome://tracing or
/// ui.perfetto.dev).
namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
double seconds_since(Clock::time_point start) noexcept;

class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;  ///< since the log was created
    double end_us = 0.0;
    int parent = -1;        ///< index of the enclosing span, -1 at the top
    std::uint64_t id = 0;   ///< shared by the spans of one domain or unit
  };

  /// Times one call. Records a span when given a log; always measures, so
  /// untraced passes reuse the same code with a null log.
  class Scope {
   public:
    Scope(SpanLog* log, std::string name, std::uint64_t id = 0);
    ~Scope() { stop(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Ends the span (once) and returns its length in seconds.
    double stop();
    /// Seconds since the span opened, without ending it.
    double elapsed() const { return seconds_since(start_); }

   private:
    SpanLog* log_;
    int index_ = -1;
    Clock::time_point start_;
    double seconds_ = -1.0;
  };

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Writes every span as Chrome trace-event JSON; false if the file
  /// cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  int open(std::string name, std::uint64_t id, Clock::time_point now);
  void close(int index, Clock::time_point now);

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench
