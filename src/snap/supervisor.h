#pragma once

#include <string>

/// Per-stage failure policy. Every stage is a pure function of the config,
/// so a stage that throws would throw again: each one is built exactly
/// once, and a failure is a *policy decision* (fail the run, or ship a
/// degraded report that says so) rather than an unhandled exception.
/// `core::Study::stage()` applies it.
namespace cs::snap {

/// What to do when a stage's one build throws.
enum class OnExhausted {
  kFail,     ///< rethrow the error; the run dies loudly
  kDegrade,  ///< substitute an empty-but-valid artifact and keep going
};

struct SupervisorOptions {
  OnExhausted on_exhausted = OnExhausted::kFail;
};

/// The record a stage leaves behind, surfaced verbatim in the
/// data-quality report.
struct StageRun {
  std::string stage;
  int attempts = 0;          ///< 1 once built, 0 if resumed
  bool from_snapshot = false;
  bool degraded = false;
  std::string last_error;    ///< empty when the build succeeded
};

}  // namespace cs::snap
