// Impairment-off must be free. Every datagram the socket transport sends
// and every answer the server emits first asks the fault plan for a wire
// decision (netio::wire_plan); with CS_FAULT unset that is one
// relaxed load of the active plan and a predicted branch, the entire
// cost of the feature. This bench prices that branch (target: around a
// nanosecond per frame) and, for contrast, one live Plan::wire() decision
// (seeded draws per wire kind, no state). The smoke manifest pins the
// wall time so the fast path cannot silently grow a real cost.
//
// Extra knobs (on top of bench_common's):
//   CS_CHAOS_FRAMES    - fast-path iterations (default 50000000)
//   CS_CHAOS_DECISIONS - live wire decisions (default 1000000)
#include <chrono>
#include <cstdint>

#include "bench_common.h"
#include "fault/fault.h"

int main() {
  using namespace cs;
  bench::print_header("Wire impairment: per-frame overhead");

  const std::size_t frames =
      bench::env_size("CS_CHAOS_FRAMES", 50'000'000);
  const std::size_t decisions =
      bench::env_size("CS_CHAOS_DECISIONS", 1'000'000);

  // The transports' impairment-off fast path, isolated: the branch
  // wire_plan takes per frame when no plan is installed.
  fault::set_plan(nullptr);
  std::uint64_t delivered = 0;
  const auto off_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < frames; ++i) {
    const auto* plan = fault::active_plan();
    if (!plan || !plan->spec().wire()) [[likely]]
      ++delivered;
    else
      delivered += !plan->wire(fault::Direction::kQuery,
                               static_cast<std::uint64_t>(i), 0, 64)
                        .drop;
  }
  const double off_ns =
      std::chrono::duration<double, std::nano>(
          std::chrono::steady_clock::now() - off_start)
          .count() /
      static_cast<double>(frames);

  // For contrast: the full wire decision of a live plan, alternating
  // directions and cycling the attempt index as retransmits would.
  fault::Spec spec;
  spec.drop = 0.05;
  spec.dup = 0.05;
  spec.reorder = 0.05;
  spec.delay_us = 100;
  spec.jitter_us = 100;
  const fault::Plan plan{spec};
  const auto on_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < decisions; ++i) {
    const auto direction =
        (i & 1) ? fault::Direction::kResponse : fault::Direction::kQuery;
    delivered += !plan.wire(direction, static_cast<std::uint64_t>(i >> 2),
                            static_cast<std::uint32_t>((i >> 1) & 1), 64)
                      .drop;
  }
  const double on_ns = std::chrono::duration<double, std::nano>(
                           std::chrono::steady_clock::now() - on_start)
                           .count() /
                       static_cast<double>(decisions);

  std::cout << "frames (no plan):       " << frames << "\n"
            << "fast path (ns/frame):   " << off_ns << "\n"
            << "decisions (live plan):  " << decisions << "\n"
            << "decision (ns/frame):    " << on_ns << "\n"
            << "decision/fast-path:     "
            << (off_ns > 0 ? on_ns / off_ns : 0) << "x\n"
            << "checksum:               " << delivered << "\n";
  return 0;
}
