#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "exec/sharded_rng.h"
#include "util/rng.h"

/// Deterministic, seed-driven impairment for the whole pipeline: the one
/// model for everything the study's lossy world can do to it (DESIGN §8).
///
/// The paper's measurements ran against a hostile real world — flaky
/// PlanetLab vantages, timing-out authoritative servers, a lossy wire,
/// truncated captures. This module recreates that hostility on demand so
/// the consumers (resolver, socket client, flow assembly, campaign
/// aggregation) can prove they degrade gracefully instead of corrupting
/// aggregates.
///
/// Contract:
///  - Impairments are configured by CS_FAULT
///    (`CS_FAULT=loss=0.02,timeout=0.01,drop=0.05,delay_us=300`) or
///    programmatically via a Spec + ScopedPlan.
///  - Every decision is a pure function of (plan seed, kind, event key):
///    the key identifies the event (a DNS exchange, one datagram of it, a
///    capture record index, a campaign vantage), never the thread or call
///    order, so an impaired run is byte-identical at any CS_THREADS.
///    Streams are derived through exec::ShardedRng, the same per-shard
///    construction the parallel stages use for their own randomness.
///  - With CS_FAULT unset the injector is a no-op: active_plan() is one
///    relaxed atomic load + branch, cheap enough for per-exchange,
///    per-datagram and per-record call sites (the ~6 ns decode_frame loop
///    stays uninstrumented; injection happens one layer up).
namespace cs::fault {

/// What the injector can do to one event.
enum class Kind : std::uint8_t {
  kLoss = 0,     ///< whole exchange lost, on every retransmit
  kTimeout,      ///< server reached but never answers, on every retransmit
  kTruncate,     ///< response/frame cut short
  kServFail,     ///< authoritative server answers SERVFAIL
  kCorrupt,      ///< capture record or socket datagram: one bit flipped
  kVantageDrop,  ///< campaign vantage offline for a whole round
  kStageAbort,   ///< pipeline stage dies before producing its artifact
  kDrop,         ///< one datagram of an exchange's first attempt lost
  kDup,          ///< datagram delivered twice
  kReorder,      ///< datagram held back past its successors
  kDelay,        ///< not a Bernoulli kind: its stream draws the jitter
};
inline constexpr std::size_t kKindCount = 11;

const char* to_string(Kind kind) noexcept;

/// Per-kind rates, the wire's delay shape, and the seed the decision
/// streams derive from.
struct Spec {
  double loss = 0.0;
  double timeout = 0.0;
  double truncate = 0.0;
  double servfail = 0.0;
  double corrupt = 0.0;
  double vantage_drop = 0.0;
  double stage_abort = 0.0;
  double drop = 0.0;
  double dup = 0.0;
  double reorder = 0.0;
  std::uint64_t delay_us = 0;   ///< fixed one-way datagram delay
  std::uint64_t jitter_us = 0;  ///< uniform extra delay in [0, jitter_us]
  std::uint64_t seed = 0xC10D5FA17ULL;

  /// The Bernoulli rate of `kind` (0 for kDelay).
  double rate(Kind kind) const noexcept;
  bool any() const noexcept;
  /// True when some kind acts on socket datagrams (drop, dup, reorder,
  /// delay, jitter or corrupt), i.e. the transports must ask wire().
  bool wire() const noexcept;

  /// Strictly parses a `key=value,key=value` spec (the CS_FAULT syntax).
  /// Keys: loss, timeout, truncate, servfail, corrupt, vantage_drop,
  /// stage_abort, drop, dup, reorder (probabilities in [0,1]), delay_us,
  /// jitter_us and seed (u64). Unknown keys, out-of-range rates,
  /// duplicate keys, or trailing garbage reject the whole spec — a
  /// misread rate would silently change every downstream number.
  static std::optional<Spec> parse(std::string_view text) noexcept;
};

/// Which way a datagram travels; part of every wire decision's key, so
/// the two directions of one exchange draw from unrelated streams.
enum class Direction : std::uint8_t { kQuery = 0, kResponse = 1 };

/// What the wire does to one datagram. The executor skips the send on
/// `drop`, holds copies back `delay_us` / `duplicate_delay_us`, and XORs
/// datagram[corrupt_offset] with a nonzero corrupt_mask (on a copy: a
/// retransmit resends pristine bytes).
struct WireDecision {
  bool drop = false;
  bool reorder = false;  ///< delay_us includes the reorder holdback
  bool duplicate = false;
  std::uint64_t delay_us = 0;
  std::uint64_t duplicate_delay_us = 0;
  std::size_t corrupt_offset = 0;
  std::uint8_t corrupt_mask = 0;
};

/// An immutable fault plan: the Spec compiled into per-kind ShardedRng
/// roots. Decisions are stateless — see the determinism contract above.
class Plan {
 public:
  explicit Plan(Spec spec) noexcept;

  const Spec& spec() const noexcept { return spec_; }

  /// Bernoulli decision for one event. Equal (spec, kind, key) always
  /// decides the same way.
  bool decide(Kind kind, std::uint64_t key) const noexcept;

  /// A per-event generator for faults that need more than a yes/no (the
  /// truncation point, the corrupted byte offset). Sibling keys yield
  /// uncorrelated streams via the ShardedRng scramble.
  util::Rng stream(Kind kind, std::uint64_t key) const noexcept;

  /// Whether the wire loses the `direction` datagram of an exchange's
  /// `attempt`-th send (0 = the first). Only a first attempt may drop, so
  /// a client that retransmits at least once always gets an answer:
  /// drop is survivable by rule, with no per-exchange state.
  bool drops(Direction direction, std::uint64_t key,
             std::uint32_t attempt) const noexcept;

  /// Every wire kind's decision for one datagram of `size` bytes, keyed
  /// like drops(). A pure function of its arguments.
  WireDecision wire(Direction direction, std::uint64_t key,
                    std::uint32_t attempt, std::size_t size) const noexcept;

 private:
  Spec spec_;
  std::array<exec::ShardedRng, kKindCount> roots_;
};

/// Stable key for a DNS exchange: mixes client, server, and the query
/// wire bytes (qname/qtype/id), so the key is a property of the exchange
/// itself, not of which thread or in which order it ran.
std::uint64_t exchange_key(std::uint32_t client, std::uint32_t server,
                           std::span<const std::uint8_t> query) noexcept;

/// The key every impairment site uses for a DNS exchange: exchange_key
/// over the query past its 2-byte message ID, which the socket client
/// rewrites for multiplexing. Retransmits, the response, and a re-ask of
/// the same question all share it, whichever transport carried them.
std::uint64_t query_key(std::uint32_t client, std::uint32_t server,
                        std::span<const std::uint8_t> query) noexcept;

/// The key of a stage_abort decision: FNV-1a of the stage name. A stage
/// is built once, so its name alone identifies the event.
std::uint64_t stage_abort_key(std::string_view stage) noexcept;

namespace detail {
/// -1 = CS_FAULT not yet read; 0 = no plan; 1 = plan installed.
extern std::atomic<int> g_state;
extern std::atomic<const Plan*> g_plan;
const Plan* init_plan_from_env() noexcept;
}  // namespace detail

/// The process-wide plan, or nullptr when injection is off (the common
/// case: one relaxed load + predictable branch).
inline const Plan* active_plan() noexcept {
  const int s = detail::g_state.load(std::memory_order_acquire);
  if (s == 0) [[likely]] return nullptr;
  if (s == 1) return detail::g_plan.load(std::memory_order_acquire);
  return detail::init_plan_from_env();
}

/// Installs `plan` (nullptr disables injection). The caller keeps
/// ownership and must keep the plan alive while installed. Not safe to
/// call while parallel stages are in flight — swap between phases, which
/// is how ScopedPlan and the tests use it.
void set_plan(const Plan* plan) noexcept;

/// RAII plan for tests and examples: installs on construction, restores
/// the previous plan on destruction.
class ScopedPlan {
 public:
  explicit ScopedPlan(const Spec& spec);
  /// Parses `spec_text` (CS_FAULT syntax); throws std::invalid_argument
  /// on a malformed spec.
  explicit ScopedPlan(std::string_view spec_text);
  ~ScopedPlan();

  ScopedPlan(const ScopedPlan&) = delete;
  ScopedPlan& operator=(const ScopedPlan&) = delete;

  const Plan& plan() const noexcept { return *plan_; }

 private:
  std::unique_ptr<Plan> plan_;
  const Plan* previous_ = nullptr;
  int previous_state_ = 0;
};

}  // namespace cs::fault
