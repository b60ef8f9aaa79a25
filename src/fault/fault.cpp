#include "fault/fault.h"

#include <charconv>
#include <cmath>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "obs/log.h"
#include "util/env.h"
#include "util/sync.h"

namespace cs::fault {
namespace {

/// Per-kind salts so the decision families draw from unrelated
/// ShardedRng roots even under one spec seed.
constexpr std::uint64_t kKindSalt[kKindCount] = {
    0x10551055F001F001ULL,  // loss
    0x71ED0071ED00DEADULL,  // timeout
    0x7255CA7E7255CA7EULL,  // truncate
    0x5EF41150BADC0DE5ULL,  // servfail
    0xC0442070C0442070ULL,  // corrupt
    0xD20902D20902FA11ULL,  // vantage drop
    0x57A6EAB027ABA6E5ULL,  // stage abort
    0xD209D209D209D209ULL,  // drop
    0xD0B1ED0B1ED0B1EDULL,  // dup
    0x2E02DE22E02DE20AULL,  // reorder
    0xDE1A7DE1A7DE1A70ULL,  // delay
};

template <std::size_t... I>
std::array<exec::ShardedRng, kKindCount> make_roots(
    std::uint64_t seed, std::index_sequence<I...>) noexcept {
  return {exec::ShardedRng{seed ^ kKindSalt[I]}...};
}

/// Folded into the shard of response-direction decisions.
constexpr std::uint64_t kResponseSalt = 0x5E22E25E22E25E22ULL;
/// Fixed-point golden-ratio step: attempt n's shard sits far from
/// attempt n-1's, so retransmit decisions are independent draws.
constexpr std::uint64_t kAttemptStep = 0x9E3779B97F4A7C15ULL;
/// Floor under the reorder/dup holdback so a zero-delay spec still moves
/// the held datagram behind its successors on the wire.
constexpr std::uint64_t kHoldbackFloorUs = 200;

std::uint64_t wire_shard(Direction direction, std::uint64_t key,
                         std::uint32_t attempt) noexcept {
  std::uint64_t shard = key ^ ((attempt + 1ULL) * kAttemptStep);
  if (direction == Direction::kResponse) shard ^= kResponseSalt;
  return shard;
}

constexpr std::size_t index(Kind kind) noexcept {
  return static_cast<std::size_t>(kind);
}

/// One CS_FAULT key: a rate in [0,1] or a u64 (delays and the seed).
struct Field {
  std::string_view key;
  double Spec::*rate;
  std::uint64_t Spec::*number;
};

constexpr Field kFields[] = {
    {"loss", &Spec::loss, nullptr},
    {"timeout", &Spec::timeout, nullptr},
    {"truncate", &Spec::truncate, nullptr},
    {"servfail", &Spec::servfail, nullptr},
    {"corrupt", &Spec::corrupt, nullptr},
    {"vantage_drop", &Spec::vantage_drop, nullptr},
    {"stage_abort", &Spec::stage_abort, nullptr},
    {"drop", &Spec::drop, nullptr},
    {"dup", &Spec::dup, nullptr},
    {"reorder", &Spec::reorder, nullptr},
    {"delay_us", nullptr, &Spec::delay_us},
    {"jitter_us", nullptr, &Spec::jitter_us},
    {"seed", nullptr, &Spec::seed},
};

/// Strict double in [0,1]: the full token must parse and be finite.
std::optional<double> parse_rate(std::string_view text) noexcept {
  double value = 0.0;
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  if (!std::isfinite(value) || value < 0.0 || value > 1.0)
    return std::nullopt;
  return value;
}

std::optional<std::uint64_t> parse_u64(std::string_view text) noexcept {
  std::uint64_t value = 0;
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

}  // namespace

const char* to_string(Kind kind) noexcept {
  switch (kind) {
    case Kind::kLoss: return "loss";
    case Kind::kTimeout: return "timeout";
    case Kind::kTruncate: return "truncate";
    case Kind::kServFail: return "servfail";
    case Kind::kCorrupt: return "corrupt";
    case Kind::kVantageDrop: return "vantage_drop";
    case Kind::kStageAbort: return "stage_abort";
    case Kind::kDrop: return "drop";
    case Kind::kDup: return "dup";
    case Kind::kReorder: return "reorder";
    case Kind::kDelay: return "delay";
  }
  return "unknown";
}

double Spec::rate(Kind kind) const noexcept {
  switch (kind) {
    case Kind::kLoss: return loss;
    case Kind::kTimeout: return timeout;
    case Kind::kTruncate: return truncate;
    case Kind::kServFail: return servfail;
    case Kind::kCorrupt: return corrupt;
    case Kind::kVantageDrop: return vantage_drop;
    case Kind::kStageAbort: return stage_abort;
    case Kind::kDrop: return drop;
    case Kind::kDup: return dup;
    case Kind::kReorder: return reorder;
    case Kind::kDelay: return 0.0;
  }
  return 0.0;
}

bool Spec::any() const noexcept {
  return loss > 0.0 || timeout > 0.0 || truncate > 0.0 || servfail > 0.0 ||
         vantage_drop > 0.0 || stage_abort > 0.0 || wire();
}

bool Spec::wire() const noexcept {
  return drop > 0.0 || dup > 0.0 || reorder > 0.0 || delay_us > 0 ||
         jitter_us > 0 || corrupt > 0.0;
}

std::optional<Spec> Spec::parse(std::string_view text) noexcept {
  Spec spec;
  if (text.empty()) return std::nullopt;
  bool seen[std::size(kFields)] = {};
  while (!text.empty()) {
    const auto comma = text.find(',');
    const auto entry = text.substr(0, comma);
    text = comma == std::string_view::npos ? std::string_view{}
                                           : text.substr(comma + 1);
    // A comma must be followed by another entry; "loss=0.1," is malformed.
    if (comma != std::string_view::npos && text.empty()) return std::nullopt;
    const auto eq = entry.find('=');
    if (eq == std::string_view::npos) return std::nullopt;
    const auto key = entry.substr(0, eq);
    const auto value = entry.substr(eq + 1);

    std::size_t i = 0;
    while (i < std::size(kFields) && kFields[i].key != key) ++i;
    if (i == std::size(kFields) || seen[i]) return std::nullopt;
    seen[i] = true;
    if (kFields[i].rate) {
      const auto parsed = parse_rate(value);
      if (!parsed) return std::nullopt;
      spec.*kFields[i].rate = *parsed;
    } else {
      const auto parsed = parse_u64(value);
      if (!parsed) return std::nullopt;
      spec.*kFields[i].number = *parsed;
    }
  }
  return spec;
}

Plan::Plan(Spec spec) noexcept
    : spec_(spec),
      roots_(make_roots(spec.seed, std::make_index_sequence<kKindCount>{})) {}

bool Plan::decide(Kind kind, std::uint64_t key) const noexcept {
  const double rate = spec_.rate(kind);
  if (rate <= 0.0) return false;
  util::Rng rng{roots_[index(kind)].stream_seed(key)};
  return rng.uniform01() < rate;
}

util::Rng Plan::stream(Kind kind, std::uint64_t key) const noexcept {
  util::Rng rng{roots_[index(kind)].stream_seed(key)};
  rng();  // skip the decision draw so stream values are independent of it
  return rng;
}

bool Plan::drops(Direction direction, std::uint64_t key,
                 std::uint32_t attempt) const noexcept {
  return attempt == 0 &&
         decide(Kind::kDrop, wire_shard(direction, key, attempt));
}

WireDecision Plan::wire(Direction direction, std::uint64_t key,
                        std::uint32_t attempt,
                        std::size_t size) const noexcept {
  WireDecision d;
  if (drops(direction, key, attempt)) {
    d.drop = true;
    return d;
  }
  const std::uint64_t shard = wire_shard(direction, key, attempt);
  d.delay_us = spec_.delay_us;
  if (spec_.jitter_us > 0)
    d.delay_us +=
        stream(Kind::kDelay, shard).next_below(spec_.jitter_us + 1);
  // Bounded holdback: the datagram falls behind anything sent within the
  // window, then goes out — reordering, not loss.
  const std::uint64_t holdback =
      2 * (spec_.delay_us + spec_.jitter_us) + kHoldbackFloorUs;
  if (decide(Kind::kReorder, shard)) {
    d.reorder = true;
    d.delay_us += holdback;
  }
  if (decide(Kind::kDup, shard)) {
    d.duplicate = true;
    d.duplicate_delay_us = d.delay_us + holdback;
  }
  if (size > 0 && decide(Kind::kCorrupt, shard)) {
    auto rng = stream(Kind::kCorrupt, shard);
    d.corrupt_offset = static_cast<std::size_t>(rng.next_below(size));
    d.corrupt_mask = static_cast<std::uint8_t>(1u << rng.next_below(8));
  }
  return d;
}

std::uint64_t exchange_key(std::uint32_t client, std::uint32_t server,
                           std::span<const std::uint8_t> query) noexcept {
  // Both addresses little-endian, then the query.
  std::uint8_t ends[8];
  for (int i = 0; i < 4; ++i) {
    ends[i] = static_cast<std::uint8_t>(client >> (8 * i));
    ends[4 + i] = static_cast<std::uint8_t>(server >> (8 * i));
  }
  return util::fnv1a(query, util::fnv1a(ends, util::kFnv1aShortBasis));
}

std::uint64_t query_key(std::uint32_t client, std::uint32_t server,
                        std::span<const std::uint8_t> query) noexcept {
  return exchange_key(client, server,
                      query.size() >= 2 ? query.subspan(2) : query);
}

std::uint64_t stage_abort_key(std::string_view stage) noexcept {
  return util::fnv1a({reinterpret_cast<const std::uint8_t*>(stage.data()),
                      stage.size()},
                     util::kFnv1aShortBasis);
}

namespace detail {

std::atomic<int> g_state{-1};
std::atomic<const Plan*> g_plan{nullptr};

const Plan* init_plan_from_env() noexcept {
  static util::Mutex mutex;
  util::LockGuard lock{mutex};
  const int current = g_state.load(std::memory_order_acquire);
  if (current >= 0)  // another thread (or a ScopedPlan) won the race
    return current == 1 ? g_plan.load(std::memory_order_acquire) : nullptr;

  const auto env = util::env_text(util::Knob::kFault);
  if (!env) {
    g_state.store(0, std::memory_order_release);
    return nullptr;
  }
  const auto spec = Spec::parse(*env);
  if (!spec || !spec->any()) {
    if (!spec)
      obs::log_warn(
          "fault", "{}",
          util::env_malformed(
              util::Knob::kFault, *env,
              "comma-separated loss, timeout, truncate, servfail, corrupt, "
              "vantage_drop, stage_abort, drop, dup, reorder (=P in [0,1]), "
              "delay_us, jitter_us, seed (=N)"));
    g_state.store(0, std::memory_order_release);
    return nullptr;
  }
  // Intentionally leaked: the env-derived plan lives for the process,
  // like the metrics registry.
  const Plan* plan = new Plan{*spec};
  g_plan.store(plan, std::memory_order_release);
  g_state.store(1, std::memory_order_release);
  return plan;
}

}  // namespace detail

void set_plan(const Plan* plan) noexcept {
  detail::g_plan.store(plan, std::memory_order_release);
  detail::g_state.store(plan ? 1 : 0, std::memory_order_release);
}

ScopedPlan::ScopedPlan(const Spec& spec) : plan_(std::make_unique<Plan>(spec)) {
  previous_state_ = detail::g_state.load(std::memory_order_acquire);
  previous_ = detail::g_plan.load(std::memory_order_acquire);
  set_plan(plan_.get());
}

ScopedPlan::ScopedPlan(std::string_view spec_text) {
  const auto spec = Spec::parse(spec_text);
  if (!spec)
    throw std::invalid_argument{"ScopedPlan: malformed fault spec '" +
                                std::string{spec_text} + "'"};
  plan_ = std::make_unique<Plan>(*spec);
  previous_state_ = detail::g_state.load(std::memory_order_acquire);
  previous_ = detail::g_plan.load(std::memory_order_acquire);
  set_plan(plan_.get());
}

ScopedPlan::~ScopedPlan() {
  detail::g_plan.store(previous_, std::memory_order_release);
  detail::g_state.store(previous_state_, std::memory_order_release);
}

}  // namespace cs::fault
