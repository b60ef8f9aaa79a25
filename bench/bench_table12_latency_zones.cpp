// Reproduces Table 12: latency-method zone estimates per region at
// T = 1.1 ms, including the ap-northeast-1 pathology (no probe in one
// zone -> ~50% unknown). Ablation: threshold sweep showing the
// unknown-rate / error-rate trade-off (DESIGN.md ablation #1).
#include "bench_common.h"

#include "carto/latency_zone.h"
#include "util/table.h"

int main() {
  using namespace cs;
  bench::print_header("Table 12: latency-based zone identification");
  auto study = core::Study{bench::default_config()};
  std::cout << core::render_table12(study.zone_study());

  bench::print_header("Ablation: threshold T sweep (us-east-1 targets)");
  // Re-run the estimator at several thresholds over the same target set.
  auto config = bench::default_config(400);
  core::Study sweep_study{config};
  const auto& dataset = sweep_study.dataset();
  const auto& ranges = sweep_study.ranges();
  std::vector<net::Ipv4> targets;
  for (const auto& obs : dataset.cloud_subdomains)
    for (const auto addr : obs.addresses)
      if (ranges.region_of(addr).value_or("") == "ec2.us-east-1")
        targets.push_back(addr);

  util::Table ablation{{"T (ms)", "identified", "unknown", "error vs truth"}};
  // One provider copy for the whole sweep: each estimator adds its probe
  // fleet to it.
  cloud::Provider ec2 = sweep_study.world().ec2();
  for (const double threshold : {0.6, 0.9, 1.1, 1.5, 2.5}) {
    carto::LatencyZoneEstimator estimator{
        ec2, sweep_study.wan_model(),
        {.seed = 5, .threshold_ms = threshold}};
    std::size_t identified = 0, unknown = 0, wrong = 0;
    for (const auto addr : targets) {
      const auto estimate = estimator.estimate(addr, "ec2.us-east-1");
      if (!estimate.responded) continue;
      if (!estimate.zone_label) {
        ++unknown;
        continue;
      }
      ++identified;
      const auto truth =
          sweep_study.world().ec2().zone_of_public_ip(addr);
      if (truth && estimator.label_to_physical("ec2.us-east-1",
                                               *estimate.zone_label) != *truth)
        ++wrong;
    }
    ablation.add(threshold, identified, unknown,
                 util::fmt("{:.1f}%", identified ? 100.0 * wrong / identified
                                                 : 0.0));
  }
  std::cout << ablation.render();
  return 0;
}
