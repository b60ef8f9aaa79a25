// Reproduces Table 13: veracity of the latency method against the
// address-proximity labels (the paper's proxy truth; overall error 5.7%),
// plus our simulator-only extra: both methods scored against real ground
// truth. Ablation: proximity coverage vs sample count (DESIGN.md #4).
#include "bench_common.h"

#include "carto/proximity.h"
#include "util/table.h"

int main() {
  using namespace cs;
  bench::print_header("Table 13: latency vs proximity veracity");
  auto study = core::Study{bench::default_config()};
  const auto& zones = study.zone_study();
  std::cout << core::render_table13(zones);
  std::cout << util::fmt(
      "\nvs simulator ground truth: latency {:.1f}% correct, proximity "
      "{:.1f}% correct; combined identified {:.1f}% of instances (paper: "
      "87.0%)\n",
      100.0 * zones.latency_accuracy_vs_truth,
      100.0 * zones.proximity_accuracy_vs_truth,
      100.0 * zones.combined_identified_fraction);

  bench::print_header("Ablation: proximity samples vs /16 coverage");
  util::Table ablation{{"sampled instances", "labeled /16 blocks"}};
  for (const std::size_t samples : {100ul, 400ul, 1200ul, 2400ul, 5000ul}) {
    auto world_config = bench::default_config(50).world;
    synth::World world{world_config};
    cloud::Provider ec2 = world.ec2();
    carto::ProximityEstimator estimator{
        ec2, {.seed = 5, .total_samples = samples}};
    ablation.add(samples, estimator.labeled_blocks());
  }
  std::cout << ablation.render();
  return 0;
}
