// Reproduces Table 16: downstream-ISP counts per region and zone, plus
// the uneven route spread (up to ~1/3 of routes through one ISP) and the
// single-ISP failure impact that motivates multi-region deployments.
#include "bench_common.h"

#include "internet/vantage.h"
#include "util/table.h"

int main() {
  using namespace cs;
  bench::print_header("Table 16: downstream ISP diversity");
  auto study = core::Study{bench::default_config(200)};
  std::cout << core::render_table16(study.isp_study());

  bench::print_header("Single-ISP failure impact (extension of §5.2)");
  const auto vantages = internet::planetlab_vantages(100);
  cloud::Provider ec2 = study.world().ec2();
  const auto impacts = analysis::single_isp_failure_impact(
      ec2, study.as_topology(), vantages);
  util::Table t{{"Region", "failed AS", "1-region unreachable",
                 "with failover region"}};
  for (const auto& impact : impacts)
    t.add(impact.region, impact.failed_asn,
          util::fmt("{:.0f}%", 100.0 * impact.single_region_unreachable),
          util::fmt("{:.0f}%", 100.0 * impact.multi_region_unreachable));
  std::cout << t.render();
  return 0;
}
