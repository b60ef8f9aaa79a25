// Extension of §5.1's cost caveat: the latency/cost frontier of the
// optimal k-region deployments. The paper notes that inter-region charges
// and single-region storage push tenants toward fewer regions; this bench
// quantifies the marginal dollars per millisecond as k grows.
#include "bench_common.h"

#include "analysis/cost.h"
#include "util/table.h"

int main() {
  using namespace cs;
  bench::print_header("Extension: k-region cost/latency frontier");
  auto study = core::Study{bench::default_config(200)};
  const auto frontier = analysis::cost_latency_frontier(study.campaign());

  util::Table t{{"k", "avg RTT (ms)", "compute $/mo", "replication $/mo",
                 "total $/mo", "$ per ms saved"}};
  for (const auto& cost : frontier)
    t.add(cost.k, cost.avg_rtt_ms, cost.compute_usd, cost.replication_usd,
          cost.total_usd,
          cost.k == 1
              ? std::string{"-"}
              : (cost.usd_per_ms_saved < 0
                     ? std::string{"inf"}
                     : util::fmt("{:.0f}", cost.usd_per_ms_saved)));
  std::cout << t.render();
  std::cout << "\n(egress is constant across k; the knee where $/ms "
               "explodes is where the paper's cost caveat bites)\n";
  return 0;
}
