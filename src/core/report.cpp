#include "core/report.h"

#include <algorithm>
#include <set>

#include "carto/proximity.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "util/format.h"
#include "util/table.h"

namespace cs::core {
namespace {

using util::Table;

double pct(std::uint64_t part, std::uint64_t whole) {
  return whole ? 100.0 * static_cast<double>(part) /
                     static_cast<double>(whole)
               : 0.0;
}

}  // namespace

std::string render_table1(const analysis::CaptureReport& report) {
  const auto& p = report.protocols;
  Table t{{"Cloud", "Bytes %", "Flows %"}};
  t.caption("Table 1: traffic volume and flows per cloud");
  t.add("EC2", pct(p.ec2_total.bytes, p.total.bytes),
        pct(p.ec2_total.flows, p.total.flows));
  t.add("Azure", pct(p.azure_total.bytes, p.total.bytes),
        pct(p.azure_total.flows, p.total.flows));
  t.add("Total", 100.0, 100.0);
  return t.render();
}

std::string render_table2(const analysis::CaptureReport& report) {
  const auto& p = report.protocols;
  static const char* kServices[] = {"ICMP",        "HTTP (TCP)",
                                    "HTTPS (TCP)", "DNS (UDP)",
                                    "Other (TCP)", "Other (UDP)"};
  Table t{{"Protocol", "EC2 Bytes %", "EC2 Flows %", "Azure Bytes %",
           "Azure Flows %", "Overall Bytes %", "Overall Flows %"}};
  t.caption("Table 2: protocol mix per cloud");
  for (const auto* service : kServices) {
    analysis::ProtocolReport::Share ec2, azure;
    if (const auto c = p.cloud_service.find("EC2");
        c != p.cloud_service.end()) {
      if (const auto s = c->second.find(service); s != c->second.end())
        ec2 = s->second;
    }
    if (const auto c = p.cloud_service.find("Azure");
        c != p.cloud_service.end()) {
      if (const auto s = c->second.find(service); s != c->second.end())
        azure = s->second;
    }
    t.add(service, pct(ec2.bytes, p.ec2_total.bytes),
          pct(ec2.flows, p.ec2_total.flows),
          pct(azure.bytes, p.azure_total.bytes),
          pct(azure.flows, p.azure_total.flows),
          pct(ec2.bytes + azure.bytes, p.total.bytes),
          pct(ec2.flows + azure.flows, p.total.flows));
  }
  return t.render();
}

std::string render_table3(const analysis::CloudUsageReport& report) {
  Table t{{"Provider", "# Domains", "(%)", "# Subdomains", "(%)"}};
  t.caption("Table 3: breakdown by EC2 / Azure / other hosting");
  const auto& d = report.domains;
  const auto& s = report.subdomains;
  auto row = [&](const char* name, std::size_t dn, std::size_t sn) {
    t.add(name, dn, pct(dn, d.total), sn, pct(sn, s.total));
  };
  row("EC2 only", d.ec2_only, s.ec2_only);
  row("EC2 + Other", d.ec2_plus_other, s.ec2_plus_other);
  row("Azure only", d.azure_only, s.azure_only);
  row("Azure + Other", d.azure_plus_other, s.azure_plus_other);
  row("EC2 + Azure", d.ec2_plus_azure, s.ec2_plus_azure);
  row("Total", d.total, s.total);
  row("EC2 total", d.ec2_total(), s.ec2_total());
  row("Azure total", d.azure_total(), s.azure_total());
  return t.render();
}

std::string render_table4(const analysis::CloudUsageReport& report) {
  Table t{{"Rank", "Domain", "Total # Subdom", "# EC2 Subdom"}};
  t.caption("Table 4: top EC2-using domains by Alexa rank");
  for (const auto& row : report.top_ec2_domains)
    t.add(row.rank, row.domain, row.total_subdomains, row.cloud_subdomains);
  return t.render();
}

std::string render_table5(const analysis::CaptureReport& report) {
  Table t{{"EC2 Domain", "Rank", "Web %", "Azure Domain", "Rank", "Web %"}};
  t.caption("Table 5: domains with highest HTTP(S) traffic volume");
  const auto rows = std::max(report.top_ec2_domains.size(),
                             report.top_azure_domains.size());
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<std::string> cells(6);
    if (i < report.top_ec2_domains.size()) {
      const auto& r = report.top_ec2_domains[i];
      cells[0] = r.domain;
      cells[1] = r.alexa_rank ? std::to_string(r.alexa_rank) : "-";
      cells[2] = util::fmt("{:.2f}", r.percent_of_web);
    }
    if (i < report.top_azure_domains.size()) {
      const auto& r = report.top_azure_domains[i];
      cells[3] = r.domain;
      cells[4] = r.alexa_rank ? std::to_string(r.alexa_rank) : "-";
      cells[5] = util::fmt("{:.2f}", r.percent_of_web);
    }
    t.row(std::move(cells));
  }
  return t.render();
}

std::string render_table6(const analysis::CaptureReport& report) {
  Table t{{"Content type", "Bytes %", "mean (KB)", "max (MB)"}};
  t.caption("Table 6: HTTP content types by byte count");
  for (const auto& row : report.content_types)
    t.add(row.content_type, row.percent, row.mean_kb, row.max_mb);
  return t.render();
}

std::string render_table7(const analysis::PatternReport& report) {
  Table t{{"Cloud", "Feature", "# Domains", "# Subdomains", "# Inst."}};
  t.caption("Table 7: summary of cloud feature usage");
  auto row = [&](const char* cloud, const char* feature,
                 const analysis::FeatureUsage& usage) {
    t.add(cloud, feature, usage.domains, usage.subdomains, usage.instances);
  };
  row("EC2", "VM", report.ec2_vm);
  row("EC2", "ELB", report.ec2_elb);
  row("EC2", "Beanstalk (w/ ELB)", report.ec2_beanstalk);
  row("EC2", "Heroku (w/ ELB)", report.ec2_heroku_elb);
  row("EC2", "Heroku (no ELB)", report.ec2_heroku_no_elb);
  row("Azure", "CS", report.azure_cs);
  row("Azure", "TM", report.azure_tm);
  row("EC2", "CloudFront", report.cloudfront);
  row("Azure", "Azure CDN", report.azure_cdn);
  t.add("EC2", "(unclassified)", "-", report.ec2_unclassified_subdomains,
        "-");
  t.add("Azure", "(unclassified)", "-",
        report.azure_unclassified_subdomains, "-");
  return t.render();
}

std::string render_table8(Study& study) {
  const auto rows =
      analysis::analyze_top_domain_features(study.dataset(), study.patterns());
  Table t{{"Rank", "Domain", "# Cloud Subdom", "VM", "PaaS", "ELB",
           "ELB IPs", "CDN"}};
  t.caption("Table 8: cloud feature usage of top EC2-using domains");
  for (const auto& row : rows)
    t.add(row.rank, row.domain, row.cloud_subdomains, row.vm, row.paas,
          row.elb, row.elb_ips, row.cdn);
  return t.render();
}

std::string render_table9(const analysis::RegionReport& report) {
  Table t{{"Region", "# Dom", "# Subdom"}};
  t.caption("Table 9: EC2 and Azure region usage");
  // The paper lists the EC2 block first, then Azure.
  for (const bool want_ec2 : {true, false}) {
    for (const auto& [region, subdomains] : report.subdomains_per_region) {
      if ((region.rfind("ec2.", 0) == 0) != want_ec2) continue;
      std::size_t domains = 0;
      if (const auto it = report.domains_per_region.find(region);
          it != report.domains_per_region.end())
        domains = it->second;
      t.add(region, domains, subdomains);
    }
  }
  return t.render();
}

std::string render_table10(Study& study) {
  const auto rows =
      analysis::analyze_top_domain_regions(study.dataset(), study.regions());
  Table t{{"Rank", "Domain", "# Cloud Subdom", "Total # Regions", "k=1",
           "k=2"}};
  t.caption("Table 10: region usage of top cloud-using domains");
  for (const auto& row : rows)
    t.add(row.rank, row.domain, row.cloud_subdomains, row.total_regions,
          row.k1, row.k2);
  return t.render();
}

std::string render_table11(Study& study) {
  cloud::Provider ec2 = study.world().ec2();
  auto& model = study.wan_model();
  const std::string region = "ec2.us-east-1";
  const auto& probe = ec2.launch({.account = "table11",
                                  .region = region,
                                  .zone_label = 0,
                                  .type = "t1.micro"});
  static const char* kTypes[] = {"t1.micro", "m1.medium", "m1.xlarge",
                                 "m3.2xlarge"};
  Table t{{"Instance type", "zone a (least/med ms)", "zone b",
           "zone c"}};
  t.caption(
      "Table 11: RTT from a us-east-1a micro instance to instances by type "
      "and zone");
  double clock = 0.0;
  for (const auto* type : kTypes) {
    std::vector<std::string> cells;
    cells.push_back(type);
    for (int label = 0; label < 3; ++label) {
      const auto& target = ec2.launch({.account = "table11",
                                       .region = region,
                                       .zone_label = label,
                                       .type = type});
      std::vector<double> samples;
      for (int i = 0; i < 10; ++i) {
        clock += 1.0;
        samples.push_back(
            model.instance_rtt_sample(ec2, probe, target, clock));
      }
      std::sort(samples.begin(), samples.end());
      cells.push_back(util::fmt("{:.1f} / {:.1f}", samples.front(),
                                samples[samples.size() / 2]));
    }
    t.row(std::move(cells));
  }
  return t.render();
}

std::string render_table12(const analysis::ZoneStudy& study) {
  Table t{{"Region", "# tgt IPs", "# resp.", "1st zn", "2nd zn", "3rd zn",
           "% unk"}};
  t.caption("Table 12: latency-method zone estimates (T = 1.1 ms)");
  for (const auto& row : study.latency_rows) {
    std::vector<std::string> cells = {row.region,
                                      std::to_string(row.target_ips),
                                      std::to_string(row.responded)};
    for (int zone = 0; zone < 3; ++zone) {
      if (const auto it = row.per_zone.find(zone); it != row.per_zone.end())
        cells.push_back(std::to_string(it->second));
      else
        cells.push_back("N/A");
    }
    cells.push_back(util::fmt("{:.1f}", 100.0 * row.unknown_rate()));
    t.row(std::move(cells));
  }
  return t.render();
}

std::string render_table13(const analysis::ZoneStudy& study) {
  Table t{{"Region", "count", "match", "unknown", "mismat.", "error rate"}};
  t.caption("Table 13: veracity of latency-based zone identification");
  std::size_t count = 0, match = 0, unknown = 0, mismatch = 0;
  for (const auto& row : study.veracity_rows) {
    count += row.total;
    match += row.match;
    unknown += row.unknown;
    mismatch += row.mismatch;
  }
  analysis::VeracityRow all;
  all.region = "all";
  all.total = count;
  all.match = match;
  all.unknown = unknown;
  all.mismatch = mismatch;
  auto emit = [&t](const analysis::VeracityRow& row) {
    t.add(row.region, row.total, row.match, row.unknown, row.mismatch,
          util::fmt("{:.1f}%", 100.0 * row.error_rate()));
  };
  emit(all);
  for (const auto& row : study.veracity_rows) emit(row);
  return t.render();
}

std::string render_table14(const analysis::ZoneStudy& study) {
  Table t{{"Region", "zone", "# Dom", "# Subdom"}};
  t.caption("Table 14: estimated (sub)domains per EC2 zone");
  for (const auto& [region, usage] : study.usage_per_region) {
    for (const auto& [zone, subdomains] : usage.subdomains) {
      std::size_t domains = 0;
      if (const auto it = usage.domains.find(zone);
          it != usage.domains.end())
        domains = it->second.size();
      t.add(region, zone, domains, subdomains);
    }
  }
  return t.render();
}

std::string render_table15(Study& study) {
  const auto& dataset = study.dataset();
  const auto& zones = study.zone_study();
  std::vector<std::pair<std::size_t, const analysis::DomainObservation*>>
      ranked;
  for (const auto& domain : dataset.domains)
    if (!domain.cloud_subdomains.empty())
      ranked.emplace_back(domain.rank, &domain);
  std::sort(ranked.begin(), ranked.end());

  Table t{{"Rank", "Domain", "# subdom", "# zones", "k=1", "k=2", "k=3+"}};
  t.caption("Table 15: zone usage estimates for top EC2-using domains");
  std::size_t emitted = 0;
  for (const auto& [rank, domain] : ranked) {
    if (emitted >= 10) break;
    std::set<int> all_zones;
    std::size_t k1 = 0, k2 = 0, k3 = 0;
    bool any_ec2 = false;
    for (const auto idx : domain->cloud_subdomains) {
      const auto& zone_set = zones.subdomain_zones[idx];
      any_ec2 |= dataset.cloud_subdomains[idx].has_ec2_address;
      if (zone_set.empty()) continue;
      all_zones.insert(zone_set.begin(), zone_set.end());
      if (zone_set.size() == 1)
        ++k1;
      else if (zone_set.size() == 2)
        ++k2;
      else
        ++k3;
    }
    if (!any_ec2) continue;
    t.add(rank, domain->name.to_string(), domain->cloud_subdomains.size(),
          all_zones.size(), k1, k2, k3);
    ++emitted;
  }
  return t.render();
}

std::string render_table16(const analysis::IspStudy& study) {
  Table t{{"Region", "AZ1", "AZ2", "AZ3", "max single-ISP share"}};
  t.caption("Table 16: downstream ISPs per EC2 region and zone");
  for (const auto& row : study.rows) {
    std::vector<std::string> cells = {row.region};
    for (int zone = 0; zone < 3; ++zone) {
      if (const auto it = row.per_zone.find(zone); it != row.per_zone.end())
        cells.push_back(std::to_string(it->second));
      else
        cells.push_back("n/a");
    }
    cells.push_back(util::fmt("{:.0f}%", 100.0 * row.max_single_isp_share));
    t.row(std::move(cells));
  }
  return t.render();
}

std::string render_fig3(const analysis::CaptureReport& report) {
  std::string out = "Figure 3: flow count and size CDFs\n";
  const std::vector<std::pair<std::string, const util::Cdf*>> count_series =
      {{"EC2", &report.http_flows_per_domain_ec2},
       {"Azure", &report.http_flows_per_domain_azure}};
  out += "(a) HTTP flows per domain\n" +
         util::render_cdf_comparison(count_series, 10);
  const std::vector<std::pair<std::string, const util::Cdf*>> cn_series = {
      {"EC2", &report.https_flows_per_cn_ec2},
      {"Azure", &report.https_flows_per_cn_azure}};
  out += "(b) HTTPS flows per common name\n" +
         util::render_cdf_comparison(cn_series, 10);
  const std::vector<std::pair<std::string, const util::Cdf*>> http_size = {
      {"EC2", &report.http_flow_size_ec2},
      {"Azure", &report.http_flow_size_azure}};
  out += "(c) HTTP flow size (bytes)\n" +
         util::render_cdf_comparison(http_size, 10);
  const std::vector<std::pair<std::string, const util::Cdf*>> https_size = {
      {"EC2", &report.https_flow_size_ec2},
      {"Azure", &report.https_flow_size_azure}};
  out += "(d) HTTPS flow size (bytes)\n" +
         util::render_cdf_comparison(https_size, 10);
  return out;
}

std::string render_fig4(const analysis::PatternReport& report) {
  std::string out = "Figure 4: feature instances per subdomain\n";
  out += report.vm_instances_per_subdomain.to_tsv(12, "(a) VM instances");
  out += report.physical_elbs_per_subdomain.to_tsv(
      12, "(b) physical ELB instances");
  return out;
}

std::string render_fig5(const analysis::PatternReport& report) {
  return "Figure 5:\n" + report.name_servers_per_subdomain.to_tsv(
                             12, "DNS servers per subdomain");
}

std::string render_fig6(const analysis::RegionReport& report) {
  std::string out = "Figure 6: regions per (sub)domain\n";
  out += report.regions_per_ec2_subdomain.to_tsv(8, "(a) EC2 subdomains");
  out += report.regions_per_azure_subdomain.to_tsv(8,
                                                   "(a) Azure subdomains");
  out += report.regions_per_ec2_domain.to_tsv(8, "(b) EC2 domains (avg)");
  out += report.regions_per_azure_domain.to_tsv(8,
                                                "(b) Azure domains (avg)");
  return out;
}

std::string render_fig7(Study& study) {
  cloud::Provider ec2 = study.world().ec2();
  carto::ProximityEstimator proximity{
      ec2,
      carto::ProximityEstimator::Options{.seed = study.config().world.seed ^
                                                 0xF16}};
  std::string out =
      "Figure 7: internal /16 blocks by merged zone label "
      "(second octet -> zone)\n";
  for (const auto& point : proximity.sample_map())
    out += util::fmt("10.{}.0.0/16\tzone-{}\n", point.internal_ip.octet(1),
                     point.merged_label);
  return out;
}

std::string render_fig8(const analysis::ZoneStudy& study) {
  std::string out = "Figure 8: zones per (sub)domain\n";
  out += study.zones_per_subdomain.to_tsv(8, "(a) subdomains");
  out += study.zones_per_domain.to_tsv(8, "(b) domains (avg)");
  out += util::fmt("one zone: {:.1f}%  two zones: {:.1f}%  3+: {:.1f}%\n",
                   100.0 * study.fraction_one_zone,
                   100.0 * study.fraction_two_zones,
                   100.0 * study.fraction_three_plus);
  return out;
}

std::string render_fig9_10(const analysis::ClientRegionAverages& averages) {
  Table lat{[&] {
    std::vector<std::string> headers = {"Vantage"};
    for (const auto& r : averages.region_names) headers.push_back(r);
    return headers;
  }()};
  lat.caption("Figure 10: average RTT (ms) per vantage and region");
  Table tput{[&] {
    std::vector<std::string> headers = {"Vantage"};
    for (const auto& r : averages.region_names) headers.push_back(r);
    return headers;
  }()};
  tput.caption("Figure 9: average throughput (KB/s) per vantage and region");
  for (std::size_t v = 0; v < averages.vantage_names.size(); ++v) {
    std::vector<std::string> lat_cells = {averages.vantage_names[v]};
    std::vector<std::string> tput_cells = {averages.vantage_names[v]};
    for (std::size_t r = 0; r < averages.region_names.size(); ++r) {
      lat_cells.push_back(util::fmt("{:.0f}", averages.avg_rtt_ms[v][r]));
      tput_cells.push_back(
          util::fmt("{:.0f}", averages.avg_tput_kbps[v][r]));
    }
    lat.row(std::move(lat_cells));
    tput.row(std::move(tput_cells));
  }
  return tput.render() + "\n" + lat.render();
}

std::string render_fig11(const analysis::FlappingSeries& series) {
  std::string out = util::fmt(
      "Figure 11: best-region flapping (winner changed {} times over {} "
      "rounds)\nround\twinner\n",
      series.winner_changes, series.winner.size());
  for (std::size_t round = 0; round < series.winner.size();
       round += std::max<std::size_t>(1, series.winner.size() / 48)) {
    const int w = series.winner[round];
    out += util::fmt("{}\t{}\n", round,
                     w >= 0 ? series.region_names[w] : "(lost)");
  }
  return out;
}

std::string render_fig12(const std::vector<analysis::KRegionResult>& results) {
  Table t{{"k", "best regions (latency)", "avg RTT (ms)",
           "avg tput (KB/s)"}};
  t.caption("Figure 12: optimal k-region deployments");
  for (const auto& result : results) {
    std::string regions;
    for (const auto& r : result.best_regions) {
      if (!regions.empty()) regions += ", ";
      regions += r;
    }
    t.add(result.k, regions, result.avg_rtt_ms, result.avg_tput_kbps);
  }
  return t.render();
}

std::string render_data_quality(Study& study) {
  const auto& dataset = study.dataset();
  const auto& campaign = study.campaign();
  const auto snapshot = obs::MetricsRegistry::instance().snapshot();

  std::string head = "Fault plan: ";
  if (const auto* plan = fault::active_plan()) {
    const auto& s = plan->spec();
    head += util::fmt(
        "loss={} timeout={} truncate={} servfail={} corrupt={} "
        "vantage_drop={} stage_abort={} drop={} dup={} reorder={} "
        "delay_us={} jitter_us={} seed={}",
        s.loss, s.timeout, s.truncate, s.servfail, s.corrupt,
        s.vantage_drop, s.stage_abort, s.drop, s.dup, s.reorder, s.delay_us,
        s.jitter_us, s.seed);
  } else {
    head += "none (CS_FAULT unset)";
  }
  head += "\n";
  if (const auto& store = study.checkpoint_store())
    head += util::fmt("Checkpoints: {} (config hash 0x{:x})\n",
                      store->dir().string(), store->config_hash());
  else
    head += "Checkpoints: off (no --checkpoint / CS_CHECKPOINT)\n";

  Table t{{"Signal", "Count"}};
  t.caption("Data quality: losses, retries, and unresolved names");
  t.add("DNS queries spent", dataset.dns_queries_spent);
  t.add("DNS lookups failed", dataset.failed_lookup_count());
  // Aggregate the per-domain failure ledgers by reason. The ledger's
  // alphabetical-by-name visit order matches the std::map this code used
  // to build, keeping the report bytes unchanged.
  {
    analysis::FailedLookups by_reason;
    for (const auto& domain : dataset.domains)
      by_reason.merge(domain.failed_lookups);
    by_reason.for_each_named(
        [&t](dns::Rcode, const char* reason, std::uint64_t count) {
          t.add(std::string{"  failed with "} + reason, count);
        });
  }
  t.add("Unresolved subdomains", dataset.unresolved_subdomain_count());
  t.add("Resolver retries", snapshot.counter("dns.resolver.retries"));
  t.add("Resolver timeouts", snapshot.counter("dns.resolver.timeouts"));
  // The socket client's degradation ledger: an unsurvivable wire plan
  // (or a genuinely sick wire) shows up as accounted expirations, never
  // silent data loss.
  t.add("Socket retransmits", snapshot.counter("netio.client.retransmits"));
  t.add("Socket exchange expirations",
        snapshot.counter("netio.client.expirations"));
  t.add("Wire datagrams dropped", snapshot.counter("fault.wire.drop"));
  t.add("Wire datagrams duplicated", snapshot.counter("fault.wire.dup"));
  t.add("Wire datagrams corrupted", snapshot.counter("fault.wire.corrupt"));
  t.add("Injected DNS loss", snapshot.counter("fault.dns.loss"));
  t.add("Injected DNS timeouts", snapshot.counter("fault.dns.timeout"));
  t.add("Injected DNS truncations", snapshot.counter("fault.dns.truncate"));
  t.add("Injected DNS SERVFAILs", snapshot.counter("fault.dns.servfail"));
  t.add("Truncated capture frames", snapshot.counter("fault.pcap.truncated"));
  t.add("Corrupted capture frames", snapshot.counter("fault.pcap.corrupted"));
  t.add("Campaign vantage-rounds dropped", campaign.total_dropped_rounds());
  t.add("Injected stage aborts", snapshot.counter("fault.stage.abort"));

  // Per-stage supervision ledger: how each artifact came to be.
  Table stages{{"Stage", "Status", "Attempts", "Notes"}};
  stages.caption("Stage supervision: builds, resumes, and degradations");
  for (const auto& desc : Study::stage_table()) {
    const snap::StageRun* run = nullptr;
    for (const auto& r : study.stage_runs())
      if (r.stage == desc.name) run = &r;
    if (!run) {
      stages.add(desc.name, "not built", 0, "");
      continue;
    }
    const char* status = run->degraded       ? "DEGRADED"
                         : run->from_snapshot ? "resumed"
                                              : "built";
    stages.add(run->stage, status, run->attempts, run->last_error);
  }
  std::string rejected;
  if (const auto& store = study.checkpoint_store())
    for (const auto& event : store->events())
      if (event.kind == snap::Event::Kind::kRejected)
        rejected += util::fmt("Rejected snapshot '{}': {}\n", event.stage,
                              event.detail);
  return head + t.render() + "\n" + stages.render() + rejected;
}

}  // namespace cs::core
