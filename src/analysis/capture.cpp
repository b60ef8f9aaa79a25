#include "analysis/capture.h"

#include <algorithm>

#include "util/strings.h"

namespace cs::analysis {
namespace {

/// Table 5 lists each cloud's 15 domains with the most HTTP(S) bytes.
constexpr std::size_t kTopDomains = 15;

/// Which cloud the flow's remote endpoint belongs to; the capture filter
/// kept only cloud-destined flows, so "neither" means skip. The remote
/// side is the destination of university-initiated flows.
std::optional<std::string> cloud_of(const proto::ConnRecord& conn,
                                    const CloudRanges& ranges) {
  const auto c = ranges.classify(conn.tuple.dst.addr);
  switch (c.kind) {
    case IpClassification::Kind::kEc2:
    case IpClassification::Kind::kCloudFront:
      return "EC2";
    case IpClassification::Kind::kAzure:
      return "Azure";
    case IpClassification::Kind::kOther:
      return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace

std::string registered_domain(std::string_view hostname) {
  std::string host = util::to_lower(hostname);
  if (host.rfind("*.", 0) == 0) host = host.substr(2);
  const auto labels = util::split_nonempty(host, '.');
  if (labels.size() <= 2) return host;
  return std::string{labels[labels.size() - 2]} + "." +
         std::string{labels[labels.size() - 1]};
}

CaptureReport analyze_capture(
    const proto::TraceLogs& logs, const CloudRanges& ranges,
    const std::map<std::string, std::size_t>& rank_of) {
  CaptureReport report;

  // Per-domain volume and flow-count accumulators.
  std::map<std::string, std::uint64_t> web_bytes_ec2, web_bytes_azure;
  std::map<std::string, std::size_t> http_flows_ec2, http_flows_azure;
  std::map<std::string, std::size_t> https_flows_ec2, https_flows_azure;
  std::uint64_t total_web_bytes = 0;

  for (const auto& conn : logs.conns) {
    const auto cloud = cloud_of(conn, ranges);
    if (!cloud) continue;
    const auto service = proto::to_string(conn.service);

    auto& share = report.protocols.cloud_service[*cloud][service];
    share.bytes += conn.bytes;
    ++share.flows;
    auto& cloud_total = *cloud == "EC2" ? report.protocols.ec2_total
                                        : report.protocols.azure_total;
    cloud_total.bytes += conn.bytes;
    ++cloud_total.flows;
    report.protocols.total.bytes += conn.bytes;
    ++report.protocols.total.flows;

    const bool is_http = conn.service == proto::Service::kHttp;
    const bool is_https = conn.service == proto::Service::kHttps;
    if (!is_http && !is_https) continue;
    total_web_bytes += conn.bytes;

    if (!conn.hostname) continue;
    const auto domain = registered_domain(*conn.hostname);
    auto& volume = *cloud == "EC2" ? web_bytes_ec2 : web_bytes_azure;
    volume[domain] += conn.bytes;
    if (is_http) {
      auto& flows = *cloud == "EC2" ? http_flows_ec2 : http_flows_azure;
      ++flows[domain];
      (*cloud == "EC2" ? report.http_flow_size_ec2
                       : report.http_flow_size_azure)
          .add(static_cast<double>(conn.bytes));
    } else {
      auto& flows = *cloud == "EC2" ? https_flows_ec2 : https_flows_azure;
      ++flows[domain];
      (*cloud == "EC2" ? report.https_flow_size_ec2
                       : report.https_flow_size_azure)
          .add(static_cast<double>(conn.bytes));
    }
  }

  report.unique_domains_ec2 = web_bytes_ec2.size();
  report.unique_domains_azure = web_bytes_azure.size();
  for (const auto& [domain, bytes] : web_bytes_ec2)
    if (rank_of.contains(domain)) ++report.domains_in_alexa;
  for (const auto& [domain, bytes] : web_bytes_azure)
    if (rank_of.contains(domain)) ++report.domains_in_alexa;

  auto emit_top = [&](const std::map<std::string, std::uint64_t>& volumes,
                      std::vector<DomainVolumeRow>& out) {
    std::vector<std::pair<std::uint64_t, std::string>> sorted;
    for (const auto& [domain, bytes] : volumes)
      sorted.emplace_back(bytes, domain);
    std::sort(sorted.rbegin(), sorted.rend());
    for (std::size_t i = 0; i < std::min(kTopDomains, sorted.size()); ++i) {
      DomainVolumeRow row;
      row.domain = sorted[i].second;
      row.bytes = sorted[i].first;
      row.percent_of_web =
          total_web_bytes
              ? 100.0 * static_cast<double>(row.bytes) / total_web_bytes
              : 0.0;
      if (const auto it = rank_of.find(row.domain); it != rank_of.end())
        row.alexa_rank = it->second;
      out.push_back(std::move(row));
    }
  };
  emit_top(web_bytes_ec2, report.top_ec2_domains);
  emit_top(web_bytes_azure, report.top_azure_domains);

  // Figure 3a/3b: flows per domain / per common name.
  auto fill_flow_cdf = [](const std::map<std::string, std::size_t>& counts,
                          util::Cdf& cdf) {
    for (const auto& [domain, flows] : counts)
      cdf.add(static_cast<double>(flows));
  };
  fill_flow_cdf(http_flows_ec2, report.http_flows_per_domain_ec2);
  fill_flow_cdf(http_flows_azure, report.http_flows_per_domain_azure);
  fill_flow_cdf(https_flows_ec2, report.https_flows_per_cn_ec2);
  fill_flow_cdf(https_flows_azure, report.https_flows_per_cn_azure);

  auto top100_share = [](const std::map<std::string, std::size_t>& counts) {
    std::vector<std::size_t> flows;
    std::size_t total = 0;
    for (const auto& [domain, n] : counts) {
      flows.push_back(n);
      total += n;
    }
    std::sort(flows.rbegin(), flows.rend());
    std::size_t top = 0;
    for (std::size_t i = 0; i < std::min<std::size_t>(100, flows.size()); ++i)
      top += flows[i];
    return total ? static_cast<double>(top) / total : 0.0;
  };
  report.top100_http_flow_share_ec2 = top100_share(http_flows_ec2);
  report.top100_http_flow_share_azure = top100_share(http_flows_azure);

  // Table 6: content types by Content-Length.
  struct TypeAcc {
    std::uint64_t bytes = 0;
    std::uint64_t count = 0;
    std::uint64_t max = 0;
  };
  std::map<std::string, TypeAcc> types;
  std::uint64_t type_total = 0;
  for (const auto& http : logs.http) {
    if (!http.content_type || !http.content_length) continue;
    auto& acc = types[*http.content_type];
    acc.bytes += *http.content_length;
    ++acc.count;
    acc.max = std::max(acc.max, *http.content_length);
    type_total += *http.content_length;
  }
  for (const auto& [type, acc] : types) {
    ContentTypeRow row;
    row.content_type = type;
    row.bytes = acc.bytes;
    row.percent =
        type_total ? 100.0 * static_cast<double>(acc.bytes) / type_total
                   : 0.0;
    row.mean_kb = acc.count ? static_cast<double>(acc.bytes) / acc.count /
                                  1024.0
                            : 0.0;
    row.max_mb = static_cast<double>(acc.max) / (1024.0 * 1024.0);
    report.content_types.push_back(std::move(row));
  }
  std::sort(report.content_types.begin(), report.content_types.end(),
            [](const ContentTypeRow& a, const ContentTypeRow& b) {
              return a.bytes > b.bytes;
            });
  if (report.content_types.size() > 10) report.content_types.resize(10);

  return report;
}

}  // namespace cs::analysis
