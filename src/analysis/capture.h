#pragma once

#include <map>
#include <string>
#include <vector>

#include "analysis/ranges.h"
#include "proto/logs.h"
#include "util/cdf.h"

/// §3: packet-capture analytics — Tables 1/2/5/6 and Figure 3, computed
/// from Bro-style logs over assembled flows.
namespace cs::analysis {

/// Table 1 + Table 2 in one structure.
struct ProtocolReport {
  struct Share {
    std::uint64_t bytes = 0;
    std::uint64_t flows = 0;
  };
  /// Per cloud, per service (Table 2); the kind index also totals
  /// Table 1's cloud split.
  std::map<std::string, std::map<std::string, Share>> cloud_service;
  Share ec2_total;
  Share azure_total;
  Share total;
};

/// Table 5 row: one domain's HTTP(S) traffic volume.
struct DomainVolumeRow {
  std::string domain;
  std::uint64_t bytes = 0;
  double percent_of_web = 0.0;  ///< of total HTTP(S) bytes, both clouds
  std::size_t alexa_rank = 0;   ///< 0 when not in the ranked universe
};

/// Table 6 row.
struct ContentTypeRow {
  std::string content_type;
  std::uint64_t bytes = 0;  ///< sum of Content-Length
  double percent = 0.0;
  double mean_kb = 0.0;
  double max_mb = 0.0;
};

struct CaptureReport {
  ProtocolReport protocols;
  std::vector<DomainVolumeRow> top_ec2_domains;
  std::vector<DomainVolumeRow> top_azure_domains;
  std::size_t unique_domains_ec2 = 0;
  std::size_t unique_domains_azure = 0;
  std::size_t domains_in_alexa = 0;
  std::vector<ContentTypeRow> content_types;

  /// Figure 3 inputs.
  util::Cdf http_flows_per_domain_ec2;
  util::Cdf http_flows_per_domain_azure;
  util::Cdf https_flows_per_cn_ec2;
  util::Cdf https_flows_per_cn_azure;
  util::Cdf http_flow_size_ec2;
  util::Cdf http_flow_size_azure;
  util::Cdf https_flow_size_ec2;
  util::Cdf https_flow_size_azure;
  /// Share of HTTP flows carried by the 100 busiest domains.
  double top100_http_flow_share_ec2 = 0.0;
  double top100_http_flow_share_azure = 0.0;
};

/// Reduces a hostname to its registered domain ("a.b.example.com" ->
/// "example.com"; certificate wildcards are stripped first).
std::string registered_domain(std::string_view hostname);

/// Runs the full capture analysis. `rank_of` maps a registered domain to
/// its Alexa-style rank (empty map = no rank joins).
CaptureReport analyze_capture(
    const proto::TraceLogs& logs, const CloudRanges& ranges,
    const std::map<std::string, std::size_t>& rank_of = {});

}  // namespace cs::analysis
