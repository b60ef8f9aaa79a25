#pragma once

#include <optional>
#include <string>

#include "cloud/provider.h"
#include "net/prefix_set.h"

/// The "published IP ranges" view of the clouds — what the paper
/// downloaded from the EC2 forum post and the Azure datacenter-range
/// page, including CloudFront's distinct block.
namespace cs::analysis {

struct IpClassification {
  enum class Kind { kEc2, kAzure, kCloudFront, kOther };
  Kind kind = Kind::kOther;
  std::string region;  ///< empty for CloudFront / Other
};

class CloudRanges {
 public:
  /// Snapshots the published ranges of both providers.
  CloudRanges(const cloud::Provider& ec2, const cloud::Provider& azure);

  IpClassification classify(net::Ipv4 addr) const;
  bool is_ec2(net::Ipv4 addr) const {
    return classify(addr).kind == IpClassification::Kind::kEc2;
  }
  bool is_azure(net::Ipv4 addr) const {
    return classify(addr).kind == IpClassification::Kind::kAzure;
  }
  bool is_cloudfront(net::Ipv4 addr) const {
    return classify(addr).kind == IpClassification::Kind::kCloudFront;
  }
  /// Region attribution (EC2 or Azure region name), if any.
  std::optional<std::string> region_of(net::Ipv4 addr) const;

 private:
  net::PrefixMap<std::string> ec2_;
  net::PrefixMap<std::string> azure_;
  net::Cidr cloudfront_;
};

}  // namespace cs::analysis
