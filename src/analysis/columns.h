#pragma once

#include <cstdint>
#include <vector>

#include "analysis/dataset.h"
#include "util/arena.h"

/// Columnar (SoA) form of the Alexa dataset.
///
/// AlexaDataset is the working representation every analysis consumes: a
/// vector of structs whose owning strings repeat each domain name once
/// per subdomain. At paper scale (1M domains / ~34M subdomains) those
/// repeats dominate memory, so the snapshot codec and the mid-stage
/// partial checkpoints use this layout instead: every distinct name is
/// interned once in a StringArena and referenced by u32 id, per-field
/// data lives in parallel columns, and variable-length attachments are
/// flattened into shared pools addressed by [off[i], off[i+1]) ranges.
/// Both forms hold only what the analyses read: a subdomain's addresses,
/// CNAME targets, name servers and flags, not the record chains its
/// lookups returned; its domain's rank lives on the domain row.
///
/// The conversion is exactly lossless: to_dataset(from_dataset(d)) == d
/// field for field (pinned by snap_codec_test), so the columnar form can
/// sit on either side of a snapshot without changing study results.
namespace cs::analysis {

struct DatasetColumns {
  /// Interned presentation-format names. Ids are assigned in column scan
  /// order by from_dataset / the codec, so equal datasets produce equal
  /// arenas (and equal snapshot bytes).
  util::StringArena names;

  /// Parallel columns, one entry per cloud subdomain. Every *_off column
  /// holds count+1 offsets (off[0] = 0) into its flattened pool, so a
  /// default-constructed DatasetColumns is the empty dataset's columns.
  struct Subdomains {
    std::vector<std::uint32_t> name;    ///< arena ids
    std::vector<std::uint32_t> domain;  ///< arena ids
    std::vector<std::uint8_t> flags;    ///< kDirectA .. kCloudFront bits
    std::vector<std::uint64_t> address_off{0};
    std::vector<net::Ipv4> address_pool;
    std::vector<std::uint64_t> cname_off{0};
    std::vector<std::uint32_t> cname_pool;  ///< arena ids
    /// Name servers: subdomain i owns ns entries [ns_off[i], ns_off[i+1]);
    /// ns entry j owns addresses [ns_addr_off[j], ns_addr_off[j+1]).
    std::vector<std::uint64_t> ns_off{0};
    std::vector<std::uint32_t> ns_name_pool;  ///< arena ids
    std::vector<std::uint64_t> ns_addr_off{0};
    std::vector<net::Ipv4> ns_addr_pool;
  } subdomains;

  /// Parallel columns, one entry per probed domain.
  struct Domains {
    std::vector<std::uint32_t> name;  ///< arena ids
    std::vector<std::uint64_t> rank;
    std::vector<std::uint8_t> axfr;
    std::vector<std::uint64_t> subdomains_probed;
    std::vector<std::uint64_t> cloud_off{0};
    std::vector<std::uint64_t> cloud_pool;  ///< indices into subdomain columns
    std::vector<std::uint64_t> other_only;
    std::vector<std::uint64_t> unresolved;
    /// Failed-lookup ledgers as sparse (rcode, count) runs in rcode index
    /// order.
    std::vector<std::uint64_t> failed_off{0};
    std::vector<std::uint8_t> failed_rcode_pool;
    std::vector<std::uint64_t> failed_count_pool;
  } domains;

  std::uint64_t dns_queries_spent = 0;

  /// Bit positions in Subdomains::flags.
  enum Flag : std::uint8_t {
    kDirectA = 1u << 0,
    kOtherAddress = 1u << 1,
    kEc2Address = 1u << 2,
    kAzureAddress = 1u << 3,
    kCloudFrontAddress = 1u << 4,
  };

  std::size_t subdomain_count() const { return subdomains.name.size(); }
  std::size_t domain_count() const { return domains.name.size(); }

  static DatasetColumns from_dataset(const AlexaDataset& dataset);

  /// Rebuilds the row-oriented dataset. Throws std::invalid_argument if a
  /// stored name fails to re-parse (possible only for corrupt columns).
  AlexaDataset to_dataset() const;
};

/// A chunked dataset build captured mid-stage: columns for every domain
/// before `next_domain`, checkpointed by core::Study so a killed
/// paper-scale run resumes where it stopped instead of re-probing.
struct PartialDataset {
  DatasetColumns columns;
  std::uint64_t next_domain = 0;
};

}  // namespace cs::analysis
