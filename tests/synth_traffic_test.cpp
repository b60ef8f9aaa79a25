#include "synth/traffic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>

#include "pcap/decode.h"
#include "pcap/file.h"
#include "pcap/flow.h"
#include "proto/logs.h"
#include "util/rng.h"

namespace cs::synth {
namespace {

/// Shared world + generated capture; generation dominates test time.
class TrafficTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorldConfig world_config;
    world_config.domain_count = 200;
    world_ = new World{world_config};
    TrafficConfig traffic_config;
    traffic_config.total_web_bytes = 8ull * 1024 * 1024;
    generator_ = new TrafficGenerator{*world_, traffic_config};
    packets_ = new std::vector<pcap::Packet>{generator_->generate()};
    pcap::FlowTable table;
    for (const auto& packet : *packets_) table.add(packet);
    logs_ = new proto::TraceLogs{proto::analyze_flows(table.finish())};
  }
  static void TearDownTestSuite() {
    delete logs_;
    delete packets_;
    delete generator_;
    delete world_;
  }

  static World* world_;
  static TrafficGenerator* generator_;
  static std::vector<pcap::Packet>* packets_;
  static proto::TraceLogs* logs_;
};

World* TrafficTest::world_ = nullptr;
TrafficGenerator* TrafficTest::generator_ = nullptr;
std::vector<pcap::Packet>* TrafficTest::packets_ = nullptr;
proto::TraceLogs* TrafficTest::logs_ = nullptr;

TEST_F(TrafficTest, EveryPacketDecodes) {
  pcap::FlowTable table;
  for (const auto& packet : *packets_) table.add(packet);
  EXPECT_EQ(table.undecodable_packets(), 0u);
}

TEST_F(TrafficTest, PacketsAreTimeSorted) {
  for (std::size_t i = 1; i < packets_->size(); ++i)
    EXPECT_LE((*packets_)[i - 1].timestamp, (*packets_)[i].timestamp);
}

TEST_F(TrafficTest, TimestampsInsideCaptureWindow) {
  // The paper's week from Tue Jun 26 2012 00:00 UTC.
  constexpr double kStart = 1340668800.0;
  constexpr double kWeek = 7 * 86400.0;
  for (const auto& packet : *packets_) {
    EXPECT_GE(packet.timestamp, kStart);
    EXPECT_LE(packet.timestamp, kStart + kWeek + 3600.0);
  }
}

TEST_F(TrafficTest, AllFlowsLeaveTheUniversity) {
  for (const auto& conn : logs_->conns)
    EXPECT_EQ(conn.tuple.src.addr.octet(0), 128) << conn.tuple.to_string();
}

TEST_F(TrafficTest, AllDestinationsAreCloudAddresses) {
  for (const auto& conn : logs_->conns) {
    const auto dst = conn.tuple.dst.addr;
    const bool cloud = world_->ec2().region_of(dst).has_value() ||
                       world_->azure().region_of(dst).has_value() ||
                       world_->ec2().cdn_block().contains(dst);
    EXPECT_TRUE(cloud) << conn.tuple.to_string();
  }
}

TEST_F(TrafficTest, Ec2CarriesMostBytes) {
  std::uint64_t ec2 = 0, azure = 0;
  for (const auto& conn : logs_->conns) {
    if (world_->ec2().region_of(conn.tuple.dst.addr))
      ec2 += conn.bytes;
    else if (world_->azure().region_of(conn.tuple.dst.addr))
      azure += conn.bytes;
  }
  // Table 1 shape: roughly 4:1.
  EXPECT_GT(ec2, azure * 2);
  EXPECT_LT(ec2, azure * 8);
}

TEST_F(TrafficTest, DropboxDominatesWebBytes) {
  std::map<std::string, std::uint64_t> volume;
  std::uint64_t web_total = 0;
  for (const auto& conn : logs_->conns) {
    if (conn.service != proto::Service::kHttp &&
        conn.service != proto::Service::kHttps)
      continue;
    web_total += conn.bytes;
    if (conn.hostname &&
        conn.hostname->find("dropbox") != std::string::npos)
      volume["dropbox"] += conn.bytes;
  }
  ASSERT_GT(web_total, 0u);
  const double share =
      static_cast<double>(volume["dropbox"]) / static_cast<double>(web_total);
  EXPECT_GT(share, 0.5);  // paper: 68%
  EXPECT_LT(share, 0.85);
}

TEST_F(TrafficTest, HttpFlowsOutnumberHttpsHeavily) {
  std::size_t http = 0, https = 0;
  for (const auto& conn : logs_->conns) {
    http += conn.service == proto::Service::kHttp;
    https += conn.service == proto::Service::kHttps;
  }
  EXPECT_GT(http, https * 4);  // paper: ~10.5x
}

TEST_F(TrafficTest, HttpsFlowsLargerThanHttp) {
  std::uint64_t http_bytes = 0, https_bytes = 0;
  std::size_t http = 0, https = 0;
  for (const auto& conn : logs_->conns) {
    if (conn.service == proto::Service::kHttp) {
      http_bytes += conn.bytes;
      ++http;
    } else if (conn.service == proto::Service::kHttps) {
      https_bytes += conn.bytes;
      ++https;
    }
  }
  ASSERT_GT(http, 0u);
  ASSERT_GT(https, 0u);
  EXPECT_GT(https_bytes / https, 5 * (http_bytes / http));
}

TEST_F(TrafficTest, DnsFlowsPresentInExpectedShare) {
  std::size_t dns = 0;
  for (const auto& conn : logs_->conns)
    dns += conn.service == proto::Service::kDns;
  const double share = static_cast<double>(dns) / logs_->conns.size();
  EXPECT_GT(share, 0.05);
  EXPECT_LT(share, 0.20);  // paper: 10.6%
}

TEST_F(TrafficTest, HostnamesRecoverableFromBothProtocols) {
  std::size_t with_host = 0, web = 0;
  for (const auto& conn : logs_->conns) {
    if (conn.service != proto::Service::kHttp &&
        conn.service != proto::Service::kHttps)
      continue;
    ++web;
    if (conn.hostname) ++with_host;
  }
  ASSERT_GT(web, 0u);
  // Every synthesized web flow carries a Host header or certificate.
  EXPECT_EQ(with_host, web);
}

TEST_F(TrafficTest, ContentTypesFollowPlan) {
  std::map<std::string, std::size_t> types;
  for (const auto& http : logs_->http)
    if (http.content_type) ++types[*http.content_type];
  EXPECT_GT(types["text/html"], 0u);
  EXPECT_GT(types["text/plain"], 0u);
  // Rare-but-huge types appear occasionally in a capture this size.
  EXPECT_GE(types.count("application/pdf") + types.count("application/zip") +
                types.count("video/mp4"),
            0u);
}

TEST_F(TrafficTest, EndpointsIncludeHeavyHittersAndTail) {
  bool dropbox = false, atdmt = false, alexa_tail = false, uonly = false;
  for (const auto& ep : generator_->endpoints()) {
    dropbox |= ep.domain == "dropbox.com";
    atdmt |= ep.domain == "atdmt.com";
    alexa_tail |= ep.in_alexa && ep.domain != "pinterest.com";
    uonly |= ep.domain.rfind("uonly", 0) == 0;
  }
  EXPECT_TRUE(dropbox);
  EXPECT_TRUE(atdmt);
  EXPECT_TRUE(alexa_tail);
  EXPECT_TRUE(uonly);
}

TEST_F(TrafficTest, DeterministicGeneration) {
  WorldConfig world_config;
  world_config.domain_count = 60;
  TrafficConfig traffic_config;
  traffic_config.total_web_bytes = 1ull * 1024 * 1024;
  World wa{world_config}, wb{world_config};
  TrafficGenerator ga{wa, traffic_config}, gb{wb, traffic_config};
  const auto pa = ga.generate();
  const auto pb = gb.generate();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < std::min<std::size_t>(pa.size(), 500); ++i)
    EXPECT_EQ(pa[i].data, pb[i].data) << i;
}

TEST_F(TrafficTest, PcapFileRoundTrip) {
  const auto path = std::string{"/tmp/cs_traffic_test.pcap"};
  generator_->generate_to_file(path);
  const auto read = pcap::read_all(path);
  EXPECT_EQ(read.size(), packets_->size());
  std::remove(path.c_str());
}

// The tentpole streaming contract: generate_units() delivers per-unit
// time-sorted batches whose stable-sorted concatenation is byte-identical
// to the materialized generate() capture.
TEST_F(TrafficTest, StreamedUnitsRebuildTheExactCapture) {
  std::vector<pcap::Packet> collected;
  std::size_t units = 0;
  std::size_t unsorted_units = 0;
  const auto total =
      generator_->generate_units([&](std::vector<pcap::Packet>&& unit) {
        ++units;
        for (std::size_t i = 1; i < unit.size(); ++i)
          if (unit[i - 1].timestamp > unit[i].timestamp) {
            ++unsorted_units;
            break;
          }
        collected.insert(collected.end(),
                         std::make_move_iterator(unit.begin()),
                         std::make_move_iterator(unit.end()));
      });
  EXPECT_EQ(unsorted_units, 0u);
  EXPECT_GT(units, 1u);  // one per web endpoint plus the non-web tail
  EXPECT_EQ(total, packets_->size());
  std::stable_sort(collected.begin(), collected.end(),
                   [](const pcap::Packet& a, const pcap::Packet& b) {
                     return a.timestamp < b.timestamp;
                   });
  ASSERT_EQ(collected.size(), packets_->size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < collected.size(); ++i)
    if (collected[i].timestamp != (*packets_)[i].timestamp ||
        collected[i].data != (*packets_)[i].data)
      ++mismatches;
  EXPECT_EQ(mismatches, 0u);
}

/// FNV-1a folded over one unit: its frame count, then each frame's
/// timestamp bits and bytes.
std::uint64_t fold_unit(std::uint64_t hash,
                        const std::vector<pcap::Packet>& unit) {
  const std::uint64_t frames = unit.size();
  hash = util::fnv1a({reinterpret_cast<const std::uint8_t*>(&frames), 8},
                     hash);
  for (const auto& packet : unit) {
    hash = util::fnv1a(
        {reinterpret_cast<const std::uint8_t*>(&packet.timestamp), 8}, hash);
    hash = util::fnv1a(packet.data, hash);
  }
  return hash;
}

// Frames are built from per-packet plans one batch at a time. A unit's
// batches, joined, must be the unit the generator emitted when it built
// every frame of a unit at once: the digest below was taken from that
// generator (91 units, 47,337 frames at 200 domains and 32 MiB, where
// the dropbox unit spans three batches). Every batch is time-ordered,
// continues its unit's order, and holds at most kBatchFrames frames;
// generate_units hands out the joined units.
TEST_F(TrafficTest, BatchesRebuildThePinnedUnits) {
  TrafficConfig config;
  config.total_web_bytes = 32ull << 20;
  TrafficGenerator generator{*world_, config};
  std::vector<pcap::Packet> unit;
  std::vector<std::uint64_t> unit_digests;
  std::uint64_t digest = util::kFnv1aBasis;
  std::size_t unit_batches = 0, split_units = 0, disorders = 0;
  const auto frames = generator.generate_batches(
      [&](std::vector<pcap::Packet>&& batch, bool unit_ends) {
        EXPECT_LE(batch.size(), TrafficGenerator::kBatchFrames);
        ++unit_batches;
        for (auto& packet : batch) {
          if (!unit.empty() && unit.back().timestamp > packet.timestamp)
            ++disorders;
          unit.push_back(std::move(packet));
        }
        if (!unit_ends) return;
        digest = fold_unit(digest, unit);
        unit_digests.push_back(fold_unit(util::kFnv1aBasis, unit));
        split_units += unit_batches > 1;
        unit_batches = 0;
        unit.clear();
      });
  EXPECT_EQ(disorders, 0u);
  EXPECT_EQ(frames, 47337u);
  EXPECT_EQ(unit_digests.size(), 91u);
  EXPECT_GE(split_units, 1u);
  EXPECT_EQ(digest, 0xd73f4691715f11e6ULL);

  std::vector<std::uint64_t> joined;
  generator.generate_units([&](std::vector<pcap::Packet>&& whole) {
    joined.push_back(fold_unit(util::kFnv1aBasis, whole));
  });
  EXPECT_EQ(joined, unit_digests);
}

// Every canonical five-tuple must live inside exactly one unit — the
// property that lets FlowAssembler consume units without a global sort.
TEST_F(TrafficTest, UnitsAreTupleDisjoint) {
  std::map<net::FiveTuple, std::size_t> owner;
  std::size_t unit_index = 0;
  std::size_t cross_unit_tuples = 0;
  generator_->generate_units([&](std::vector<pcap::Packet>&& unit) {
    for (const auto& packet : unit) {
      const auto decoded = pcap::decode_frame(packet.bytes());
      ASSERT_TRUE(decoded);
      const auto key = decoded->tuple.canonical();
      const auto [it, inserted] = owner.emplace(key, unit_index);
      if (!inserted && it->second != unit_index) ++cross_unit_tuples;
    }
    ++unit_index;
  });
  EXPECT_EQ(cross_unit_tuples, 0u);
}

// Feeding the streamed units straight into a FlowAssembler must produce
// the exact flows of whole-capture assembly — the paper-scale pipeline
// never holds the full packet vector.
TEST_F(TrafficTest, StreamedFlowAssemblyMatchesBatch) {
  pcap::FlowAssembler assembler;
  generator_->generate_units(
      [&](std::vector<pcap::Packet>&& unit) { assembler.feed(unit); });
  const auto streamed = assembler.finish();
  const auto batch = pcap::assemble_flows(*packets_);
  ASSERT_EQ(streamed.size(), batch.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    if (streamed[i].tuple != batch[i].tuple ||
        streamed[i].first_ts != batch[i].first_ts ||
        streamed[i].last_ts != batch[i].last_ts ||
        streamed[i].packets != batch[i].packets ||
        streamed[i].bytes != batch[i].bytes ||
        streamed[i].payload_to_responder != batch[i].payload_to_responder ||
        streamed[i].payload_to_initiator != batch[i].payload_to_initiator)
      ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(assembler.packets_fed(), packets_->size());
}

}  // namespace
}  // namespace cs::synth
