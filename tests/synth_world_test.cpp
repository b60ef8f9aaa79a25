#include "synth/world.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "dns/resolver.h"

namespace cs::synth {
namespace {

/// One shared small world; building is the expensive part.
class WorldTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorldConfig config;
    config.domain_count = 300;
    world_ = new World{config};
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }

  static World* world_;
};

World* WorldTest::world_ = nullptr;

TEST_F(WorldTest, UniverseSizeMatchesConfig) {
  EXPECT_EQ(world_->domains().size(), 300u);
  // Ranks are 1..N in order.
  for (std::size_t i = 0; i < world_->domains().size(); ++i)
    EXPECT_EQ(world_->domains()[i].rank, i + 1);
}

TEST_F(WorldTest, MarqueeDomainsPlantedAtTheirRanks) {
  const auto* pinterest = world_->domain("pinterest.com");
  ASSERT_NE(pinterest, nullptr);
  EXPECT_EQ(pinterest->rank, 35u);
  const auto* live = world_->domain("live.com");
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(live->rank, 7u);
  EXPECT_EQ(world_->domains()[34].name.to_string(), "pinterest.com");
}

TEST_F(WorldTest, MarqueeDeploymentShapes) {
  const auto* pinterest = world_->domain("pinterest.com");
  std::size_t cloud = 0, vm = 0;
  for (const auto& s : pinterest->subdomains) {
    if (s.on_cloud) ++cloud;
    if (s.front_end == FrontEnd::kVm) ++vm;
  }
  EXPECT_EQ(cloud, 18u);
  EXPECT_EQ(vm, 18u);

  const auto* msn = world_->domain("msn.com");
  std::size_t msn_cloud = 0;
  std::set<std::string> msn_regions;
  for (const auto& s : msn->subdomains)
    if (s.on_cloud) {
      ++msn_cloud;
      msn_regions.insert(s.regions.begin(), s.regions.end());
    }
  EXPECT_EQ(msn_cloud, 89u);
  EXPECT_EQ(msn_regions.size(), 5u);
}

TEST_F(WorldTest, CloudAdoptionInPlausibleBand) {
  std::size_t cloud_domains = 0;
  for (const auto& d : world_->domains())
    if (d.cloud_using()) ++cloud_domains;
  // adoption_scale=2 -> ~8%; allow a wide band for a 300-domain sample.
  EXPECT_GT(cloud_domains, 10u);
  EXPECT_LT(cloud_domains, 80u);
}

TEST_F(WorldTest, Ec2DominatesProviderChoiceOutsideMarquees) {
  // Marquee domains (msn.com's 89 Azure subdomains especially) distort
  // small universes; the generated population must still be EC2-heavy.
  std::size_t ec2 = 0, azure = 0;
  for (const auto& d : world_->domains()) {
    if (d.name.to_string().find("site") == std::string::npos) continue;
    for (const auto& s : d.subdomains) {
      if (!s.on_cloud) continue;
      if (s.provider == cloud::ProviderKind::kEc2)
        ++ec2;
      else
        ++azure;
    }
  }
  EXPECT_GT(ec2, azure * 3);  // paper: 99.1% vs 0.9% of subdomains
}

TEST_F(WorldTest, TruthIndexFindsEverySubdomain) {
  for (const auto& d : world_->domains())
    for (const auto& s : d.subdomains) {
      const auto* truth = world_->subdomain_truth(s.name);
      ASSERT_NE(truth, nullptr) << s.name.to_string();
      EXPECT_EQ(truth->front_end, s.front_end);
    }
  EXPECT_EQ(world_->subdomain_truth(dns::Name::must_parse("no.such.name")),
            nullptr);
}

TEST_F(WorldTest, EveryCloudSubdomainResolvesToItsFrontIps) {
  auto resolver = world_->make_resolver(net::Ipv4(199, 16, 0, 10));
  std::size_t checked = 0;
  for (const auto* s : world_->cloud_subdomains()) {
    if (checked >= 60) break;  // resolution is cheap but keep tests snappy
    ++checked;
    const auto result = resolver.resolve(s->name, dns::RrType::kA);
    ASSERT_TRUE(result.ok()) << s->name.to_string();
    const auto addrs = result.addresses();
    ASSERT_FALSE(addrs.empty()) << s->name.to_string();
    // Every truth front IP must be resolvable evidence.
    for (const auto expected : s->front_ips)
      EXPECT_NE(std::find(addrs.begin(), addrs.end(), expected), addrs.end())
          << s->name.to_string();
  }
  EXPECT_EQ(checked, 60u);
}

TEST_F(WorldTest, FrontEndDnsShapeMatchesTruth) {
  auto resolver = world_->make_resolver(net::Ipv4(199, 16, 0, 10));
  for (const auto* s : world_->cloud_subdomains()) {
    const auto result = resolver.resolve(s->name, dns::RrType::kA);
    if (!result.ok()) continue;
    const auto chain = result.cname_chain();
    switch (s->front_end) {
      case FrontEnd::kVm:
        EXPECT_TRUE(chain.empty()) << s->name.to_string();
        break;
      case FrontEnd::kElb:
        ASSERT_FALSE(chain.empty());
        EXPECT_NE(chain[0].to_string().find("elb.amazonaws.com"),
                  std::string::npos);
        break;
      case FrontEnd::kHeroku:
        ASSERT_FALSE(chain.empty());
        EXPECT_NE(chain[0].to_string().find("heroku"), std::string::npos);
        break;
      case FrontEnd::kBeanstalk:
        ASSERT_FALSE(chain.empty());
        EXPECT_NE(chain[0].to_string().find("elasticbeanstalk"),
                  std::string::npos);
        break;
      default:
        break;
    }
  }
}

TEST_F(WorldTest, ZoneTruthConsistentWithProvider) {
  for (const auto* s : world_->cloud_subdomains()) {
    if (s->provider != cloud::ProviderKind::kEc2) continue;
    for (const auto ip : s->front_ips) {
      const auto zone = world_->ec2().zone_of_public_ip(ip);
      if (zone) {
        EXPECT_TRUE(s->zones.contains(*zone)) << s->name.to_string();
      }
    }
  }
}

TEST_F(WorldTest, RegionsRecordedMatchAddressRanges) {
  for (const auto* s : world_->cloud_subdomains()) {
    if (s->front_end == FrontEnd::kCdnOnly) continue;
    const auto& provider = s->provider == cloud::ProviderKind::kEc2
                               ? world_->ec2()
                               : world_->azure();
    for (const auto ip : s->front_ips) {
      const auto region = provider.region_of(ip);
      if (!region) continue;  // hybrid extra address
      EXPECT_NE(std::find(s->regions.begin(), s->regions.end(), *region),
                s->regions.end())
          << s->name.to_string();
    }
  }
}

TEST_F(WorldTest, AxfrOpenDomainsTransferable) {
  auto resolver = world_->make_resolver(net::Ipv4(199, 16, 0, 10));
  std::size_t open = 0, closed_checked = 0;
  for (const auto& d : world_->domains()) {
    if (d.axfr_open && open < 3) {
      ++open;
      EXPECT_TRUE(resolver.try_axfr(d.name)) << d.name.to_string();
    } else if (!d.axfr_open && closed_checked < 3 && d.rank > 60) {
      ++closed_checked;
      EXPECT_FALSE(resolver.try_axfr(d.name)) << d.name.to_string();
    }
  }
  EXPECT_GT(open, 0u);
}

TEST_F(WorldTest, CustomerCountryAssigned) {
  for (const auto& d : world_->domains())
    EXPECT_FALSE(d.customer_country.empty()) << d.name.to_string();
}

TEST(WorldDeterminism, SameSeedSameWorld) {
  WorldConfig config;
  config.domain_count = 60;
  World a{config}, b{config};
  ASSERT_EQ(a.domains().size(), b.domains().size());
  for (std::size_t i = 0; i < a.domains().size(); ++i) {
    EXPECT_EQ(a.domains()[i].name, b.domains()[i].name);
    ASSERT_EQ(a.domains()[i].subdomains.size(),
              b.domains()[i].subdomains.size());
    for (std::size_t j = 0; j < a.domains()[i].subdomains.size(); ++j) {
      EXPECT_EQ(a.domains()[i].subdomains[j].front_ips,
                b.domains()[i].subdomains[j].front_ips);
    }
  }
}

TEST(WorldDeterminism, DifferentSeedDifferentWorld) {
  WorldConfig a_config, b_config;
  a_config.domain_count = b_config.domain_count = 60;
  b_config.seed = a_config.seed + 1;
  World a{a_config}, b{b_config};
  std::size_t differences = 0;
  for (std::size_t i = 0; i < 60; ++i)
    if (a.domains()[i].subdomains.size() != b.domains()[i].subdomains.size())
      ++differences;
  EXPECT_GT(differences, 5u);
}

TEST(WorldConfigKnobs, MarqueePlantingCanBeDisabled) {
  WorldConfig config;
  config.domain_count = 60;
  config.plant_marquee_domains = false;
  World world{config};
  EXPECT_EQ(world.domain("pinterest.com"), nullptr);
  EXPECT_EQ(world.domain("live.com"), nullptr);
}

TEST(WorldConfigKnobs, AdoptionScaleRaisesCloudUse) {
  WorldConfig low, high;
  low.domain_count = high.domain_count = 200;
  low.plant_marquee_domains = high.plant_marquee_domains = false;
  low.adoption_scale = 0.5;
  high.adoption_scale = 6.0;
  World lw{low}, hw{high};
  auto count = [](const World& w) {
    std::size_t n = 0;
    for (const auto& d : w.domains())
      if (d.cloud_using()) ++n;
    return n;
  };
  EXPECT_GT(count(hw), count(lw) * 2);
}

TEST(FrontEndNames, AllDistinct) {
  std::set<std::string> names;
  for (const auto fe :
       {FrontEnd::kVm, FrontEnd::kElb, FrontEnd::kBeanstalk,
        FrontEnd::kHerokuElb, FrontEnd::kHeroku, FrontEnd::kCloudService,
        FrontEnd::kTrafficManager, FrontEnd::kOpaqueCname,
        FrontEnd::kCdnOnly, FrontEnd::kOtherHosting})
    EXPECT_TRUE(names.insert(to_string(fe)).second);
}

}  // namespace
}  // namespace cs::synth
