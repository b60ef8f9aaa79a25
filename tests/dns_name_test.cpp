#include "dns/name.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <string>
#include <vector>

#include "util/rng.h"

namespace cs::dns {
namespace {

TEST(Name, ParseBasic) {
  const auto n = Name::parse("www.example.com");
  ASSERT_TRUE(n);
  EXPECT_EQ(n->label_count(), 3u);
  EXPECT_EQ(n->to_string(), "www.example.com");
  EXPECT_EQ(n->leftmost(), "www");
}

TEST(Name, ParseIsCaseInsensitive) {
  EXPECT_EQ(Name::must_parse("WWW.Example.COM"),
            Name::must_parse("www.example.com"));
}

TEST(Name, TrailingDotAccepted) {
  EXPECT_EQ(Name::must_parse("example.com."),
            Name::must_parse("example.com"));
}

TEST(Name, RootForms) {
  const auto root = Name::parse(".");
  ASSERT_TRUE(root);
  EXPECT_TRUE(root->is_root());
  EXPECT_EQ(root->to_string(), ".");
  EXPECT_EQ(Name{}.to_string(), ".");
}

TEST(Name, RejectsInvalid) {
  EXPECT_FALSE(Name::parse(""));
  EXPECT_FALSE(Name::parse("a..b"));
  EXPECT_FALSE(Name::parse("exa mple.com"));
  EXPECT_FALSE(Name::parse(std::string(64, 'a') + ".com"));  // label > 63
  // Total wire length > 255.
  std::string big;
  for (int i = 0; i < 5; ++i) big += std::string(60, 'x') + ".";
  big += "com";
  EXPECT_FALSE(Name::parse(big));
}

TEST(Name, MustParseThrows) {
  EXPECT_THROW(Name::must_parse("bad..name"), std::invalid_argument);
  EXPECT_NO_THROW(Name::must_parse("good.name"));
}

TEST(Name, ParentWalk) {
  auto n = Name::must_parse("a.b.c.com");
  n = n.parent();
  EXPECT_EQ(n.to_string(), "b.c.com");
  n = n.parent();
  n = n.parent();
  EXPECT_EQ(n.to_string(), "com");
  n = n.parent();
  EXPECT_TRUE(n.is_root());
  EXPECT_TRUE(n.parent().is_root());
}

TEST(Name, Child) {
  const auto base = Name::must_parse("example.com");
  const auto www = base.child("www");
  ASSERT_TRUE(www);
  EXPECT_EQ(www->to_string(), "www.example.com");
  EXPECT_FALSE(base.child("bad label"));
  EXPECT_FALSE(base.child(""));
}

TEST(Name, SubdomainOf) {
  const auto apex = Name::must_parse("example.com");
  EXPECT_TRUE(Name::must_parse("www.example.com").is_subdomain_of(apex));
  EXPECT_TRUE(apex.is_subdomain_of(apex));
  EXPECT_TRUE(apex.is_subdomain_of(Name{}));  // everything under root
  EXPECT_FALSE(Name::must_parse("example.org").is_subdomain_of(apex));
  // The classic trap: notexample.com is NOT a subdomain of example.com.
  EXPECT_FALSE(Name::must_parse("notexample.com").is_subdomain_of(apex));
  EXPECT_FALSE(apex.is_subdomain_of(Name::must_parse("www.example.com")));
}

TEST(Name, WireLength) {
  EXPECT_EQ(Name{}.wire_length(), 1u);
  // 3www7example3com0 = 1+3 + 1+7 + 1+3 + 1 = 17.
  EXPECT_EQ(Name::must_parse("www.example.com").wire_length(), 17u);
}

TEST(Name, CanonicalOrdering) {
  const auto a = Name::must_parse("a.example.com");
  const auto b = Name::must_parse("b.example.com");
  const auto apex = Name::must_parse("example.com");
  EXPECT_TRUE(Name::canonical_less(apex, a));  // parent sorts before child
  EXPECT_TRUE(Name::canonical_less(a, b));
  EXPECT_FALSE(Name::canonical_less(b, a));
  EXPECT_FALSE(Name::canonical_less(a, a));
  // Different TLD dominates.
  EXPECT_TRUE(Name::canonical_less(Name::must_parse("z.com"),
                                   Name::must_parse("a.net")));
}

TEST(Name, HashConsistentWithEquality) {
  const NameHash h;
  EXPECT_EQ(h(Name::must_parse("Foo.COM")), h(Name::must_parse("foo.com")));
  EXPECT_NE(h(Name::must_parse("foo.com")), h(Name::must_parse("bar.com")));
}

// Tables keyed by Name are looked up by wire views read out of a
// datagram, often a suffix of a longer name cut at a label boundary.
TEST(Name, SuffixViewHashesLikeItsParent) {
  const NameHash h;
  const auto name = Name::must_parse("www.example.com");
  const std::string_view wire = name.wire();
  const std::string_view suffix = wire.substr(1 + wire.front());
  ASSERT_EQ(suffix, name.parent().wire());
  EXPECT_EQ(h(suffix), h(name.parent()));
  EXPECT_EQ(h(suffix.substr(1 + suffix.front())),
            h(Name::must_parse("com")));
  EXPECT_EQ(h(std::string_view{}), h(Name{}));
  EXPECT_NE(h(suffix), h(name));
}

TEST(Name, UnderscoreAndDigitsAllowed) {
  EXPECT_TRUE(Name::parse("_dmarc.example.com"));
  EXPECT_TRUE(Name::parse("ns1.route53.aws"));
  EXPECT_TRUE(Name::parse("163.com"));
}

// Property test: Name against a reference model that is a plain label
// vector, the representation Name's orders and operations are defined by.

using Labels = std::vector<std::string>;

std::size_t ref_wire_length(const Labels& l) {
  std::size_t n = 1;
  for (const auto& label : l) n += 1 + label.size();
  return n;
}

bool ref_valid(const Labels& l) {
  for (const auto& label : l) {
    if (label.empty() || label.size() > 63) return false;
    for (const char c : label)
      if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-' ||
            c == '_'))
        return false;
  }
  return ref_wire_length(l) <= 255;
}

bool ref_canonical_less(const Labels& a, const Labels& b) {
  return std::lexicographical_compare(a.rbegin(), a.rend(), b.rbegin(),
                                      b.rend());
}

bool ref_subdomain(const Labels& name, const Labels& ancestor) {
  return ancestor.size() <= name.size() &&
         std::equal(ancestor.rbegin(), ancestor.rend(), name.rbegin());
}

std::string ref_text(const Labels& l) {
  if (l.empty()) return ".";
  std::string out;
  for (const auto& label : l) out += (out.empty() ? "" : ".") + label;
  return out;
}

/// Labels drawn mostly from a small pool so that random pairs share
/// suffixes, prefixes and near-misses ("a" / "a-" / "a0" / "ab"): the
/// cases where a byte compare of the wire or presentation form disagrees
/// with label-wise order.
std::string random_label(util::Rng& rng) {
  static const char* kPool[] = {"a",  "a-", "a0", "a_", "ab", "b",
                                "-a", "_b", "0",  "z9", "com", "com-"};
  static const char kChars[] = "abcz09-_";
  switch (rng.next_below(6)) {
    case 0:
      return std::string(63, "ab-"[rng.next_below(3)]);
    case 1: {
      std::string label(1 + rng.next_below(63), 'a');
      for (auto& c : label) c = kChars[rng.next_below(sizeof kChars - 1)];
      return label;
    }
    default:
      return kPool[rng.next_below(std::size(kPool))];
  }
}

Labels random_labels(util::Rng& rng) {
  Labels l;
  const std::size_t count = rng.next_below(8);
  for (std::size_t i = 0; i < count; ++i) l.push_back(random_label(rng));
  return l;
}

/// A second name related to `a`: a suffix, an extension, a relabelling,
/// or unrelated.
Labels related_labels(util::Rng& rng, const Labels& a) {
  Labels b = a;
  switch (rng.next_below(4)) {
    case 0:
      if (!b.empty()) b.erase(b.begin(), b.begin() + static_cast<long>(
                                             rng.next_below(b.size() + 1)));
      return b;
    case 1:
      b.insert(b.begin(), random_label(rng));
      return b;
    case 2:
      if (!b.empty()) b[rng.next_below(b.size())] = random_label(rng);
      return b;
    default:
      return random_labels(rng);
  }
}

TEST(NameProperty, MatchesLabelVectorModel) {
  util::Rng rng{20130423};
  int checked = 0;
  int rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    const Labels la = random_labels(rng);
    const Labels lb = related_labels(rng, la);
    const auto pa = Name::from_labels(la);
    ASSERT_EQ(pa.has_value(), ref_valid(la)) << ref_text(la);
    ASSERT_EQ(Name::parse(ref_text(la)).has_value(), ref_valid(la));
    const auto pb = Name::from_labels(lb);
    ASSERT_EQ(pb.has_value(), ref_valid(lb)) << ref_text(lb);
    if (!pa || !pb) {
      ++rejected;
      continue;
    }
    ++checked;
    const Name& a = *pa;
    const Name& b = *pb;
    const std::string context = ref_text(la) + " vs " + ref_text(lb);
    EXPECT_EQ(*Name::parse(ref_text(la)), a) << context;
    EXPECT_EQ(a <=> b, la <=> lb) << context;
    EXPECT_EQ(a == b, la == lb) << context;
    EXPECT_EQ(Name::canonical_less(a, b), ref_canonical_less(la, lb))
        << context;
    EXPECT_EQ(Name::canonical_less(b, a), ref_canonical_less(lb, la))
        << context;
    EXPECT_EQ(a.is_subdomain_of(b), ref_subdomain(la, lb)) << context;
    EXPECT_EQ(b.is_subdomain_of(a), ref_subdomain(lb, la)) << context;
    EXPECT_EQ(a.wire_length(), ref_wire_length(la)) << context;
    EXPECT_EQ(a.to_string(), ref_text(la)) << context;
    EXPECT_EQ(a.label_count(), la.size()) << context;
    EXPECT_EQ(a.leftmost(), la.empty() ? "" : la.front()) << context;
    EXPECT_TRUE(std::ranges::equal(a.labels(), la)) << context;
    if (a == b) {
      EXPECT_EQ(NameHash{}(a), NameHash{}(b)) << context;
    }

    const Labels parent = la.empty() ? la : Labels(la.begin() + 1, la.end());
    EXPECT_EQ(a.parent().to_string(), ref_text(parent)) << context;
    EXPECT_EQ(a.parent().label_count(), parent.size()) << context;

    const std::string label = random_label(rng);
    Labels child = la;
    child.insert(child.begin(), label);
    const auto c = a.child(label);
    ASSERT_EQ(c.has_value(), ref_valid(child)) << label << "." << context;
    if (c) {
      EXPECT_EQ(c->to_string(), ref_text(child));
      EXPECT_EQ(*c, *Name::from_labels(child));
      EXPECT_TRUE(c->is_subdomain_of(a));
      EXPECT_EQ(c->parent(), a);
    }
  }
  // Both branches must be exercised: the 255-octet limit rejects some.
  EXPECT_GT(checked, 2000);
  EXPECT_GT(rejected, 20);
}

TEST(NameProperty, OrderIsLabelWiseNotBytewise) {
  // '-' (0x2D) sorts below '.', and a length octet is not a separator:
  // neither the presentation nor the wire bytes give the label order.
  EXPECT_LT(Name::must_parse("a.b"), Name::must_parse("a-.b"));
  EXPECT_LT(Name::must_parse("ab"), Name::must_parse("b"));
  EXPECT_LT(Name::must_parse("com"), Name::must_parse("com.a"));
  EXPECT_TRUE(Name::canonical_less(Name::must_parse("b.a"),
                                   Name::must_parse("b.a-")));
  EXPECT_TRUE(Name::canonical_less(Name::must_parse("z.ab"),
                                   Name::must_parse("a.b")));
}

TEST(NameProperty, LengthLimits) {
  const std::string l63(63, 'x');
  EXPECT_TRUE(Name::parse(l63 + ".com"));
  EXPECT_FALSE(Name::parse(l63 + "x.com"));
  // 3 x 64 + 62 + 1 = 255 octets: the longest legal name.
  const std::string max = l63 + "." + l63 + "." + l63 + "." +
                          std::string(61, 'y');
  ASSERT_TRUE(Name::parse(max));
  EXPECT_EQ(Name::must_parse(max).wire_length(), 255u);
  EXPECT_FALSE(Name::parse("a" + max));
  EXPECT_FALSE(Name::must_parse(max).child("a"));
  EXPECT_EQ(Name::must_parse(max).parent().child(l63)->wire_length(), 255u);
  EXPECT_FALSE(Name::parse("a.B*c.com"));
  EXPECT_EQ(Name::must_parse("A-1.EXAMPLE.com").child("WWW")->to_string(),
            "www.a-1.example.com");
}

}  // namespace
}  // namespace cs::dns
