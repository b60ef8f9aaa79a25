#include "dns/zonefile.h"

#include <charconv>

#include "util/format.h"
#include "util/strings.h"

namespace cs::dns {
namespace {

/// Renders an owner name relative to the origin where possible.
std::string present_owner(const Name& name, const Name& origin) {
  if (name == origin) return "@";
  if (name.is_subdomain_of(origin) && !origin.is_root()) {
    // Strip ".<origin>".
    const std::string full = name.to_string();
    return full.substr(0, full.size() - origin.to_string().size() - 1);
  }
  return name.to_string() + ".";
}

std::string present_rdata(const ResourceRecord& rr) {
  struct Visitor {
    std::string operator()(const ARecord& r) const {
      return r.address.to_string();
    }
    std::string operator()(const NsRecord& r) const {
      return r.nameserver.to_string() + ".";
    }
    std::string operator()(const CnameRecord& r) const {
      return r.target.to_string() + ".";
    }
    std::string operator()(const SoaRecord& r) const {
      return util::fmt("{}. {}. {} {} {} {} {}", r.mname.to_string(),
                       r.rname.to_string(), r.serial, r.refresh, r.retry,
                       r.expire, r.minimum);
    }
    std::string operator()(const TxtRecord& r) const {
      std::string out;
      for (const auto& s : r.strings) {
        if (!out.empty()) out += ' ';
        out += '"' + s + '"';
      }
      return out;
    }
  };
  return std::visit(Visitor{}, rr.data);
}

/// Resolves an owner token against the origin.
std::optional<Name> parse_owner(std::string_view token, const Name& origin) {
  if (token == "@") return origin;
  if (!token.empty() && token.back() == '.') return Name::parse(token);
  if (origin.is_root()) return Name::parse(token);
  return Name::parse(std::string{token} + "." + origin.to_string());
}

std::optional<std::uint32_t> parse_u32(std::string_view token) {
  std::uint32_t value = 0;
  const auto [p, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || p != token.data() + token.size())
    return std::nullopt;
  return value;
}

}  // namespace

std::string to_zonefile(const Zone& zone) {
  std::string out = util::fmt("$ORIGIN {}.\n", zone.origin().to_string());
  // SOA first.
  const auto& soa = zone.soa();
  out += util::fmt("@ 3600 IN SOA {}. {}. {} {} {} {} {}\n",
                   soa.mname.to_string(), soa.rname.to_string(), soa.serial,
                   soa.refresh, soa.retry, soa.expire, soa.minimum);
  for (const auto& name : zone.names()) {
    for (const auto& rr : zone.find_all(name)) {
      if (rr.type() == RrType::kSoa) continue;
      out += util::fmt("{} {} IN {} {}\n",
                       present_owner(rr.name, zone.origin()), rr.ttl,
                       to_string(rr.type()), present_rdata(rr));
    }
  }
  return out;
}

ZonefileResult parse_zonefile(std::string_view text) {
  ZonefileResult result;
  std::optional<Name> origin;
  std::optional<SoaRecord> soa;
  Name soa_owner;
  std::uint32_t soa_ttl = 3600;
  struct Pending {
    Name owner;
    std::uint32_t ttl;
    std::string type;
    std::vector<std::string> rdata;
  };
  std::vector<Pending> pending;

  for (auto raw_line : util::split(text, '\n')) {
    // Strip comments and whitespace.
    const auto semi = raw_line.find(';');
    const auto line =
        util::trim(semi == std::string_view::npos ? raw_line
                                                  : raw_line.substr(0, semi));
    if (line.empty()) continue;

    const auto tokens = util::split_nonempty(line, ' ');
    if (tokens[0] == "$ORIGIN") {
      if (tokens.size() != 2 || !(origin = Name::parse(tokens[1]))) {
        result.errors.push_back("bad $ORIGIN: " + std::string{line});
        return result;
      }
      continue;
    }
    if (!origin) {
      result.errors.push_back("record before $ORIGIN: " + std::string{line});
      return result;
    }
    if (tokens.size() < 5 || tokens[2] != "IN") {
      result.errors.push_back("malformed line: " + std::string{line});
      continue;
    }
    const auto owner = parse_owner(tokens[0], *origin);
    const auto ttl = parse_u32(tokens[1]);
    if (!owner || !ttl) {
      result.errors.push_back("bad owner/TTL: " + std::string{line});
      continue;
    }
    const std::string type{tokens[3]};
    std::vector<std::string> rdata;
    for (std::size_t i = 4; i < tokens.size(); ++i)
      rdata.emplace_back(tokens[i]);

    if (type == "SOA") {
      if (soa) {
        result.errors.push_back("duplicate SOA");
        return result;
      }
      if (rdata.size() != 7) {
        result.errors.push_back("bad SOA rdata");
        return result;
      }
      SoaRecord record;
      const auto mname = Name::parse(rdata[0]);
      const auto rname = Name::parse(rdata[1]);
      const auto serial = parse_u32(rdata[2]);
      const auto refresh = parse_u32(rdata[3]);
      const auto retry = parse_u32(rdata[4]);
      const auto expire = parse_u32(rdata[5]);
      const auto minimum = parse_u32(rdata[6]);
      if (!mname || !rname || !serial || !refresh || !retry || !expire ||
          !minimum) {
        result.errors.push_back("bad SOA fields");
        return result;
      }
      record.mname = *mname;
      record.rname = *rname;
      record.serial = *serial;
      record.refresh = *refresh;
      record.retry = *retry;
      record.expire = *expire;
      record.minimum = *minimum;
      soa = record;
      soa_owner = *owner;
      soa_ttl = *ttl;
      continue;
    }
    pending.push_back({*owner, *ttl, type, std::move(rdata)});
  }

  if (!soa) {
    result.errors.push_back("zone has no SOA");
    return result;
  }
  Zone zone{soa_owner, *soa};
  (void)soa_ttl;
  for (const auto& p : pending) {
    std::optional<ResourceRecord> rr;
    if (p.type == "A") {
      if (const auto addr = net::Ipv4::parse(p.rdata.at(0)))
        rr = ResourceRecord::a(p.owner, *addr, p.ttl);
    } else if (p.type == "NS") {
      if (const auto target = Name::parse(p.rdata.at(0)))
        rr = ResourceRecord::ns(p.owner, *target, p.ttl);
    } else if (p.type == "CNAME") {
      if (const auto target = Name::parse(p.rdata.at(0)))
        rr = ResourceRecord::cname(p.owner, *target, p.ttl);
    } else if (p.type == "TXT") {
      std::vector<std::string> strings;
      for (const auto& quoted : p.rdata) {
        if (quoted.size() >= 2 && quoted.front() == '"' &&
            quoted.back() == '"')
          strings.push_back(quoted.substr(1, quoted.size() - 2));
        else
          strings.push_back(quoted);
      }
      rr = ResourceRecord::txt(p.owner, std::move(strings), p.ttl);
    } else {
      result.errors.push_back("unsupported type: " + p.type);
      continue;
    }
    if (!rr || !zone.add(*std::move(rr)))
      result.errors.push_back("rejected record at " + p.owner.to_string());
  }
  result.zone = std::move(zone);
  return result;
}

}  // namespace cs::dns
