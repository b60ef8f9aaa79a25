#include "dns/server.h"

#include "obs/metrics.h"

namespace cs::dns {
namespace {

struct ServerMetrics {
  obs::Counter& queries = obs::counter("dns.server.queries");
  obs::Counter& axfr_granted = obs::counter("dns.server.axfr_granted");
  obs::Counter& axfr_refused = obs::counter("dns.server.axfr_refused");
  obs::Counter& nxdomain = obs::counter("dns.server.nxdomain");
  obs::Counter& refused = obs::counter("dns.server.refused");

  static ServerMetrics& get() {
    static ServerMetrics metrics;
    return metrics;
  }
};

}  // namespace

Zone& AuthoritativeServer::add_zone(Name origin, SoaRecord soa) {
  auto zone = std::make_unique<Zone>(origin, std::move(soa));
  auto [it, inserted] = zones_.insert_or_assign(origin, std::move(zone));
  return *it->second;
}

Zone* AuthoritativeServer::zone(const Name& origin) {
  const auto it = zones_.find(origin);
  return it == zones_.end() ? nullptr : it->second.get();
}

const Zone* AuthoritativeServer::zone(const Name& origin) const {
  const auto it = zones_.find(origin);
  return it == zones_.end() ? nullptr : it->second.get();
}

const Zone* AuthoritativeServer::best_zone(const Name& name) const {
  const std::string_view wire = name.wire();
  for (std::size_t at = 0;; at += 1 + static_cast<unsigned char>(wire[at])) {
    if (const auto it = zones_.find(wire.substr(at)); it != zones_.end())
      return it->second.get();
    if (at == wire.size()) return nullptr;
  }
}

Message AuthoritativeServer::handle(net::Ipv4 client,
                                    const Message& query) const {
  auto& metrics = ServerMetrics::get();
  metrics.queries.inc();
  if (query.header.qr || query.questions.empty())
    return Message::response_to(query, Rcode::kFormErr, false);
  Message response = Message::response_to(query, Rcode::kNoError, false);
  // Standard servers answer the first question; we keep that behaviour.
  answer_question(client, query.questions.front(), response);
  if (response.header.rcode == Rcode::kNxDomain) metrics.nxdomain.inc();
  else if (response.header.rcode == Rcode::kRefused) metrics.refused.inc();
  return response;
}

void AuthoritativeServer::answer_question(net::Ipv4 client, const Question& q,
                                          Message& response) const {
  const Zone* zone = best_zone(q.name);
  if (!zone) {
    response.header.rcode = Rcode::kRefused;
    return;
  }

  if (q.type == RrType::kAxfr) {
    if (q.name != zone->origin() ||
        !(axfr_policy_ && axfr_policy_(client, zone->origin()))) {
      ServerMetrics::get().axfr_refused.inc();
      response.header.rcode = Rcode::kRefused;
      return;
    }
    ServerMetrics::get().axfr_granted.inc();
    response.header.aa = true;
    response.answers = zone->axfr();
    return;
  }

  // Delegation below this zone's apex?
  if (const Name* cut = zone->delegation_cut(q.name)) {
    // Referral: NS records at the cut plus any glue we host.
    response.header.aa = false;
    for (auto& ns : zone->find(*cut, RrType::kNs)) {
      if (const auto* target = std::get_if<NsRecord>(&ns.data)) {
        for (auto& glue : zone->find(target->nameserver, RrType::kA))
          response.additional.push_back(std::move(glue));
      }
      response.authority.push_back(std::move(ns));
    }
    return;
  }

  response.header.aa = true;
  Name qname = q.name;
  // In-zone CNAME chasing with a hop guard against record cycles.
  for (int hops = 0; hops < 16; ++hops) {
    // Dynamic (client-dependent) answers take precedence at each step.
    if (dynamic_answer_) {
      if (auto dynamic = dynamic_answer_(client, qname)) {
        const bool is_cname = dynamic->type() == RrType::kCname;
        response.answers.push_back(*dynamic);
        if (is_cname && q.type != RrType::kCname &&
            q.type != RrType::kAny) {
          const auto target =
              std::get<CnameRecord>(response.answers.back().data).target;
          if (!target.is_subdomain_of(zone->origin())) return;
          qname = target;
          continue;
        }
        return;
      }
    }
    auto cnames = zone->find(qname, RrType::kCname);
    if (!cnames.empty() && q.type != RrType::kCname &&
        q.type != RrType::kAny) {
      const auto target = std::get<CnameRecord>(cnames.front().data).target;
      response.answers.push_back(std::move(cnames.front()));
      if (!target.is_subdomain_of(zone->origin())) return;  // out of zone
      qname = target;
      continue;
    }
    auto records = zone->find(qname, q.type);
    if (!records.empty()) {
      for (auto& rr : records) response.answers.push_back(std::move(rr));
      return;
    }
    break;
  }

  // Nothing at the terminal name: NODATA if the name exists, else NXDOMAIN.
  if (!zone->has_name(qname)) response.header.rcode = Rcode::kNxDomain;
  ResourceRecord soa;
  soa.name = zone->origin();
  soa.ttl = zone->soa().minimum;
  soa.data = zone->soa();
  response.authority.push_back(std::move(soa));
}

std::vector<std::uint8_t> AuthoritativeServer::handle_wire(
    net::Ipv4 client, std::span<const std::uint8_t> wire) const {
  const auto query = Message::decode(wire);
  if (!query) {
    Message err;
    err.header.qr = true;
    err.header.rcode = Rcode::kFormErr;
    return err.encode();
  }
  return handle(client, *query).encode();
}

}  // namespace cs::dns
