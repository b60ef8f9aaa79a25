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

const Zone* AuthoritativeServer::best_zone(std::string_view wire) const {
  for (std::size_t at = 0;; at += 1 + static_cast<unsigned char>(wire[at])) {
    if (const auto it = zones_.find(wire.substr(at)); it != zones_.end())
      return it->second.get();
    if (at == wire.size()) return nullptr;
  }
}

std::vector<std::uint8_t> AuthoritativeServer::handle_wire(
    net::Ipv4 client, std::span<const std::uint8_t> wire) const {
  const auto query = MessageView::walk(wire);
  if (!query) {
    Header err;
    err.qr = true;
    err.rcode = Rcode::kFormErr;
    return WireWriter{err}.finish();
  }
  auto& metrics = ServerMetrics::get();
  metrics.queries.inc();
  Header header;
  header.id = query->header().id;
  header.qr = true;
  header.rd = query->header().rd;
  WireWriter out{header};
  // Every question is echoed, lower-cased; standard servers answer the
  // first, and so do we.
  NameBuf first;
  NameBuf other;
  for (std::size_t i = 0; i < query->question_count(); ++i) {
    const QuestionView q = query->question(i);
    NameBuf& name = i == 0 ? first : other;
    query->read_name(q.name_at, name);
    out.question(name.wire(), q.type);
  }
  if (query->header().qr || query->question_count() == 0) {
    out.header().rcode = Rcode::kFormErr;
    return std::move(out).finish();
  }
  answer(client, first, query->question().type, out);
  if (out.header().rcode == Rcode::kNxDomain) metrics.nxdomain.inc();
  else if (out.header().rcode == Rcode::kRefused) metrics.refused.inc();
  return std::move(out).finish();
}

Message AuthoritativeServer::handle(net::Ipv4 client,
                                    const Message& query) const {
  return *Message::decode(handle_wire(client, query.encode()));
}

void AuthoritativeServer::answer(net::Ipv4 client, const NameBuf& question,
                                 RrType qtype, WireWriter& out) const {
  std::string_view qname = question.wire();
  const Zone* zone = best_zone(qname);
  if (!zone) {
    out.header().rcode = Rcode::kRefused;
    return;
  }
  const std::string_view origin = zone->origin().wire();

  if (qtype == RrType::kAxfr) {
    if (qname != origin ||
        !(axfr_policy_ && axfr_policy_(client, zone->origin()))) {
      ServerMetrics::get().axfr_refused.inc();
      out.header().rcode = Rcode::kRefused;
      return;
    }
    ServerMetrics::get().axfr_granted.inc();
    out.header().aa = true;
    for (const auto& rr : zone->axfr()) out.record(Section::kAnswer, rr);
    return;
  }

  // Delegation below this zone's apex?
  if (const Name* cut = zone->delegation_cut(qname)) {
    // Referral: NS records at the cut, then any glue we host for them.
    const auto ns = zone->node(cut->wire())->of(RrType::kNs);
    for (const auto& rr : ns) out.record(Section::kAuthority, rr);
    for (const auto& rr : ns)
      if (const auto* target = std::get_if<NsRecord>(&rr.data))
        if (const auto* host = zone->node(target->nameserver.wire()))
          for (const auto& glue : host->of(RrType::kA))
            out.record(Section::kAdditional, glue);
    return;
  }

  out.header().aa = true;
  const bool chase = qtype != RrType::kCname && qtype != RrType::kAny;
  // The hook takes a Name; it is built only when a hook is set.
  Name hook_name;
  if (dynamic_answer_) hook_name = question.name();
  const Zone::NodeData* node = nullptr;
  // In-zone CNAME chasing with a hop guard against record cycles.
  for (int hops = 0;; ++hops) {
    if (hops == 16) {
      node = zone->node(qname);
      break;
    }
    // Dynamic (client-dependent) answers take precedence at each step.
    if (dynamic_answer_) {
      if (const auto dynamic = dynamic_answer_(client, hook_name)) {
        out.record(Section::kAnswer, *dynamic);
        const auto* cname = std::get_if<CnameRecord>(&dynamic->data);
        if (!cname || !chase || !cname->target.is_subdomain_of(zone->origin()))
          return;
        hook_name = cname->target;
        qname = hook_name.wire();
        continue;
      }
    }
    node = zone->node(qname);
    if (!node) break;
    if (const auto cnames = node->of(RrType::kCname); chase && !cnames.empty()) {
      const Name& target = std::get<CnameRecord>(cnames.front().data).target;
      out.record(Section::kAnswer, cnames.front());
      if (!target.is_subdomain_of(zone->origin())) return;  // out of zone
      qname = target.wire();
      if (dynamic_answer_) hook_name = target;
      continue;
    }
    bool answered = false;
    const auto write = [&](std::span<const ResourceRecord> records) {
      for (const auto& rr : records) out.record(Section::kAnswer, rr);
      answered = answered || !records.empty();
    };
    if (qtype == RrType::kAny) {
      for (const auto& [type, records] : node->by_type) write(records);
    } else {
      write(node->of(qtype));
    }
    if (answered) return;
    break;
  }

  // Nothing at the terminal name: NODATA if the name exists, else NXDOMAIN.
  if (!node) out.header().rcode = Rcode::kNxDomain;
  out.negative_soa(origin, zone->soa().minimum, zone->soa());
}

}  // namespace cs::dns
