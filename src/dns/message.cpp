#include "dns/message.h"

#include <cstring>

namespace cs::dns {
namespace {

constexpr std::uint16_t kClassIn = 1;

/// Serializer with RFC 1035 §4.1.4 name compression.
class Writer {
 public:
  Writer() {
    buf_.reserve(512);
    targets_.reserve(32);
  }

  std::vector<std::uint8_t> take() && { return std::move(buf_); }
  std::size_t size() const noexcept { return buf_.size(); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void bytes(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }
  void patch_u16(std::size_t offset, std::uint16_t v) {
    buf_[offset] = static_cast<std::uint8_t>(v >> 8);
    buf_[offset + 1] = static_cast<std::uint8_t>(v);
  }

  /// Writes a name, emitting a compression pointer for the longest suffix
  /// already in the buffer (its earliest occurrence).
  void name(const Name& n) {
    const std::string_view wire = n.wire();
    for (std::size_t at = 0; at < wire.size();) {
      const std::string_view suffix = wire.substr(at);
      if (const auto target = find(suffix)) {
        u16(static_cast<std::uint16_t>(0xC000 | *target));
        return;
      }
      if (buf_.size() <= 0x3FFF)
        targets_.push_back({static_cast<std::uint16_t>(buf_.size()),
                            static_cast<std::uint8_t>(suffix.size())});
      const std::size_t len = 1 + static_cast<unsigned char>(wire[at]);
      bytes({reinterpret_cast<const std::uint8_t*>(wire.data() + at), len});
      at += len;
    }
    u8(0);  // root terminator
  }

 private:
  /// A label written in full at `offset` (a pointer target), starting a
  /// suffix of `length` wire octets (root octet excluded).
  struct Target {
    std::uint16_t offset;
    std::uint8_t length;
  };

  /// Earliest target spelling `suffix`.
  std::optional<std::uint16_t> find(std::string_view suffix) const {
    for (const auto& t : targets_)
      if (t.length == suffix.size() && spells(t.offset, suffix))
        return t.offset;
    return std::nullopt;
  }

  /// True if the name at `at` in the buffer, pointers followed, is `suffix`.
  bool spells(std::size_t at, std::string_view suffix) const {
    for (std::size_t i = 0;;) {
      const std::uint8_t len = buf_[at];
      if ((len & 0xC0) == 0xC0) {
        at = (static_cast<std::size_t>(len & 0x3F) << 8) | buf_[at + 1];
        continue;
      }
      if (len == 0) return i == suffix.size();
      if (i >= suffix.size() ||
          static_cast<unsigned char>(suffix[i]) != len ||
          std::memcmp(buf_.data() + at + 1, suffix.data() + i + 1, len) != 0)
        return false;
      i += 1 + len;
      at += 1 + len;
    }
  }

  std::vector<std::uint8_t> buf_;
  std::vector<Target> targets_;
};

/// Bounds-checked reader; names decode through Name::decode_wire.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> wire) : wire_(wire) {}

  bool ok() const noexcept { return ok_; }
  std::size_t pos() const noexcept { return pos_; }

  std::uint8_t u8() {
    if (pos_ + 1 > wire_.size()) return fail<std::uint8_t>();
    return wire_[pos_++];
  }
  std::uint16_t u16() {
    if (pos_ + 2 > wire_.size()) return fail<std::uint16_t>();
    const std::uint16_t v =
        static_cast<std::uint16_t>((wire_[pos_] << 8) | wire_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    const std::uint32_t hi = u16();
    return (hi << 16) | u16();
  }

  Name name() {
    auto n = Name::decode_wire(wire_, pos_);
    if (!n) return fail<Name>();
    return *std::move(n);
  }

  std::span<const std::uint8_t> bytes(std::size_t n) {
    if (pos_ + n > wire_.size()) return fail<std::span<const std::uint8_t>>();
    const auto out = wire_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

 private:
  template <typename T>
  T fail() {
    ok_ = false;
    return T{};
  }

  std::span<const std::uint8_t> wire_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

void encode_rr(Writer& w, const ResourceRecord& rr) {
  w.name(rr.name);
  w.u16(static_cast<std::uint16_t>(rr.type()));
  w.u16(kClassIn);
  w.u32(rr.ttl);
  const std::size_t rdlength_at = w.size();
  w.u16(0);  // placeholder
  const std::size_t rdata_start = w.size();
  struct Visitor {
    Writer& w;
    void operator()(const ARecord& r) { w.u32(r.address.value()); }
    void operator()(const NsRecord& r) { w.name(r.nameserver); }
    void operator()(const CnameRecord& r) { w.name(r.target); }
    void operator()(const SoaRecord& r) {
      w.name(r.mname);
      w.name(r.rname);
      w.u32(r.serial);
      w.u32(r.refresh);
      w.u32(r.retry);
      w.u32(r.expire);
      w.u32(r.minimum);
    }
    void operator()(const TxtRecord& r) {
      for (const auto& s : r.strings) {
        w.u8(static_cast<std::uint8_t>(std::min<std::size_t>(s.size(), 255)));
        w.bytes({reinterpret_cast<const std::uint8_t*>(s.data()),
                 std::min<std::size_t>(s.size(), 255)});
      }
    }
  };
  std::visit(Visitor{w}, rr.data);
  w.patch_u16(rdlength_at, static_cast<std::uint16_t>(w.size() - rdata_start));
}

std::optional<ResourceRecord> decode_rr(Reader& r) {
  ResourceRecord rr;
  rr.name = r.name();
  const auto type = static_cast<RrType>(r.u16());
  const auto klass = r.u16();
  rr.ttl = r.u32();
  const std::uint16_t rdlength = r.u16();
  if (!r.ok() || klass != kClassIn) return std::nullopt;
  const std::size_t rdata_end = r.pos() + rdlength;
  switch (type) {
    case RrType::kA: {
      if (rdlength != 4) return std::nullopt;
      rr.data = ARecord{net::Ipv4{r.u32()}};
      break;
    }
    case RrType::kNs:
      rr.data = NsRecord{r.name()};
      break;
    case RrType::kCname:
      rr.data = CnameRecord{r.name()};
      break;
    case RrType::kSoa: {
      SoaRecord soa;
      soa.mname = r.name();
      soa.rname = r.name();
      soa.serial = r.u32();
      soa.refresh = r.u32();
      soa.retry = r.u32();
      soa.expire = r.u32();
      soa.minimum = r.u32();
      rr.data = std::move(soa);
      break;
    }
    case RrType::kTxt: {
      TxtRecord txt;
      while (r.ok() && r.pos() < rdata_end) {
        const std::uint8_t len = r.u8();
        const auto bytes = r.bytes(len);
        if (!r.ok()) return std::nullopt;
        txt.strings.emplace_back(reinterpret_cast<const char*>(bytes.data()),
                                 bytes.size());
      }
      rr.data = std::move(txt);
      break;
    }
    default:
      return std::nullopt;  // unknown type in a response we generated
  }
  if (!r.ok() || r.pos() != rdata_end) return std::nullopt;
  return rr;
}

}  // namespace

std::string to_string(Rcode rcode) {
  switch (rcode) {
    case Rcode::kNoError:
      return "NOERROR";
    case Rcode::kFormErr:
      return "FORMERR";
    case Rcode::kServFail:
      return "SERVFAIL";
    case Rcode::kNxDomain:
      return "NXDOMAIN";
    case Rcode::kNotImp:
      return "NOTIMP";
    case Rcode::kRefused:
      return "REFUSED";
  }
  return "RCODE?";
}

Message Message::query(std::uint16_t id, Name name, RrType type,
                       bool recursion_desired) {
  Message m;
  m.header.id = id;
  m.header.rd = recursion_desired;
  m.questions.push_back({std::move(name), type});
  return m;
}

Message Message::response_to(const Message& query, Rcode rcode,
                             bool authoritative) {
  Message m;
  m.header.id = query.header.id;
  m.header.qr = true;
  m.header.aa = authoritative;
  m.header.rd = query.header.rd;
  m.header.rcode = rcode;
  m.questions = query.questions;
  return m;
}

std::vector<std::uint8_t> Message::encode() const {
  Writer w;
  w.u16(header.id);
  std::uint16_t flags = 0;
  flags |= header.qr ? 0x8000 : 0;
  flags |= static_cast<std::uint16_t>(header.opcode) << 11;
  flags |= header.aa ? 0x0400 : 0;
  flags |= header.tc ? 0x0200 : 0;
  flags |= header.rd ? 0x0100 : 0;
  flags |= header.ra ? 0x0080 : 0;
  flags |= static_cast<std::uint16_t>(header.rcode);
  w.u16(flags);
  w.u16(static_cast<std::uint16_t>(questions.size()));
  w.u16(static_cast<std::uint16_t>(answers.size()));
  w.u16(static_cast<std::uint16_t>(authority.size()));
  w.u16(static_cast<std::uint16_t>(additional.size()));
  for (const auto& q : questions) {
    w.name(q.name);
    w.u16(static_cast<std::uint16_t>(q.type));
    w.u16(kClassIn);
  }
  for (const auto& rr : answers) encode_rr(w, rr);
  for (const auto& rr : authority) encode_rr(w, rr);
  for (const auto& rr : additional) encode_rr(w, rr);
  return std::move(w).take();
}

std::optional<Message> Message::decode(std::span<const std::uint8_t> wire) {
  Reader r{wire};
  Message m;
  m.header.id = r.u16();
  const std::uint16_t flags = r.u16();
  m.header.qr = flags & 0x8000;
  m.header.opcode = static_cast<Opcode>((flags >> 11) & 0xF);
  m.header.aa = flags & 0x0400;
  m.header.tc = flags & 0x0200;
  m.header.rd = flags & 0x0100;
  m.header.ra = flags & 0x0080;
  m.header.rcode = static_cast<Rcode>(flags & 0xF);
  const std::uint16_t qd = r.u16();
  const std::uint16_t an = r.u16();
  const std::uint16_t ns = r.u16();
  const std::uint16_t ar = r.u16();
  if (!r.ok()) return std::nullopt;
  for (int i = 0; i < qd; ++i) {
    Question q;
    q.name = r.name();
    q.type = static_cast<RrType>(r.u16());
    const auto klass = r.u16();
    if (!r.ok() || klass != kClassIn) return std::nullopt;
    m.questions.push_back(std::move(q));
  }
  auto read_section = [&r](int count, std::vector<ResourceRecord>& out) {
    for (int i = 0; i < count; ++i) {
      auto rr = decode_rr(r);
      if (!rr) return false;
      out.push_back(*std::move(rr));
    }
    return true;
  };
  if (!read_section(an, m.answers) || !read_section(ns, m.authority) ||
      !read_section(ar, m.additional))
    return std::nullopt;
  if (!r.ok()) return std::nullopt;
  return m;
}

}  // namespace cs::dns
