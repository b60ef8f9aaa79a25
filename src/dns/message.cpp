#include "dns/message.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace cs::dns {
namespace {

constexpr std::uint16_t kClassIn = 1;

constexpr std::size_t kHeaderSize = 12;

std::uint16_t get_u16(std::span<const std::uint8_t> wire, std::size_t at) {
  return static_cast<std::uint16_t>((wire[at] << 8) | wire[at + 1]);
}

std::uint32_t get_u32(std::span<const std::uint8_t> wire, std::size_t at) {
  return (static_cast<std::uint32_t>(get_u16(wire, at)) << 16) |
         get_u16(wire, at + 2);
}

/// Moves `at` past a name of a walked datagram: its labels up to the root
/// octet or the first pointer.
std::size_t skip_name(std::span<const std::uint8_t> wire, std::size_t at) {
  for (;;) {
    const std::uint8_t len = wire[at];
    if ((len & 0xC0) == 0xC0) return at + 2;
    if (len == 0) return at + 1;
    at += 1 + len;
  }
}

/// Reads the fixed fields of the record at `at` of a walked datagram.
void read_record(std::span<const std::uint8_t> wire, std::size_t at,
                 RecordView& out) {
  out.name_at = at;
  at = skip_name(wire, at);
  out.type = static_cast<RrType>(get_u16(wire, at));
  out.ttl = get_u32(wire, at + 4);
  out.rdlength = get_u16(wire, at + 8);
  out.rdata_at = at + 10;
}

/// The bounds-checked cursor of MessageView::walk.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> wire) : wire_(wire) {}

  bool ok() const noexcept { return ok_; }
  std::size_t pos() const noexcept { return pos_; }

  std::uint8_t u8() {
    if (pos_ + 1 > wire_.size()) return fail();
    return wire_[pos_++];
  }
  std::uint16_t u16() {
    if (pos_ + 2 > wire_.size()) return fail();
    const std::uint16_t v = get_u16(wire_, pos_);
    pos_ += 2;
    return v;
  }
  void skip(std::size_t n) {
    if (pos_ + n > wire_.size()) fail();
    else pos_ += n;
  }
  void name() {
    if (ok_ && !scratch_.read(wire_, pos_)) fail();
  }

 private:
  std::uint8_t fail() {
    ok_ = false;
    return 0;
  }

  std::span<const std::uint8_t> wire_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  NameBuf scratch_;
};

/// Checks one record: a name, class IN, a known type and rdata that fills
/// exactly rdlength octets.
bool check_record(Reader& r) {
  r.name();
  const auto type = static_cast<RrType>(r.u16());
  const auto klass = r.u16();
  r.skip(4);  // ttl
  const std::uint16_t rdlength = r.u16();
  if (!r.ok() || klass != kClassIn) return false;
  const std::size_t rdata_end = r.pos() + rdlength;
  switch (type) {
    case RrType::kA:
      if (rdlength != 4) return false;
      r.skip(4);
      break;
    case RrType::kNs:
    case RrType::kCname:
      r.name();
      break;
    case RrType::kSoa:
      r.name();
      r.name();
      r.skip(20);
      break;
    case RrType::kTxt:
      while (r.ok() && r.pos() < rdata_end) r.skip(r.u8());
      break;
    default:
      return false;  // unknown type in a response we generated
  }
  return r.ok() && r.pos() == rdata_end;
}

}  // namespace

std::optional<MessageView> MessageView::walk(
    std::span<const std::uint8_t> wire) {
  Reader r{wire};
  MessageView v;
  v.wire_ = wire;
  v.header_.id = r.u16();
  const std::uint16_t flags = r.u16();
  v.header_.qr = flags & 0x8000;
  v.header_.opcode = static_cast<Opcode>((flags >> 11) & 0xF);
  v.header_.aa = flags & 0x0400;
  v.header_.tc = flags & 0x0200;
  v.header_.rd = flags & 0x0100;
  v.header_.ra = flags & 0x0080;
  v.header_.rcode = static_cast<Rcode>(flags & 0xF);
  for (auto& count : v.counts_) count = r.u16();
  if (!r.ok()) return std::nullopt;
  v.starts_[0] = r.pos();
  for (std::size_t i = 0; i < v.counts_[0]; ++i) {
    r.name();
    r.skip(2);  // type
    if (r.u16() != kClassIn || !r.ok()) return std::nullopt;
  }
  for (std::size_t s = 1; s < 4; ++s) {
    v.starts_[s] = r.pos();
    for (std::size_t i = 0; i < v.counts_[s]; ++i)
      if (!check_record(r)) return std::nullopt;
  }
  return v;
}

QuestionView MessageView::question(std::size_t index) const {
  std::size_t at = starts_[0];
  for (; index > 0; --index) at = skip_name(wire_, at) + 4;
  return {at, static_cast<RrType>(get_u16(wire_, skip_name(wire_, at)))};
}

MessageView::RecordRange::iterator::iterator(const MessageView* view,
                                             std::size_t at, std::size_t left)
    : view_(view), left_(left) {
  if (left_ > 0) read_record(view_->wire_, at, record_);
}

MessageView::RecordRange::iterator&
MessageView::RecordRange::iterator::operator++() {
  const std::size_t next = record_.rdata_at + record_.rdlength;
  if (--left_ > 0) read_record(view_->wire_, next, record_);
  return *this;
}

void MessageView::read_name(std::size_t at, NameBuf& out) const {
  [[maybe_unused]] const bool ok = out.read(wire_, at);
  assert(ok && "a walked datagram's names read");
}

Name MessageView::name(std::size_t at) const {
  auto name = Name::decode_wire(wire_, at);
  assert(name && "a walked datagram's names read");
  return *std::move(name);
}

net::Ipv4 MessageView::address(const RecordView& rr) const {
  return net::Ipv4{get_u32(wire_, rr.rdata_at)};
}

ResourceRecord MessageView::record(const RecordView& rr) const {
  ResourceRecord out;
  out.name = name(rr.name_at);
  out.ttl = rr.ttl;
  switch (rr.type) {
    case RrType::kA:
      out.data = ARecord{address(rr)};
      break;
    case RrType::kNs:
      out.data = NsRecord{name(rr.rdata_at)};
      break;
    case RrType::kCname:
      out.data = CnameRecord{name(rr.rdata_at)};
      break;
    case RrType::kSoa: {
      SoaRecord soa;
      soa.mname = name(rr.rdata_at);
      std::size_t at = skip_name(wire_, rr.rdata_at);
      soa.rname = name(at);
      at = skip_name(wire_, at);
      soa.serial = get_u32(wire_, at);
      soa.refresh = get_u32(wire_, at + 4);
      soa.retry = get_u32(wire_, at + 8);
      soa.expire = get_u32(wire_, at + 12);
      soa.minimum = get_u32(wire_, at + 16);
      out.data = std::move(soa);
      break;
    }
    default: {  // walk() admits only the five record types: this is TXT
      TxtRecord txt;
      const std::size_t end = rr.rdata_at + rr.rdlength;
      for (std::size_t at = rr.rdata_at; at < end; at += 1 + wire_[at])
        txt.strings.emplace_back(
            reinterpret_cast<const char*>(wire_.data()) + at + 1, wire_[at]);
      out.data = std::move(txt);
      break;
    }
  }
  return out;
}

Message MessageView::message() const {
  Message m;
  m.header = header_;
  m.questions.reserve(counts_[0]);
  for (std::size_t i = 0, at = starts_[0]; i < counts_[0]; ++i) {
    const std::size_t type_at = skip_name(wire_, at);
    m.questions.push_back(
        {name(at), static_cast<RrType>(get_u16(wire_, type_at))});
    at = type_at + 4;
  }
  m.answers = section(Section::kAnswer);
  m.authority = section(Section::kAuthority);
  m.additional = section(Section::kAdditional);
  return m;
}

std::vector<ResourceRecord> MessageView::section(Section section) const {
  const auto range = records(section);
  std::vector<ResourceRecord> out;
  out.reserve(range.size());
  for (const auto& rr : range) out.push_back(record(rr));
  return out;
}

WireWriter::WireWriter(const Header& header) : header_(header) {
  buf_.reserve(512);
  buf_.resize(kHeaderSize);
  targets_.reserve(32);
}

inline void WireWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

inline void WireWriter::u32(std::uint32_t v) {
  u16(static_cast<std::uint16_t>(v >> 16));
  u16(static_cast<std::uint16_t>(v));
}

inline void WireWriter::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + size);
}

std::optional<std::uint16_t> WireWriter::find(std::string_view suffix) const {
  for (const Target t : targets_)
    if (t.length == suffix.size() && spells(t.offset, suffix)) return t.offset;
  return std::nullopt;
}

bool WireWriter::spells(std::size_t at, std::string_view suffix) const {
  for (std::size_t i = 0;;) {
    const std::uint8_t len = buf_[at];
    if ((len & 0xC0) == 0xC0) {
      at = (static_cast<std::size_t>(len & 0x3F) << 8) | buf_[at + 1];
      continue;
    }
    if (len == 0) return i == suffix.size();
    if (i >= suffix.size() || static_cast<unsigned char>(suffix[i]) != len ||
        std::memcmp(buf_.data() + at + 1, suffix.data() + i + 1, len) != 0)
      return false;
    i += 1 + len;
    at += 1 + len;
  }
}

void WireWriter::name(std::string_view wire) {
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
    bytes(wire.data() + at, len);
    at += len;
  }
  u8(0);  // root terminator
}

void WireWriter::question(std::string_view name_wire, RrType type) {
  assert(part_ == 0 && "questions precede records");
  ++counts_[0];
  name(name_wire);
  u16(static_cast<std::uint16_t>(type));
  u16(kClassIn);
}

void WireWriter::enter(Section section) {
  const std::size_t part = 1 + static_cast<std::size_t>(section);
  assert(part >= part_ && "sections are written in wire order");
  part_ = part;
  ++counts_[part];
}

void WireWriter::rr_fields(RrType type, std::uint32_t ttl) {
  u16(static_cast<std::uint16_t>(type));
  u16(kClassIn);
  u32(ttl);
}

std::size_t WireWriter::begin_rdata() {
  u16(0);
  return buf_.size() - 2;
}

void WireWriter::end_rdata(std::size_t rdlength_at) {
  const auto rdlength =
      static_cast<std::uint16_t>(buf_.size() - rdlength_at - 2);
  buf_[rdlength_at] = static_cast<std::uint8_t>(rdlength >> 8);
  buf_[rdlength_at + 1] = static_cast<std::uint8_t>(rdlength);
}

void WireWriter::soa_rdata(const SoaRecord& soa) {
  name(soa.mname.wire());
  name(soa.rname.wire());
  u32(soa.serial);
  u32(soa.refresh);
  u32(soa.retry);
  u32(soa.expire);
  u32(soa.minimum);
}

void WireWriter::record(Section section, const ResourceRecord& rr) {
  enter(section);
  name(rr.name.wire());
  rr_fields(rr.type(), rr.ttl);
  const std::size_t rdlength_at = begin_rdata();
  struct Visitor {
    WireWriter& w;
    void operator()(const ARecord& r) { w.u32(r.address.value()); }
    void operator()(const NsRecord& r) { w.name(r.nameserver.wire()); }
    void operator()(const CnameRecord& r) { w.name(r.target.wire()); }
    void operator()(const SoaRecord& r) { w.soa_rdata(r); }
    void operator()(const TxtRecord& r) {
      for (const auto& s : r.strings) {
        const std::size_t len = std::min<std::size_t>(s.size(), 255);
        w.u8(static_cast<std::uint8_t>(len));
        w.bytes(s.data(), len);
      }
    }
  };
  std::visit(Visitor{*this}, rr.data);
  end_rdata(rdlength_at);
}

void WireWriter::negative_soa(std::string_view origin, std::uint32_t ttl,
                              const SoaRecord& soa) {
  enter(Section::kAuthority);
  name(origin);
  rr_fields(RrType::kSoa, ttl);
  const std::size_t rdlength_at = begin_rdata();
  soa_rdata(soa);
  end_rdata(rdlength_at);
}

std::vector<std::uint8_t> WireWriter::finish() && {
  std::uint16_t flags = 0;
  flags |= header_.qr ? 0x8000 : 0;
  flags |= static_cast<std::uint16_t>(header_.opcode) << 11;
  flags |= header_.aa ? 0x0400 : 0;
  flags |= header_.tc ? 0x0200 : 0;
  flags |= header_.rd ? 0x0100 : 0;
  flags |= header_.ra ? 0x0080 : 0;
  flags |= static_cast<std::uint16_t>(header_.rcode);
  const std::array<std::uint16_t, 6> fields{
      header_.id, flags, counts_[0], counts_[1], counts_[2], counts_[3]};
  for (std::size_t i = 0; i < fields.size(); ++i) {
    buf_[2 * i] = static_cast<std::uint8_t>(fields[i] >> 8);
    buf_[2 * i + 1] = static_cast<std::uint8_t>(fields[i]);
  }
  return std::move(buf_);
}

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
  WireWriter w{header};
  for (const auto& q : questions) w.question(q.name.wire(), q.type);
  for (const auto& rr : answers) w.record(Section::kAnswer, rr);
  for (const auto& rr : authority) w.record(Section::kAuthority, rr);
  for (const auto& rr : additional) w.record(Section::kAdditional, rr);
  return std::move(w).finish();
}

std::optional<Message> Message::decode(std::span<const std::uint8_t> wire) {
  const auto view = MessageView::walk(wire);
  if (!view) return std::nullopt;
  return view->message();
}

std::vector<std::uint8_t> encode_query(std::uint16_t id, const Name& name,
                                       RrType type, bool recursion_desired) {
  Header header;
  header.id = id;
  header.rd = recursion_desired;
  WireWriter w{header};
  w.question(name.wire(), type);
  return std::move(w).finish();
}

}  // namespace cs::dns
