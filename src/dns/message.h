#pragma once

#include <array>
#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dns/rr.h"

/// DNS message model and full RFC 1035 wire codec, including name
/// compression on encode and pointer chasing (with loop guards) on decode.
///
/// The enumerator and resolver speak this wire format end to end — queries
/// are encoded to bytes and responses decoded from bytes even inside the
/// simulator, so the codec is exercised by every experiment that touches
/// DNS, exactly as dig/dnsmap would exercise a real resolver path.
///
/// There is one parser, MessageView::walk: a bounds-checked pass over a
/// datagram that allocates nothing and leaves names as wire offsets.
/// Message::decode is that walk followed by materialising every field;
/// the resolver and the server read the view and build only what they
/// keep. There is one writer, WireWriter: Message::encode and the
/// server's answer path both write through it.
namespace cs::dns {

enum class Rcode : std::uint8_t {
  kNoError = 0,
  kFormErr = 1,
  kServFail = 2,
  kNxDomain = 3,
  kNotImp = 4,
  kRefused = 5,
};

std::string to_string(Rcode rcode);

enum class Opcode : std::uint8_t {
  kQuery = 0,
};

/// Message header (RFC 1035 §4.1.1). Counts live implicitly in the
/// section vectors of Message.
struct Header {
  std::uint16_t id = 0;
  bool qr = false;  ///< false = query, true = response
  Opcode opcode = Opcode::kQuery;
  bool aa = false;  ///< authoritative answer
  bool tc = false;  ///< truncated
  bool rd = false;  ///< recursion desired ("norecurse" clears this)
  bool ra = false;  ///< recursion available
  Rcode rcode = Rcode::kNoError;

  bool operator==(const Header&) const = default;
};

struct Question {
  Name name;
  RrType type = RrType::kA;

  bool operator==(const Question&) const = default;
};

/// The three record sections, in wire order.
enum class Section : std::uint8_t { kAnswer, kAuthority, kAdditional };

/// A complete DNS message.
struct Message {
  Header header;
  std::vector<Question> questions;
  std::vector<ResourceRecord> answers;
  std::vector<ResourceRecord> authority;
  std::vector<ResourceRecord> additional;

  bool operator==(const Message&) const = default;

  /// Builds a standard query for one (name, type) pair.
  static Message query(std::uint16_t id, Name name, RrType type,
                       bool recursion_desired = false);

  /// Builds a response skeleton echoing the query's id and question.
  static Message response_to(const Message& query, Rcode rcode,
                             bool authoritative);

  /// Serializes to wire format. Never fails for messages built through this
  /// API (names are pre-validated).
  std::vector<std::uint8_t> encode() const;

  /// Parses wire format; nullopt on any malformed input (truncation,
  /// compression loops, bad rdata lengths, unknown classes).
  static std::optional<Message> decode(std::span<const std::uint8_t> wire);
};

/// A one-question query's wire bytes, written without building a Message.
std::vector<std::uint8_t> encode_query(std::uint16_t id, const Name& name,
                                       RrType type,
                                       bool recursion_desired = false);

/// One question of a walked datagram; its name is a wire offset.
struct QuestionView {
  std::size_t name_at = 0;
  RrType type = RrType::kA;
};

/// One record of a walked datagram: the fixed fields, with the owner
/// name and the rdata left in place as wire offsets.
struct RecordView {
  std::size_t name_at = 0;
  RrType type = RrType::kA;
  std::uint32_t ttl = 0;
  /// The rdata: an A address, an NS or CNAME target name, SOA mname...
  std::size_t rdata_at = 0;
  std::uint16_t rdlength = 0;
};

/// A datagram read in place. walk() makes every check of the codec:
/// bounds, the name rules of NameBuf::read, class IN, known record types
/// and exact rdata lengths, so a view exists exactly when Message::decode
/// succeeds. The view borrows the bytes it walked.
class MessageView {
 public:
  /// Forward range over one section's records.
  class RecordRange {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = RecordView;
      using difference_type = std::ptrdiff_t;

      iterator() = default;
      iterator(const MessageView* view, std::size_t at, std::size_t left);
      const RecordView& operator*() const noexcept { return record_; }
      const RecordView* operator->() const noexcept { return &record_; }
      iterator& operator++();
      iterator operator++(int) {
        iterator old = *this;
        ++*this;
        return old;
      }
      bool operator==(const iterator& other) const noexcept {
        return left_ == other.left_;
      }

     private:
      const MessageView* view_ = nullptr;
      std::size_t left_ = 0;
      RecordView record_;
    };

    RecordRange(const MessageView* view, std::size_t at, std::size_t count)
        : view_(view), at_(at), count_(count) {}
    iterator begin() const { return {view_, at_, count_}; }
    iterator end() const { return {}; }
    bool empty() const noexcept { return count_ == 0; }
    std::size_t size() const noexcept { return count_; }

   private:
    const MessageView* view_;
    std::size_t at_;
    std::size_t count_;
  };

  /// Walks all of `wire` once; nullopt where Message::decode fails.
  /// Allocates nothing.
  static std::optional<MessageView> walk(std::span<const std::uint8_t> wire);

  const Header& header() const noexcept { return header_; }
  std::size_t question_count() const noexcept { return counts_[0]; }
  /// The question at `index` (< question_count()); walks the questions
  /// before it.
  QuestionView question(std::size_t index = 0) const;
  RecordRange records(Section section) const {
    const auto s = 1 + static_cast<std::size_t>(section);
    return {this, starts_[s], counts_[s]};
  }

  /// Reads the name at wire offset `at`; cannot fail on a walked view.
  void read_name(std::size_t at, NameBuf& out) const;
  Name name(std::size_t at) const;
  /// An A record's address.
  net::Ipv4 address(const RecordView& rr) const;
  /// The record as a ResourceRecord, every name materialised.
  ResourceRecord record(const RecordView& rr) const;
  /// Every record of `section`, materialised.
  std::vector<ResourceRecord> section(Section section) const;
  /// The whole message materialised (what Message::decode returns).
  Message message() const;

 private:
  std::span<const std::uint8_t> wire_;
  Header header_;
  /// Question, answer, authority and additional: counts and start offsets.
  std::array<std::uint16_t, 4> counts_{};
  std::array<std::size_t, 4> starts_{};
};

/// Writes one datagram front to back: the header, the questions, then
/// each section's records in section order. Names are compressed (RFC
/// 1035 §4.1.4): each points at the earliest full spelling of its longest
/// suffix already written, if that lies in pointer range.
class WireWriter {
 public:
  /// Starts a message whose header is `header`; it and the section
  /// counts are written by finish().
  explicit WireWriter(const Header& header);

  /// The header finish() writes; answer code may still set flags.
  Header& header() noexcept { return header_; }

  /// Appends a question; every question precedes every record.
  void question(std::string_view name_wire, RrType type);
  /// Appends a record to `section`; sections are written in wire order.
  void record(Section section, const ResourceRecord& rr);
  /// Appends a negative answer's authority SOA: owner `origin` (the zone
  /// apex, a suffix of the question's name, so it compresses to a pointer
  /// into the question), TTL `ttl`. Builds no ResourceRecord.
  void negative_soa(std::string_view origin, std::uint32_t ttl,
                    const SoaRecord& soa);

  /// The finished datagram.
  std::vector<std::uint8_t> finish() &&;

 private:
  /// A label written in full at `offset` (a pointer target), starting a
  /// suffix of `length` wire octets (root octet excluded).
  struct Target {
    std::uint16_t offset;
    std::uint8_t length;
  };
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void bytes(const void* data, std::size_t size);
  void name(std::string_view wire);
  /// A record's type, class and TTL, which follow its owner name.
  void rr_fields(RrType type, std::uint32_t ttl);
  /// Writes an rdlength placeholder; end_rdata() fills it in.
  std::size_t begin_rdata();
  void end_rdata(std::size_t rdlength_at);
  void soa_rdata(const SoaRecord& soa);
  void enter(Section section);
  std::optional<std::uint16_t> find(std::string_view suffix) const;
  bool spells(std::size_t at, std::string_view suffix) const;

  Header header_;
  std::vector<std::uint8_t> buf_;
  /// Question, answer, authority and additional counts.
  std::array<std::uint16_t, 4> counts_{};
  /// Index into counts_ of the part being written (0 = questions).
  std::size_t part_ = 0;
  std::vector<Target> targets_;
};

}  // namespace cs::dns
