#include "util/strings.h"

#include <algorithm>
#include <cctype>

namespace cs::util {
namespace {

char lower(char c) noexcept {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

}  // namespace

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string_view> split_nonempty(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  for (auto piece : split(text, sep))
    if (!piece.empty()) out.push_back(piece);
  return out;
}

std::string join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (i) out += sep;
    out += pieces[i];
  }
  return out;
}

std::string to_lower(std::string_view text) {
  std::string out{text};
  std::transform(out.begin(), out.end(), out.begin(),
                 [](char c) { return lower(c); });
  return out;
}

std::string_view trim(std::string_view text) {
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
  };
  while (!text.empty() && is_space(text.front())) text.remove_prefix(1);
  while (!text.empty() && is_space(text.back())) text.remove_suffix(1);
  return text;
}

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (lower(a[i]) != lower(b[i])) return false;
  return true;
}

bool istarts_with(std::string_view text, std::string_view prefix) noexcept {
  return text.size() >= prefix.size() &&
         iequals(text.substr(0, prefix.size()), prefix);
}

bool iends_with(std::string_view text, std::string_view suffix) noexcept {
  return text.size() >= suffix.size() &&
         iequals(text.substr(text.size() - suffix.size()), suffix);
}

bool icontains(std::string_view text, std::string_view needle) noexcept {
  if (needle.empty()) return true;
  if (text.size() < needle.size()) return false;
  for (std::size_t i = 0; i + needle.size() <= text.size(); ++i)
    if (iequals(text.substr(i, needle.size()), needle)) return true;
  return false;
}

}  // namespace cs::util
