#pragma once

#include <string>
#include <string_view>
#include <vector>

/// String helpers used across parsing and report code. All are
/// allocation-conscious: views in, owned strings out only where needed.
namespace cs::util {

/// Splits on a single character; empty fields are preserved.
std::vector<std::string_view> split(std::string_view text, char sep);

/// Splits and drops empty fields (useful for whitespace-ish tokenizing).
std::vector<std::string_view> split_nonempty(std::string_view text, char sep);

/// Joins pieces with a separator.
std::string join(const std::vector<std::string>& pieces,
                 std::string_view sep);

/// ASCII lower-case copy (DNS names and HTTP header names are
/// case-insensitive by spec; full Unicode is out of scope).
std::string to_lower(std::string_view text);

/// Trims ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

/// True if text starts with / ends with the given piece (ASCII
/// case-insensitive variants included; DNS suffix checks need them).
bool iequals(std::string_view a, std::string_view b) noexcept;
bool istarts_with(std::string_view text, std::string_view prefix) noexcept;
bool iends_with(std::string_view text, std::string_view suffix) noexcept;
bool icontains(std::string_view text, std::string_view needle) noexcept;

}  // namespace cs::util
