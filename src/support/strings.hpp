// Small string helpers used across the toolchain.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace rustbrain::support {

std::vector<std::string> split(std::string_view text, char delimiter);
std::string_view trim(std::string_view text);
std::string join(const std::vector<std::string>& parts, std::string_view separator);
bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);
bool contains(std::string_view text, std::string_view needle);
std::string replace_all(std::string_view text, std::string_view from, std::string_view to);
/// Indent every line of `text` by `spaces` spaces.
std::string indent(std::string_view text, int spaces);
/// Format a double with fixed precision (locale-independent).
std::string format_double(double value, int precision);

}  // namespace rustbrain::support
