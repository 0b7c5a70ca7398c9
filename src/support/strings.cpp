#include "support/strings.hpp"

#include <cctype>
#include <cstdio>

namespace rustbrain::support {

std::vector<std::string> split(std::string_view text, char delimiter) {
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t pos = text.find(delimiter, start);
        if (pos == std::string_view::npos) {
            parts.emplace_back(text.substr(start));
            break;
        }
        parts.emplace_back(text.substr(start, pos - start));
        start = pos + 1;
    }
    return parts;
}

std::string_view trim(std::string_view text) {
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
    while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
    return text.substr(begin, end - begin);
}

std::string join(const std::vector<std::string>& parts, std::string_view separator) {
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i != 0) out += separator;
        out += parts[i];
    }
    return out;
}

bool starts_with(std::string_view text, std::string_view prefix) {
    return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) {
    return text.size() >= suffix.size() &&
           text.substr(text.size() - suffix.size()) == suffix;
}

bool contains(std::string_view text, std::string_view needle) {
    return text.find(needle) != std::string_view::npos;
}

std::string replace_all(std::string_view text, std::string_view from, std::string_view to) {
    if (from.empty()) return std::string(text);
    std::string out;
    std::size_t start = 0;
    for (;;) {
        const std::size_t pos = text.find(from, start);
        if (pos == std::string_view::npos) {
            out.append(text.substr(start));
            return out;
        }
        out.append(text.substr(start, pos - start));
        out.append(to);
        start = pos + from.size();
    }
}

std::string indent(std::string_view text, int spaces) {
    const std::string pad(static_cast<std::size_t>(spaces > 0 ? spaces : 0), ' ');
    std::string out;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t pos = text.find('\n', start);
        const std::string_view line =
            pos == std::string_view::npos ? text.substr(start) : text.substr(start, pos - start);
        if (!line.empty()) {
            out += pad;
            out += line;
        }
        if (pos == std::string_view::npos) break;
        out += '\n';
        start = pos + 1;
    }
    return out;
}

std::string format_double(double value, int precision) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
    return buffer;
}

}  // namespace rustbrain::support
