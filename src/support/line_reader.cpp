#include "support/line_reader.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace rustbrain::support {

namespace {

/// Bare decimal digits without a redundant leading zero ("0" itself is
/// canonical); the only spelling the renderers ever write.
bool canonical_digits(const std::string& text, std::size_t from) {
    if (from >= text.size()) return false;
    if (text[from] == '0' && text.size() - from > 1) return false;
    for (std::size_t i = from; i < text.size(); ++i) {
        if (text[i] < '0' || text[i] > '9') return false;
    }
    return true;
}

}  // namespace

void LineReader::fail(const std::string& message) const {
    throw std::runtime_error(std::string(format_) + " format error (line " +
                             std::to_string(line_) + "): " + message);
}

std::string LineReader::read_line() {
    ++line_;
    if (at_end()) fail("unexpected end of input");
    const std::size_t newline = text_.find('\n', pos_);
    if (newline == std::string::npos) fail("missing final newline");
    std::string line = text_.substr(pos_, newline - pos_);
    pos_ = newline + 1;
    return line;
}

std::string LineReader::read_field(const std::string& key) {
    const std::string line = read_line();
    if (line == key) return "";
    if (line.rfind(key + " ", 0) != 0) {
        fail("expected '" + key + " ...' but found '" + line + "'");
    }
    return line.substr(key.size() + 1);
}

std::string LineReader::read_block(std::uint64_t bytes) {
    // Overflow-safe form of pos_ + bytes + 1 > size(): a corrupt byte count
    // near UINT64_MAX must fail here, not wrap and "fit".
    const std::uint64_t remaining = text_.size() - pos_;
    if (remaining == 0 || bytes >= remaining) {
        fail("block runs past end of input");
    }
    std::string block = text_.substr(pos_, bytes);
    pos_ += bytes;
    if (text_[pos_] != '\n') {
        fail("block is not terminated by a newline (byte count is wrong)");
    }
    ++pos_;
    for (char c : block) {
        if (c == '\n') ++line_;
    }
    ++line_;
    return block;
}

std::uint64_t LineReader::parse_u64(const std::string& text,
                                    const char* what) const {
    if (canonical_digits(text, 0)) {
        errno = 0;
        const unsigned long long value = std::strtoull(text.c_str(), nullptr, 10);
        if (errno != ERANGE) return value;
    }
    fail(std::string(what) + " is not an unsigned integer: '" + text + "'");
}

std::int64_t LineReader::parse_i64(const std::string& text,
                                   const char* what) const {
    const bool negative = !text.empty() && text[0] == '-';
    // "-0" is not how any value renders.
    if (canonical_digits(text, negative ? 1 : 0) && text != "-0") {
        errno = 0;
        const long long value = std::strtoll(text.c_str(), nullptr, 10);
        if (errno != ERANGE) return value;
    }
    fail(std::string(what) + " is not an integer: '" + text + "'");
}

double LineReader::parse_double(const std::string& text,
                                const char* what) const {
    const char* begin = text.c_str();
    char* end = nullptr;
    const double value = std::strtod(begin, &end);
    char canonical[64];
    std::snprintf(canonical, sizeof canonical, "%a", value);
    if (end != begin + text.size() || text.empty() || text != canonical) {
        fail(std::string(what) + " is not a %a hexfloat: '" + text + "'");
    }
    return value;
}

bool LineReader::parse_bool(const std::string& text, const char* what) const {
    if (text == "1") return true;
    if (text == "0") return false;
    fail(std::string(what) + " must be 0 or 1, got '" + text + "'");
}

}  // namespace rustbrain::support
