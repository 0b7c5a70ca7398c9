// LineReader — the cursor both line-oriented text formats parse with: the
// corpus format (gen/corpus_io.hpp) and the service wire (serve/wire.hpp),
// which embeds corpus text in every request.
//
// Both formats promise render(parse(x)) == x, so the reader accepts only
// the canonical spelling of every value: integers are bare decimal digits
// with no sign, padding or leading zero (a '-' only where a signed value
// is read), never what std::stoull or stream extraction would also take;
// doubles are C99 %a hexfloats exactly as printf writes them.
// Every error is a std::runtime_error naming the format and the line
// being read: "<format> format error (line N): ...".
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace rustbrain::support {

class LineReader {
  public:
    /// `format` names the format in error messages ("corpus", "wire").
    /// `text` must outlive the reader.
    LineReader(const std::string& text, const char* format)
        : text_(text), format_(format) {}

    [[noreturn]] void fail(const std::string& message) const;

    [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }

    /// Next line without its trailing '\n'. Errors raised while processing
    /// it name its line number.
    std::string read_line();

    /// A line of the exact form "<key> <payload>" (or just "<key>", whose
    /// payload is ""); returns the payload.
    std::string read_field(const std::string& key);

    /// Exactly `bytes` raw bytes followed by one '\n' (the byte-counted
    /// blocks that carry sources unescaped).
    std::string read_block(std::uint64_t bytes);

    std::uint64_t parse_u64(const std::string& text, const char* what) const;
    std::int64_t parse_i64(const std::string& text, const char* what) const;
    double parse_double(const std::string& text, const char* what) const;
    /// "1" or "0".
    bool parse_bool(const std::string& text, const char* what) const;

  private:
    const std::string& text_;
    const char* format_;
    std::size_t pos_ = 0;
    std::size_t line_ = 0;  // the line currently being processed (1-based)
};

}  // namespace rustbrain::support
