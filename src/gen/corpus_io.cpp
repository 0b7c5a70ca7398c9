#include "gen/corpus_io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "miri/finding.hpp"

namespace rustbrain::gen {

namespace {

const char* kMagic = "rustbrain-corpus";

bool category_from_label(const std::string& label, miri::UbCategory& out) {
    for (miri::UbCategory category : miri::all_ub_categories()) {
        if (label == miri::ub_category_label(category)) {
            out = category;
            return true;
        }
    }
    // CompileError is not part of all_ub_categories' figure order but is a
    // legal case category nonetheless.
    if (label == miri::ub_category_label(miri::UbCategory::CompileError)) {
        out = miri::UbCategory::CompileError;
        return true;
    }
    return false;
}

bool strategy_from_name(const std::string& name, dataset::FixStrategy& out) {
    using dataset::FixStrategy;
    for (FixStrategy strategy :
         {FixStrategy::SafeAlternative, FixStrategy::AssertionGuard,
          FixStrategy::SemanticModification}) {
        if (name == dataset::fix_strategy_name(strategy)) {
            out = strategy;
            return true;
        }
    }
    return false;
}

/// Cursor over the serialized text with line-accurate error reporting.
class Reader {
  public:
    explicit Reader(const std::string& text) : text_(text) {}

    [[noreturn]] void fail(const std::string& message) const {
        throw std::runtime_error("corpus format error (line " +
                                 std::to_string(line_) + "): " + message);
    }

    [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }

    /// Next line without its trailing '\n'. line_ names the line being
    /// read, so errors raised while processing it point at it.
    std::string read_line() {
        ++line_;
        if (at_end()) fail("unexpected end of input");
        const std::size_t newline = text_.find('\n', pos_);
        if (newline == std::string::npos) {
            fail("missing final newline");
        }
        std::string line = text_.substr(pos_, newline - pos_);
        pos_ = newline + 1;
        return line;
    }

    /// A line of the exact form "<key> <payload>"; returns the payload.
    std::string read_field(const std::string& key) {
        const std::string line = read_line();
        if (line == key) return "";
        if (line.rfind(key + " ", 0) != 0) {
            fail("expected '" + key + " ...' but found '" + line + "'");
        }
        return line.substr(key.size() + 1);
    }

    std::uint64_t parse_u64(const std::string& text, const char* what) {
        try {
            std::size_t consumed = 0;
            const unsigned long long value = std::stoull(text, &consumed);
            if (consumed == text.size() && !text.empty() && text[0] != '-') {
                return value;
            }
        } catch (...) {
        }
        fail(std::string(what) + " is not an unsigned integer: '" + text + "'");
    }

    /// Exactly `bytes` raw bytes followed by one '\n'.
    std::string read_block(std::uint64_t bytes) {
        // Overflow-safe form of pos_ + bytes + 1 > size(): a corrupt byte
        // count near UINT64_MAX must fail here, not wrap and "fit".
        const std::uint64_t remaining = text_.size() - pos_;
        if (remaining == 0 || bytes >= remaining) {
            fail("source block runs past end of input");
        }
        std::string block = text_.substr(pos_, bytes);
        pos_ += bytes;
        if (text_[pos_] != '\n') {
            fail("source block is not terminated by a newline "
                 "(byte count is wrong)");
        }
        ++pos_;
        for (char c : block) {
            if (c == '\n') ++line_;
        }
        ++line_;
        return block;
    }

  private:
    const std::string& text_;
    std::size_t pos_ = 0;
    std::size_t line_ = 0;  // the line currently being processed (1-based)
};

}  // namespace

std::string corpus_to_string(const dataset::Corpus& corpus) {
    std::ostringstream out;
    out << kMagic << " v" << kCorpusFormatVersion << "\n";
    out << "cases " << corpus.size() << "\n";
    for (const dataset::UbCase& c : corpus.cases()) {
        // Refuse to write what load_corpus would refuse to read — a save
        // that cannot round-trip is data loss deferred to load time.
        if (c.id.empty() || c.id.find('\n') != std::string::npos) {
            throw std::invalid_argument(
                "cannot serialize corpus: case id is empty or contains a "
                "newline: '" + c.id + "'");
        }
        if (c.difficulty < 1 || c.difficulty > 3) {
            throw std::invalid_argument(
                "cannot serialize corpus: case " + c.id +
                " has difficulty outside [1, 3]");
        }
        out << "\ncase " << c.id << "\n";
        out << "category " << miri::ub_category_label(c.category) << "\n";
        out << "strategy " << dataset::fix_strategy_name(c.intended_strategy)
            << "\n";
        out << "difficulty " << c.difficulty << "\n";
        out << "inputs " << c.inputs.size() << "\n";
        for (const std::vector<std::int64_t>& input : c.inputs) {
            out << "input " << input.size();
            for (std::int64_t value : input) out << ' ' << value;
            out << "\n";
        }
        out << "buggy " << c.buggy_source.size() << "\n"
            << c.buggy_source << "\n";
        out << "fix " << c.reference_fix.size() << "\n"
            << c.reference_fix << "\n";
        out << "end\n";
    }
    return out.str();
}

dataset::Corpus corpus_from_string(const std::string& text) {
    Reader reader(text);

    const std::string header = reader.read_line();
    const std::string expected_header =
        std::string(kMagic) + " v" + std::to_string(kCorpusFormatVersion);
    if (header != expected_header) {
        if (header.rfind(kMagic, 0) != 0) {
            reader.fail("not a rustbrain corpus file (bad magic '" + header +
                        "')");
        }
        reader.fail("unsupported corpus format version '" + header +
                    "' (this build reads '" + expected_header + "')");
    }
    const std::uint64_t declared_cases =
        reader.parse_u64(reader.read_field("cases"), "case count");
    // Every case occupies well over one byte, so a count beyond the input
    // size is certainly corrupt — reject it here rather than letting an
    // untrusted header size a giant reservation.
    if (declared_cases > text.size()) {
        reader.fail("declared case count " + std::to_string(declared_cases) +
                    " exceeds the input size");
    }

    std::vector<dataset::UbCase> cases;
    cases.reserve(declared_cases);
    for (std::uint64_t index = 0; index < declared_cases; ++index) {
        // Blank separator line between cases.
        if (!reader.read_line().empty()) {
            reader.fail("expected a blank line before case " +
                        std::to_string(index));
        }
        dataset::UbCase c;
        c.id = reader.read_field("case");
        if (c.id.empty()) reader.fail("case id must not be empty");

        const std::string label = reader.read_field("category");
        if (!category_from_label(label, c.category)) {
            reader.fail("unknown category '" + label + "' in case " + c.id);
        }
        const std::string strategy = reader.read_field("strategy");
        if (!strategy_from_name(strategy, c.intended_strategy)) {
            reader.fail("unknown strategy '" + strategy + "' in case " + c.id);
        }
        c.difficulty = static_cast<int>(
            reader.parse_u64(reader.read_field("difficulty"), "difficulty"));
        if (c.difficulty < 1 || c.difficulty > 3) {
            reader.fail("difficulty out of range in case " + c.id);
        }

        const std::uint64_t input_count =
            reader.parse_u64(reader.read_field("inputs"), "input count");
        for (std::uint64_t i = 0; i < input_count; ++i) {
            const std::string field = reader.read_field("input");
            std::istringstream line(field);
            std::uint64_t length = 0;
            if (!(line >> length)) {
                reader.fail("malformed input vector in case " + c.id);
            }
            // Each value takes at least one byte of the line, so a length
            // beyond the line's size is corrupt — reject it before it sizes
            // a reservation.
            if (length > field.size()) {
                reader.fail("declared input length " + std::to_string(length) +
                            " exceeds its line in case " + c.id);
            }
            std::vector<std::int64_t> values;
            values.reserve(length);
            for (std::uint64_t v = 0; v < length; ++v) {
                std::int64_t value = 0;
                if (!(line >> value)) {
                    reader.fail("input vector shorter than declared in case " +
                                c.id);
                }
                values.push_back(value);
            }
            std::string trailing;
            if (line >> trailing) {
                reader.fail("input vector longer than declared in case " +
                            c.id);
            }
            c.inputs.push_back(std::move(values));
        }

        c.buggy_source = reader.read_block(
            reader.parse_u64(reader.read_field("buggy"), "buggy byte count"));
        c.reference_fix = reader.read_block(
            reader.parse_u64(reader.read_field("fix"), "fix byte count"));
        if (reader.read_line() != "end") {
            reader.fail("expected 'end' after case " + c.id);
        }
        cases.push_back(std::move(c));
    }
    if (!reader.at_end()) {
        reader.fail("trailing content after the declared " +
                    std::to_string(declared_cases) + " cases");
    }
    return dataset::Corpus(std::move(cases));
}

void save_corpus(const dataset::Corpus& corpus, const std::string& path) {
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        throw std::runtime_error("cannot open corpus file for writing: " +
                                 path);
    }
    const std::string text = corpus_to_string(corpus);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    if (!out) {
        throw std::runtime_error("failed writing corpus file: " + path);
    }
}

dataset::Corpus load_corpus(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw std::runtime_error("cannot open corpus file: " + path);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad()) {
        throw std::runtime_error("failed reading corpus file: " + path);
    }
    try {
        return corpus_from_string(buffer.str());
    } catch (const std::runtime_error& error) {
        throw std::runtime_error(path + ": " + error.what());
    }
}

}  // namespace rustbrain::gen
