// Wire protocol for the repair service — length-prefixed text frames.
//
// Every message on a service connection is one frame: a 4-byte big-endian
// payload length followed by that many payload bytes. Payloads are
// line-oriented text in the corpus_io idiom — variable-size fields (ticket,
// sources, the case itself) are written as byte-counted blocks, so any
// program text round-trips exactly and a parse error names the offending
// line (support::LineReader, the corpus format's reader too). The case travels as a single-case gen::corpus_to_string corpus, so
// the one serializer that already round-trips every program byte-exactly is
// also the one the wire uses.
//
// Doubles (virtual times, latencies) are rendered as C99 %a hexfloats, so
// render(parse(x)) == x bit-for-bit — the property the deterministic-mode
// byte-compare (service vs serial BatchRunner, DESIGN.md §8) rests on.
// render_case_result covers every CaseResult field for the same reason:
// a field the wire dropped would be a field the comparison could not see.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/repair_engine.hpp"
#include "serve/service.hpp"

namespace rustbrain::serve {

// v2 added the admission-control fields (shed / retry_after_ms) to
// responses.
constexpr int kWireFormatVersion = 2;

/// Maximum accepted frame payload (16 MiB) — a corrupt or hostile length
/// prefix must not size a giant allocation.
constexpr std::uint32_t kMaxFramePayload = 16u * 1024u * 1024u;

/// Largest buggy source or reference fix a request may carry (64 KiB,
/// about 70 times the largest forged program). The front end's time and
/// memory grow with the source, so parse_request rejects a case past it,
/// naming the limit, and the reactor answers that frame with an error.
constexpr std::size_t kMaxSourceBytes = 64u * 1024u;

/// Prepend the 4-byte big-endian length prefix. Throws std::invalid_argument
/// when payload exceeds kMaxFramePayload.
std::string frame(const std::string& payload);

/// Deterministic rendering of one CaseResult — every field, hexfloat
/// doubles. The unit of the deterministic-mode byte-compare.
std::string render_case_result(const core::CaseResult& result);
/// Inverse of render_case_result. Throws std::runtime_error on malformed
/// input, naming the offending line.
core::CaseResult parse_case_result(const std::string& text);

std::string render_request(const RepairRequest& request);
/// Throws std::runtime_error on malformed input, naming the offending line,
/// and on a case whose buggy source or reference fix exceeds
/// kMaxSourceBytes.
RepairRequest parse_request(const std::string& text);

std::string render_response(const RepairResponse& response);
RepairResponse parse_response(const std::string& text);

/// Blocking framed I/O over a file descriptor (sockets, pipes).
/// write_frame throws std::runtime_error on a short or failed write.
/// read_frame returns false on clean EOF at a frame boundary and throws on
/// a truncated frame, an I/O error, or a length prefix beyond
/// kMaxFramePayload.
void write_frame(int fd, const std::string& payload);
bool read_frame(int fd, std::string& payload);

/// Incremental frame decoder for nonblocking reads — the reactor's half of
/// the wire. feed() appends whatever bytes the socket produced (any split:
/// mid-prefix, mid-payload, many frames at once); next() extracts complete
/// frames in order and returns false while one is still partial. The
/// internal buffer compacts as frames are consumed, so a long-lived
/// connection's memory is bounded by its largest in-flight frame.
class FrameReader {
  public:
    /// Append `n` raw stream bytes.
    void feed(const char* data, std::size_t n);
    /// Extract the next complete frame payload into `payload`. Returns
    /// false when no complete frame is buffered yet. Throws
    /// std::runtime_error when the buffered length prefix exceeds
    /// kMaxFramePayload — the stream is unframeable from there on.
    bool next(std::string& payload);
    /// Bytes buffered but not yet consumed as frames.
    [[nodiscard]] std::size_t buffered() const {
        return buffer_.size() - pos_;
    }
    [[nodiscard]] std::uint64_t frames_decoded() const { return frames_; }

  private:
    std::string buffer_;
    std::size_t pos_ = 0;
    std::uint64_t frames_ = 0;
};

}  // namespace rustbrain::serve
