// serve/wire — the framed text protocol: render/parse round-trip every
// field byte-exactly (hexfloat doubles included), malformed payloads fail
// naming the offending line, and framed fd I/O survives binary payloads,
// reports clean EOF, and rejects hostile length prefixes. Seeded mutations
// of valid streams either decode or fail with the documented exceptions.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dataset/corpus.hpp"
#include "gen/corpus_io.hpp"
#include "mutation.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "support/rng.hpp"

namespace rustbrain::serve {
namespace {

core::CaseResult full_result() {
    core::CaseResult result;
    result.case_id = "alloc/double_free_0";
    result.pass = true;
    result.exec = true;
    result.time_ms = 1234.5 + 1.0 / 3.0;  // not representable in decimal
    result.time_breakdown["llm"] = 0.1;
    result.time_breakdown["verify"] = 7.0 / 11.0;
    result.solutions_generated = 3;
    result.steps_executed = 5;
    result.rollbacks = 1;
    result.llm_calls = 9;
    result.kb_consulted = true;
    result.kb_skipped_by_feedback = false;
    result.thinking_switches = 2;
    result.escalations = 1;
    result.early_stops = 1;
    result.attempts_skipped = 4;
    result.screens = 6;
    result.screen_proven_safe = 2;
    result.screen_likely_ub = 3;
    result.screen_unknown = 1;
    result.error_trajectory = {3, 1, 0};
    result.winning_rule = "use-after-free/guard";
    // Multi-line source with a line that looks like the terminator — the
    // byte-counted block must carry it through untouched.
    result.final_source = "fn main() {\n    print_int(42);\n}\nend\n";
    return result;
}

TEST(ServeWireTest, CaseResultRoundTripsByteExactly) {
    const core::CaseResult original = full_result();
    const std::string rendered = render_case_result(original);
    const core::CaseResult parsed = parse_case_result(rendered);
    // Byte-exactness of the rendering is the property deterministic mode
    // byte-compares rest on: render(parse(render(x))) == render(x).
    EXPECT_EQ(render_case_result(parsed), rendered);
    EXPECT_EQ(parsed.case_id, original.case_id);
    EXPECT_EQ(parsed.pass, original.pass);
    EXPECT_EQ(parsed.exec, original.exec);
    EXPECT_EQ(parsed.time_ms, original.time_ms);  // exact, not NEAR
    EXPECT_EQ(parsed.time_breakdown, original.time_breakdown);
    EXPECT_EQ(parsed.solutions_generated, original.solutions_generated);
    EXPECT_EQ(parsed.steps_executed, original.steps_executed);
    EXPECT_EQ(parsed.rollbacks, original.rollbacks);
    EXPECT_EQ(parsed.llm_calls, original.llm_calls);
    EXPECT_EQ(parsed.kb_consulted, original.kb_consulted);
    EXPECT_EQ(parsed.kb_skipped_by_feedback, original.kb_skipped_by_feedback);
    EXPECT_EQ(parsed.thinking_switches, original.thinking_switches);
    EXPECT_EQ(parsed.escalations, original.escalations);
    EXPECT_EQ(parsed.early_stops, original.early_stops);
    EXPECT_EQ(parsed.attempts_skipped, original.attempts_skipped);
    EXPECT_EQ(parsed.screens, original.screens);
    EXPECT_EQ(parsed.screen_proven_safe, original.screen_proven_safe);
    EXPECT_EQ(parsed.screen_likely_ub, original.screen_likely_ub);
    EXPECT_EQ(parsed.screen_unknown, original.screen_unknown);
    EXPECT_EQ(parsed.error_trajectory, original.error_trajectory);
    EXPECT_EQ(parsed.winning_rule, original.winning_rule);
    EXPECT_EQ(parsed.final_source, original.final_source);
}

TEST(ServeWireTest, RequestRoundTripsIncludingTheCase) {
    const dataset::Corpus corpus = dataset::Corpus::standard();
    RepairRequest request;
    request.ticket = "ticket with spaces\nand a newline";
    request.engine = "rustbrain";
    request.options = "seed=7,temperature=0.25";
    request.policy = "feedback-guided,threshold=2";
    request.use_feedback = true;
    request.ub_case = corpus.cases().front();

    const std::string rendered = render_request(request);
    const RepairRequest parsed = parse_request(rendered);
    EXPECT_EQ(render_request(parsed), rendered);
    EXPECT_EQ(parsed.ticket, request.ticket);
    EXPECT_EQ(parsed.engine, request.engine);
    EXPECT_EQ(parsed.options, request.options);
    EXPECT_EQ(parsed.policy, request.policy);
    EXPECT_EQ(parsed.use_feedback, request.use_feedback);
    EXPECT_EQ(parsed.ub_case.id, request.ub_case.id);
    EXPECT_EQ(parsed.ub_case.buggy_source, request.ub_case.buggy_source);
    EXPECT_EQ(parsed.ub_case.reference_fix, request.ub_case.reference_fix);
    EXPECT_EQ(parsed.ub_case.inputs, request.ub_case.inputs);
    EXPECT_EQ(parsed.ub_case.category, request.ub_case.category);
    EXPECT_EQ(parsed.ub_case.difficulty, request.ub_case.difficulty);
}

TEST(ServeWireTest, HostileEmbeddedInputLengthIsAParseError) {
    RepairRequest request;
    request.engine = "rustbrain";
    request.ub_case = dataset::Corpus::standard().cases().front();
    request.ub_case.inputs = {{1}};
    // Swap the embedded case for one declaring a trillion-value input
    // vector, keeping the case block's byte count honest.
    const std::string corpus_text =
        gen::corpus_to_string(dataset::Corpus({request.ub_case}));
    std::string hostile = corpus_text;
    const std::string line = "\ninput 1 1\n";
    const std::size_t line_pos = hostile.find(line);
    ASSERT_NE(line_pos, std::string::npos);
    hostile.replace(line_pos, line.size(), "\ninput 1000000000000 1\n");
    std::string text = render_request(request);
    const std::string block =
        "case " + std::to_string(corpus_text.size()) + "\n" + corpus_text;
    const std::size_t block_pos = text.find(block);
    ASSERT_NE(block_pos, std::string::npos);
    text.replace(block_pos, block.size(),
                 "case " + std::to_string(hostile.size()) + "\n" + hostile);
    try {
        (void)parse_request(text);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& error) {
        EXPECT_NE(std::string(error.what())
                      .find("embedded case does not parse: corpus format error"),
                  std::string::npos)
            << error.what();
    }
}

/// A request for the first standard case with its buggy source padded by
/// trailing spaces to exactly `bytes` bytes.
RepairRequest request_with_source_bytes(std::size_t bytes) {
    RepairRequest request;
    request.engine = "rustbrain";
    request.ub_case = dataset::Corpus::standard().cases().front();
    std::string& source = request.ub_case.buggy_source;
    source.resize(bytes, ' ');
    return request;
}

TEST(ServeWireTest, SourceSizeIsCappedAtKMaxSourceBytes) {
    const RepairRequest at_cap = request_with_source_bytes(kMaxSourceBytes);
    EXPECT_EQ(parse_request(render_request(at_cap)).ub_case.buggy_source,
              at_cap.ub_case.buggy_source);

    const RepairRequest over_cap = request_with_source_bytes(kMaxSourceBytes + 1);
    try {
        (void)parse_request(render_request(over_cap));
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& error) {
        EXPECT_NE(std::string(error.what())
                      .find("buggy source is 65537 bytes, over the limit of "
                            "65536 (kMaxSourceBytes)"),
                  std::string::npos)
            << error.what();
    }

    RepairRequest long_fix = request_with_source_bytes(kMaxSourceBytes);
    long_fix.ub_case.reference_fix.resize(kMaxSourceBytes + 1, ' ');
    try {
        (void)parse_request(render_request(long_fix));
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& error) {
        EXPECT_NE(std::string(error.what()).find("reference fix is 65537 bytes"),
                  std::string::npos)
            << error.what();
    }
}

TEST(ServeWireTest, ReactorAnswersAnOverCapSourceWithAFramedError) {
    // The over-cap request gets an ok=0 answer in its pipeline slot, and the
    // request behind it on the same connection is still served.
    ServerOptions options;
    options.service.workers = 1;
    RepairServer server(options);
    RepairClient client(server.port());
    RepairRequest over_cap = request_with_source_bytes(kMaxSourceBytes + 1);
    over_cap.ticket = "over";
    RepairRequest next;
    next.ticket = "next";
    next.engine = "rustbrain";
    next.ub_case = dataset::Corpus::standard().cases().front();
    client.send_async(over_cap);
    client.send_async(next);

    const RepairResponse rejected = client.recv_one();
    EXPECT_FALSE(rejected.ok);
    EXPECT_NE(rejected.error.find("kMaxSourceBytes"), std::string::npos)
        << rejected.error;
    const RepairResponse served = client.recv_one();
    EXPECT_TRUE(served.ok) << served.error;
    EXPECT_EQ(served.ticket, "next");
    server.stop();
}

TEST(ServeWireTest, ResponseRoundTripsBothOutcomes) {
    RepairResponse ok;
    ok.ticket = "t-1";
    ok.ok = true;
    ok.result = full_result();
    ok.worker = 3;
    ok.queue_ms = 0.125;
    ok.service_ms = 17.375;
    const std::string ok_rendered = render_response(ok);
    const RepairResponse ok_parsed = parse_response(ok_rendered);
    EXPECT_EQ(render_response(ok_parsed), ok_rendered);
    EXPECT_TRUE(ok_parsed.ok);
    EXPECT_EQ(ok_parsed.ticket, "t-1");
    EXPECT_EQ(ok_parsed.worker, 3u);
    EXPECT_EQ(ok_parsed.queue_ms, 0.125);
    EXPECT_EQ(ok_parsed.service_ms, 17.375);
    EXPECT_EQ(render_case_result(ok_parsed.result),
              render_case_result(ok.result));

    RepairResponse failed;
    failed.ticket = "t-2";
    failed.ok = false;
    failed.error = "unknown engine 'nope'\navailable: rustbrain, ...";
    const RepairResponse failed_parsed =
        parse_response(render_response(failed));
    EXPECT_FALSE(failed_parsed.ok);
    EXPECT_EQ(failed_parsed.error, failed.error);
    EXPECT_EQ(failed_parsed.result.case_id, "");
}

TEST(ServeWireTest, NonCanonicalResultFieldsAreFormatErrors) {
    // render(parse(x)) == x only holds if the parser accepts nothing the
    // renderer would spell differently.
    const std::string rendered = render_case_result(full_result());
    const std::vector<std::pair<std::string, std::string>> edits = {
        {"thinking 2 1 1 4", "thinking +2 1 1 4"},
        {"thinking 2 1 1 4", "thinking 2  1 1 4"},
        {"screens 6 2 3 1", "screens 06 2 3 1"},
        {"trajectory 3 3 1 0", "trajectory 3 3 1 0 7"},
        {"trajectory 3 3 1 0", "trajectory 3 3 1 +0"},
        {"steps 5", "steps 05"},
        {"pass 1", "pass +1"},
    };
    for (const auto& [from, to] : edits) {
        SCOPED_TRACE(to);
        std::string edited = rendered;
        const std::size_t pos = edited.find("\n" + from + "\n");
        ASSERT_NE(pos, std::string::npos);
        edited.replace(pos + 1, from.size(), to);
        EXPECT_THROW((void)parse_case_result(edited), std::runtime_error);
    }
    // Doubles travel as %a hexfloats; a decimal spelling of the same value
    // is refused, in a time field and in a clock charge.
    for (const std::string& field : {std::string("time_ms "), std::string("charge ")}) {
        SCOPED_TRACE(field);
        std::string edited = rendered;
        const std::size_t pos = edited.find("\n" + field);
        ASSERT_NE(pos, std::string::npos);
        const std::size_t end = edited.find_first_of(" \n", pos + 1 + field.size());
        edited.replace(pos + 1 + field.size(), end - pos - 1 - field.size(), "0.5");
        EXPECT_THROW((void)parse_case_result(edited), std::runtime_error);
    }
}

TEST(ServeWireTest, MalformedPayloadsThrowNamingTheLine) {
    try {
        (void)parse_case_result("this is not a case result\n");
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& error) {
        EXPECT_NE(std::string(error.what()).find("wire format error (line"),
                  std::string::npos)
            << error.what();
    }
    EXPECT_THROW((void)parse_request("garbage\n"), std::runtime_error);
    EXPECT_THROW((void)parse_response(""), std::runtime_error);
    // A truncated but well-prefixed rendering fails too.
    const std::string rendered = render_case_result(full_result());
    EXPECT_THROW((void)parse_case_result(
                     rendered.substr(0, rendered.size() / 2)),
                 std::runtime_error);
}

TEST(ServeWireTest, NonCanonicalIntegersAreRejected) {
    // std::stoull would happily take leading whitespace and '+'; the wire
    // format is strict-canonical, so both must fail to parse.
    const std::string rendered = render_case_result(full_result());
    const std::string canonical = "solutions 3";
    for (const std::string lenient : {"solutions +3", "solutions  3"}) {
        std::string mutated = rendered;
        const std::size_t pos = mutated.find(canonical);
        ASSERT_NE(pos, std::string::npos);
        mutated.replace(pos, canonical.size(), lenient);
        EXPECT_THROW((void)parse_case_result(mutated), std::runtime_error)
            << "accepted '" << lenient << "'";
    }
}

TEST(ServeWireTest, FramePrefixIsBigEndianAndBounded) {
    const std::string framed = frame("abc");
    ASSERT_EQ(framed.size(), 7u);
    EXPECT_EQ(static_cast<unsigned char>(framed[0]), 0u);
    EXPECT_EQ(static_cast<unsigned char>(framed[1]), 0u);
    EXPECT_EQ(static_cast<unsigned char>(framed[2]), 0u);
    EXPECT_EQ(static_cast<unsigned char>(framed[3]), 3u);
    EXPECT_EQ(framed.substr(4), "abc");
    EXPECT_THROW((void)frame(std::string(kMaxFramePayload + 1, 'x')),
                 std::invalid_argument);
}

TEST(ServeWireTest, FramedFdIoRoundTripsBinaryAndReportsCleanEof) {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const std::string binary("\x00\xff\x01\nnot a line\x00tail", 19);
    write_frame(fds[1], binary);
    write_frame(fds[1], "");  // empty payloads are legal frames
    ::close(fds[1]);
    std::string payload;
    ASSERT_TRUE(read_frame(fds[0], payload));
    EXPECT_EQ(payload, binary);
    ASSERT_TRUE(read_frame(fds[0], payload));
    EXPECT_EQ(payload, "");
    EXPECT_FALSE(read_frame(fds[0], payload));  // clean EOF, no throw
    ::close(fds[0]);
}

TEST(ServeWireTest, WriteToDisconnectedPeerThrowsInsteadOfSigpipe) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ::close(fds[0]);  // client gone before the response is written
    // Without MSG_NOSIGNAL this raises SIGPIPE and kills the whole test
    // binary; the contract is a catchable exception instead. Two writes:
    // the first may be absorbed by the send buffer.
    EXPECT_THROW(
        {
            write_frame(fds[1], std::string(1 << 20, 'x'));
            write_frame(fds[1], std::string(1 << 20, 'x'));
        },
        std::runtime_error);
    ::close(fds[1]);
}

TEST(ServeWireTest, TruncatedFrameThrowsInsteadOfReturningEof) {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    // Prefix promises 10 bytes; only 3 arrive before EOF.
    const unsigned char prefix[4] = {0, 0, 0, 10};
    ASSERT_EQ(::write(fds[1], prefix, 4), 4);
    ASSERT_EQ(::write(fds[1], "abc", 3), 3);
    ::close(fds[1]);
    std::string payload;
    EXPECT_THROW((void)read_frame(fds[0], payload), std::runtime_error);
    ::close(fds[0]);
}

TEST(ServeWireTest, OversizedLengthPrefixIsRejectedBeforeAllocating) {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const unsigned char prefix[4] = {0xff, 0xff, 0xff, 0xff};  // ~4 GiB
    ASSERT_EQ(::write(fds[1], prefix, 4), 4);
    ::close(fds[1]);
    std::string payload;
    EXPECT_THROW((void)read_frame(fds[0], payload), std::runtime_error);
    ::close(fds[0]);
}

TEST(ServeWireTest, FrameReaderDecodesByteAtATime) {
    // The reactor's incremental decoder must produce the same frames no
    // matter how the stream is fragmented — here, maximally: one byte per
    // feed, across three frames including an empty payload and binary.
    const std::string binary("\x00\xff\x01\nnot a line\x00tail", 19);
    const std::string stream =
        frame("first payload") + frame("") + frame(binary);
    FrameReader reader;
    std::vector<std::string> frames;
    std::string payload;
    for (const char byte : stream) {
        reader.feed(&byte, 1);
        while (reader.next(payload)) frames.push_back(payload);
    }
    ASSERT_EQ(frames.size(), 3u);
    EXPECT_EQ(frames[0], "first payload");
    EXPECT_EQ(frames[1], "");
    EXPECT_EQ(frames[2], binary);
    EXPECT_EQ(reader.frames_decoded(), 3u);
    EXPECT_EQ(reader.buffered(), 0u);
}

TEST(ServeWireTest, FrameReaderSurvivesEverySplitBoundary) {
    // Two frames split at every possible position, including inside the
    // second frame's length prefix — the decoder never loses or reorders.
    const std::string stream = frame("alpha") + frame("beta-payload");
    for (std::size_t split = 0; split <= stream.size(); ++split) {
        FrameReader reader;
        std::vector<std::string> frames;
        std::string payload;
        reader.feed(stream.data(), split);
        while (reader.next(payload)) frames.push_back(payload);
        reader.feed(stream.data() + split, stream.size() - split);
        while (reader.next(payload)) frames.push_back(payload);
        ASSERT_EQ(frames.size(), 2u) << "split at " << split;
        EXPECT_EQ(frames[0], "alpha") << "split at " << split;
        EXPECT_EQ(frames[1], "beta-payload") << "split at " << split;
    }
}

TEST(ServeWireTest, FrameReaderDrainsManyFramesFromOneFeed) {
    std::string stream;
    for (int i = 0; i < 50; ++i) stream += frame("payload " + std::to_string(i));
    FrameReader reader;
    reader.feed(stream.data(), stream.size());
    std::string payload;
    for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE(reader.next(payload)) << "frame " << i;
        EXPECT_EQ(payload, "payload " + std::to_string(i));
    }
    EXPECT_FALSE(reader.next(payload));
    EXPECT_EQ(reader.frames_decoded(), 50u);
}

TEST(ServeWireTest, FrameReaderRejectsOversizedPrefix) {
    FrameReader reader;
    const unsigned char prefix[4] = {0xff, 0xff, 0xff, 0xff};  // ~4 GiB
    reader.feed(reinterpret_cast<const char*>(prefix), 4);
    std::string payload;
    EXPECT_THROW((void)reader.next(payload), std::runtime_error);
}

TEST(ServeWireTest, FrameReaderReportsPartialFrameAsBuffered) {
    const std::string framed = frame("0123456789");
    FrameReader reader;
    reader.feed(framed.data(), 7);  // prefix + 3 payload bytes
    std::string payload;
    EXPECT_FALSE(reader.next(payload));
    EXPECT_EQ(reader.buffered(), 7u);
    reader.feed(framed.data() + 7, framed.size() - 7);
    ASSERT_TRUE(reader.next(payload));
    EXPECT_EQ(payload, "0123456789");
}

TEST(ServeWireTest, ResponseShedFieldsRoundTrip) {
    RepairResponse shed;
    shed.ticket = "t-3";
    shed.ok = false;
    shed.shed = true;
    shed.retry_after_ms = 12.5 + 1.0 / 3.0;  // not representable in decimal
    shed.error = "service overloaded; retry later";
    const std::string rendered = render_response(shed);
    const RepairResponse parsed = parse_response(rendered);
    EXPECT_EQ(render_response(parsed), rendered);
    EXPECT_FALSE(parsed.ok);
    EXPECT_TRUE(parsed.shed);
    EXPECT_EQ(parsed.retry_after_ms, shed.retry_after_ms);  // exact, not NEAR
    EXPECT_EQ(parsed.error, shed.error);
}

TEST(ServeWireTest, MutatedStreamsDecodeOrThrowTheDocumentedErrors) {
    // Untrusted bytes from a socket: whatever arrives, FrameReader and the
    // payload parsers either succeed or throw std::runtime_error /
    // std::invalid_argument — nothing else escapes, nothing crashes.
    RepairRequest request;
    request.ticket = "t-0";
    request.engine = "rustbrain";
    request.options = "seed=7";
    request.ub_case = dataset::Corpus::standard().cases().front();
    request.ub_case.inputs = {{1, 2}, {3}};
    RepairResponse ok;
    ok.ticket = "t-1";
    ok.ok = true;
    ok.result = full_result();
    RepairResponse shed;
    shed.ticket = "t-2";
    shed.shed = true;
    shed.retry_after_ms = 12.5;
    shed.error = "service overloaded; retry later";
    const std::vector<std::string> payloads = {
        render_request(request), render_response(ok), render_response(shed)};

    support::Rng rng(support::derive_seed(1, "wire-mutation"));
    std::size_t frames = 0;
    for (int i = 0; i < 3000; ++i) {
        const std::string& payload = payloads[static_cast<std::size_t>(i) %
                                              payloads.size()];
        // Mutate the payload under an honest prefix, or the framed stream
        // itself (prefix included).
        const std::string stream =
            i % 2 == 0 ? frame(mutation::mutate(payload, payloads, rng))
                       : mutation::mutate(frame(payload), payloads, rng);
        FrameReader reader;
        std::string decoded;
        ASSERT_TRUE(mutation::parses_or_rejects([&] {
            reader.feed(stream.data(), stream.size());
            while (reader.next(decoded)) {
                ++frames;
                EXPECT_TRUE(mutation::parses_or_rejects(
                    [&] { (void)parse_request(decoded); }))
                    << "iteration " << i;
                EXPECT_TRUE(mutation::parses_or_rejects(
                    [&] { (void)parse_response(decoded); }))
                    << "iteration " << i;
            }
        })) << "iteration " << i;
    }
    EXPECT_GT(frames, 1500u);  // most mutations still reach the parsers
}

}  // namespace
}  // namespace rustbrain::serve
