// Open-loop load generator: one thread, non-blocking sockets, sends and
// receives multiplexed with ppoll so responses are read while later
// requests are still being sent.
//
// Every request is sent at (or as soon as possible after) its due time,
// whatever is outstanding, round-robin over a few pipelined connections.
// Latency runs from the due time to the moment the response frame is fully
// read, so a stall also charges the requests queued behind it. How late the
// generator itself ran is reported per request as send lag.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "serve/service.hpp"

namespace rbbench {

struct LoadReport {
    /// Due time -> response fully read, per request; requests that were
    /// shed, failed or never answered read as +infinity (they miss any
    /// latency limit).
    std::vector<double> latency_ms;
    std::vector<double> send_lag_ms;
    std::vector<rustbrain::serve::RepairResponse> responses;
    double parse_ms = 0.0;      // client-side parse_response time, summed
    double last_done_ms = 0.0;  // phase start -> last response read
    std::size_t ok = 0;
    std::size_t shed = 0;
    std::size_t failed = 0;     // error responses and unanswered requests
};

/// Sends `frames[i]` at `due_ms[i]` (ms after the call starts; ascending)
/// over `connections` connections to 127.0.0.1:`port`, and collects every
/// response. Gives up on outstanding requests `timeout_ms` after the last
/// due time. Throws std::runtime_error when a connection cannot be opened.
LoadReport drive_open_loop(std::uint16_t port, std::size_t connections,
                           const std::vector<std::string>& frames,
                           const std::vector<double>& due_ms,
                           double timeout_ms);

}  // namespace rbbench
