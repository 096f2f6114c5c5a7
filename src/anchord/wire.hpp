// The anchord wire schema: one request/response shape shared by every verb
// surface (DESIGN.md "anchord wire protocol & unified verb schema").
//
// A Request or Response travels as the payload of a net::Message frame
// (type kRequest / kResponse — the same strict, length-bounded codec the
// handshake layer uses), so anchord inherits transport framing for free
// and adds only the verb schema:
//
//   Request  := u64 correlation_id, u8 verb, str usage, i64 time,
//               u32 max_depth, u8 flags, str hostname, blob leaf_der,
//               list intermediates_der
//   Response := u64 correlation_id, u8 verb, u8 error_kind, u8 ok,
//               stats{u32 chain_len, u64 paths_explored,
//                     u64 gccs_evaluated, u64 facts_encoded, u64 epoch},
//               str detail, list chain_der
//
// where str/blob = u32 big-endian length + bytes, list = u32 count of
// blobs, and all integers are big-endian. Decoding is strict: unknown verb
// or error-kind bytes, truncated fields, and trailing bytes after the last
// field are all errors — a malformed payload never half-parses.
//
// Correlation ids make the protocol pipelined: a client may have any
// number of requests outstanding on one connection, and the server may
// answer them in any order; responses are matched by id, never by arrival
// position.
//
// ResponseStats is deliberately deterministic — no timings, only counts
// and the store epoch — so a wire response is byte-identical to what the
// direct VerifyService path would produce for the same request (the
// acceptance test for this layer). Latency lives in metrics histograms.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chain/error.hpp"
#include "net/transport.hpp"
#include "rsf/feed.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"

namespace anchor::anchord {

enum class Verb : std::uint8_t {
  kVerify = 1,        // full chain construction + validation (§3.1 option 3)
  kEvaluateGccs = 2,  // caller-built chain, daemon runs GCCs (option 2)
  kMetrics = 3,       // registry text exposition as the response detail
  kFeedStatus = 4,    // RSF client liveness summary as the response detail
  kVerifyBatch = 5,   // N verify chains in one frame, one interning arena
  kFeedFetch = 6,     // Merkle tree head + proofs + snapshot range (RSF)
};

const char* to_string(Verb verb);

// One chain of a kVerifyBatch request. Batch entries share the request's
// intermediates_der pool, usage, time, and option flags; only the leaf and
// its hostname vary per entry.
struct BatchEntry {
  std::string hostname;
  Bytes leaf_der;

  bool operator==(const BatchEntry&) const = default;
};

// The largest max_depth a verify or verify-batch request may carry (twice
// the default): the verifier's link-check budget is max_paths × max_depth,
// so the protocol caps the client's factor. A deeper request is
// kMalformedRequest.
constexpr std::uint32_t kMaxRequestDepth = 16;

struct Request {
  std::uint64_t correlation_id = 0;
  Verb verb = Verb::kVerify;
  // "TLS" / "S/MIME" for kVerify, kVerifyBatch and kEvaluateGccs (any
  // other token is kMalformedRequest); ignored by the observability verbs.
  std::string usage;
  std::int64_t time = 0;           // validation instant (Unix seconds)
  std::uint32_t max_depth = 8;     // at most kMaxRequestDepth
  bool require_ev = false;
  bool check_signatures = true;
  bool run_gccs = true;
  std::string hostname;
  Bytes leaf_der;                  // kEvaluateGccs: first chain element
  std::vector<Bytes> intermediates_der;
  // kVerifyBatch only: the chains to verify. Encoded after the fields
  // above (u32 count, then each entry as str hostname + blob leaf_der), so
  // the byte layout of every other verb is exactly what it was before the
  // batch verb existed.
  std::vector<BatchEntry> batch;
  // kFeedFetch only, same trailing-section rule as `batch`: the poller's
  // feed-fetch query, encoded as u64 from_size, u64 to_size,
  // u32 max_snapshots, u64 max_bytes, u8 flags (bit 0: want_deltas).
  rsf::FeedFetchQuery feed_query;

  bool operator==(const Request&) const = default;
};

// Deterministic per-request accounting; see the header comment for why no
// timings live here.
struct ResponseStats {
  std::uint32_t chain_len = 0;       // accepted path length (0 on failure)
  std::uint64_t paths_explored = 0;
  std::uint64_t gccs_evaluated = 0;
  std::uint64_t facts_encoded = 0;
  std::uint64_t epoch = 0;           // store epoch the verdict was computed under

  bool operator==(const ResponseStats&) const = default;
};

// One verdict of a kVerifyBatch response, index-aligned with the request's
// batch entries. Same determinism rule as ResponseStats: counts only.
struct BatchVerdict {
  chain::ErrorKind kind = chain::ErrorKind::kOk;
  bool ok = false;
  std::uint32_t chain_len = 0;
  std::uint64_t paths_explored = 0;
  std::uint64_t gccs_evaluated = 0;
  std::uint64_t facts_encoded = 0;
  std::string detail;

  bool operator==(const BatchVerdict&) const = default;
};

struct Response {
  std::uint64_t correlation_id = 0;
  Verb verb = Verb::kVerify;
  chain::ErrorKind kind = chain::ErrorKind::kOk;
  bool ok = false;                 // kVerifyBatch: every entry verified ok
  ResponseStats stats;             // kVerifyBatch: counters summed over items
  std::string detail;              // diagnostic / exposition / status text
  std::vector<Bytes> chain_der;    // kVerify: accepted path DER, leaf-first
  // kVerifyBatch only: per-entry verdicts, encoded after chain_der as
  // u32 count + entries (u8 kind, u8 ok, u32 chain_len, u64 paths_explored,
  // u64 gccs_evaluated, u64 facts_encoded, str detail). Other verbs keep
  // their original byte layout.
  std::vector<BatchVerdict> batch;
  // kFeedFetch only, same trailing-section rule: signed tree head (u64
  // tree_size, 32 raw root bytes, i64 published_at, blob signature), the
  // consistency and inclusion proofs (u32 count + 32 raw bytes per node),
  // the snapshot range (u32 count + per snapshot: u64 sequence, i64
  // published_at, str annotation, str payload, str payload_hash,
  // str prev_hash, blob signature), and the delta list (u32 count + str).
  rsf::FeedFetch feed;

  bool operator==(const Response&) const = default;
};

// Encoders produce a framed-codec message (type kRequest / kResponse).
net::Message encode_request(const Request& request);
net::Message encode_response(const Response& response);

// Strict decoders; err() on wrong frame type, malformed fields, unknown
// verb/error-kind bytes, or trailing payload bytes. The BytesView overloads
// decode straight out of a session read buffer (the reactor's zero-copy
// path); the Message overloads wrap them.
Result<Request> decode_request(net::MsgType type, BytesView payload);
Result<Request> decode_request(const net::Message& message);
Result<Response> decode_response(net::MsgType type, BytesView payload);
Result<Response> decode_response(const net::Message& message);

// Best-effort correlation-id peek at a payload that failed full decoding,
// so a kMalformedRequest response can still be matched by the client.
// Returns 0 when even the id field is truncated.
std::uint64_t peek_correlation_id(BytesView payload);

}  // namespace anchor::anchord
