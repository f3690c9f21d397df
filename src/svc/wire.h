// Line-oriented JSON codec for the service API — the wire protocol of
// `wrpt_cli serve`: one UTF-8 JSON object per line, no external
// dependencies (hand-rolled recursive-descent parser in wire.cpp).
//
// The encoder and decoder are derived from the field lists in
// wire_schema.h. Encodings are canonical (fixed field order, doubles in
// shortest round-trip form), so encode(decode(encode(x))) == encode(x)
// byte for byte. The decoder skips unknown fields (newer clients can talk
// to older servers) but throws wire_error on malformed JSON, unknown
// kinds, a value of the wrong JSON type, an integer out of its member's
// range, and non-finite numbers (1e999 included).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "svc/request.h"
#include "util/error.h"

namespace wrpt::svc {

/// Thrown on malformed wire text (bad JSON, bad kind, non-finite number).
class wire_error : public error {
public:
    explicit wire_error(const std::string& what) : error(what) {}
};

/// Canonical one-line JSON encodings (no trailing newline).
std::string encode(const request& q);
std::string encode(const response& r);

/// Reuse-contract encoders for hot paths: clear `out` (keeping its
/// capacity) and write the canonical encoding into it. A caller that
/// keeps one scratch string per connection/worker pays zero allocations
/// per encode once the buffer has grown to its working size.
void encode_into(const request& q, std::string& out);
void encode_into(const response& r, std::string& out);

/// Parse one line. Views, not strings: the decoder reads straight out of
/// the caller's buffer (scalars are parsed in place; only retained string
/// fields are copied). Throws wire_error on malformed input.
request decode_request(std::string_view line);
response decode_response(std::string_view line);

/// Best-effort extraction of the "id" field from a line that may not
/// parse as a full request — used to address error envelopes. Returns 0
/// when no id can be recovered.
std::uint64_t extract_id(std::string_view line);

}  // namespace wrpt::svc
