// Fuzz/property suite for the wire codec — the contract a long-lived
// daemon's parser must keep against arbitrary bytes: every generated
// valid request round-trips byte-identically, and every mutated,
// truncated or garbage line either decodes or throws wire_error — it
// never crashes, hangs, or escapes as a non-wrpt exception. extract_id
// must additionally be total: any byte salad yields *some* id without
// throwing.
//
// The generator walks the field lists in svc/wire_schema.h (no per-kind
// code; optional fields take their off-the-wire spelling half the time)
// with the repo's deterministic splitmix/xoshiro rng, so a failure
// reproduces from the seed printed in the assertion message.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <ranges>
#include <string>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "svc/request.h"
#include "svc/wire.h"
#include "svc/wire_schema.h"
#include "util/rng.h"

namespace wrpt::svc {
namespace {

// --- random generators: one distribution per member type -------------------

double finite_double(rng& r) {
    switch (r.next_below(6)) {
        case 0: return 0.0;
        case 1: return static_cast<double>(r.next_below(1u << 20));
        case 2: return std::ldexp(static_cast<double>(r.next_word() >> 11),
                                  -53);  // [0,1) at full precision
        case 3: return 1e-300 * static_cast<double>(r.next_below(1000));
        case 4: return -static_cast<double>(r.next_below(1 << 16)) / 3.0;
        default: {
            // Arbitrary finite bit patterns: re-roll the rare non-finite.
            for (;;) {
                std::uint64_t bits = r.next_word();
                double d;
                static_assert(sizeof bits == sizeof d);
                std::memcpy(&d, &bits, sizeof d);
                if (std::isfinite(d)) return d;
            }
        }
    }
}

std::string random_text(rng& r) {
    static const char* samples[] = {
        "",           "S1",          "a b c",        "quote\"back\\slash",
        "tab\there",  "new\nline",   "control\x01\x1f", "utf8 \xc3\xa9\xe2\x82\xac",
        "sock.bench", "/tmp/x.bench"};
    std::string s = samples[r.next_below(std::size(samples))];
    // Occasionally append random printable noise.
    const std::uint64_t extra = r.next_below(8);
    for (std::uint64_t i = 0; i < extra; ++i)
        s.push_back(static_cast<char>(' ' + r.next_below(95)));
    return s;
}

template <class T>
T random_value(rng& r, int depth = 0);

template <class S, class M>
void fill(rng& r, S& s, const schema::field<S, M>& f, int depth) {
    if (f.policy != schema::emit::always && r.next_below(2) == 0) return;
    M& m = s.*f.member = random_value<M>(r, depth);
    if constexpr (requires { m.present; }) m.present = true;
}

template <class S, class... F>
void fill(rng& r, S& s, const schema::list<F...>& g, int depth) {
    std::apply([&](const F&... f) { (fill(r, s, f, depth), ...); }, g.entries);
}

template <class T>
T random_value(rng& r, int depth) {
    T v{};
    if constexpr (std::is_same_v<T, bool>) {
        v = r.next_below(2) == 0;
    } else if constexpr (std::is_integral_v<T>) {
        // Small values and full-width ones (SIZE_MAX-style sentinels).
        v = static_cast<T>(r.next_below(2) ? r.next_below(1000)
                                           : r.next_word());
    } else if constexpr (std::is_floating_point_v<T>) {
        v = finite_double(r);
    } else if constexpr (std::is_same_v<T, std::string>) {
        v = random_text(r);
    } else if constexpr (std::is_same_v<T, job_kind>) {
        v = static_cast<job_kind>(
            r.next_below(std::size(schema::job_kind_names)));
    } else if constexpr (requires { v.payload; }) {
        // A request or response around one uniformly drawn kind. Matrix
        // results nest responses, so the recursion stops at depth 2.
        if (depth > 2) return v;
        v.id = r.next_word();
        if constexpr (requires { v.ok; }) v.ok = r.next_below(2) == 0;
        using V = decltype(v.payload);
        const std::uint64_t k = r.next_below(std::variant_size_v<V>);
        [&]<std::size_t... I>(std::index_sequence<I...>) {
            ((k == I ? void(v.payload =
                                random_value<std::variant_alternative_t<I, V>>(
                                    r, depth + 1))
                     : void()),
             ...);
        }(std::make_index_sequence<std::variant_size_v<V>>{});
    } else if constexpr (std::ranges::range<T>) {
        v.resize(r.next_below(12));
        for (auto& e : v) e = random_value<typename T::value_type>(r, depth);
    } else {
        fill(r, v, schema::of<T>, depth);
    }
    return v;
}

// --- properties -------------------------------------------------------------

TEST(wire_fuzz, random_valid_requests_round_trip_byte_identically) {
    rng r(0xf022ed1);
    for (int trial = 0; trial < 2000; ++trial) {
        const request q = random_value<request>(r);
        const std::string wire1 = encode(q);
        request back;
        ASSERT_NO_THROW(back = decode_request(wire1))
            << "trial " << trial << ": " << wire1;
        const std::string wire2 = encode(back);
        // Canonical-encoder contract: one decode/encode cycle is the
        // identity on the wire bytes.
        ASSERT_EQ(wire1, wire2) << "trial " << trial;
        // And so is a second cycle (no drift).
        ASSERT_EQ(encode(decode_request(wire2)), wire2) << "trial " << trial;
    }
}

/// Run one hostile line through the decoder: any outcome is fine except a
/// crash, a hang, or an exception that is not wire_error.
void expect_contained(const std::string& line, const char* what, int trial) {
    try {
        (void)decode_request(line);
    } catch (const wire_error&) {
        // The documented failure mode.
    } catch (const std::exception& e) {
        FAIL() << what << " trial " << trial
               << ": non-wire exception: " << e.what() << "\nline: " << line;
    }
    // extract_id is total: never throws, whatever the bytes.
    (void)extract_id(line);
}

TEST(wire_fuzz, mutated_requests_decode_or_raise_wire_error) {
    rng r(0xbadc0de);
    for (int trial = 0; trial < 4000; ++trial) {
        std::string line = encode(random_value<request>(r));
        // 1-4 random byte edits: overwrite, insert, or delete.
        const std::uint64_t edits = 1 + r.next_below(4);
        for (std::uint64_t e = 0; e < edits && !line.empty(); ++e) {
            const std::size_t pos = r.next_below(line.size());
            switch (r.next_below(3)) {
                case 0: line[pos] = static_cast<char>(r.next_below(256)); break;
                case 1:
                    line.insert(pos, 1, static_cast<char>(r.next_below(256)));
                    break;
                default: line.erase(pos, 1); break;
            }
        }
        expect_contained(line, "mutated", trial);
    }
}

TEST(wire_fuzz, truncated_requests_decode_or_raise_wire_error) {
    rng r(0x7a61c);
    for (int trial = 0; trial < 2000; ++trial) {
        const std::string full = encode(random_value<request>(r));
        const std::string line = full.substr(0, r.next_below(full.size() + 1));
        expect_contained(line, "truncated", trial);
    }
}

TEST(wire_fuzz, garbage_lines_decode_or_raise_wire_error) {
    rng r(0x6a2ba6e);
    for (int trial = 0; trial < 4000; ++trial) {
        std::string line(r.next_below(300), '\0');
        for (char& c : line) c = static_cast<char>(r.next_below(256));
        expect_contained(line, "garbage", trial);
    }
}

TEST(wire_fuzz, structured_garbage_decodes_or_raises_wire_error) {
    // JSON-shaped hostility the uniform generator rarely finds: deep
    // nesting (the 64-level cap), huge numbers, surrogate abuse, BOMs.
    const std::string cases[] = {
        std::string(100000, '['),
        std::string(100, '{') + "\"a\":1" + std::string(100, '}'),
        "{\"req\":\"optimize\",\"id\":1e999}",
        "{\"req\":\"test_length\",\"circuit\":99999999999999999999999999}",
        "{\"req\":\"fault_sim\",\"weights\":[1e309]}",
        "{\"req\":\"fault_sim\",\"weights\":[NaN]}",
        "{\"req\":\"fault_sim\",\"weights\":[Infinity]}",
        "{\"req\":\"load_circuit\",\"name\":\"\\ud800\"}",
        "{\"req\":\"load_circuit\",\"name\":\"\\udc00\\ud800\"}",
        "{\"req\":\"load_circuit\",\"name\":\"\\ud83d\\ude00\"}",  // valid pair
        "\xef\xbb\xbf{\"req\":\"stats\"}",
        "{\"req\":\"stats\",}",
        "{\"req\":\"stats\"} trailing",
        "{\"req\": \"stats\", \"id\": -1}",
        "{\"req\":\"matrix\",\"weight_sets\":[[[[[1]]]]]}",
        "{\"req\":\"register_circuit\"}",
        "{\"req\":\"register_circuit\",\"tenant\":7,\"name\":[]}",
        "{\"req\":\"reload_circuit\",\"tenant\":\"t\",\"name\":null}",
        "{\"req\":\"list_circuits\",\"tenant\":{\"a\":1}}",
        "{\"req\":\"test_length\",\"name\":\"t/c\",\"circuit\":\"t/c\"}",
        "null",
        "[]",
        "\"stats\"",
        "{}",
        "{\"id\":7}",
    };
    int trial = 0;
    for (const std::string& line : cases) expect_contained(line, "case", trial++);
}

TEST(wire_fuzz, extract_id_recovers_ids_from_broken_lines) {
    // A truncated request whose "id" field survived must still be
    // addressable, so the daemon's error envelope reaches the caller.
    rng r(0x1dc0ffee);
    for (int trial = 0; trial < 500; ++trial) {
        request q = random_value<request>(r);
        q.id = 1 + r.next_below(1u << 30);  // nonzero, exactly recoverable
        std::string line = encode(q);
        // The canonical encoders place "id" first or second; keep the
        // prefix through the id value and truncate somewhere after it.
        const std::size_t id_pos = line.find("\"id\":");
        ASSERT_NE(id_pos, std::string::npos);
        std::size_t end = id_pos + 5;
        while (end < line.size() && line[end] >= '0' && line[end] <= '9')
            ++end;
        const std::string cut =
            line.substr(0, end + r.next_below(line.size() - end + 1));
        EXPECT_EQ(extract_id(cut), q.id) << "line: " << cut;
    }
    // Total on arbitrary bytes, 0 when no id can be recovered.
    EXPECT_EQ(extract_id(""), 0u);
    EXPECT_EQ(extract_id("not json at all"), 0u);
    EXPECT_EQ(extract_id("{\"id\":}"), 0u);
    EXPECT_EQ(extract_id("{\"id\":\"text\"}"), 0u);
    EXPECT_EQ(extract_id("{\"id\":42"), 42u);
    EXPECT_EQ(extract_id("garbage \"id\":7 garbage"), 7u);
}

TEST(wire_fuzz, responses_survive_mutation_too) {
    // decode_response shares the parser; exercise its kind dispatch with
    // mutated *response* lines (the client's hostile-server story).
    rng r(0x5e5510);
    std::vector<bool> seen(std::variant_size_v<decltype(response::payload)>);
    for (int trial = 0; trial < 1000; ++trial) {
        const response resp = random_value<response>(r);
        seen[resp.payload.index()] = true;
        std::string line = encode(resp);
        ASSERT_EQ(encode(decode_response(line)), line) << "trial " << trial;
        const std::size_t pos = r.next_below(line.size());
        line[pos] = static_cast<char>(r.next_below(256));
        try {
            (void)decode_response(line);
        } catch (const wire_error&) {
        } catch (const std::exception& e) {
            FAIL() << "response trial " << trial
                   << ": non-wire exception: " << e.what();
        }
    }
    // The derived generator reaches every response kind.
    EXPECT_EQ(std::count(seen.begin(), seen.end(), false), 0);
}

}  // namespace
}  // namespace wrpt::svc
