#include "svc/wire.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <ranges>
#include <string_view>
#include <utility>
#include <vector>

#include "svc/wire_schema.h"

namespace wrpt::svc {

namespace {

// --- minimal JSON value model + recursive-descent parser --------------------

struct jvalue {
    enum kind_t { null_v, bool_v, num_v, str_v, arr_v, obj_v };
    kind_t kind = null_v;
    bool b = false;
    double num = 0.0;
    std::uint64_t unum = 0;   // exact value for unsigned integer literals
    bool has_unum = false;
    std::string str;
    std::vector<jvalue> arr;
    std::vector<std::pair<std::string, jvalue>> obj;

    const jvalue* find(std::string_view key) const {
        for (const auto& [k, v] : obj)
            if (k == key) return &v;
        return nullptr;
    }
};

class parser {
public:
    // A view, not a string: decode paths parse straight out of the
    // caller's buffer (connection inbuf, bench transcript) with no copy.
    explicit parser(std::string_view text)
        : p_(text.data()), end_(text.data() + text.size()) {}

    jvalue parse() {
        jvalue v = value();
        skip_ws();
        if (p_ != end_) fail("trailing characters after JSON value");
        return v;
    }

private:
    [[noreturn]] void fail(const std::string& why) const {
        throw wire_error("wire: " + why);
    }

    void skip_ws() {
        while (p_ != end_ &&
               (*p_ == ' ' || *p_ == '\t' || *p_ == '\r' || *p_ == '\n'))
            ++p_;
    }

    char peek() {
        skip_ws();
        if (p_ == end_) fail("unexpected end of input");
        return *p_;
    }

    void expect(char c) {
        if (peek() != c)
            fail(std::string("expected '") + c + "', got '" + *p_ + "'");
        ++p_;
    }

    bool consume(char c) {
        skip_ws();
        if (p_ != end_ && *p_ == c) {
            ++p_;
            return true;
        }
        return false;
    }

    // A long-lived daemon must answer a hostile line with an error
    // envelope, not a blown stack: cap the recursion depth far above any
    // legitimate request shape (matrix responses nest three levels).
    static constexpr int max_depth = 64;

    jvalue value() {
        if (depth_ >= max_depth) fail("nesting deeper than 64 levels");
        ++depth_;
        jvalue v;
        switch (peek()) {
            case '{': v = object(); break;
            case '[': v = array(); break;
            case '"': v = string_value(); break;
            case 't': case 'f': v = boolean(); break;
            case 'n': v = null_value(); break;
            default: v = number(); break;
        }
        --depth_;
        return v;
    }

    jvalue object() {
        expect('{');
        jvalue v;
        v.kind = jvalue::obj_v;
        if (consume('}')) return v;
        do {
            jvalue key = string_value();
            expect(':');
            v.obj.emplace_back(std::move(key.str), value());
        } while (consume(','));
        expect('}');
        return v;
    }

    jvalue array() {
        expect('[');
        jvalue v;
        v.kind = jvalue::arr_v;
        if (consume(']')) return v;
        do {
            v.arr.push_back(value());
        } while (consume(','));
        expect(']');
        return v;
    }

    jvalue string_value() {
        expect('"');
        jvalue v;
        v.kind = jvalue::str_v;
        while (true) {
            if (p_ == end_) fail("unterminated string");
            const char c = *p_++;
            if (c == '"') break;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control character in string");
            if (c != '\\') {
                v.str.push_back(c);
                continue;
            }
            if (p_ == end_) fail("unterminated escape");
            const char e = *p_++;
            switch (e) {
                case '"': v.str.push_back('"'); break;
                case '\\': v.str.push_back('\\'); break;
                case '/': v.str.push_back('/'); break;
                case 'b': v.str.push_back('\b'); break;
                case 'f': v.str.push_back('\f'); break;
                case 'n': v.str.push_back('\n'); break;
                case 'r': v.str.push_back('\r'); break;
                case 't': v.str.push_back('\t'); break;
                case 'u': v.str += unicode_escape(); break;
                default: fail("bad escape character");
            }
        }
        return v;
    }

    unsigned hex4() {
        if (end_ - p_ < 4) fail("truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = *p_++;
            code <<= 4;
            if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                code |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                code |= static_cast<unsigned>(c - 'A' + 10);
            else fail("bad \\u escape digit");
        }
        return code;
    }

    std::string unicode_escape() {
        // The encoder only emits \u00XX for control characters, but
        // accept the full range — including surrogate pairs, which must
        // combine into one code point (raw CESU-8 would poison every
        // later response with invalid UTF-8).
        unsigned code = hex4();
        if (code >= 0xD800 && code <= 0xDBFF) {
            if (end_ - p_ < 2 || p_[0] != '\\' || p_[1] != 'u')
                fail("unpaired high surrogate in \\u escape");
            p_ += 2;
            const unsigned low = hex4();
            if (low < 0xDC00 || low > 0xDFFF)
                fail("bad low surrogate in \\u escape");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("unpaired low surrogate in \\u escape");
        }
        std::string out;
        if (code < 0x80) {
            out.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else if (code < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xF0 | (code >> 18)));
            out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
        return out;
    }

    jvalue boolean() {
        jvalue v;
        v.kind = jvalue::bool_v;
        if (end_ - p_ >= 4 && std::string_view(p_, 4) == "true") {
            v.b = true;
            p_ += 4;
        } else if (end_ - p_ >= 5 && std::string_view(p_, 5) == "false") {
            v.b = false;
            p_ += 5;
        } else {
            fail("bad literal");
        }
        return v;
    }

    jvalue null_value() {
        if (end_ - p_ < 4 || std::string_view(p_, 4) != "null")
            fail("bad literal");
        p_ += 4;
        jvalue v;
        v.kind = jvalue::null_v;
        return v;
    }

    jvalue number() {
        const char* start = p_;
        if (p_ != end_ && *p_ == '-') ++p_;
        while (p_ != end_ &&
               ((*p_ >= '0' && *p_ <= '9') || *p_ == '.' || *p_ == 'e' ||
                *p_ == 'E' || *p_ == '+' || *p_ == '-'))
            ++p_;
        if (p_ == start) fail("expected a value");
        jvalue v;
        v.kind = jvalue::num_v;
        const auto [dp, derr] = std::from_chars(start, p_, v.num);
        if (derr != std::errc{} || dp != p_ || !std::isfinite(v.num))
            fail("bad number (non-finite values are not representable)");
        // Keep the exact value of unsigned integer literals (revision
        // stamps, seeds, SIZE_MAX-style sentinels exceed 2^53).
        if (*start != '-') {
            std::uint64_t u = 0;
            const auto [up, uerr] = std::from_chars(start, p_, u);
            if (uerr == std::errc{} && up == p_) {
                v.unum = u;
                v.has_unum = true;
            }
        }
        return v;
    }

    const char* p_;
    const char* end_;
    int depth_ = 0;
};

[[noreturn]] void bad(const std::string& why) { throw wire_error("wire: " + why); }

[[noreturn]] void bad_field(std::string_view key, const char* why) {
    bad("field \"" + std::string(key) + "\" " + why);
}

// --- encoding: one walk over the field list ---------------------------------

void put_escaped(std::string& out, std::string_view s) {
    out.push_back('"');
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    out += "\\u00";
                    out.push_back("0123456789abcdef"[c >> 4]);
                    out.push_back("0123456789abcdef"[c & 0xF]);
                } else {
                    out.push_back(c);
                }
        }
    }
    out.push_back('"');
}

void put_key(std::string& out, std::string_view k) {
    // Keys follow '{' or a complete value (no JSON value ends in '{'), and
    // wire names are plain identifiers: nothing to escape.
    if (out.back() != '{') out.push_back(',');
    out.push_back('"');
    out.append(k);
    out.append("\":");
}

template <class T>
void put_value(std::string& out, const T& v);
template <class M>
void append(const M& m, std::string& out);

template <class T>
void put_field(std::string& out, std::string_view k, const T& v) {
    put_key(out, k);
    put_value(out, v);
}

template <class S, class M>
void put_entry(std::string& out, const S& s, const schema::field<S, M>& f) {
    const M& v = s.*f.member;
    if constexpr (std::is_same_v<M, std::string>)
        if (f.policy == schema::emit::omit_empty && v.empty()) return;
    if constexpr (requires { v.present; })
        if (f.policy == schema::emit::present_flag && !v.present) return;
    put_field(out, f.name, v);
}

template <class S, class... E>
void put_entries(std::string& out, const S& s, const std::tuple<E...>& list);

template <class S, class... F>
void put_entry(std::string& out, const S& s, const schema::list<F...>& g) {
    put_key(out, g.name);
    out.push_back('{');
    put_entries(out, s, g.entries);
    out.push_back('}');
}

template <class S, class... E>
void put_entries(std::string& out, const S& s, const std::tuple<E...>& list) {
    std::apply([&](const E&... e) { (put_entry(out, s, e), ...); }, list);
}

template <class T>
void put_value(std::string& out, const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
        out += v ? "true" : "false";
    } else if constexpr (std::is_arithmetic_v<T>) {
        if constexpr (std::is_floating_point_v<T>)
            if (!std::isfinite(v)) bad("cannot encode non-finite number");
        // Shortest exact round trip; integral doubles print without an
        // exponent or ".0", matching the parser's unsigned fast path.
        char buf[32];
        out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    } else if constexpr (std::is_convertible_v<T, std::string_view>) {
        put_escaped(out, v);
    } else if constexpr (std::is_same_v<T, job_kind>) {
        const auto k = static_cast<std::size_t>(v);
        if (k >= std::size(schema::job_kind_names)) bad("bad job kind");
        put_escaped(out, schema::job_kind_names[k]);
    } else if constexpr (std::is_same_v<T, response>) {
        append(v, out);  // in place: no per-result temporary
    } else if constexpr (std::ranges::range<T>) {
        out.push_back('[');
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (i) out.push_back(',');
            put_value(out, v[i]);
        }
        out.push_back(']');
    } else {
        out.push_back('{');
        put_entries(out, v, schema::of<T>.entries);
        out.push_back('}');
    }
}

/// Append-only core of both encoders: writes m's canonical JSON at the end
/// of `out` without clearing it (so matrix results nest in place): the
/// envelope ("req","id" or "id","ok","resp"), then the payload's fields.
template <class M>
void append(const M& m, std::string& out) {
    out.push_back('{');
    std::visit(
        [&](const auto& p) {
            constexpr auto& list = schema::of<std::decay_t<decltype(p)>>;
            if constexpr (std::is_same_v<M, request>) {
                put_field(out, "req", list.name);
                put_field(out, "id", m.id);
            } else {
                put_field(out, "id", m.id);
                put_field(out, "ok", m.ok);
                put_field(out, "resp", list.name);
            }
            put_entries(out, p, list.entries);
        },
        m.payload);
    out.push_back('}');
}

// --- decoding: one lookup per field-list entry ------------------------------
// Absent and unknown keys are tolerated; values are type/range-checked.

template <class M>
M get_message(const jvalue& o);
template <class T>
void get_value(const jvalue& v, std::string_view key, T& out);

template <class T>
void get_field(const jvalue& o, std::string_view key, T& out) {
    if (const jvalue* v = o.find(key)) get_value(*v, key, out);
}

// The one conditional default: naming a circuit implies a per-circuit
// evict, so "all" must be explicit to wipe the whole daemon then.
void after_decode(evict_request& p, const jvalue& o) {
    if (!o.find("all")) p.all = !o.find("circuit");
}
void after_decode(auto&, const jvalue&) {}

template <class S, class... E>
void get_object(const jvalue& o, std::string_view key, S& s,
                const std::tuple<E...>& entries) {
    if (o.kind != jvalue::obj_v) bad_field(key, "must be an object");
    std::apply([&](const E&... e) { (get_entry(o, s, e), ...); }, entries);
    after_decode(s, o);
}

template <class S, class M>
void get_entry(const jvalue& o, S& s, const schema::field<S, M>& f) {
    get_field(o, f.name, s.*f.member);
}

template <class S, class... F>
void get_entry(const jvalue& o, S& s, const schema::list<F...>& g) {
    if (const jvalue* v = o.find(g.name)) get_object(*v, g.name, s, g.entries);
}

template <class T>
void get_value(const jvalue& v, std::string_view key, T& out) {
    if constexpr (std::is_same_v<T, bool>) {
        if (v.kind != jvalue::bool_v) bad_field(key, "must be a boolean");
        out = v.b;
    } else if constexpr (std::is_integral_v<T>) {
        static_assert(std::is_unsigned_v<T>);
        if (v.kind != jvalue::num_v || !v.has_unum)
            bad_field(key, "must be an unsigned integer");
        if (v.unum > std::numeric_limits<T>::max())
            bad_field(key, "is out of range");
        out = static_cast<T>(v.unum);
    } else if constexpr (std::is_floating_point_v<T>) {
        if (v.kind != jvalue::num_v) bad_field(key, "must be a number");
        out = v.num;
    } else if constexpr (std::is_same_v<T, std::string>) {
        if (v.kind != jvalue::str_v) bad_field(key, "must be a string");
        out = v.str;
    } else if constexpr (std::is_same_v<T, job_kind>) {
        std::string name;
        get_value(v, key, name);
        const auto it = std::ranges::find(schema::job_kind_names, name);
        if (it == std::end(schema::job_kind_names))
            bad("unknown job kind \"" + name + "\"");
        out = static_cast<job_kind>(it - schema::job_kind_names);
    } else if constexpr (std::is_same_v<T, response>) {
        out = get_message<response>(v);
    } else if constexpr (std::ranges::range<T>) {
        if (v.kind != jvalue::arr_v) bad_field(key, "must be an array");
        out.clear();
        out.reserve(v.arr.size());
        for (const jvalue& e : v.arr) get_value(e, key, out.emplace_back());
    } else {
        // A present_flag section is present because its key was found.
        if constexpr (requires { out.present; }) out.present = true;
        get_object(v, key, out, schema::of<T>.entries);
    }
}

/// Decode a request or response: the payload alternative whose field list
/// carries the tag named by "req" / "resp", then the envelope fields.
template <class M>
M get_message(const jvalue& o) {
    constexpr bool is_request = std::is_same_v<M, request>;
    const char* what = is_request ? "request" : "response";
    const std::string_view tag_key = is_request ? "req" : "resp";
    if (o.kind != jvalue::obj_v)
        bad(std::string(what) + " must be a JSON object");
    const jvalue* t = o.find(tag_key);
    if (!t) bad("missing field \"" + std::string(tag_key) + "\"");
    if (t->kind != jvalue::str_v) bad_field(tag_key, "must be a string");
    M m;
    using V = decltype(m.payload);
    const bool known = [&]<std::size_t... I>(std::index_sequence<I...>) {
        return ((schema::of<std::variant_alternative_t<I, V>>.name == t->str &&
                 (get_value(o, tag_key, m.payload.template emplace<I>()),
                  true)) ||
                ...);
    }(std::make_index_sequence<std::variant_size_v<V>>{});
    if (!known)
        bad(std::string("unknown ") + what + " kind \"" + t->str + "\"");
    get_field(o, "id", m.id);
    if constexpr (!is_request) get_field(o, "ok", m.ok);
    return m;
}

}  // namespace

std::string encode(const request& q) {
    std::string out;
    append(q, out);
    return out;
}

void encode_into(const request& q, std::string& out) {
    out.clear();  // keeps capacity: steady-state encodes never allocate
    append(q, out);
}

std::string encode(const response& r) {
    std::string out;
    append(r, out);
    return out;
}

void encode_into(const response& r, std::string& out) {
    out.clear();  // keeps capacity: steady-state encodes never allocate
    append(r, out);
}

request decode_request(std::string_view line) {
    return get_message<request>(parser(line).parse());
}

response decode_response(std::string_view line) {
    return get_message<response>(parser(line).parse());
}

std::uint64_t extract_id(std::string_view line) {
    try {
        const jvalue o = parser(line).parse();
        if (o.kind == jvalue::obj_v) {
            std::uint64_t id = 0;
            get_field(o, "id", id);
            return id;
        }
    } catch (const wire_error&) {
        // Malformed line: fall through to the text scan below.
    }
    // Cheap scan for an "id":<digits> pair so even truncated lines get an
    // addressed error envelope.
    const std::string_view needle = "\"id\":";
    const std::size_t pos = line.find(needle);
    if (pos == std::string_view::npos) return 0;
    std::uint64_t id = 0;
    const auto [p, err] = std::from_chars(
        line.data() + pos + needle.size(), line.data() + line.size(), id);
    (void)p;
    return err == std::errc{} ? id : 0;
}

}  // namespace wrpt::svc
