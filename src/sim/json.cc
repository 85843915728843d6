#include "sim/json.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "util/logging.hh"

namespace uldma::json {

namespace {

/**
 * Escape @p s for a JSON string body, handing each run of bytes that
 * needs no escape, and each escape sequence, to @p emit(data, size).
 */
template <typename Emit>
void
escapeTo(std::string_view s, Emit &&emit)
{
    static constexpr char hex[] = "0123456789abcdef";
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const unsigned char c = s[i];
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        emit(s.data() + run, i - run);
        run = i + 1;
        char esc[] = {'\\', static_cast<char>(c), '0', '0', hex[c >> 4],
                      hex[c & 0xf]};
        std::size_t n = 2;
        switch (c) {
          case '"': case '\\': break;
          case '\b': esc[1] = 'b'; break;
          case '\f': esc[1] = 'f'; break;
          case '\n': esc[1] = 'n'; break;
          case '\r': esc[1] = 'r'; break;
          case '\t': esc[1] = 't'; break;
          default: esc[1] = 'u'; n = 6;  // the u00XX form
        }
        emit(esc, n);
    }
    emit(s.data() + run, s.size() - run);
}

/** Long enough for "%.17g" of any double and any int64/uint64. */
constexpr std::size_t numberBufSize = 32;

/** formatNumber() into @p buf; returns the length. */
std::size_t
formatNumberTo(char (&buf)[numberBufSize], double v)
{
    char *const last = buf + numberBufSize;
    if (!std::isfinite(v)) {
        std::memcpy(buf, "null", 4);
        return 4;
    }
    // Integral values within the exact range of double print without
    // an exponent or decimal point, as "%.0f" would ("-0" included).
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
        char *p = buf;
        if (v == 0.0 && std::signbit(v))
            *p++ = '-';
        return std::to_chars(p, last, static_cast<std::int64_t>(v)).ptr -
               buf;
    }
    // A value that is exactly t/1e6 rounded (every tick-to-microsecond
    // conversion): with |v| in [1e-4, 1e9), t has at most 15 digits,
    // the 15-digit grid is at least 4.5 ulps coarse, so the decimal
    // t * 1e-6 is what "%.15g" prints, and it parses back to v.  In
    // that range "%g" uses fixed notation and drops trailing zeros.
    const double mag = std::fabs(v);
    if (mag >= 1e-4 && mag < 1e9) {
        const auto t = static_cast<std::uint64_t>(mag * 1e6 + 0.5);
        if (static_cast<double>(t) / 1e6 == mag) {
            char *p = buf;
            if (v < 0)
                *p++ = '-';
            p = std::to_chars(p, last, t / 1000000).ptr;
            *p++ = '.';
            // Six decimals less trailing zeros (at least one is not
            // zero: v is not integral).
            auto frac = static_cast<unsigned>(t % 1000000);
            int digits = 6;
            for (; digits > 0 && frac % 10 == 0; frac /= 10)
                --digits;
            for (int i = digits - 1; i >= 0; --i, frac /= 10)
                p[i] = static_cast<char>('0' + frac % 10);
            return p + digits - buf;
        }
    }
    for (int prec = 15;; ++prec) {
        const char *end =
            std::to_chars(buf, last, v, std::chars_format::general, prec)
                .ptr;
        double back = 0.0;
        const bool exact =
            std::from_chars(buf, end, back).ec == std::errc() && back == v;
        // 17 significant digits always round-trip.
        if (exact || prec == 17)
            return end - buf;
    }
}

} // namespace

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    escapeTo(s, [&out](const char *p, std::size_t n) { out.append(p, n); });
    return out;
}

std::string
formatNumber(double v)
{
    char buf[numberBufSize];
    return std::string(buf, formatNumberTo(buf, v));
}

Writer::Writer(std::ostream &os, bool pretty) : os_(os), pretty_(pretty) {}

Writer::~Writer()
{
    // A trailing newline makes the file friendly to text tools.
    if (rootWritten_ && stack_.empty() && pretty_)
        put('\n');
    flush();
}

bool
Writer::complete() const
{
    return rootWritten_ && stack_.empty();
}

void
Writer::flush()
{
    const auto n = static_cast<std::streamsize>(used_);
    used_ = 0;
    if (n > 0 && os_.good() && os_.rdbuf()->sputn(buf_, n) != n)
        os_.setstate(std::ios::badbit);
}

void
Writer::write(const char *s, std::size_t n)
{
    while (n > bufferSize - used_) {
        const std::size_t room = bufferSize - used_;
        std::memcpy(buf_ + used_, s, room);
        used_ = bufferSize;
        flush();
        s += room;
        n -= room;
    }
    std::memcpy(buf_ + used_, s, n);
    used_ += n;
}

void
Writer::put(char c)
{
    if (used_ == bufferSize)
        flush();
    buf_[used_++] = c;
}

void
Writer::valueDone()
{
    if (stack_.empty())
        flush();
}

void
Writer::writeEscaped(std::string_view s)
{
    escapeTo(s, [this](const char *p, std::size_t n) { write(p, n); });
}

void
Writer::indent()
{
    if (!pretty_)
        return;
    // A newline and two spaces per level; deeper levels take more than
    // one write.
    static constexpr std::string_view pad =
        "\n                                ";
    std::size_t n = 1 + 2 * stack_.size();
    std::size_t chunk = std::min(n, pad.size());
    write(pad.data(), chunk);
    for (n -= chunk; n > 0; n -= chunk) {
        chunk = std::min(n, pad.size() - 1);
        write(pad.data() + 1, chunk);
    }
}

void
Writer::prepareValue()
{
    ULDMA_ASSERT(!(rootWritten_ && stack_.empty()),
                 "json: only one root value per document");
    if (stack_.empty()) {
        rootWritten_ = true;
        return;
    }
    Level &top = stack_.back();
    if (top.scope == Scope::Object) {
        ULDMA_ASSERT(keyPending_, "json: object member needs a key");
        keyPending_ = false;
    } else {
        if (top.hasItems)
            put(',');
        indent();
        top.hasItems = true;
    }
}

void
Writer::key(std::string_view k)
{
    ULDMA_ASSERT(!stack_.empty() && stack_.back().scope == Scope::Object,
                 "json: key() outside an object");
    ULDMA_ASSERT(!keyPending_, "json: two keys in a row");
    if (stack_.back().hasItems)
        put(',');
    indent();
    stack_.back().hasItems = true;
    put('"');
    writeEscaped(k);
    write(pretty_ ? std::string_view("\": ") : std::string_view("\":"));
    keyPending_ = true;
}

void
Writer::beginObject()
{
    prepareValue();
    put('{');
    stack_.push_back({Scope::Object, false});
}

void
Writer::endObject()
{
    ULDMA_ASSERT(!stack_.empty() && stack_.back().scope == Scope::Object,
                 "json: endObject() without beginObject()");
    ULDMA_ASSERT(!keyPending_, "json: dangling key at endObject()");
    const bool had = stack_.back().hasItems;
    stack_.pop_back();
    if (had)
        indent();
    put('}');
    valueDone();
}

void
Writer::beginArray()
{
    prepareValue();
    put('[');
    stack_.push_back({Scope::Array, false});
}

void
Writer::endArray()
{
    ULDMA_ASSERT(!stack_.empty() && stack_.back().scope == Scope::Array,
                 "json: endArray() without beginArray()");
    const bool had = stack_.back().hasItems;
    stack_.pop_back();
    if (had)
        indent();
    put(']');
    valueDone();
}

void
Writer::value(std::string_view v)
{
    prepareValue();
    put('"');
    writeEscaped(v);
    put('"');
    valueDone();
}

void
Writer::value(const char *v)
{
    value(std::string_view(v));
}

void
Writer::value(double v)
{
    prepareValue();
    char buf[numberBufSize];
    write(buf, formatNumberTo(buf, v));
    valueDone();
}

void
Writer::value(std::int64_t v)
{
    prepareValue();
    char buf[numberBufSize];
    write(buf, std::to_chars(buf, buf + sizeof buf, v).ptr - buf);
    valueDone();
}

void
Writer::value(std::uint64_t v)
{
    prepareValue();
    char buf[numberBufSize];
    write(buf, std::to_chars(buf, buf + sizeof buf, v).ptr - buf);
    valueDone();
}

void
Writer::value(bool v)
{
    prepareValue();
    write(v ? std::string_view("true") : std::string_view("false"));
    valueDone();
}

void
Writer::valueNull()
{
    prepareValue();
    write("null", 4);
    valueDone();
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

const Value &
Value::operator[](const std::string &k) const
{
    static const Value null_value;
    if (type_ != Type::Object)
        return null_value;
    auto it = object_.find(k);
    return it == object_.end() ? null_value : it->second;
}

const Value &
Value::operator[](std::size_t i) const
{
    static const Value null_value;
    if (type_ != Type::Array || i >= array_.size())
        return null_value;
    return array_[i];
}

bool
Value::has(const std::string &k) const
{
    return type_ == Type::Object && object_.count(k) != 0;
}

std::size_t
Value::size() const
{
    if (type_ == Type::Array)
        return array_.size();
    if (type_ == Type::Object)
        return object_.size();
    return 0;
}

class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    bool
    parseDocument(Value &out)
    {
        skipWs();
        if (!parseValue(out, 0))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters after document");
        return true;
    }

    const std::string &error() const { return error_; }

  private:
    static constexpr int maxDepth = 64;

    bool
    fail(const std::string &why)
    {
        if (error_.empty())
            error_ = why + " at offset " + std::to_string(pos_);
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) != 0)
            return fail(std::string("expected '") + word + "'");
        pos_ += n;
        return true;
    }

    bool
    parseValue(Value &out, int depth)
    {
        if (depth > maxDepth)
            return fail("nesting too deep");
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        switch (text_[pos_]) {
          case '{': return parseObject(out, depth);
          case '[': return parseArray(out, depth);
          case '"':
            out.type_ = Value::Type::String;
            return parseString(out.string_);
          case 't':
            out.type_ = Value::Type::Bool;
            out.bool_ = true;
            return literal("true");
          case 'f':
            out.type_ = Value::Type::Bool;
            out.bool_ = false;
            return literal("false");
          case 'n':
            out.type_ = Value::Type::Null;
            return literal("null");
          default:
            return parseNumber(out);
        }
    }

    bool
    parseObject(Value &out, int depth)
    {
        out.type_ = Value::Type::Object;
        ++pos_;  // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key");
            std::string k;
            if (!parseString(k))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':'");
            ++pos_;
            skipWs();
            Value v;
            if (!parseValue(v, depth + 1))
                return false;
            out.object_.emplace(std::move(k), std::move(v));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    parseArray(Value &out, int depth)
    {
        out.type_ = Value::Type::Array;
        ++pos_;  // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            Value v;
            if (!parseValue(v, depth + 1))
                return false;
            out.array_.push_back(std::move(v));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    parseString(std::string &out)
    {
        ++pos_;  // opening quote
        while (pos_ < text_.size()) {
            const unsigned char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\') {
                if (pos_ + 1 >= text_.size())
                    return fail("unterminated escape");
                const char e = text_[pos_ + 1];
                pos_ += 2;
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    if (pos_ + 4 > text_.size())
                        return fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_ + i];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= h - '0';
                        else if (h >= 'a' && h <= 'f')
                            code |= h - 'a' + 10;
                        else if (h >= 'A' && h <= 'F')
                            code |= h - 'A' + 10;
                        else
                            return fail("bad \\u escape");
                    }
                    pos_ += 4;
                    // UTF-8 encode (surrogate pairs are passed through
                    // as two separate code points; the writer never
                    // emits them).
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xC0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (code >> 12));
                        out += static_cast<char>(0x80 |
                                                 ((code >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    }
                    break;
                  }
                  default:
                    return fail("unknown escape");
                }
                continue;
            }
            if (c < 0x20)
                return fail("raw control character in string");
            out += static_cast<char>(c);
            ++pos_;
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(Value &out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        if (pos_ >= text_.size() ||
            !std::isdigit(static_cast<unsigned char>(text_[pos_])))
            return fail("malformed number");
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isdigit(static_cast<unsigned char>(text_[pos_])))
                return fail("malformed fraction");
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (pos_ >= text_.size() ||
                !std::isdigit(static_cast<unsigned char>(text_[pos_])))
                return fail("malformed exponent");
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        out.type_ = Value::Type::Number;
        out.number_ = std::strtod(text_.substr(start, pos_ - start).c_str(),
                                  nullptr);
        return true;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    std::string error_;
};

Value
parse(const std::string &text, std::string *error)
{
    Parser p(text);
    Value v;
    if (!p.parseDocument(v)) {
        if (error != nullptr)
            *error = p.error();
        return Value();
    }
    if (error != nullptr)
        error->clear();
    return v;
}

bool
valid(const std::string &text)
{
    std::string error;
    parse(text, &error);
    return error.empty();
}

} // namespace uldma::json
