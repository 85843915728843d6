/**
 * @file
 * Minimal JSON support for the observability layer: a streaming writer
 * (used by the stats registry, the event-trace exporter and the bench
 * reporter) and a small recursive-descent parser (used by the tests to
 * validate and round-trip what the writer emits).  No external
 * dependencies; output is deterministic — the same data always
 * serialises to the same bytes.
 */

#ifndef ULDMA_SIM_JSON_HH
#define ULDMA_SIM_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace uldma::json {

/** Escape a string for embedding between JSON double quotes. */
std::string escape(const std::string &s);

/**
 * Render a double deterministically, independent of the locale.
 * Integral values below 1e15 in magnitude print as integers ("%.0f");
 * every other finite value prints in printf "%g" layout with the
 * fewest of 15, 16 or 17 significant digits that parse back to the
 * same double.  Non-finite values render as null per the JSON grammar.
 */
std::string formatNumber(double v);

/**
 * Streaming JSON writer.  Call begin/end and key/value in document
 * order; commas and indentation are handled automatically.  Misuse
 * (e.g. a key outside an object) trips an assertion.
 *
 * Tokens collect in a member buffer of bufferSize bytes, which goes to
 * the stream's buffer in one sputn() when it is full, when the root
 * value closes and in the destructor.  So the caller may write to the
 * stream directly only after the root value has closed (a trailing
 * newline, say); such bytes then land in document order.  A writer
 * destroyed before its root closes leaves exactly the bytes it
 * formatted.  As with operator<<, nothing is written once the stream
 * is not good(), and a short write sets badbit, leaving the stream
 * an exact prefix of the document.
 */
class Writer
{
  public:
    /** Size of the member buffer tokens collect in. */
    static constexpr std::size_t bufferSize = 16 * 1024;

    explicit Writer(std::ostream &os, bool pretty = true);
    ~Writer();

    Writer(const Writer &) = delete;
    Writer &operator=(const Writer &) = delete;

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Emit the key of the next object member. */
    void key(std::string_view k);

    void value(std::string_view v);
    void value(const char *v);
    void value(double v);
    void value(std::int64_t v);
    void value(std::uint64_t v);
    void value(bool v);
    void valueNull();

    /** key() + value() in one call. */
    template <typename T>
    void
    member(std::string_view k, T &&v)
    {
        key(k);
        value(std::forward<T>(v));
    }

    /** True once the root value has been closed. */
    bool complete() const;

  private:
    enum class Scope { Object, Array };
    struct Level { Scope scope; bool hasItems; };

    void prepareValue();
    /** Flush if the value just written was the root. */
    void valueDone();
    void indent();
    void write(const char *s, std::size_t n);
    void write(std::string_view s) { write(s.data(), s.size()); }
    void put(char c);
    /** Write @p s escaped, without the surrounding quotes. */
    void writeEscaped(std::string_view s);
    /** Hand the buffered bytes to the stream and empty the buffer. */
    void flush();

    std::ostream &os_;
    bool pretty_;
    bool rootWritten_ = false;
    bool keyPending_ = false;
    std::vector<Level> stack_;
    std::size_t used_ = 0;
    char buf_[bufferSize];
};

/** Parsed JSON value (tests and tools only; not used on hot paths). */
class Value
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    Value() : type_(Type::Null) {}

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    bool asBool() const { return bool_; }
    double asNumber() const { return number_; }
    const std::string &asString() const { return string_; }
    const std::vector<Value> &asArray() const { return array_; }
    const std::map<std::string, Value> &asObject() const { return object_; }

    /** Object member access; null Value if absent or not an object. */
    const Value &operator[](const std::string &k) const;
    /** Array element access; null Value if out of range. */
    const Value &operator[](std::size_t i) const;

    bool has(const std::string &k) const;
    std::size_t size() const;

  private:
    friend class Parser;

    Type type_;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<Value> array_;
    std::map<std::string, Value> object_;
};

/**
 * Parse @p text as one JSON document.
 * @param error  If non-null, receives a description on failure.
 * @return the parsed value; Null type with a set @p error on failure.
 *         (A valid document whose root is null also parses to Null —
 *         check @p error, or use valid(), to distinguish.)
 */
Value parse(const std::string &text, std::string *error = nullptr);

/** True if @p text is one complete, well-formed JSON document. */
bool valid(const std::string &text);

} // namespace uldma::json

#endif // ULDMA_SIM_JSON_HH
