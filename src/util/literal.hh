/**
 * @file
 * Text with static storage, held by pointer: micro-op labels and the
 * names and descriptions of registered stats.  Holding them instead of
 * copies keeps a program plain data and makes registering a stat cost
 * no allocation.
 */

#ifndef ULDMA_UTIL_LITERAL_HH
#define ULDMA_UTIL_LITERAL_HH

#include <cstddef>

namespace uldma {

/**
 * A pointer to a string literal (or another array with static
 * storage).  Nothing else converts: a `const char *` such as
 * `std::string::c_str()` has no constructor to take, and the
 * consteval constructor refuses a local array because its address is
 * not a constant expression.  So a holder never dangles.
 */
class Literal
{
  public:
    template <std::size_t N>
    consteval Literal(const char (&text)[N]) : text_(text)
    {}

    const char *text() const { return text_; }

  private:
    const char *text_;
};

} // namespace uldma

#endif // ULDMA_UTIL_LITERAL_HH
