#include "util/logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

namespace uldma {

namespace {

std::atomic<unsigned> warnCounter{0};

} // namespace

unsigned
warnCount()
{
    return warnCounter.load(std::memory_order_relaxed);
}

namespace detail {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "panic: " << msg << " (" << file << ":" << line << ")"
              << std::endl;
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "fatal: " << msg << " (" << file << ":" << line << ")"
              << std::endl;
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    warnCounter.fetch_add(1, std::memory_order_relaxed);
    std::cerr << "warn: " << msg << std::endl;
}

} // namespace detail
} // namespace uldma
