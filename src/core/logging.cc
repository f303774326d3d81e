#include "core/logging.h"

#include <cstdio>
#include <cstdlib>

namespace echo {

namespace {
bool quiet_mode = false;
} // namespace

void
setQuiet(bool quiet)
{
    quiet_mode = quiet;
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n  at %s:%d\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n  at %s:%d\n", msg.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    if (!quiet_mode)
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

} // namespace echo
