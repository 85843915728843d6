#include "util/output.hh"

#include <cstdio>
#include <fstream>
#include <iostream>

namespace uldma {

bool
writeOutput(const std::string &path,
            const std::function<void(std::ostream &)> &emit)
{
    bool ok;
    if (path == "-") {
        emit(std::cout);
        ok = std::cout.flush().good();
    } else {
        std::ofstream file(path, std::ios::binary);
        if (file) {
            emit(file);
            file.close();
        }
        ok = !file.fail();
    }
    if (!ok)
        std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
    return ok;
}

} // namespace uldma
