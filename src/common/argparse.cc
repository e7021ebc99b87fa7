#include "common/argparse.hh"

#include <sstream>

namespace icicle
{
namespace cli
{

bool
isHelp(const std::string &arg)
{
    return arg == "--help" || arg == "-h";
}

int
usageExit(FILE *out, const char *text)
{
    std::fputs(text, out);
    return out == stderr ? 2 : 0;
}

int
unknownOption(const std::string &arg, const char *text)
{
    std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
    return usageExit(stderr, text);
}

int
missingValue(const std::string &flag, const char *text)
{
    std::fprintf(stderr, "%s needs a value\n", flag.c_str());
    return usageExit(stderr, text);
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> items;
    std::string item;
    std::istringstream is(text);
    while (std::getline(is, item, ',')) {
        const auto begin = item.find_first_not_of(" \t");
        const auto end = item.find_last_not_of(" \t");
        if (begin != std::string::npos)
            items.push_back(item.substr(begin, end - begin + 1));
    }
    return items;
}

} // namespace cli
} // namespace icicle
