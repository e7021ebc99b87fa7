#include "bench.hh"

#include <filesystem>
#include <fstream>
#include <sstream>

#include <sys/resource.h>

#include "common/logging.hh"

namespace perfbench
{

namespace
{

const Clock::time_point kEpoch = Clock::now();

} // namespace

double
nowSeconds()
{
    return secondsSince(kEpoch);
}

std::string
digestHex(const std::string &bytes)
{
    u64 hash = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

std::string
fileDigest(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        icicle::fatal("cannot read ", path);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return digestHex(bytes.str());
}

std::map<std::string, std::string>
loadDigests(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        icicle::fatal("cannot read pinned digests ", path);
    std::map<std::string, std::string> digests;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string workload, output, hex;
        if (!(fields >> workload >> output >> hex))
            icicle::fatal(path, ": malformed line '", line, "'");
        digests[workload + " " + output] = hex;
    }
    return digests;
}

double
selfPeakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
processPeakRssMb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0;
}

std::vector<pid_t>
childPids(pid_t pid)
{
    std::vector<pid_t> pids;
    std::error_code ec;
    const std::string tasks = "/proc/" + std::to_string(pid) + "/task";
    for (const auto &task :
         std::filesystem::directory_iterator(tasks, ec)) {
        std::ifstream in(task.path() / "children");
        pid_t child = 0;
        while (in >> child)
            pids.push_back(child);
    }
    return pids;
}

} // namespace perfbench
