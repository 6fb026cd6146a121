#include "nn/topology.h"

#include <charconv>
#include <sstream>

#include "common/logging.h"

namespace rumba::nn {

std::string
Topology::ToString() const
{
    std::ostringstream out;
    for (size_t i = 0; i < layers.size(); ++i) {
        if (i)
            out << "->";
        out << layers[i];
    }
    return out.str();
}

Topology
Topology::Parse(const std::string& text)
{
    std::optional<Topology> topo = TryParse(text);
    if (!topo.has_value())
        Fatal("malformed topology '%s'", text.c_str());
    return *std::move(topo);
}

std::optional<Topology>
Topology::TryParse(const std::string& text)
{
    Topology topo;
    size_t pos = 0;
    for (;;) {
        const size_t next = text.find("->", pos);
        const char* first = text.data() + pos;
        const char* last =
            text.data() + (next == std::string::npos ? text.size() : next);
        size_t width = 0;
        const auto [stop, error] = std::from_chars(first, last, width);
        if (error != std::errc() || stop != last || width == 0 ||
            width > kMaxWidth || topo.layers.size() == kMaxLayers)
            return std::nullopt;
        topo.layers.push_back(width);
        if (next == std::string::npos)
            break;
        pos = next + 2;
    }
    if (topo.layers.size() < 2)
        return std::nullopt;
    return topo;
}

size_t
Topology::NumNeurons() const
{
    size_t n = 0;
    for (size_t i = 1; i < layers.size(); ++i)
        n += layers[i];
    return n;
}

size_t
Topology::MacsPerInvocation() const
{
    size_t macs = 0;
    for (size_t i = 1; i < layers.size(); ++i)
        macs += layers[i] * (layers[i - 1] + 1);
    return macs;
}

}  // namespace rumba::nn
