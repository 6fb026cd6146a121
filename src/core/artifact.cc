#include "core/artifact.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/file.h"
#include "common/fnv.h"

namespace rumba::core {

namespace {

constexpr char kHeaderV1[] = "rumba-artifact v1";
constexpr char kHeaderV2[] = "rumba-artifact v2";
constexpr char kChecksumTag[] = "checksum ";

std::string
HexU64(uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

/** Emit one marker-delimited section. */
void
EmitSection(std::ostream& out, const char* name,
            const std::string& body)
{
    out << "BEGIN " << name << "\n" << body;
    if (!body.empty() && body.back() != '\n')
        out << "\n";
    out << "END " << name << "\n";
}

/** Read the section @p name from @p text into @p body; on failure
 *  fills @p error and returns false. */
bool
TryReadSection(const std::string& text, const std::string& name,
               std::string* body, std::string* error)
{
    const std::string begin = "BEGIN " + name + "\n";
    const std::string end = "END " + name + "\n";
    const size_t start = text.find(begin);
    if (start == std::string::npos) {
        *error = "artifact missing section '" + name + "'";
        return false;
    }
    const size_t body_at = start + begin.size();
    const size_t stop = text.find(end, body_at);
    if (stop == std::string::npos) {
        *error = "artifact section '" + name + "' not terminated";
        return false;
    }
    *body = text.substr(body_at, stop - body_at);
    return true;
}

}  // namespace

std::string
Artifact::ToString() const
{
    std::ostringstream payload;
    payload.precision(17);
    payload << "benchmark " << benchmark << "\n";
    payload << "threshold " << threshold << "\n";
    EmitSection(payload, "rumba_mlp", rumba_mlp);
    EmitSection(payload, "npu_mlp", npu_mlp);
    EmitSection(payload, "in_norm", in_norm);
    EmitSection(payload, "out_norm", out_norm);
    EmitSection(payload, "predictor", predictor);
    if (!compensator.empty())
        EmitSection(payload, "compensator", compensator);
    const std::string body = payload.str();
    // The checksum is FNV-1a over everything below its line: it
    // catches truncation and bitrot, the storage faults a deployed
    // artifact actually meets.
    return std::string(kHeaderV2) + "\n" + kChecksumTag +
           HexU64(Fnv1a64(body.data(), body.size())) + "\n" + body;
}

Result<Artifact>
Artifact::TryFromString(const std::string& text)
{
    const auto data_loss = [](std::string message) {
        return Status(StatusCode::kDataLoss, std::move(message));
    };

    size_t line_end = text.find('\n');
    if (line_end == std::string::npos)
        return data_loss("not a rumba artifact (bad header)");
    const std::string header = text.substr(0, line_end);
    size_t payload_at = line_end + 1;
    if (header == kHeaderV2) {
        // v2 carries a checksum line over everything below it.
        const size_t sum_end = text.find('\n', payload_at);
        if (sum_end == std::string::npos)
            return data_loss("artifact missing checksum record");
        const std::string sum_line =
            text.substr(payload_at, sum_end - payload_at);
        if (sum_line.compare(0, sizeof(kChecksumTag) - 1,
                             kChecksumTag) != 0) {
            return data_loss("artifact missing checksum record");
        }
        const std::string expected =
            sum_line.substr(sizeof(kChecksumTag) - 1);
        payload_at = sum_end + 1;
        const std::string computed =
            HexU64(Fnv1a64(text.data() + payload_at,
                           text.size() - payload_at));
        if (expected != computed) {
            return data_loss(
                "artifact checksum mismatch (stored " + expected +
                ", computed " + computed +
                "): blob truncated or bit-rotted");
        }
    } else if (header != kHeaderV1) {
        return data_loss("not a rumba artifact (bad header)");
    }
    const std::string payload = text.substr(payload_at);

    Artifact parsed;
    std::istringstream in(payload);
    std::string tag;
    in >> tag >> parsed.benchmark;
    if (tag != "benchmark")
        return data_loss("artifact missing benchmark record");
    in >> tag >> parsed.threshold;
    if (tag != "threshold" || in.fail())
        return data_loss("artifact missing threshold record");

    std::string error;
    if (!TryReadSection(payload, "rumba_mlp", &parsed.rumba_mlp,
                        &error) ||
        !TryReadSection(payload, "npu_mlp", &parsed.npu_mlp, &error) ||
        !TryReadSection(payload, "in_norm", &parsed.in_norm, &error) ||
        !TryReadSection(payload, "out_norm", &parsed.out_norm,
                        &error) ||
        !TryReadSection(payload, "predictor", &parsed.predictor,
                        &error)) {
        return data_loss(std::move(error));
    }
    // Optional section: artifacts exported without a compensator (and
    // every pre-compensation blob) simply lack it.
    if (payload.find("BEGIN compensator\n") != std::string::npos &&
        !TryReadSection(payload, "compensator", &parsed.compensator,
                        &error)) {
        return data_loss(std::move(error));
    }
    return parsed;
}

bool
Artifact::Save(const std::string& path) const
{
    return WriteFile(path, ToString());
}

Result<Artifact>
Artifact::TryLoad(const std::string& path)
{
    std::ifstream in(path);
    if (!in) {
        return Status(StatusCode::kNotFound,
                      "cannot open artifact '" + path + "'");
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return TryFromString(buffer.str());
}

}  // namespace rumba::core
