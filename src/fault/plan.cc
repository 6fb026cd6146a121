#include "fault/plan.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace rumba::fault {

namespace {

struct ClassName {
    FaultClass fault;
    const char* name;
};

constexpr ClassName kClassNames[] = {
    {FaultClass::kNpuBitFlip, "npu.bitflip"},
    {FaultClass::kNpuOutputNan, "npu.output_nan"},
    {FaultClass::kNpuOutputInf, "npu.output_inf"},
    {FaultClass::kNpuOutputStuck, "npu.output_stuck"},
    {FaultClass::kNpuLutCorrupt, "npu.lut"},
    {FaultClass::kArtifactTruncate, "artifact.truncate"},
    {FaultClass::kArtifactBitrot, "artifact.bitrot"},
    {FaultClass::kQueueStall, "queue.stall"},
    {FaultClass::kCheckerMispredict, "checker.mispredict"},
};

static_assert(sizeof(kClassNames) / sizeof(kClassNames[0]) ==
              kNumFaultClasses);

bool
LookupClass(const std::string& name, FaultClass* fault)
{
    for (const auto& entry : kClassNames) {
        if (name == entry.name) {
            *fault = entry.fault;
            return true;
        }
    }
    return false;
}

/** Parse a finite double; false on trailing garbage, NaN or Inf. */
bool
ParseNumber(const std::string& text, double* out)
{
    if (text.empty())
        return false;
    char* end = nullptr;
    *out = std::strtod(text.c_str(), &end);
    return end == text.c_str() + text.size() && std::isfinite(*out);
}

/** Parse a seed: plain decimal digits that fit uint64_t. */
bool
ParseSeed(const std::string& text, uint64_t* out)
{
    const char* end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, *out);
    return error == std::errc() && stop == end;
}

}  // namespace

const char*
FaultClassName(FaultClass fault)
{
    for (const auto& entry : kClassNames) {
        if (entry.fault == fault)
            return entry.name;
    }
    return "unknown";
}

bool
FaultPlan::Empty() const
{
    for (const FaultRule& rule : rules) {
        if (rule.rate > 0.0)
            return false;
    }
    return true;
}

std::string
FaultPlan::ToSpec() const
{
    std::ostringstream out;
    out.precision(17);
    out << "seed=" << seed;
    for (const FaultRule& rule : rules) {
        out << ";" << FaultClassName(rule.fault) << "=" << rule.rate;
        if (rule.param != 0.0)
            out << ":" << rule.param;
    }
    return out.str();
}

bool
FaultPlan::Parse(const std::string& spec, FaultPlan* plan,
                 std::string* error)
{
    FaultPlan parsed;
    std::istringstream in(spec);
    std::string clause;
    auto fail = [&](const std::string& message) {
        if (error != nullptr)
            *error = message + " in clause '" + clause + "'";
        return false;
    };
    while (std::getline(in, clause, ';')) {
        if (clause.empty())
            continue;
        const size_t eq = clause.find('=');
        if (eq == std::string::npos)
            return fail("missing '='");
        const std::string key = clause.substr(0, eq);
        std::string value = clause.substr(eq + 1);
        if (key == "seed") {
            if (!ParseSeed(value, &parsed.seed))
                return fail("seed must be a non-negative integer");
            continue;
        }
        FaultRule rule;
        if (!LookupClass(key, &rule.fault))
            return fail("unknown fault class '" + key + "'");
        const size_t colon = value.find(':');
        if (colon != std::string::npos) {
            if (!ParseNumber(value.substr(colon + 1), &rule.param))
                return fail("param must be a finite number");
            value = value.substr(0, colon);
        }
        if (!ParseNumber(value, &rule.rate) || rule.rate < 0.0 ||
            rule.rate > 1.0)
            return fail("rate must be in [0, 1]");
        parsed.rules.push_back(rule);
    }
    *plan = std::move(parsed);
    return true;
}

}  // namespace rumba::fault
