// Seeded mutation loop over the hand-written parsers outside
// rumba-stat: the RUMBA_TSDB_PERIOD_MS, RUMBA_LOG,
// RUMBA_AUDIT_SAMPLE_N and RUMBA_METRICS_PORT parsers, the HTTP
// request line, the route query parsers behind /tsdbz and /incidentz,
// and the external-input parsers of fault plans, topologies, MLP
// blobs, deployment artifacts and the sections a runtime loads from
// them.
// Valid seeds are mutated by truncation and bit flips
// (fault/corrupt.h), signs, exponents and special values, leading
// spaces and trailing garbage; every result must lie in its parser's
// documented range or be its documented default or off value, and
// the structured parsers must return a typed failure or a valid
// object. The loop is deterministic, so a failure replays; ci.sh also
// runs it under ASan/UBSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "apps/benchmark.h"
#include "common/logging.h"
#include "common/random.h"
#include "core/artifact.h"
#include "core/batch_view.h"
#include "core/runtime.h"
#include "fault/corrupt.h"
#include "fault/plan.h"
#include "nn/mlp.h"
#include "nn/topology.h"
#include "obs/http_exporter.h"
#include "obs/incident.h"
#include "obs/tsdb.h"
#include "serve/engine.h"

namespace rumba {
namespace {

constexpr uint64_t kSeed = 0x5eed;
constexpr int kMutantsPerSeed = 150;

/** Spliced in anywhere: signs, exponents, special values, radixes and
 *  query metacharacters. */
const char* const kTokens[] = {
    "-",   "+",      "-0",   "1e999", "1e-300", "nan", "inf",  "-inf",
    "0x10", "e",     ".",    " ",     "\t",     "&",   "=",    "id=",
    "%00", "18446744073709551616",   "9223372036854775808",
};

/** @p seeds plus kMutantsPerSeed seeded mutants of each. */
std::vector<std::string>
Mutants(const std::vector<std::string>& seeds, uint64_t stream)
{
    Rng rng = Rng::ForStream(kSeed, stream);
    std::vector<std::string> out = seeds;
    for (const std::string& seed : seeds) {
        for (int i = 0; i < kMutantsPerSeed; ++i) {
            std::string s = seed;
            const char* token = kTokens[rng.Below(std::size(kTokens))];
            switch (rng.Below(6)) {
            case 0:
                fault::TruncateBlob(&s, rng.Uniform());
                break;
            case 1:
                fault::BitrotBlob(&s, 0.3, rng.Next());
                break;
            case 2:
                s.insert(0, rng.Chance(0.5) ? "-" : "+");
                break;
            case 3:
                s.insert(rng.Below(s.size() + 1), token);
                break;
            case 4:
                s.insert(0, std::string(1 + rng.Below(3), ' '));
                break;
            default:
                s += token;
                break;
            }
            out.push_back(s);
        }
    }
    return out;
}

/** The number after `"key":` in a JSON body (NaN when absent). */
double
JsonField(const std::string& body, const std::string& key)
{
    const std::string needle = "\"" + key + "\":";
    const size_t at = body.find(needle);
    if (at == std::string::npos)
        return std::nan("");
    return std::strtod(body.c_str() + at + needle.size(), nullptr);
}

bool
AllDigits(const std::string& s)
{
    if (s.empty())
        return false;
    for (char c : s)
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return false;
    return true;
}

class ParserFuzzTest : public ::testing::Test {
  protected:
    // Garbage is the point here: keep the warn-and-fallback lines of
    // the env parsers off the test log.
    void SetUp() override
    {
        threshold_ = LogThreshold();
        SetLogThreshold(LogLevel::kFatal);
    }
    void TearDown() override { SetLogThreshold(threshold_); }

  private:
    LogLevel threshold_ = LogLevel::kInform;
};

TEST_F(ParserFuzzTest, EnvParsersStayInTheirDocumentedRanges)
{
    const std::vector<std::string> inputs =
        Mutants({"100", "25", "0", "60000", "4096", "101", "0.2", "499",
                 "16", "65535", "debug", "Info", "WARN", "warning",
                 "quiet"},
                1);
    for (const std::string& input : inputs) {
        const char* value = input.c_str();

        const int period_ms = obs::ParseTsdbPeriodMs(value);
        EXPECT_TRUE(period_ms == 0 ||
                    (period_ms >= obs::kMinTsdbPeriodMs &&
                     period_ms <= obs::kMaxTsdbPeriodMs))
            << "RUMBA_TSDB_PERIOD_MS='" << input << "' -> " << period_ms;

        // Only a whole decimal integer sets the period or turns the
        // sampler off; anything else keeps the default.
        if (!AllDigits(input) &&
            !(input[0] == '-' && AllDigits(input.substr(1)))) {
            EXPECT_EQ(period_ms, obs::kDefaultTsdbPeriodMs) << input;
        }

        // A port is plain digits that spell exactly it.
        const std::optional<uint16_t> port = obs::ParseMetricsPort(value);
        if (port.has_value()) {
            EXPECT_TRUE(AllDigits(input)) << input;
            EXPECT_EQ(*port, std::strtoull(value, nullptr, 10)) << input;
        } else if (AllDigits(input)) {
            EXPECT_GT(std::strtod(value, nullptr), 65535.0) << input;
        }

        if (AllDigits(input)) {
            // Plain digits clamp into range; they never wrap.
            const double n = std::strtod(value, nullptr);
            EXPECT_EQ(period_ms,
                      n == 0.0 ? 0.0
                               : std::clamp<double>(
                                     n, obs::kMinTsdbPeriodMs,
                                     obs::kMaxTsdbPeriodMs))
                << input;
        }

        // One of the four levels; anything but inform only from a
        // listed word, in any case.
        const LogLevel level = ParseLogLevel(value);
        EXPECT_TRUE(level == LogLevel::kDebug ||
                    level == LogLevel::kInform ||
                    level == LogLevel::kWarn || level == LogLevel::kFatal)
            << "RUMBA_LOG='" << input << "'";
        if (level != LogLevel::kInform) {
            std::string word(value);
            for (char& c : word)
                c = static_cast<char>(
                    std::tolower(static_cast<unsigned char>(c)));
            const LogLevel listed =
                word == "debug"                      ? LogLevel::kDebug
                : word == "warn" || word == "warning" ? LogLevel::kWarn
                : word == "fatal" || word == "quiet"  ? LogLevel::kFatal
                                                      : LogLevel::kInform;
            EXPECT_EQ(level, listed) << "RUMBA_LOG='" << input << "'";
        }

        // nullopt keeps the configured rate; a value must come from
        // plain digits that spell exactly it.
        const std::optional<size_t> every =
            serve::ParseAuditSampleN(value);
        if (every.has_value()) {
            EXPECT_TRUE(AllDigits(input)) << input;
            EXPECT_EQ(*every, std::strtoull(value, nullptr, 10)) << input;
        }
    }
}

TEST_F(ParserFuzzTest, RouteQueriesStayInTheirDocumentedRanges)
{
    obs::TimeSeriesStore& store = obs::TimeSeriesStore::Default();
    for (const char* name : {"fuzz.a", "fuzz.b", "fuzz.c"})
        store.Append(name, obs::SeriesKind::kGauge, store.NowMs(), 1.0);
    obs::IncidentManager& manager = obs::IncidentManager::Default();
    manager.Clear();  // also lifts the rate limit.
    for (const char* source : {"breaker", "fault"}) {
        obs::IncidentSignal signal;
        signal.source = source;
        signal.name = "fuzz";
        manager.OnSignal(signal);
    }
    manager.FinalizeOpenNow();
    ASSERT_EQ(manager.List().size(), 1u);
    const std::string id = std::to_string(manager.List()[0].id);

    const std::vector<std::string> queries = Mutants(
        {"prefix=fuzz.&range_ms=60000&quantile=0.5&max_series=2",
         "range_ms=1&max_series=512", "id=" + id, "x=1&id=" + id, ""},
        2);
    for (const std::string& query : queries) {
        const std::string tsdbz = obs::TsdbzJson(query);
        ASSERT_FALSE(tsdbz.empty());
        EXPECT_EQ(tsdbz.front(), '{') << query;
        EXPECT_EQ(tsdbz.back(), '}') << query;
        EXPECT_GE(JsonField(tsdbz, "range_ms"), 1.0) << query;
        const double quantile = JsonField(tsdbz, "quantile");
        EXPECT_TRUE(quantile >= 0.0 && quantile <= 1.0) << query;
        const double selected = JsonField(tsdbz, "selected");
        EXPECT_TRUE(selected >= 0.0 && selected <= 512.0) << query;

        // No id parameter lists; any id value names one bundle or is
        // an unknown-incident error echoing the parsed id. Only a whole
        // value of plain decimal digits parses; anything else is id 0.
        const std::string incidentz = obs::IncidentzJson(query);
        const std::optional<std::string> raw =
            obs::QueryParam(query, "id");
        if (!raw.has_value()) {
            EXPECT_NE(incidentz.find("\"incidents\":{"),
                      std::string::npos)
                << query;
            continue;
        }
        uint64_t want = 0;
        const char* end = raw->data() + raw->size();
        const auto [ptr, ec] = std::from_chars(raw->data(), end, want);
        if (ec != std::errc() || ptr != end)
            want = 0;
        if (incidentz.find("\"type\":\"incident\"") != std::string::npos) {
            EXPECT_EQ(JsonField(incidentz, "id"),
                      static_cast<double>(want))
                << query;
        } else {
            EXPECT_EQ(incidentz,
                      "{\"schema_version\":1,\"error\":\"unknown "
                      "incident\",\"id\":" +
                          std::to_string(want) + "}")
                << query;
        }
    }
}

/** True when @p s is one whole decimal number from_chars accepts. */
bool
WholeNumber(const std::string& s)
{
    double value = 0.0;
    const char* end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, value);
    return ec == std::errc() && ptr == end;
}

TEST_F(ParserFuzzTest, QueryParamNumIsFiniteAndWholeOrFallback)
{
    constexpr double kFallback = 60000.0;
    const std::vector<std::string> queries = Mutants(
        {"range_ms=25", "range_ms=0.5", "range_ms=-3e2&x=1",
         "x=1&range_ms=1e-3", "range_ms=60000"},
        100);
    for (const std::string& query : queries) {
        const double got = obs::QueryParamNum(query, "range_ms", kFallback);
        EXPECT_TRUE(std::isfinite(got)) << query;
        const std::optional<std::string> raw =
            obs::QueryParam(query, "range_ms");
        if (!raw.has_value() || !WholeNumber(*raw)) {
            EXPECT_EQ(got, kFallback) << query;
            continue;
        }
        double want = 0.0;
        std::from_chars(raw->data(), raw->data() + raw->size(), want);
        EXPECT_EQ(got, std::isfinite(want) ? want : kFallback) << query;
    }
}

TEST_F(ParserFuzzTest, RequestLineIsRefusedOrTakenFromTheFirstLine)
{
    const std::vector<std::string> heads = Mutants(
        {"GET /tsdbz?range_ms=5 HTTP/1.0\r\n\r\n",
         "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n",
         "GET /incidentz?id=3&x=1 HTTP/1.1\nAccept: */*\n\n",
         "GET\r\nHost: a b\r\n\r\n"},
        101);
    for (const std::string& head : heads) {
        const std::optional<obs::RequestTarget> target =
            obs::ParseRequestLine(head);
        if (!target.has_value())
            continue;
        const std::string line = head.substr(0, head.find_first_of("\r\n"));
        for (const std::string* part : {&target->path, &target->query}) {
            EXPECT_EQ(part->find_first_of(" \r\n"), std::string::npos)
                << head;
            EXPECT_NE(line.find(*part), std::string::npos) << head;
        }
        EXPECT_NE(head.find('\n'), std::string::npos) << head;
    }
}

TEST_F(ParserFuzzTest, FaultPlanParseIsTypedOrValid)
{
    const std::vector<std::string> inputs = Mutants(
        {"seed=42;npu.output_nan=0.01;npu.bitflip=0.002;"
         "npu.output_stuck=0.5:1.25;queue.stall=1",
         "seed=18446744073709551615;checker.mispredict=0.1",
         "npu.lut=0.5;artifact.truncate=1:0.25", ""},
        3);
    size_t valid = 0;
    for (const std::string& spec : inputs) {
        fault::FaultPlan plan;
        std::string error;
        if (!fault::FaultPlan::Parse(spec, &plan, &error)) {
            EXPECT_FALSE(error.empty()) << spec;
            continue;
        }
        for (const fault::FaultRule& rule : plan.rules) {
            EXPECT_TRUE(rule.rate >= 0.0 && rule.rate <= 1.0) << spec;
            EXPECT_TRUE(std::isfinite(rule.param)) << spec;
        }
        // A valid plan renders to a spec that parses back to it.
        fault::FaultPlan replay;
        ASSERT_TRUE(fault::FaultPlan::Parse(plan.ToSpec(), &replay,
                                            &error))
            << spec << ": " << error;
        EXPECT_EQ(replay.seed, plan.seed) << spec;
        ASSERT_EQ(replay.rules.size(), plan.rules.size()) << spec;
        for (size_t i = 0; i < plan.rules.size(); ++i) {
            EXPECT_EQ(replay.rules[i].fault, plan.rules[i].fault) << spec;
            EXPECT_EQ(replay.rules[i].rate, plan.rules[i].rate) << spec;
            EXPECT_EQ(replay.rules[i].param, plan.rules[i].param) << spec;
        }
        ++valid;
    }
    EXPECT_GT(valid, 0u);  // the valid-object branch ran.
}

TEST_F(ParserFuzzTest, TopologyTryParseIsBoundedOrRefused)
{
    const std::vector<std::string> inputs = Mutants(
        {"6->8->4->1", "64->16->64", "18->32->8->2", "1->4096->1"}, 4);
    size_t valid = 0;
    for (const std::string& text : inputs) {
        const std::optional<nn::Topology> topo =
            nn::Topology::TryParse(text);
        if (!topo.has_value())
            continue;
        EXPECT_GE(topo->layers.size(), 2u) << text;
        EXPECT_LE(topo->layers.size(), nn::Topology::kMaxLayers) << text;
        for (const size_t width : topo->layers)
            EXPECT_TRUE(width >= 1 && width <= nn::Topology::kMaxWidth)
                << text;
        EXPECT_EQ(nn::Topology::TryParse(topo->ToString()), topo) << text;
        ++valid;
    }
    EXPECT_GT(valid, 0u);  // the valid-object branch ran.
}

TEST_F(ParserFuzzTest, MlpTryDeserializeIsTypedOrValid)
{
    Rng rng(7);
    nn::Mlp mlp(nn::Topology::Parse("2->4->2"), nn::Activation::kTanh,
                nn::Activation::kLinear);
    mlp.RandomizeWeights(&rng);
    size_t valid = 0;
    // The second seed names 4096 x 4097 weights in a 40-byte blob: it
    // and its mutants must be refused before the weights are
    // allocated.
    for (const std::string& blob :
         Mutants({mlp.Serialize(), "mlp 1->4096->4096\nlayer sigmoid 1 2\n"},
                 5)) {
        const std::optional<nn::Mlp> parsed = nn::Mlp::TryDeserialize(blob);
        if (!parsed.has_value())
            continue;
        EXPECT_EQ(parsed->NumParameters(),
                  parsed->GetTopology().MacsPerInvocation());
        EXPECT_LE(parsed->NumParameters(), blob.size() / 2);
        // A valid network re-serializes to a blob that parses to it.
        const std::string again = parsed->Serialize();
        const std::optional<nn::Mlp> reparsed =
            nn::Mlp::TryDeserialize(again);
        ASSERT_TRUE(reparsed.has_value()) << again;
        EXPECT_EQ(reparsed->Serialize(), again);
        ++valid;
    }
    EXPECT_GT(valid, 0u);  // the valid-object branch ran.
}

/** A real deployment blob (v2, with the optional compensator
 *  section): inversek2j trained briefly. */
const std::string&
ArtifactBlob()
{
    static const std::string blob = [] {
        core::RumbaRuntime trained(
            apps::MakeBenchmark("inversek2j"),
            core::RuntimeConfig::Builder()
                .WithTrainEpochs(5)
                .WithElementCaps(200, 100)
                .WithCompensation()
                .Build());
        return trained.ExportArtifact().ToString();
    }();
    return blob;
}

TEST_F(ParserFuzzTest, ArtifactTryFromStringIsTypedOrValid)
{
    const std::string& v2 = ArtifactBlob();
    // The same payload under a v1 header, which carries no checksum:
    // its mutants reach the record and section readers.
    const size_t payload_at = v2.find('\n', v2.find('\n') + 1) + 1;
    const std::string v1 = "rumba-artifact v1\n" + v2.substr(payload_at);
    ASSERT_TRUE(core::Artifact::TryFromString(v2).ok());
    ASSERT_TRUE(core::Artifact::TryFromString(v1).ok());
    size_t valid = 0;
    for (const std::string& text : Mutants({v2, v1}, 6)) {
        const core::Result<core::Artifact> parsed =
            core::Artifact::TryFromString(text);
        if (!parsed.ok()) {
            EXPECT_EQ(parsed.status().code(), core::StatusCode::kDataLoss);
            continue;
        }
        // A valid artifact renders to a blob that parses back, and its
        // networks load or are refused like any MLP blob.
        const core::Result<core::Artifact> again =
            core::Artifact::TryFromString(parsed->ToString());
        ASSERT_TRUE(again.ok()) << again.status().ToString();
        EXPECT_EQ(again->benchmark, parsed->benchmark);
        EXPECT_EQ(again->threshold, parsed->threshold);
        for (const std::string* net :
             {&parsed->rumba_mlp, &parsed->npu_mlp}) {
            const std::optional<nn::Mlp> mlp =
                nn::Mlp::TryDeserialize(*net);
            if (mlp.has_value()) {
                EXPECT_LE(mlp->NumParameters(), net->size() / 2);
            }
        }
        ++valid;
    }
    EXPECT_GT(valid, 0u);  // the valid-object branch ran.
}

TEST_F(ParserFuzzTest, DamagedArtifactSectionsAreRefusedOrServeFinite)
{
    const core::Result<core::Artifact> seed =
        core::Artifact::TryFromString(ArtifactBlob());
    ASSERT_TRUE(seed.ok()) << seed.status().ToString();
    const core::Artifact& good = *seed;
    const core::RuntimeConfig config = core::RuntimeConfig::Builder()
                                           .WithElementCaps(200, 100)
                                           .WithCompensation()
                                           .Build();
    const auto bench = apps::MakeBenchmark(good.benchmark);
    const auto inputs = bench->TestInputs();
    constexpr size_t kElements = 8;
    const std::vector<double> flat =
        core::FlattenBatch({inputs.begin(), inputs.begin() + kElements});
    const core::BatchView view(flat.data(), kElements, bench->NumInputs());
    std::vector<double> outputs(kElements * bench->NumOutputs());

    // Each section's mutants (truncations, bit flips, spliced tokens)
    // plus a splice of another section into it, loaded through the
    // runtime: a typed refusal, or a runtime that serves finite
    // outputs. No mutant may kill, hang or corrupt the process.
    std::string core::Artifact::*const sections[] = {
        &core::Artifact::rumba_mlp, &core::Artifact::npu_mlp,
        &core::Artifact::in_norm,   &core::Artifact::out_norm,
        &core::Artifact::predictor, &core::Artifact::compensator};
    size_t refused = 0;
    size_t served = 0;
    uint64_t stream = 7;
    for (std::string core::Artifact::*section : sections) {
        const std::string& clean = good.*section;
        std::vector<std::string> blobs = Mutants({clean}, stream++);
        for (std::string core::Artifact::*other : sections) {
            const std::string& donor = good.*other;
            blobs.push_back(clean.substr(0, clean.size() / 2) +
                            donor.substr(donor.size() / 2));
        }
        for (const std::string& blob : blobs) {
            core::Artifact damaged = good;
            damaged.*section = blob;
            auto runtime = core::RumbaRuntime::FromArtifact(damaged, config);
            if (!runtime.ok()) {
                const core::StatusCode code = runtime.status().code();
                EXPECT_TRUE(code == core::StatusCode::kDataLoss ||
                            code == core::StatusCode::kFailedPrecondition)
                    << runtime.status().ToString();
                ++refused;
                continue;
            }
            (*runtime)->ProcessInvocation(view, outputs.data());
            for (const double v : outputs)
                EXPECT_TRUE(std::isfinite(v)) << blob;
            ++served;
        }
    }
    // Both branches ran.
    EXPECT_GT(refused, 0u);
    EXPECT_GT(served, 0u);
}

}  // namespace
}  // namespace rumba
