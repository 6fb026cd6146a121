#include "bench_util.h"

#include <cmath>
#include <cstdio>
#include <string>

#include "apps/benchmark.h"
#include "common/logging.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace rumba::benchutil {

core::ExperimentConfig
PaperConfig()
{
    core::ExperimentConfig cfg;
    cfg.pipeline.train_epochs = 120;
    cfg.pipeline.seed = 7;
    return cfg;
}

std::unique_ptr<core::Experiment>
Prepare(const std::string& name, const core::ExperimentConfig& config)
{
    std::fprintf(stderr, "preparing %s ...\n", name.c_str());
    return std::make_unique<core::Experiment>(apps::MakeBenchmark(name),
                                              config);
}

std::vector<std::unique_ptr<core::Experiment>>
PrepareAll(const core::ExperimentConfig& config)
{
    std::vector<std::unique_ptr<core::Experiment>> all;
    for (const auto& name : apps::BenchmarkNames())
        all.push_back(Prepare(name, config));
    return all;
}

std::string
CsvDir(int argc, char** argv)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::string(argv[i]) == "--csv-dir")
            return argv[i + 1];
    }
    return "";
}

void
Emit(const Table& table, const std::string& title,
     const std::string& csv_dir, const std::string& name)
{
    table.Print(title);
    if (!csv_dir.empty()) {
        const std::string path = csv_dir + "/" + name + ".csv";
        if (!table.WriteCsv(path))
            Warn("could not write %s", path.c_str());
        else
            Inform("wrote %s", path.c_str());
    }
    EmitMetrics(csv_dir, name);
}

void
EmitMetrics(const std::string& csv_dir, const std::string& name)
{
    const obs::RegistrySnapshot snap =
        obs::Registry::Default().Snapshot();

    uint64_t checks = 0, fires = 0, elements = 0, fixes = 0;
    for (const auto& c : snap.counters) {
        if (c.name == "detector.checks")
            checks = c.value;
        else if (c.name == "detector.fires")
            fires = c.value;
        else if (c.name == "runtime.elements")
            elements = c.value;
        else if (c.name == "runtime.fixes")
            fixes = c.value;
    }
    for (const auto& h : snap.histograms) {
        if (h.count == 0)
            continue;
        if (h.name == "npu.invoke_ns" || h.name == "runtime.invocation_ns"
            || h.name == "recovery.drain_ns") {
            Inform("telemetry: %s n=%llu p50=%.0fns p90=%.0fns "
                   "p99=%.0fns",
                   h.name.c_str(),
                   static_cast<unsigned long long>(h.count), h.p50,
                   h.p90, h.p99);
        }
    }
    if (checks > 0) {
        Inform("telemetry: detector fire rate %.2f%% (%llu / %llu "
               "checks)",
               100.0 * static_cast<double>(fires) /
                   static_cast<double>(checks),
               static_cast<unsigned long long>(fires),
               static_cast<unsigned long long>(checks));
    }
    if (elements > 0) {
        Inform("telemetry: fix rate %.2f%% (%llu / %llu elements)",
               100.0 * static_cast<double>(fixes) /
                   static_cast<double>(elements),
               static_cast<unsigned long long>(fixes),
               static_cast<unsigned long long>(elements));
    }

    if (!csv_dir.empty()) {
        const std::string path =
            csv_dir + "/" + name + ".metrics.csv";
        if (obs::WriteMetricsFile(path))
            Inform("wrote %s", path.c_str());
        else
            Warn("could not write %s", path.c_str());
    }
}

double
Mean(const std::vector<double>& values)
{
    RUMBA_CHECK(!values.empty());
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
GeoMean(const std::vector<double>& values)
{
    RUMBA_CHECK(!values.empty());
    double log_sum = 0.0;
    for (double v : values) {
        RUMBA_CHECK(v > 0.0);
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace rumba::benchutil
