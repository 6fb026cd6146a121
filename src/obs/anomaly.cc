#include "obs/anomaly.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace rumba::obs {

namespace {

std::string
MetricName(const std::string& detector, const char* leaf)
{
    return "anomaly." + detector + "." + leaf;
}

/** Binary search into the sorted snapshot vectors. */
template <typename Vec>
const typename Vec::value_type*
FindByName(const Vec& entries, const std::string& name)
{
    const auto it = std::lower_bound(
        entries.begin(), entries.end(), name,
        [](const auto& entry, const std::string& key) {
            return entry.name < key;
        });
    if (it == entries.end() || it->name != name)
        return nullptr;
    return &*it;
}

}  // namespace

AnomalyDetector::AnomalyDetector(const std::string& name,
                                 std::string series)
    : zscore_gauge_(
          Registry::Default().GetGauge(MetricName(name, "zscore"))),
      mean_gauge_(Registry::Default().GetGauge(MetricName(name, "mean"))),
      latch_("anomaly", name, std::move(series),
             Registry::Default().GetGauge(MetricName(name, "firing")),
             Registry::Default().GetCounter(MetricName(name, "edges")),
             Registry::Default().GetCounter(MetricName(name, "edges")))
{
}

bool
AnomalyDetector::Observe(double value, uint64_t now_ns)
{
    EdgeLatch::Step step;
    {
        std::lock_guard<std::mutex> lock(mu_);
        const bool warm =
            samples_ >= static_cast<uint64_t>(kWarmupSamples);
        ++samples_;

        double zscore = 0.0;
        bool anomalous = false;
        if (warm) {
            const double stddev =
                std::max(std::sqrt(std::max(0.0, var_)),
                         kMinStddev);
            zscore = (value - mean_) / stddev;
            anomalous = std::fabs(zscore) >= kZThreshold;
        }
        if (anomalous) {
            ++consecutive_anomalous_;
            consecutive_normal_ = 0;
        } else {
            // Normal observations adapt the baseline; anomalous ones
            // do not, so a fault burst cannot absorb itself into
            // "normal".
            const double delta = value - mean_;
            mean_ += kAlpha * delta;
            var_ = (1.0 - kAlpha) *
                   (var_ + kAlpha * delta * delta);
            ++consecutive_normal_;
            consecutive_anomalous_ = 0;
        }

        zscore_gauge_->Set(zscore);
        mean_gauge_->Set(mean_);
        step = latch_.Update(
            anomalous && consecutive_anomalous_ >= kFireCount,
            !anomalous && consecutive_normal_ >= kClearCount,
            now_ns, "value=%.6g z=%.3g mean=%.6g", value, zscore, mean_);
    }
    latch_.Deliver(step);
    return step.edge;
}

bool
AnomalyDetector::Firing() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return latch_.Firing();
}

uint64_t
AnomalyDetector::Edges() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return latch_.Edges();
}

uint64_t
AnomalyDetector::SamplesSeen() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return samples_;
}

double
AnomalyDetector::Mean() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return mean_;
}

// ---------------------------------------------------------------------------
// AnomalySet
// ---------------------------------------------------------------------------

AnomalyDetector*
AnomalySet::Add(Probe probe, const std::string& series,
                const std::string& name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    if (it != entries_.end())
        return it->second.detector.get();
    Entry entry;
    entry.probe = probe;
    entry.series = series;
    entry.detector = std::make_unique<AnomalyDetector>(name, series);
    it = entries_.emplace(name, std::move(entry)).first;
    return it->second.detector.get();
}

void
AnomalySet::Observe(const RegistrySnapshot& snapshot, double t_ms,
                    uint64_t now_ns)
{
    // Extract every probe's reading under the set lock, then feed the
    // detectors outside it: an edge re-enters observability (the
    // incident manager), and detector pointers are stable (append-only
    // map of unique_ptrs).
    struct Reading {
        AnomalyDetector* detector;
        double value;
    };
    std::vector<Reading> readings;
    {
        std::lock_guard<std::mutex> lock(mu_);
        readings.reserve(entries_.size());
        for (auto& [name, entry] : entries_) {
            double value = 0.0;
            bool have = false;
            switch (entry.probe) {
            case Probe::kGauge:
                if (const GaugeSnapshot* g =
                        FindByName(snapshot.gauges, entry.series)) {
                    value = g->value;
                    have = true;
                }
                break;
            case Probe::kCounterRate: {
                double total = 0.0;
                bool found = false;
                if (const CounterSnapshot* c =
                        FindByName(snapshot.counters, entry.series)) {
                    total = static_cast<double>(c->value);
                    found = true;
                } else if (const DoubleCounterSnapshot* dc =
                               FindByName(snapshot.dcounters,
                                          entry.series)) {
                    total = dc->value;
                    found = true;
                }
                if (found) {
                    if (entry.has_prev &&
                        t_ms > entry.prev_t_ms) {
                        value = std::max(0.0,
                                         total - entry.prev_value) /
                                ((t_ms - entry.prev_t_ms) / 1000.0);
                        have = true;
                    }
                    entry.prev_value = total;
                    entry.prev_t_ms = t_ms;
                    entry.has_prev = true;
                }
                break;
            }
            case Probe::kHistogramP99:
                if (const HistogramSnapshot* h = FindByName(
                        snapshot.histograms, entry.series)) {
                    if (h->count > 0) {
                        value = h->p99;
                        have = true;
                    }
                }
                break;
            }
            if (have && std::isfinite(value))
                readings.push_back(
                    Reading{entry.detector.get(), value});
        }
    }
    for (const Reading& reading : readings)
        reading.detector->Observe(reading.value, now_ns);
}

size_t
AnomalySet::Detectors() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
}

void
AnomalySet::InstallServeProbes(size_t shards)
{
    // The load-bearing serving series: when any of these steps out of
    // its learned envelope, the incident manager wants to know.
    Add(Probe::kCounterRate, "detector.fires", "checker_fire_rate");
    Add(Probe::kHistogramP99, "serve.enqueue_to_complete_ns",
        "serve_latency_p99");
    Add(Probe::kGauge, "audit.true_toq_violation_rate",
        "audited_toq_violation_rate");
    Add(Probe::kCounterRate, "recovery.tier.compensate",
        "recovery_compensate_rate");
    Add(Probe::kCounterRate, "recovery.tier.reexecute",
        "recovery_reexecute_rate");
    Add(Probe::kGauge, "efficiency.speedup_estimate", "speedup_estimate");
    for (size_t i = 0; i < shards; ++i) {
        const std::string shard = "shard" + std::to_string(i);
        Add(Probe::kGauge, "serve." + shard + ".queue_depth",
            shard + "_queue_depth");
    }
}

AnomalySet&
AnomalySet::Default()
{
    // Leaked on purpose: detectors are referenced from the sampler
    // thread until the at-exit hook stops it.
    static AnomalySet* set = new AnomalySet();
    return *set;
}

}  // namespace rumba::obs
