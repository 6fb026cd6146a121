#ifndef RUMBA_OBS_HTTP_EXPORTER_H_
#define RUMBA_OBS_HTTP_EXPORTER_H_

/**
 * @file
 * Live scrape endpoint: a tiny dependency-free blocking HTTP/1.0
 * server that renders the process's metrics registry on demand, so a
 * running serving engine can be watched (Prometheus, curl, rumba-stat
 * scrape) instead of only post-mortem via the at-exit exports of
 * obs/export.h.
 *
 * Routes:
 *   /metrics  Prometheus text exposition format 0.0.4 of the live
 *             Registry::Default() snapshot (see ToPrometheusText for
 *             the name-mangling rules).
 *   /healthz  "ok\n", 200 — liveness only.
 *   /statusz  application-defined JSON (SetStatusProvider); defaults
 *             to {"healthy":true}. The serving engine installs a
 *             provider reporting per-shard queue depth, breaker
 *             state, current threshold, and tuner mode.
 *   /buildz   build-info JSON (BuildInfoJson in obs/export.h):
 *             version, git describe, build type, sanitizers, and the
 *             RUMBA_* env knobs set for this process.
 *   /profilez live cost-profiler JSON (ProfilezJson in
 *             obs/profiler.h): per-stage CPU seconds and shares,
 *             sampling-profiler state, and the rolling
 *             speedup/energy-ratio estimate.
 *   anything else: 404.
 *
 * The server is opt-in: programmatically via Start(port) (port 0
 * binds an ephemeral port, readable via Port()), or from the
 * environment via StartFromEnv() honoring RUMBA_METRICS_PORT. It
 * binds 127.0.0.1 only — this is an operator diagnostic surface, not
 * a public API — and serves one connection at a time with
 * Connection: close; scrape handlers only read atomics and take the
 * short registry snapshot lock, so scraping a saturated engine is
 * safe and cheap.
 */

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "obs/metrics.h"

namespace rumba::obs {

/**
 * Render @p snapshot in Prometheus text exposition format 0.0.4.
 *
 * Name mangling: dots (and every other non-alphanumeric) become
 * underscores and a "rumba_" prefix is applied, so "serve.submitted"
 * exports as `rumba_serve_submitted_total` (counters get the
 * conventional `_total` suffix). The original dotted name rides along
 * as a `name="..."` label so rumba-stat scrape can map samples back
 * to registry names losslessly. Histograms render the conventional
 * cumulative `le` series from the snapshot's bucket counts, with the
 * `+Inf` bucket equal to `_count`, plus `_sum`/`_count` and min/max
 * gauges (`*_min` / `*_max`), all from one consistent snapshot.
 */
std::string ToPrometheusText(const RegistrySnapshot& snapshot);

/**
 * The blocking scrape server. One background accept thread; requests
 * are served sequentially. All methods are thread-safe.
 */
class ObservabilityServer {
  public:
    ObservabilityServer() = default;
    ~ObservabilityServer();

    ObservabilityServer(const ObservabilityServer&) = delete;
    ObservabilityServer& operator=(const ObservabilityServer&) = delete;

    /**
     * Bind 127.0.0.1:@p port (0 = ephemeral) and start serving on a
     * background thread. Returns false (with a warning) if already
     * running or the bind fails. On success Port() reports the bound
     * port.
     */
    bool Start(uint16_t port);

    /** Stop serving and join the background thread. Idempotent. */
    void Stop();

    /** True between a successful Start() and Stop(). */
    bool Running() const { return running_.load(std::memory_order_acquire); }

    /** Bound port (0 when not running). */
    uint16_t Port() const { return port_.load(std::memory_order_acquire); }

    /**
     * Install the /statusz body producer (called per scrape, must be
     * thread-safe and should only read atomics / registry
     * instruments). Pass nullptr to restore the default.
     *
     * @p owner is an opaque identity token: a later
     * ClearStatusProvider(owner) removes the provider only if it is
     * still the installed one, so two components sharing Default()
     * cannot clear each other's provider on teardown (last installer
     * wins the route; earlier owners' clears become no-ops).
     *
     * The provider is invoked *under* the provider lock, so both
     * SetStatusProvider and ClearStatusProvider synchronize with any
     * in-flight /statusz render: once either returns, the previous
     * provider can no longer be running and the state it captured may
     * be torn down. Consequently the provider must not call back into
     * SetStatusProvider/ClearStatusProvider.
     */
    void SetStatusProvider(std::function<std::string()> provider,
                           const void* owner = nullptr);

    /**
     * Remove the installed provider iff @p owner installed it (see
     * SetStatusProvider). Blocks until any in-flight invocation of
     * that provider finishes.
     */
    void ClearStatusProvider(const void* owner);

    /** Requests served since Start (any route). */
    uint64_t RequestsServed() const
    {
        return served_.load(std::memory_order_relaxed);
    }

    /** The process-wide server StartFromEnv()/the engine manage. */
    static ObservabilityServer& Default();

    /**
     * Honor RUMBA_METRICS_PORT: when set, start Default() on that
     * port (first call wins; later calls and unset/invalid values are
     * no-ops). Returns true if the server is running on return.
     */
    static bool StartFromEnv();

  private:
    void ServeLoop(int listen_fd);
    void HandleConnection(int fd);
    std::string StatusBody();

    std::atomic<bool> running_{false};
    std::atomic<uint16_t> port_{0};
    std::atomic<uint64_t> served_{0};
    int listen_fd_ = -1;
    std::thread thread_;
    std::mutex mu_;  ///< guards start/stop transitions (never held
                     ///< while joining the serve thread).
    std::mutex provider_mu_;  ///< guards provider_/provider_owner_
                              ///< and is held across invocation.
    std::function<std::string()> provider_;
    const void* provider_owner_ = nullptr;
};

/**
 * Value of the first @p key in an application/x-www-form-urlencoded
 * query string, the one query parser of the JSON routes: nullopt when
 * the key is absent, "" for a bare `key=`. No percent-decoding: route
 * parameters are plain [A-Za-z0-9._] names and numbers.
 */
std::optional<std::string> QueryParam(const std::string& query,
                                      const std::string& key);

/** QueryParam parsed as a finite number; @p fallback when absent,
 *  empty, unparseable or non-finite. */
double QueryParamNum(const std::string& query, const std::string& key,
                     double fallback);

/**
 * Minimal blocking HTTP GET against 127.0.0.1:@p port (test helper
 * and the alert-free half of rumba-stat's scrape client). Fills
 * @p body with the response payload and @p status with the HTTP
 * status code. False on connect/transport failure.
 */
bool HttpGet(uint16_t port, const std::string& path, std::string* body,
             int* status);

}  // namespace rumba::obs

#endif  // RUMBA_OBS_HTTP_EXPORTER_H_
