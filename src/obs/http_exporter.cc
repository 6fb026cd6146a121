#include "obs/http_exporter.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <charconv>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "obs/export.h"
#include "obs/incident.h"
#include "obs/profiler.h"
#include "obs/tsdb.h"

namespace rumba::obs {

namespace {

/** Fail a receive or send on @p fd that stalls for
 *  kScrapeTimeoutSeconds. */
void
SetScrapeTimeouts(int fd)
{
    timeval limit{};
    limit.tv_sec = kScrapeTimeoutSeconds;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof(limit));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &limit, sizeof(limit));
}

/** "serve.submitted" -> "rumba_serve_submitted". */
std::string
SanitizeName(const std::string& name)
{
    std::string out = "rumba_";
    out.reserve(out.size() + name.size());
    for (char c : name)
        out.push_back(std::isalnum(static_cast<unsigned char>(c))
                          ? c
                          : '_');
    return out;
}

/** Prometheus sample value: shortest round-trippable decimal. */
std::string
PromNum(double v)
{
    if (!std::isfinite(v))
        return v > 0 ? "+Inf" : (v < 0 ? "-Inf" : "NaN");
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Escape a label value (backslash, quote, newline). */
std::string
EscapeLabel(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '\\' || c == '"')
            out.push_back('\\');
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out.push_back(c);
    }
    return out;
}

void
AppendHeader(std::string* out, const std::string& prom_name,
             const char* type)
{
    *out += "# HELP " + prom_name + " rumba metric\n";
    *out += "# TYPE " + prom_name + " ";
    *out += type;
    *out += "\n";
}

std::string
NameLabel(const std::string& dotted)
{
    return "{name=\"" + EscapeLabel(dotted) + "\"}";
}

}  // namespace

std::string
ToPrometheusText(const RegistrySnapshot& snapshot)
{
    std::string out;
    for (const CounterSnapshot& c : snapshot.counters) {
        const std::string prom = SanitizeName(c.name) + "_total";
        AppendHeader(&out, prom, "counter");
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%" PRIu64, c.value);
        out += prom + NameLabel(c.name) + " " + buf + "\n";
    }
    for (const DoubleCounterSnapshot& c : snapshot.dcounters) {
        const std::string prom = SanitizeName(c.name) + "_total";
        AppendHeader(&out, prom, "counter");
        out += prom + NameLabel(c.name) + " " + PromNum(c.value) + "\n";
    }
    for (const GaugeSnapshot& g : snapshot.gauges) {
        const std::string prom = SanitizeName(g.name);
        AppendHeader(&out, prom, "gauge");
        out += prom + NameLabel(g.name) + " " + PromNum(g.value) + "\n";
    }
    for (const HistogramSnapshot& h : snapshot.histograms) {
        const std::string prom = SanitizeName(h.name);
        const std::string label = EscapeLabel(h.name);
        AppendHeader(&out, prom, "histogram");
        uint64_t cumulative = 0;
        char buf[32];
        for (size_t b = 0; b < h.buckets.size(); ++b) {
            cumulative += h.buckets[b];
            const std::string le =
                b < h.bounds.size() ? PromNum(h.bounds[b]) : "+Inf";
            std::snprintf(buf, sizeof(buf), "%" PRIu64, cumulative);
            out += prom + "_bucket{name=\"" + label + "\",le=\"" + le +
                   "\"} " + buf + "\n";
        }
        out += prom + "_sum" + NameLabel(h.name) + " " + PromNum(h.sum) +
               "\n";
        std::snprintf(buf, sizeof(buf), "%" PRIu64, h.count);
        out += prom + "_count" + NameLabel(h.name) + " " + buf + "\n";
        // Exact extrema aren't expressible as histogram series; export
        // them as companion gauges so live dashboards keep the same
        // fidelity as the JSONL snapshots.
        AppendHeader(&out, prom + "_min", "gauge");
        out += prom + "_min" + NameLabel(h.name) + " " + PromNum(h.min) +
               "\n";
        AppendHeader(&out, prom + "_max", "gauge");
        out += prom + "_max" + NameLabel(h.name) + " " + PromNum(h.max) +
               "\n";
    }
    return out;
}

ObservabilityServer::~ObservabilityServer()
{
    Stop();
}

bool
ObservabilityServer::Start(uint16_t port)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (running_.load(std::memory_order_acquire)) {
        Warn("ObservabilityServer: already running on port %u",
             static_cast<unsigned>(Port()));
        return false;
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        Warn("ObservabilityServer: socket() failed: %s",
             std::strerror(errno));
        return false;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 16) != 0) {
        Warn("ObservabilityServer: cannot bind 127.0.0.1:%u: %s",
             static_cast<unsigned>(port), std::strerror(errno));
        ::close(fd);
        return false;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) ==
        0)
        port = ntohs(bound.sin_port);
    listen_fd_ = fd;
    port_.store(port, std::memory_order_release);
    served_.store(0, std::memory_order_relaxed);
    running_.store(true, std::memory_order_release);
    thread_ = std::thread(&ObservabilityServer::ServeLoop, this, fd);
    Inform("ObservabilityServer: serving /metrics /healthz /statusz "
           "/buildz /profilez /tsdbz /incidentz on "
           "127.0.0.1:%u",
           static_cast<unsigned>(port));
    return true;
}

void
ObservabilityServer::Stop()
{
    // Flip state and close the listener under the lock, but join
    // OUTSIDE it: the serve thread may be mid-/statusz and must be
    // able to finish its response (StatusBody takes provider_mu_, and
    // a concurrent Start/Stop would take mu_) without deadlocking
    // against us.
    std::thread to_join;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!running_.load(std::memory_order_acquire))
            return;
        running_.store(false, std::memory_order_release);
        // Unblock accept(): shutdown() makes the blocked accept
        // return on Linux; close() then releases the descriptor.
        ::shutdown(listen_fd_, SHUT_RDWR);
        ::close(listen_fd_);
        listen_fd_ = -1;
        port_.store(0, std::memory_order_release);
        to_join = std::move(thread_);
    }
    if (to_join.joinable())
        to_join.join();
}

void
ObservabilityServer::SetStatusProvider(
    std::function<std::string()> provider, const void* owner)
{
    std::lock_guard<std::mutex> lock(provider_mu_);
    provider_ = std::move(provider);
    provider_owner_ = owner;
}

void
ObservabilityServer::ClearStatusProvider(const void* owner)
{
    // Owner-checked: if someone else installed a provider after us,
    // leave theirs alone. Taking provider_mu_ also waits out any
    // in-flight invocation of our provider, so on return the caller
    // may safely destroy whatever the provider captured.
    std::lock_guard<std::mutex> lock(provider_mu_);
    if (provider_owner_ != owner)
        return;
    provider_ = nullptr;
    provider_owner_ = nullptr;
}

std::string
ObservabilityServer::StatusBody()
{
    // Invoke under provider_mu_ so SetStatusProvider/
    // ClearStatusProvider synchronize with in-flight renders — the
    // provider typically captures a raw engine pointer whose lifetime
    // ends right after the clear.
    std::lock_guard<std::mutex> lock(provider_mu_);
    if (provider_)
        return provider_();
    return "{\"healthy\":true}\n";
}

void
ObservabilityServer::ServeLoop(int listen_fd)
{
    while (running_.load(std::memory_order_acquire)) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break;  // Stop() shut the listener down.
        }
        SetScrapeTimeouts(fd);
        HandleConnection(fd);
        ::close(fd);
    }
}

void
ObservabilityServer::HandleConnection(int fd)
{
    // Read until the end of the request head (we ignore bodies — every
    // route is a GET).
    std::string request;
    char buf[1024];
    while (request.find("\r\n\r\n") == std::string::npos &&
           request.find("\n\n") == std::string::npos &&
           request.size() < 16384) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        request.append(buf, static_cast<size_t>(n));
    }
    const std::optional<RequestTarget> target = ParseRequestLine(request);
    if (!target.has_value())
        return;
    const std::string& path = target->path;
    const std::string& query_string = target->query;

    int status = 200;
    const char* status_text = "OK";
    const char* content_type = "text/plain; charset=utf-8";
    std::string body;
    if (path == "/metrics") {
        content_type = "text/plain; version=0.0.4; charset=utf-8";
        body = ToPrometheusText(Registry::Default().Snapshot());
    } else if (path == "/healthz") {
        body = "ok\n";
    } else if (path == "/statusz") {
        content_type = "application/json; charset=utf-8";
        body = StatusBody();
    } else if (path == "/buildz") {
        content_type = "application/json; charset=utf-8";
        body = BuildInfoJson() + "\n";
    } else if (path == "/profilez") {
        content_type = "application/json; charset=utf-8";
        body = ProfilezJson() + "\n";
    } else if (path == "/tsdbz") {
        content_type = "application/json; charset=utf-8";
        body = TsdbzJson(query_string) + "\n";
    } else if (path == "/incidentz") {
        content_type = "application/json; charset=utf-8";
        body = IncidentzJson(query_string) + "\n";
    } else {
        status = 404;
        status_text = "Not Found";
        body = "not found\n";
    }
    char head[256];
    std::snprintf(head, sizeof(head),
                  "HTTP/1.0 %d %s\r\n"
                  "Content-Type: %s\r\n"
                  "Content-Length: %zu\r\n"
                  "Connection: close\r\n\r\n",
                  status, status_text, content_type, body.size());
    std::string response = head;
    response += body;
    size_t sent = 0;
    while (sent < response.size()) {
        const ssize_t n = ::send(fd, response.data() + sent,
                                 response.size() - sent, MSG_NOSIGNAL);
        if (n <= 0)
            break;
        sent += static_cast<size_t>(n);
    }
    served_.fetch_add(1, std::memory_order_relaxed);
}

ObservabilityServer&
ObservabilityServer::Default()
{
    static ObservabilityServer server;
    return server;
}

bool
ObservabilityServer::StartFromEnv()
{
    ObservabilityServer& server = Default();
    if (server.Running())
        return true;
    const char* env = std::getenv("RUMBA_METRICS_PORT");
    if (env == nullptr || env[0] == '\0')
        return false;
    const std::optional<uint16_t> port = ParseMetricsPort(env);
    if (!port.has_value()) {
        Warn("RUMBA_METRICS_PORT: invalid port '%s'", env);
        return false;
    }
    return server.Start(*port);
}

std::optional<uint16_t>
ParseMetricsPort(const char* value)
{
    if (value == nullptr)
        return std::nullopt;
    const char* end = value + std::strlen(value);
    unsigned port = 0;
    const auto [ptr, ec] = std::from_chars(value, end, port);
    if (ec != std::errc() || ptr != end || port > 65535)
        return std::nullopt;
    return static_cast<uint16_t>(port);
}

std::optional<RequestTarget>
ParseRequestLine(std::string_view head)
{
    if (head.find('\n') == std::string_view::npos)
        return std::nullopt;
    const std::string_view line = head.substr(0, head.find_first_of("\r\n"));
    const size_t sp1 = line.find(' ');
    const size_t sp2 =
        sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
    if (sp2 == std::string_view::npos)
        return std::nullopt;
    const std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    const size_t query = target.find('?');
    if (query == std::string_view::npos)
        return RequestTarget{std::string(target), ""};
    return RequestTarget{std::string(target.substr(0, query)),
                         std::string(target.substr(query + 1))};
}

std::optional<std::string>
QueryParam(const std::string& query, const std::string& key)
{
    size_t pos = 0;
    while (pos < query.size()) {
        size_t amp = query.find('&', pos);
        if (amp == std::string::npos)
            amp = query.size();
        const size_t eq = query.find('=', pos);
        if (eq != std::string::npos && eq < amp &&
            query.compare(pos, eq - pos, key) == 0)
            return query.substr(eq + 1, amp - eq - 1);
        pos = amp + 1;
    }
    return std::nullopt;
}

double
QueryParamNum(const std::string& query, const std::string& key,
              double fallback)
{
    const std::string raw = QueryParam(query, key).value_or("");
    double parsed = 0.0;
    const char* end = raw.data() + raw.size();
    const auto [ptr, ec] = std::from_chars(raw.data(), end, parsed);
    if (ec != std::errc() || ptr != end || !std::isfinite(parsed))
        return fallback;
    return parsed;
}

bool
HttpGet(uint16_t port, const std::string& path, std::string* body,
        int* status)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    SetScrapeTimeouts(fd);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return false;
    }
    const std::string request = "GET " + path +
                                " HTTP/1.0\r\n"
                                "Host: 127.0.0.1\r\n"
                                "Connection: close\r\n\r\n";
    size_t sent = 0;
    while (sent < request.size()) {
        const ssize_t n = ::send(fd, request.data() + sent,
                                 request.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) {
            ::close(fd);
            return false;
        }
        sent += static_cast<size_t>(n);
    }
    std::string response;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        response.append(buf, static_cast<size_t>(n));
    ::close(fd);
    if (n < 0 || response.compare(0, 5, "HTTP/") != 0)
        return false;
    const size_t sp = response.find(' ');
    if (sp == std::string::npos)
        return false;
    if (status != nullptr)
        *status = std::atoi(response.c_str() + sp + 1);
    size_t head_end = response.find("\r\n\r\n");
    size_t skip = 4;
    if (head_end == std::string::npos) {
        head_end = response.find("\n\n");
        skip = 2;
    }
    if (body != nullptr) {
        *body = head_end == std::string::npos
                    ? ""
                    : response.substr(head_end + skip);
    }
    return true;
}

}  // namespace rumba::obs
