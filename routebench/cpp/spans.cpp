#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

namespace routebench {

double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double process_cpu_s() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    const auto sec = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
    };
    return sec(u.ru_utime) + sec(u.ru_stime);
}

double peak_rss_mib() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

std::size_t worker_count() {
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void fnv_fold(std::uint64_t& h, std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
        h ^= (value >> (8 * byte)) & 0xffU;
        h *= 1099511628211ULL;
    }
}

std::uint64_t bits_of(double value) {
    std::uint64_t out = 0;
    std::memcpy(&out, &value, sizeof out);
    return out;
}

double quantile(std::vector<double> v, double q) {
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// ---------------------------------------------------------------------------

SpanRecorder& spans() {
    static SpanRecorder recorder;
    return recorder;
}

void SpanRecorder::enable() {
    origin_ = now_s();
    enabled_ = true;
}

void SpanRecorder::clear() {
    spans_.clear();
    open_.clear();
}

int SpanRecorder::open(const char* name) {
    if (!enabled_) {
        return -1;
    }
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start = now_s() - origin_;
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
}

void SpanRecorder::close(int id) {
    if (id < 0) {
        return;
    }
    spans_[static_cast<std::size_t>(id)].end = now_s() - origin_;
    if (!open_.empty() && open_.back() == id) {
        open_.pop_back();
    }
}

std::map<std::string, SpanTotals> SpanRecorder::totals() const {
    // Children per span, then self = duration - |union of child intervals|.
    std::vector<std::vector<int>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].parent >= 0) {
            children[static_cast<std::size_t>(spans_[i].parent)].push_back(
                static_cast<int>(i));
        }
    }
    std::map<std::string, SpanTotals> out;
    std::vector<std::pair<double, double>> iv;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        iv.clear();
        for (const int c : children[i]) {
            const Span& k = spans_[static_cast<std::size_t>(c)];
            const double a = std::max(k.start, s.start);
            const double b = std::min(k.end, s.end);
            if (b > a) {
                iv.emplace_back(a, b);
            }
        }
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        double run_a = 0.0;
        double run_b = -1.0;
        for (const auto& [a, b] : iv) {
            if (a > run_b) {
                covered += std::max(0.0, run_b - run_a);
                run_a = a;
                run_b = b;
            } else {
                run_b = std::max(run_b, b);
            }
        }
        covered += std::max(0.0, run_b - run_a);
        SpanTotals& t = out[s.name];
        ++t.count;
        t.total_s += s.end - s.start;
        t.self_s += std::max(0.0, (s.end - s.start) - covered);
    }
    return out;
}

std::vector<double> SpanRecorder::durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
        if (s.name == name) {
            out.push_back(s.end - s.start);
        }
    }
    return out;
}

void SpanRecorder::write_json(const std::string& path) const {
    const auto sums = totals();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        throw std::runtime_error{"cannot write spans to " + path};
    }
    std::fprintf(f, "{\"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                     "\"end_s\": %.9f, \"parent\": %d}%s\n",
                     i, s.name.c_str(), s.start, s.end, s.parent,
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "],\n\"totals\": {\n");
    std::size_t k = 0;
    for (const auto& [name, t] : sums) {
        std::fprintf(f,
                     "  \"%s\": {\"count\": %llu, \"total_s\": %.9f, "
                     "\"self_s\": %.9f}%s\n",
                     name.c_str(), static_cast<unsigned long long>(t.count),
                     t.total_s, t.self_s, ++k < sums.size() ? "," : "");
    }
    std::fprintf(f, "}}\n");
    std::fclose(f);
}

} // namespace routebench
