#include <algorithm>
#include <cmath>

#include "bench.hpp"

namespace routebench {

std::size_t Ledger::add_ops(std::size_t count) {
    const std::size_t first = failed_.size();
    failed_.resize(first + count, false);
    ops_ += count;
    return first;
}

void Ledger::fail(std::size_t op, const std::string& what) {
    failed_.at(op) = true;
    messages_.push_back(what);
}

bool Ledger::expect(bool cond, std::size_t op, const std::string& what) {
    if (!cond) {
        fail(op, what);
    }
    return cond;
}

std::uint64_t Ledger::failed() const noexcept {
    return static_cast<std::uint64_t>(std::count(failed_.begin(), failed_.end(), true));
}

std::vector<double> direct_autocorrelation(const std::vector<double>& x,
                                           std::size_t max_lag) {
    const std::size_t n = x.size();
    double mean = 0.0;
    for (const double v : x) {
        mean += v;
    }
    mean /= static_cast<double>(n);
    double denom = 0.0;
    for (const double v : x) {
        denom += (v - mean) * (v - mean);
    }
    std::vector<double> r(max_lag + 1, 0.0);
    r[0] = 1.0;
    if (denom <= 0.0) {
        return r;
    }
    for (std::size_t k = 1; k <= max_lag && k < n; ++k) {
        double s = 0.0;
        for (std::size_t t = 0; t + k < n; ++t) {
            s += (x[t] - mean) * (x[t + k] - mean);
        }
        r[k] = s / denom;
    }
    return r;
}

TxBounds pm_transmission_bounds(int n, double tp, double tr, double tc,
                                double first_max, double t_end) {
    // A router's expiries are at least tc + (tp - tr) apart (it must finish
    // its own message before re-arming) and at most n*tc + tp + tr apart
    // (the longest busy period, then the longest timer). The last expiry
    // before t_end may or may not have been processed when a run stops, so
    // the lower bound drops it.
    const double min_gap = tc + tp - tr;
    const double max_gap = static_cast<double>(n) * tc + tp + tr;
    const auto per_router_hi =
        static_cast<std::uint64_t>(1.0 + std::floor(t_end / min_gap));
    const auto per_router_lo =
        t_end > first_max
            ? static_cast<std::uint64_t>(std::floor((t_end - first_max) / max_gap))
            : 0;
    const auto routers = static_cast<std::uint64_t>(n);
    return TxBounds{per_router_lo * routers, per_router_hi * routers};
}

} // namespace routebench
