// Shared pieces of the routesync benchmark program: the workload interface
// the main loop drives, the in-memory span recorder of the traced mode,
// the per-operation check ledger, and small timing helpers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace routebench {

/// Monotonic wall clock, seconds.
[[nodiscard]] double now_s();
/// User + system CPU of the whole process (all threads), seconds.
[[nodiscard]] double process_cpu_s();
/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mib();
/// Worker threads for the parallel workloads: hardware concurrency,
/// capped at 4, the worker count the workloads are defined with.
[[nodiscard]] std::size_t worker_count();

/// splitmix64 step: the benchmark derives every input seed from the
/// workload seed with this, so the program sees only finished configs.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index);

/// 64-bit FNV-1a fold, for result fingerprints.
void fnv_fold(std::uint64_t& h, std::uint64_t value);
[[nodiscard]] std::uint64_t bits_of(double value);

// ---------------------------------------------------------------------------
// Spans (traced mode only). A span is a timed call into one src/ layer,
// recorded from the benchmark's side of the call, on the main thread (a
// pool's workers open none). Spans live in memory and are written out
// once, at exit.

struct Span {
    std::string name;
    double start = 0.0; ///< seconds since the recorder was enabled
    double end = 0.0;
    int parent = -1;    ///< index of the enclosing span, -1 for a root
};

/// Per-name totals: how many spans, their summed duration, and their
/// summed self time (duration minus the part of it covered by children).
struct SpanTotals {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
};

class SpanRecorder {
public:
    /// Starts recording; spans opened while disabled cost one branch.
    void enable();
    [[nodiscard]] bool enabled() const noexcept { return enabled_; }
    /// Drops every recorded span (the recorder stays enabled).
    void clear();

    /// Opens a span under the innermost open one. Returns its index, or
    /// -1 when disabled.
    int open(const char* name);
    void close(int id);

    [[nodiscard]] std::map<std::string, SpanTotals> totals() const;
    /// Durations of every span with this name, in recording order.
    [[nodiscard]] std::vector<double> durations(const std::string& name) const;
    /// Writes every span and the per-name totals as one JSON document.
    void write_json(const std::string& path) const;

private:
    bool enabled_ = false;
    double origin_ = 0.0;
    std::vector<Span> spans_;
    std::vector<int> open_; ///< open spans, innermost last
};

SpanRecorder& spans();

/// RAII span: opens on construction, closes on destruction.
class SpanScope {
public:
    explicit SpanScope(const char* name) : id_{spans().open(name)} {}
    ~SpanScope() { spans().close(id_); }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

private:
    int id_;
};

// ---------------------------------------------------------------------------
// Check ledger. One operation = one simulation plus its checks; an
// operation fails if any check about it fails.

class Ledger {
public:
    /// Registers `count` operations; returns the index of the first.
    std::size_t add_ops(std::size_t count);
    /// Records a failed check against operation `op`.
    void fail(std::size_t op, const std::string& what);
    /// expect(cond, ...) == fail unless cond; returns cond.
    bool expect(bool cond, std::size_t op, const std::string& what);

    [[nodiscard]] std::uint64_t attempted() const noexcept { return ops_; }
    [[nodiscard]] std::uint64_t failed() const noexcept;
    /// Failure messages, one line each (the first few are reported).
    [[nodiscard]] const std::vector<std::string>& messages() const noexcept {
        return messages_;
    }

private:
    std::uint64_t ops_ = 0;
    std::vector<bool> failed_;
    std::vector<std::string> messages_;
};

// ---------------------------------------------------------------------------
// Workloads.

using Metrics = std::map<std::string, double>;

/// What one measured phase (a round: the workload's fixed batch of
/// simulations) reports besides its timing.
struct RoundStats {
    double sim_seconds = 0.0;    ///< simulated seconds summed over simulations
    std::uint64_t fingerprint = 0; ///< FNV fold of every simulation's outputs
};

class Workload {
public:
    virtual ~Workload() = default;

    /// Builds the round's inputs: configs, topologies, routing tables.
    /// Timed as setup_s; nothing here calls a simulation.
    virtual void setup() = 0;
    /// Drops the inputs and outputs of the previous setup()/run(), so the
    /// next setup() builds anew and is timed without teardown.
    virtual void release() = 0;
    /// Runs the fixed batch, with a span around every call into a layer
    /// (recorded only once spans() is enabled).
    virtual RoundStats run() = 0;
    /// Checks the outputs of the last run against the method's
    /// properties, one ledger operation per simulation.
    virtual void check(Ledger& ledger) = 0;
    /// Traced mode only, after the traced round: the serial re-runs some
    /// per-layer ratios need, then every per-layer metric this workload
    /// exercises, from the spans and the program's own counters.
    virtual void layer_metrics(Metrics& out) = 0;
};

std::unique_ptr<Workload> make_pm_sweep(std::uint64_t seed);
std::unique_ptr<Workload> make_pm_metro(std::uint64_t seed);
std::unique_ptr<Workload> make_lan_sweep(std::uint64_t seed);
std::unique_ptr<Workload> make_dv_storms(std::uint64_t seed);

// ---------------------------------------------------------------------------
// Independent references used by the checks.

/// Direct O(n * max_lag) sample autocorrelation r(0..max_lag); r(0) = 1.
/// Written here, apart from stats::, so the two can be compared.
[[nodiscard]] std::vector<double> direct_autocorrelation(const std::vector<double>& x,
                                                         std::size_t max_lag);

/// Per-router transmission bounds of a Periodic Messages run of length
/// `t_end` seconds: each timer is drawn from [tp - tr, tp + tr] after a
/// busy period of at least tc and at most n * tc (everyone hears every
/// message, so one busy period holds at most one message per router),
/// and the first expiry falls in [0, first_max].
struct TxBounds {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
};
[[nodiscard]] TxBounds pm_transmission_bounds(int n, double tp, double tr, double tc,
                                              double first_max, double t_end);

/// The q-quantile of a sample, linearly interpolated (q = 0.5: the median).
[[nodiscard]] double quantile(std::vector<double> v, double q);

} // namespace routebench
