// pm-metro: the Figure 15 experiment (Tp = 121 s, Tc = 0.11 s, Tr = 0.3 s)
// on a ladder of N up to 1e5 routers. Each rung is one scalar-kernel trial,
// run once unmonitored and once with the SyncMonitor, all on one thread.
//
// The opposite use of core from pm-sweep: a few huge trials whose node
// state outgrows the caches and whose calendar buckets hold thousands of
// timers, and the only workload that pays for the monitor.
#include <string>

#include "bench.hpp"
#include "core/experiment.hpp"

namespace routebench {
namespace {

using routesync::core::ExperimentConfig;
using routesync::core::ExperimentResult;
using routesync::sim::SimTime;

constexpr double kTp = 121.0;
constexpr double kTc = 0.11;
constexpr double kTr = 0.3;
constexpr double kHorizon = 2e4; // seconds: ~165 rounds
constexpr int kLadder[] = {10, 30, 100, 300, 1000, 3000, 10000, 30000, 100000};
// Figure 15's two sides: a handful of routers stays mostly unsynchronized
// (at Tr = 0.3 s the flip is near N = 20-25), a thousand or more lock up
// into one cluster of all N.
constexpr int kSmallN = 10;
constexpr int kLockedN = 1000;

class PmMetro final : public Workload {
public:
    explicit PmMetro(std::uint64_t seed) : seed_{seed} {}

    void release() override {
        configs_.clear();
        results_.clear();
    }

    void setup() override {
        for (std::size_t rung = 0; rung < std::size(kLadder); ++rung) {
            for (const bool monitor : {false, true}) {
                ExperimentConfig cfg;
                cfg.params.n = kLadder[rung];
                cfg.params.tp = SimTime::seconds(kTp);
                cfg.params.tc = SimTime::seconds(kTc);
                cfg.params.tr = SimTime::seconds(kTr);
                cfg.params.seed = mix_seed(seed_, rung); // same trial both ways
                cfg.max_time = SimTime::seconds(kHorizon);
                cfg.backend = routesync::core::ExperimentBackend::FastKernel;
                cfg.monitor = monitor;
                configs_.push_back(std::move(cfg));
            }
        }
    }

    RoundStats run() override {
        results_.clear();
        RoundStats st;
        st.fingerprint = 14695981039346656037ULL;
        for (const ExperimentConfig& cfg : configs_) {
            const SpanScope s{cfg.monitor ? "core.run_experiment.monitored"
                                          : "core.run_experiment"};
            results_.push_back(routesync::core::run_experiment(cfg));
            const ExperimentResult& r = results_.back();
            st.sim_seconds += r.end_time_sec;
            fnv_fold(st.fingerprint, r.total_transmissions);
            fnv_fold(st.fingerprint, r.rounds_closed);
            fnv_fold(st.fingerprint, r.rounds_unsynchronized);
            if (r.sync) {
                fnv_fold(st.fingerprint, bits_of(r.sync->r_max));
            }
        }
        return st;
    }

    void check(Ledger& ledger) override {
        const std::size_t first = ledger.add_ops(results_.size());
        for (std::size_t i = 0; i < results_.size(); ++i) {
            const ExperimentConfig& cfg = configs_[i];
            const ExperimentResult& r = results_[i];
            const int n = cfg.params.n;
            const std::size_t op = first + i;
            const std::string at = "pm-metro N=" + std::to_string(n) +
                                   (cfg.monitor ? " monitored: " : ": ");
            const TxBounds b = pm_transmission_bounds(n, kTp, kTr, kTc, kTp, r.end_time_sec);
            ledger.expect(r.total_transmissions >= b.lo && r.total_transmissions <= b.hi,
                          op, at + "transmissions " + std::to_string(r.total_transmissions) +
                                  " outside [" + std::to_string(b.lo) + ", " +
                                  std::to_string(b.hi) + "]");
            ledger.expect(r.rounds_unsynchronized <= r.rounds_closed && r.rounds_closed > 0,
                          op, at + "round accounting broken");
            const double frac_unsync = static_cast<double>(r.rounds_unsynchronized) /
                                       static_cast<double>(r.rounds_closed);
            if (n <= kSmallN) {
                ledger.expect(frac_unsync > 0.5, op,
                              at + "small N should stay mostly unsynchronized, frac " +
                                  std::to_string(frac_unsync));
            }
            if (n >= kLockedN) {
                ledger.expect(r.full_sync_time_sec.has_value() && frac_unsync < 0.5, op,
                              at + "N >= 1000 should lock up, frac unsync " +
                                  std::to_string(frac_unsync));
            }
            if (cfg.monitor) {
                // The monitor observes; it must not change the simulation.
                const ExperimentResult& plain = results_[i - 1];
                ledger.expect(r.total_transmissions == plain.total_transmissions &&
                                  r.rounds_closed == plain.rounds_closed &&
                                  r.end_time_sec == plain.end_time_sec,
                              op, at + "monitored run diverged from the unmonitored one");
                ledger.expect(r.sync.has_value(), op, at + "no sync report");
                if (r.sync && r.full_sync_time_sec) {
                    ledger.expect(r.sync->time_to_sync_sec >= 0.0, op,
                                  at + "full sync without r crossing the threshold");
                }
            }
        }
    }

    void layer_metrics(Metrics& out) override {
        const auto t = spans().totals();
        const double plain_s = t.at("core.run_experiment").total_s;
        const double monitored_s = t.at("core.run_experiment.monitored").total_s;
        double events = 0.0;
        double router_rounds = 0.0;
        for (std::size_t i = 0; i < results_.size(); ++i) {
            events += static_cast<double>(results_[i].events_processed);
            router_rounds += static_cast<double>(configs_[i].params.n) *
                             static_cast<double>(results_[i].rounds_closed);
        }
        // Both runs of a rung simulate the same trial, so the core's share
        // of the monitored run is the unmonitored run's time; the rest is
        // the monitor's.
        const double monitor_s = monitored_s - plain_s;
        const double busy = plain_s + monitored_s - monitor_s;
        out["core.busy_s"] = busy;
        out["core.events"] = events;
        out["core.router_rounds"] = router_rounds;
        out["core.ns_per_event"] = busy * 1e9 / events;
        out["core.ns_per_router_round"] = busy * 1e9 / router_rounds;
        const ExperimentResult& largest = results_[results_.size() - 2];
        out["core.state_bytes_per_router"] =
            static_cast<double>(largest.kernel_state_bytes) /
            static_cast<double>(kLadder[std::size(kLadder) - 1]);
        out["obs.monitor_s"] = monitor_s;
        out["obs.monitor_share"] = monitor_s / monitored_s;
    }

private:
    std::uint64_t seed_;
    std::vector<ExperimentConfig> configs_;
    std::vector<ExperimentResult> results_;
};

} // namespace

std::unique_ptr<Workload> make_pm_metro(std::uint64_t seed) {
    return std::make_unique<PmMetro>(seed);
}

} // namespace routebench
