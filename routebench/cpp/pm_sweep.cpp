// pm-sweep: a grid of Periodic Messages trials over N x Tr/Tc, from both
// unsynchronized starts (stop at full sync) and synchronized starts (stop
// at breakup) — the regime of Figures 7-8 and 10-14 — submitted at once
// to one SweepScheduler with auto batching on <= 4 workers.
//
// Trial lengths are heavy-tailed by design: near the transition a trial
// runs to the horizon while its neighbours stop within a few rounds, so
// the work stealing and the batched kernel's lock-step lanes both matter.
#include <cmath>
#include <string>

#include "bench.hpp"
#include "core/experiment.hpp"
#include "markov/fj_chain.hpp"
#include "parallel/sweep_scheduler.hpp"

namespace routebench {
namespace {

using routesync::core::ExperimentConfig;
using routesync::core::ExperimentResult;
using routesync::core::StartCondition;
using routesync::sim::SimTime;

constexpr double kTp = 121.0;
constexpr double kTc = 0.11;
constexpr double kHorizon = 1e5; // seconds; censors the slow trials
constexpr int kNs[] = {10, 20, 30};
constexpr double kRatios[] = {0.1, 0.3, 0.6, 1.0, 1.5, 2.5, 4.0, 6.0, 10.0}; // Tr / Tc
constexpr int kTrials = 32;
// A Markov estimate is "clearly" on one side of the horizon when it is
// this far from it: the chain over-predicts sync times by 2-3x (Fig. 10),
// so the "never" side needs the wider margin.
constexpr double kClearlyBefore = 0.1;
constexpr double kClearlyAfter = 30.0;

struct Point {
    int n = 0;
    double ratio = 0.0;
    bool sync_start = false;
    double markov_s = 0.0; ///< f(N) for unsync starts, g(1) for sync starts
};

double markov_estimate(const Point& p) {
    routesync::markov::ChainParams cp;
    cp.n = p.n;
    cp.tp_sec = kTp;
    cp.tc_sec = kTc;
    cp.tr_sec = p.ratio * kTc;
    cp.f2_rounds = routesync::markov::f2_diffusion_estimate(p.n, kTp, cp.tr_sec);
    const routesync::markov::FJChain chain{cp};
    return p.sync_start ? chain.time_to_break_up_seconds()
                        : chain.time_to_synchronize_seconds();
}

/// Kendall's tau-a between x and y (ties count for neither side).
double kendall_tau(const std::vector<double>& x, const std::vector<double>& y) {
    double concordant = 0.0;
    double discordant = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        for (std::size_t j = i + 1; j < x.size(); ++j) {
            const double s = (x[i] - x[j]) * (y[i] - y[j]);
            concordant += s > 0 ? 1.0 : 0.0;
            discordant += s < 0 ? 1.0 : 0.0;
        }
    }
    const double pairs = static_cast<double>(x.size() * (x.size() - 1) / 2);
    return (concordant - discordant) / pairs;
}

class PmSweep final : public Workload {
public:
    explicit PmSweep(std::uint64_t seed) : seed_{seed} {
        for (const bool sync_start : {false, true}) {
            for (const int n : kNs) {
                for (const double ratio : kRatios) {
                    Point p{n, ratio, sync_start, 0.0};
                    p.markov_s = markov_estimate(p);
                    points_.push_back(p);
                }
            }
        }
    }

    void release() override {
        configs_.clear();
        scheduler_.reset();
        results_.clear();
    }

    void setup() override {
        configs_.reserve(points_.size() * kTrials);
        for (std::size_t pi = 0; pi < points_.size(); ++pi) {
            const Point& p = points_[pi];
            for (int t = 0; t < kTrials; ++t) {
                ExperimentConfig cfg;
                cfg.params.n = p.n;
                cfg.params.tp = SimTime::seconds(kTp);
                cfg.params.tc = SimTime::seconds(kTc);
                cfg.params.tr = SimTime::seconds(p.ratio * kTc);
                cfg.params.start = p.sync_start ? StartCondition::Synchronized
                                                : StartCondition::Unsynchronized;
                cfg.params.seed = mix_seed(seed_, configs_.size());
                cfg.max_time = SimTime::seconds(kHorizon);
                cfg.stop_on_full_sync = !p.sync_start;
                cfg.stop_on_breakup_threshold = p.sync_start ? 1 : 0;
                configs_.push_back(std::move(cfg));
            }
        }
        scheduler_ = std::make_unique<routesync::parallel::SweepScheduler>(
            routesync::parallel::SweepSchedulerOptions{.jobs = worker_count(), .batch = 0});
        for (const ExperimentConfig& cfg : configs_) {
            scheduler_->submit(cfg);
        }
    }

    RoundStats run() override {
        {
            const SpanScope s{"parallel.SweepScheduler.run"};
            chunk_ = scheduler_->effective_batch(scheduler_->pending());
            results_ = scheduler_->run();
        }
        RoundStats st;
        st.fingerprint = 14695981039346656037ULL;
        for (const ExperimentResult& r : results_) {
            st.sim_seconds += r.end_time_sec;
            fnv_fold(st.fingerprint, r.total_transmissions);
            fnv_fold(st.fingerprint, r.events_processed);
            fnv_fold(st.fingerprint, r.rounds_closed);
            fnv_fold(st.fingerprint, r.rounds_unsynchronized);
            fnv_fold(st.fingerprint, bits_of(r.end_time_sec));
        }
        return st;
    }

    void check(Ledger& ledger) override {
        const std::size_t first = ledger.add_ops(results_.size());
        for (std::size_t pi = 0; pi < points_.size(); ++pi) {
            const Point& p = points_[pi];
            int reached = 0; // trials that hit their stop condition
            for (int t = 0; t < kTrials; ++t) {
                const std::size_t i = pi * kTrials + static_cast<std::size_t>(t);
                const ExperimentResult& r = results_[i];
                const std::size_t op = first + i;
                const std::string at = "pm-sweep N=" + std::to_string(p.n) +
                                       " Tr/Tc=" + std::to_string(p.ratio) +
                                       (p.sync_start ? " sync" : " unsync") +
                                       " trial " + std::to_string(t) + ": ";
                const TxBounds b = pm_transmission_bounds(
                    p.n, kTp, p.ratio * kTc, kTc, p.sync_start ? 0.0 : kTp,
                    r.end_time_sec);
                ledger.expect(r.total_transmissions >= b.lo && r.total_transmissions <= b.hi,
                              op, at + "transmissions " +
                                      std::to_string(r.total_transmissions) +
                                      " outside [" + std::to_string(b.lo) + ", " +
                                      std::to_string(b.hi) + "]");
                ledger.expect(r.rounds_unsynchronized <= r.rounds_closed, op,
                              at + "more unsynchronized rounds than closed rounds");
                ledger.expect(r.end_time_sec <= kHorizon + 1e-6, op,
                              at + "ran past the horizon");
                const std::optional<double>& stop =
                    p.sync_start ? r.breakup_time_sec : r.full_sync_time_sec;
                if (stop.has_value()) {
                    ++reached;
                    ledger.expect(*stop <= r.end_time_sec + 1e-9, op,
                                  at + "stop time after the run's end");
                }
            }
            const bool clearly_reached = p.markov_s <= kClearlyBefore * kHorizon;
            const bool clearly_not = p.markov_s >= kClearlyAfter * kHorizon;
            const bool never = std::isinf(p.markov_s) && p.sync_start;
            bool ok = true;
            if (never) {
                ok = reached == 0; // Tr <= Tc/2: a cluster cannot break up
            } else if (clearly_reached) {
                ok = 2 * reached >= kTrials;
            } else if (clearly_not) {
                ok = 2 * reached <= kTrials;
            }
            if (!ok) {
                for (int t = 0; t < kTrials; ++t) {
                    ledger.fail(first + pi * kTrials + static_cast<std::size_t>(t),
                                "pm-sweep N=" + std::to_string(p.n) + " Tr/Tc=" +
                                    std::to_string(p.ratio) +
                                    ": trials land on the other side of the "
                                    "Markov prediction");
                }
            }
        }
        // Trend per N and start: time to sync (censored at the horizon)
        // rises with Tr; time to breakup falls with Tr.
        for (const bool sync_start : {false, true}) {
            for (const int n : kNs) {
                std::vector<double> tr, time;
                std::vector<std::size_t> ops;
                for (std::size_t pi = 0; pi < points_.size(); ++pi) {
                    const Point& p = points_[pi];
                    if (p.n != n || p.sync_start != sync_start) {
                        continue;
                    }
                    for (int t = 0; t < kTrials; ++t) {
                        const std::size_t i = pi * kTrials + static_cast<std::size_t>(t);
                        const ExperimentResult& r = results_[i];
                        const auto& stop =
                            sync_start ? r.breakup_time_sec : r.full_sync_time_sec;
                        tr.push_back(p.ratio);
                        time.push_back(stop.value_or(kHorizon));
                        ops.push_back(first + i);
                    }
                }
                const double tau = kendall_tau(tr, time);
                if (sync_start ? !(tau < 0.0) : !(tau > 0.0)) {
                    for (const std::size_t op : ops) {
                        ledger.fail(op, std::string{"pm-sweep N="} + std::to_string(n) +
                                            (sync_start ? ": time to breakup does not fall"
                                                        : ": time to sync does not rise") +
                                            " with Tr");
                    }
                }
            }
        }
    }

    void layer_metrics(Metrics& out) override {
        const double makespan = spans().totals().at("parallel.SweepScheduler.run").total_s;
        double events = 0.0;
        double router_rounds = 0.0;
        for (std::size_t i = 0; i < results_.size(); ++i) {
            events += static_cast<double>(results_[i].events_processed);
            router_rounds += static_cast<double>(configs_[i].params.n) *
                             static_cast<double>(results_[i].rounds_closed);
        }

        // Serial re-runs of the same trials: one scalar-kernel call per
        // trial (per-trial times), then the whole sweep on a one-worker
        // scheduler in the chunk size the pooled run used. The latter is
        // the kernel work the pool spread over its workers.
        for (const ExperimentConfig& cfg : configs_) {
            const SpanScope s{"core.run_experiment.serial"};
            (void)routesync::core::run_experiment(cfg);
        }
        {
            routesync::parallel::SweepScheduler serial{{.jobs = 1, .batch = chunk_}};
            for (const ExperimentConfig& cfg : configs_) {
                serial.submit(cfg);
            }
            const SpanScope s{"core.run_experiment_batch.serial"};
            (void)serial.run();
        }
        const auto all = spans().totals();
        const auto trial_s = spans().durations("core.run_experiment.serial");
        const double scalar_s = all.at("core.run_experiment.serial").total_s;
        const double busy = all.at("core.run_experiment_batch.serial").total_s;

        out["core.busy_s"] = busy;
        out["core.events"] = events;
        out["core.router_rounds"] = router_rounds;
        out["core.ns_per_event"] = busy * 1e9 / events;
        out["core.ns_per_router_round"] = busy * 1e9 / router_rounds;
        out["core.trial_p50_ms"] = quantile(trial_s, 0.5) * 1e3;
        out["core.trial_max_ms"] = quantile(trial_s, 1.0) * 1e3;
        out["core.batch_gain"] = scalar_s / busy;
        out["parallel.makespan_s"] = makespan;
        out["parallel.efficiency"] =
            busy / (static_cast<double>(scheduler_->jobs()) * makespan);
        out["parallel.steals"] = static_cast<double>(scheduler_->steals());
    }

private:
    std::uint64_t seed_;
    std::vector<Point> points_;
    std::vector<ExperimentConfig> configs_;
    std::unique_ptr<routesync::parallel::SweepScheduler> scheduler_;
    std::vector<ExperimentResult> results_;
    std::size_t chunk_ = 0; ///< batch size of the last pooled run
};

} // namespace

std::unique_ptr<Workload> make_pm_sweep(std::uint64_t seed) {
    return std::make_unique<PmSweep>(seed);
}

} // namespace routebench
