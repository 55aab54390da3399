// dv-storms: the packet testbeds of Figures 1-3 — NEARnet (1000 pings
// across IGRP-style core routers) and the audiocast (50 pkt/s CBR audio
// plus Poisson cross traffic across RIP-style routers) — over several
// seeds and timer jitters. Every run has a non-blocking-CPU control, and
// every run ends with its loss series' autocorrelation and periodogram.
// Everything runs on one thread.
//
// The only workload for routing, the Link/Router facades, apps and stats,
// and the one where set-up (topology plus 300-route tables) is a real
// share of the run.
#include <algorithm>
#include <cmath>
#include <string>

#include "apps/apps.hpp"
#include "bench.hpp"
#include "scenarios/audiocast.hpp"
#include "scenarios/nearnet.hpp"
#include "stats/autocorrelation.hpp"
#include "stats/periodogram.hpp"

namespace routebench {
namespace {

namespace sc = routesync::scenarios;
namespace apps = routesync::apps;
using routesync::sim::SimTime;

// NEARnet (Figures 1-2): 90 s IGRP period, 1.01 s pings.
constexpr double kNearHorizon = 1500.0;
constexpr double kNearPeriod = 90.0;
constexpr double kPingInterval = 1.01;
constexpr std::size_t kNearMaxLag = 200;
const std::vector<double> kNearJitter = {0.02, 0.05, 0.1};
// Audiocast (Figure 3): 30 s RIP period, losses binned per second.
constexpr double kAudioHorizon = 720.0;
constexpr double kAudioStop = 705.0;
constexpr double kAudioPeriod = 30.0;
constexpr std::size_t kAudioMaxLag = 60;
// Seeds per testbed. NEARnet runs every seed at every jitter; the
// audiocast, 70x dearer per run, pairs seed i with jitter i.
constexpr int kNearSeeds = 4;
const std::vector<double> kAudioJitter = {0.02, 0.05};
constexpr double kPeriodTolerance = 0.10; // bursts recur at the period +-10%
// NEARnet resets its timers at expiry, so its storms keep the exact 90 s
// period and the ACF peak must sit within 3 lags of 89 (Figure 2). The
// audiocast's RIP routers re-arm after processing, which stretches the
// storm period by the busy time (to ~32 s): there the ACF and periodogram
// peaks are held to the measured spike spacing, +-10%, and that spacing
// to the 30 s update period, +-10%.
constexpr double kNearLagTolerance = 0.035;

struct Analysis {
    std::vector<double> series;
    std::vector<double> acf;
    std::vector<double> power; ///< periodogram at k/n, k = 1..n/2
};

struct NearRun {
    sc::NearnetConfig cfg;
    std::unique_ptr<sc::NearnetScenario> s;
    std::unique_ptr<apps::PingApp> ping;
    Analysis a;
};

struct AudioRun {
    sc::AudiocastConfig cfg;
    std::uint64_t bg_seed = 0;
    std::unique_ptr<sc::AudiocastScenario> s;
    std::unique_ptr<apps::CbrSource> cbr;
    std::unique_ptr<apps::AudioSink> sink;
    std::unique_ptr<apps::BackgroundTraffic> cross;
    double t0 = 0.0;
    Analysis a;
};

void analyse(Analysis& a, std::size_t max_lag) {
    {
        const SpanScope s{"stats.autocorrelation"};
        a.acf = routesync::stats::autocorrelation(a.series, max_lag);
    }
    const SpanScope s{"stats.periodogram"};
    a.power = routesync::stats::periodogram(a.series);
}

/// Period (samples) of the strongest periodogram bin whose period lies
/// within a factor 1.5 of `nominal`. The window excludes the harmonics at
/// nominal/2, nominal/3, ...: a train of short loss pulses puts as much
/// power there as at the fundamental.
double peak_period(const Analysis& a, double nominal) {
    const double n = static_cast<double>(a.series.size());
    double best = -1.0;
    double period = 0.0;
    for (std::size_t k = 1; k <= a.power.size(); ++k) {
        const double p = n / static_cast<double>(k);
        if (p >= nominal / 1.5 && p <= nominal * 1.5 && a.power[k - 1] > best) {
            best = a.power[k - 1];
            period = p;
        }
    }
    return period;
}

/// Lag in [lo, hi] with the largest autocorrelation.
std::size_t peak_lag(const std::vector<double>& acf, std::size_t lo, std::size_t hi) {
    std::size_t best = lo;
    for (std::size_t k = lo; k <= hi; ++k) {
        if (acf[k] > acf[best]) {
            best = k;
        }
    }
    return best;
}

bool near(double value, double target, double tolerance) {
    return std::abs(value - target) <= tolerance * target;
}

class DvStorms final : public Workload {
public:
    explicit DvStorms(std::uint64_t seed) : seed_{seed} {}

    void release() override {
        near_.clear();
        audio_.clear();
    }

    void setup() override {
        std::uint64_t k = 0;
        // A control run shares its seed with the blocking run it controls.
        for (int seed = 0; seed < kNearSeeds; ++seed) {
            for (const double jitter : kNearJitter) {
                const std::uint64_t run_seed = mix_seed(seed_, k++) >> 16;
                for (const bool blocking : {true, false}) {
                    NearRun& r = near_.emplace_back();
                    r.cfg.jitter_sec = jitter;
                    r.cfg.blocking_cpu = blocking;
                    r.cfg.seed = run_seed;
                    {
                        const SpanScope s{"scenarios.NearnetScenario"};
                        r.s = std::make_unique<sc::NearnetScenario>(r.cfg);
                    }
                    apps::PingConfig pc;
                    pc.dst = r.s->dst().id();
                    pc.count = 1000;
                    pc.interval = SimTime::seconds(kPingInterval);
                    r.ping = std::make_unique<apps::PingApp>(r.s->src(), pc);
                    r.ping->start(r.s->routing_start() + SimTime::seconds(200));
                }
            }
        }
        for (const double jitter : kAudioJitter) {
            const std::uint64_t run_seed = mix_seed(seed_, k++) >> 16;
            const std::uint64_t bg_seed = mix_seed(seed_, k++) >> 16;
            for (const bool blocking : {true, false}) {
                AudioRun& r = audio_.emplace_back();
                r.cfg.jitter_sec = jitter;
                r.cfg.blocking_cpu = blocking;
                r.cfg.seed = run_seed;
                r.bg_seed = bg_seed;
                {
                    const SpanScope s{"scenarios.AudiocastScenario"};
                    r.s = std::make_unique<sc::AudiocastScenario>(r.cfg);
                }
                apps::CbrConfig cc;
                cc.dst = r.s->audio_dst().id();
                cc.packets_per_second = 50.0;
                cc.stop_at = SimTime::seconds(kAudioStop);
                r.cbr = std::make_unique<apps::CbrSource>(r.s->audio_src(), cc);
                r.sink = std::make_unique<apps::AudioSink>(r.s->audio_dst(),
                                                           SimTime::seconds(0.02));
                apps::BackgroundConfig bg;
                bg.dst = r.s->bg_dst().id();
                bg.mean_packets_per_second = 270.0;
                bg.stop_at = SimTime::seconds(kAudioStop);
                bg.seed = r.bg_seed;
                r.cross = std::make_unique<apps::BackgroundTraffic>(r.s->bg_src(), bg);
                const SimTime t0 = r.s->routing_start() + SimTime::seconds(95);
                r.t0 = t0.sec();
                r.cbr->start(t0);
                r.cross->start(t0);
            }
        }
    }

    RoundStats run() override {
        RoundStats st;
        st.fingerprint = 14695981039346656037ULL;
        for (NearRun& r : near_) {
            {
                const SpanScope s{"sim.Engine.run_until"};
                r.s->engine().run_until(SimTime::seconds(kNearHorizon));
            }
            r.a.series = r.ping->rtts_with_losses_as(2.0);
            analyse(r.a, kNearMaxLag);
            st.sim_seconds += kNearHorizon;
            fnv_fold(st.fingerprint, static_cast<std::uint64_t>(r.ping->lost()));
            fnv_fold(st.fingerprint, r.s->engine().events_processed());
        }
        for (AudioRun& r : audio_) {
            {
                const SpanScope s{"sim.Engine.run_until"};
                r.s->engine().run_until(SimTime::seconds(kAudioHorizon));
            }
            // Packets lost per one-second bin, by outage start.
            r.a.series.assign(static_cast<std::size_t>(kAudioStop - r.t0), 0.0);
            for (const apps::AudioOutage& o : r.sink->outages()) {
                const double at = o.start_sec - r.t0;
                if (at >= 0.0 && at < static_cast<double>(r.a.series.size())) {
                    r.a.series[static_cast<std::size_t>(at)] +=
                        static_cast<double>(o.packets_lost);
                }
            }
            analyse(r.a, kAudioMaxLag);
            st.sim_seconds += kAudioHorizon;
            fnv_fold(st.fingerprint, r.sink->lost());
            fnv_fold(st.fingerprint, r.s->engine().events_processed());
        }
        return st;
    }

    void check(Ledger& ledger) override {
        const std::size_t first = ledger.add_ops(near_.size() + audio_.size());
        for (std::size_t i = 0; i < near_.size(); ++i) {
            const NearRun& r = near_[i];
            const std::size_t op = first + i;
            const std::string at = "dv-storms nearnet jitter=" + std::to_string(r.cfg.jitter_sec) +
                                   (r.cfg.blocking_cpu ? "" : " control") + ": ";
            if (!r.cfg.blocking_cpu) {
                ledger.expect(r.ping->lost() == 0, op,
                              at + std::to_string(r.ping->lost()) +
                                  " pings lost with non-blocking routers");
                continue;
            }
            // Loss bursts: losses within 10 pings of each other are one storm.
            std::vector<std::size_t> starts;
            std::size_t last = 0;
            const auto& rtts = r.ping->rtts();
            for (std::size_t p = 0; p < rtts.size(); ++p) {
                if (rtts[p] < 0) {
                    if (starts.empty() || p - last > 10) {
                        starts.push_back(p);
                    }
                    last = p;
                }
            }
            double gap_s = 0.0;
            if (starts.size() >= 2) {
                gap_s = static_cast<double>(starts.back() - starts.front()) /
                        static_cast<double>(starts.size() - 1) * kPingInterval;
            }
            ledger.expect(starts.size() >= 2 && near(gap_s, kNearPeriod, kPeriodTolerance),
                          op, at + "loss bursts every " + std::to_string(gap_s) +
                                  " s, not the 90 s update period");
            check_analysis(ledger, op, at, r.a, kNearMaxLag, 30, 150,
                           kNearPeriod / kPingInterval, kNearLagTolerance);
        }
        for (std::size_t i = 0; i < audio_.size(); ++i) {
            const AudioRun& r = audio_[i];
            const std::size_t op = first + near_.size() + i;
            const std::string at = "dv-storms audiocast jitter=" +
                                   std::to_string(r.cfg.jitter_sec) +
                                   (r.cfg.blocking_cpu ? "" : " control") + ": ";
            const auto spikes = r.sink->outages_longer_than(0.5);
            if (!r.cfg.blocking_cpu) {
                ledger.expect(spikes.empty(), op,
                              at + std::to_string(spikes.size()) +
                                  " storm-length outages with non-blocking routers");
                continue;
            }
            double gap_s = 0.0;
            if (spikes.size() >= 2) {
                gap_s = (spikes.back().start_sec - spikes.front().start_sec) /
                        static_cast<double>(spikes.size() - 1);
            }
            ledger.expect(spikes.size() >= 2 && near(gap_s, kAudioPeriod, kPeriodTolerance),
                          op, at + "outage spikes every " + std::to_string(gap_s) +
                                  " s, not the 30 s update period");
            check_analysis(ledger, op, at, r.a, kAudioMaxLag, 10, 60, gap_s,
                           kPeriodTolerance);
        }
    }

    void layer_metrics(Metrics& out) override {
        const auto t = spans().totals();
        double events = 0.0, forwarded = 0.0, blocked = 0.0;
        double sent = 0.0, processed = 0.0, app_sent = 0.0, app_lost = 0.0;
        const auto add_routers = [&](const routesync::net::Network& nw) {
            for (const routesync::net::Router* router : nw.routers()) {
                forwarded += static_cast<double>(router->stats().forwarded);
                blocked += static_cast<double>(router->stats().cpu_blocked_drops);
            }
        };
        for (NearRun& r : near_) {
            events += static_cast<double>(r.s->engine().events_processed());
            add_routers(r.s->network());
            for (const auto& agent : r.s->agents()) {
                sent += static_cast<double>(agent->stats().periodic_updates_sent +
                                            agent->stats().triggered_updates_sent);
                processed += static_cast<double>(agent->stats().updates_processed);
            }
            app_sent += r.ping->sent();
            app_lost += r.ping->lost();
        }
        for (AudioRun& r : audio_) {
            events += static_cast<double>(r.s->engine().events_processed());
            add_routers(r.s->network());
            app_sent += static_cast<double>(r.cbr->sent() + r.cross->sent());
            app_lost += static_cast<double>(r.sink->lost());
        }
        out["scenarios.build_s"] = t.at("scenarios.NearnetScenario").self_s +
                                   t.at("scenarios.AudiocastScenario").self_s;
        out["sim.events"] = events;
        out["sim.ns_per_event"] = t.at("sim.Engine.run_until").self_s * 1e9 / events;
        out["net.forwarded"] = forwarded;
        out["net.cpu_blocked_drops"] = blocked;
        out["routing.updates_sent"] = sent;
        out["routing.updates_processed"] = processed;
        out["apps.packets_sent"] = app_sent;
        out["apps.packets_lost"] = app_lost;
        out["stats.analysis_s"] =
            t.at("stats.autocorrelation").self_s + t.at("stats.periodogram").self_s;
    }

private:
    /// The library autocorrelation against the direct sum, the ACF peak
    /// at the update period (in samples), and the periodogram peak there.
    static void check_analysis(Ledger& ledger, std::size_t op, const std::string& at,
                               const Analysis& a, std::size_t max_lag, std::size_t lo,
                               std::size_t hi, double period_samples,
                               double lag_tolerance) {
        const std::vector<double> direct = direct_autocorrelation(a.series, max_lag);
        double worst = 0.0;
        for (std::size_t k = 0; k <= max_lag; ++k) {
            worst = std::max(worst, std::abs(direct[k] - a.acf[k]));
        }
        ledger.expect(a.acf.size() == max_lag + 1 && worst <= 1e-9, op,
                      at + "stats::autocorrelation differs from the direct sum by " +
                          std::to_string(worst));
        const std::size_t lag = peak_lag(direct, lo, hi);
        ledger.expect(near(static_cast<double>(lag), period_samples, lag_tolerance), op,
                      at + "autocorrelation peaks at lag " + std::to_string(lag) +
                          ", not near " + std::to_string(period_samples));
        const double period = peak_period(a, period_samples);
        ledger.expect(near(period, period_samples, kPeriodTolerance), op,
                      at + "periodogram peaks at period " + std::to_string(period));
    }

    std::uint64_t seed_;
    std::vector<NearRun> near_;
    std::vector<AudioRun> audio_;
};

} // namespace

std::unique_ptr<Workload> make_dv_storms(std::uint64_t seed) {
    return std::make_unique<DvStorms>(seed);
}

} // namespace routebench
