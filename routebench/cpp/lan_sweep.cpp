// lan-sweep: a packet-level shared-LAN buffer x load x trial grid, once
// under RED and once under drop-tail, each through run_scenario_sweep with
// hash_traces on, on <= 4 workers.
//
// The packet path end to end: element graph, CSMA/CD SharedLan, the
// generic EventQueue and the hashing tracer — and no PM kernel.
//
// Every cell runs 600 s of LAN time, short of the earliest full sync
// (about 1800 s), so every seed gives a round of the same length. At the
// scenario's own horizon (5000 s, stop at full sync) a cell stops whenever
// its seed synchronizes, and the work of a 32-cell round varied by 0.44
// (IQR / median) over ten seeds. README.md compares the two horizons.
#include <string>

#include "bench.hpp"
#include "scenarios/scenario_sweep.hpp"

namespace routebench {
namespace {

namespace sc = routesync::scenarios;
using routesync::net::elements::QueueDisc;
using routesync::sim::SimTime;

constexpr double kHorizon = 600.0; // seconds of simulated LAN time per cell
const std::vector<std::size_t> kBuffers = {4, 8, 16, 32};
const std::vector<double> kLoads = {0.8, 1.2};
constexpr int kTrials = 2;

class LanSweep final : public Workload {
public:
    explicit LanSweep(std::uint64_t seed) : seed_{seed} {}

    void release() override {
        sweeps_.clear();
        results_.clear();
    }

    void setup() override {
        for (const QueueDisc disc : {QueueDisc::Red, QueueDisc::DropTail}) {
            sc::ScenarioSweepConfig cfg;
            cfg.base.queue_disc = disc;
            cfg.base.max_time = SimTime::seconds(kHorizon);
            cfg.base.seed = mix_seed(seed_, 0) >> 16; // trials add 0, 1, ...
            cfg.base.red.seed = mix_seed(seed_, 1);
            cfg.buffers = kBuffers;
            cfg.loads = kLoads;
            cfg.trials = kTrials;
            cfg.jobs = worker_count();
            cfg.hash_traces = true;
            sweeps_.push_back(std::move(cfg));
        }
    }

    RoundStats run() override {
        results_.clear();
        for (const sc::ScenarioSweepConfig& cfg : sweeps_) {
            const SpanScope s{"parallel.run_scenario_sweep"};
            results_.push_back(sc::run_scenario_sweep(cfg));
        }
        RoundStats st;
        st.fingerprint = 14695981039346656037ULL;
        for (const sc::ScenarioSweepResult& sweep : results_) {
            for (const sc::ScenarioSweepCell& cell : sweep.cells) {
                st.sim_seconds += cell.result.end_time_s;
                fnv_fold(st.fingerprint, cell.trace_digest);
                fnv_fold(st.fingerprint, cell.result.frames_delivered);
            }
        }
        return st;
    }

    void check(Ledger& ledger) override {
        for (std::size_t s = 0; s < sweeps_.size(); ++s) {
            const sc::ScenarioSweepConfig& cfg = sweeps_[s];
            const sc::ScenarioSweepResult& sweep = results_[s];
            const bool red = cfg.base.queue_disc == QueueDisc::Red;
            const std::size_t first = ledger.add_ops(sweep.cells.size());
            const auto n = static_cast<std::uint64_t>(cfg.base.n);
            for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
                const sc::ScenarioSweepCell& cell = sweep.cells[i];
                const sc::SharedLanScenarioResult& r = cell.result;
                const std::size_t op = first + i;
                const std::string at = std::string{"lan-sweep "} + (red ? "red" : "droptail") +
                                       " buffer=" + std::to_string(cell.buffer) +
                                       " load=" + std::to_string(cell.load) + " trial " +
                                       std::to_string(cell.trial) + ": ";
                ledger.expect(r.frames_delivered <= r.frames_offered, op,
                              at + "delivered more frames than offered");
                if (red) {
                    ledger.expect(r.drops_queue_full == r.red_early_drops + r.red_forced_drops,
                                  op, at + "queue drops != RED early + forced drops");
                } else {
                    ledger.expect(r.red_early_drops == 0 && r.red_forced_drops == 0, op,
                                  at + "RED drops under drop-tail");
                }
                ledger.expect(r.updates_heard <= r.updates_sent * (n - 1), op,
                              at + "more updates heard than sent * (n - 1)");
                ledger.expect(r.updates_sent > 0 && r.frames_offered > 0 &&
                                  cell.trace_events > 0,
                              op, at + "cell did no work");
                ledger.expect(r.end_time_s <= kHorizon + 1e-9, op, at + "ran past the horizon");
            }
            if (!sampled_) {
                // Digests of a sample of cells (the first buffer size, every
                // load and trial) at one worker must equal the pooled run's.
                sc::ScenarioSweepConfig one = cfg;
                one.buffers = {cfg.buffers.front()};
                one.jobs = 1;
                const sc::ScenarioSweepResult ref = sc::run_scenario_sweep(one);
                for (std::size_t i = 0; i < ref.cells.size(); ++i) {
                    ledger.expect(ref.cells[i].trace_digest == sweep.cells[i].trace_digest &&
                                      ref.cells[i].result.frames_delivered ==
                                          sweep.cells[i].result.frames_delivered,
                                  first + i,
                                  "lan-sweep: cell digest differs between 1 and " +
                                      std::to_string(sweep.jobs) + " workers");
                }
            }
        }
        sampled_ = true;
    }

    void layer_metrics(Metrics& out) override {
        double frames = 0.0, delivered = 0.0, collisions = 0.0, drops = 0.0;
        double sent_pairs = 0.0, heard = 0.0, trace_events = 0.0;
        std::size_t steals = 0;
        for (std::size_t s = 0; s < results_.size(); ++s) {
            steals += results_[s].steals;
            const double others = static_cast<double>(sweeps_[s].base.n - 1);
            for (const sc::ScenarioSweepCell& cell : results_[s].cells) {
                const sc::SharedLanScenarioResult& r = cell.result;
                frames += static_cast<double>(r.frames_offered);
                delivered += static_cast<double>(r.frames_delivered);
                collisions += static_cast<double>(r.collisions);
                drops += static_cast<double>(r.drops_queue_full);
                sent_pairs += static_cast<double>(r.updates_sent) * others;
                heard += static_cast<double>(r.updates_heard);
                trace_events += static_cast<double>(cell.trace_events);
            }
        }
        const double makespan = spans().totals().at("parallel.run_scenario_sweep").total_s;

        // Serial re-runs: every cell as a one-cell sweep at one worker,
        // hashing on and off.
        for (const sc::ScenarioSweepConfig& cfg : sweeps_) {
            for (const std::size_t buffer : cfg.buffers) {
                for (const double load : cfg.loads) {
                    for (int t = 0; t < cfg.trials; ++t) {
                        sc::ScenarioSweepConfig one = cfg;
                        one.buffers = {buffer};
                        one.loads = {load};
                        one.trials = 1;
                        one.base.seed = cfg.base.seed + static_cast<std::uint64_t>(t);
                        one.jobs = 1;
                        {
                            const SpanScope s{"scenarios.cell"};
                            (void)sc::run_scenario_sweep(one);
                        }
                        one.hash_traces = false;
                        const SpanScope s{"scenarios.cell.nohash"};
                        (void)sc::run_scenario_sweep(one);
                    }
                }
            }
        }
        const auto all = spans().totals();
        const double serial_s = all.at("scenarios.cell").total_s;
        const double nohash_s = all.at("scenarios.cell.nohash").total_s;
        const auto cell_s = spans().durations("scenarios.cell");

        out["obs.hash_s"] = serial_s - nohash_s;
        out["obs.trace_events"] = trace_events;
        out["parallel.makespan_s"] = makespan;
        out["parallel.efficiency"] =
            serial_s / (static_cast<double>(results_.front().jobs) * makespan);
        out["parallel.steals"] = static_cast<double>(steals);
        out["scenarios.cell_p50_ms"] = quantile(cell_s, 0.5) * 1e3;
        out["scenarios.cell_max_ms"] = quantile(cell_s, 1.0) * 1e3;
        out["net.ns_per_frame"] = serial_s * 1e9 / frames;
        out["net.frames_offered"] = frames;
        out["net.frames_delivered"] = delivered;
        out["net.collisions"] = collisions;
        out["net.queue_drops"] = drops;
        out["net.updates_heard_ratio"] = heard / sent_pairs;
    }

private:
    std::uint64_t seed_;
    std::vector<sc::ScenarioSweepConfig> sweeps_;
    std::vector<sc::ScenarioSweepResult> results_;
    bool sampled_ = false;
};

} // namespace

std::unique_ptr<Workload> make_lan_sweep(std::uint64_t seed) {
    return std::make_unique<LanSweep>(seed);
}

} // namespace routebench
