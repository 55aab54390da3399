// routebench — the routesync benchmark program.
//
//   routebench --workload NAME --seed N --seconds S --trace 0|1
//              [--spans-out PATH]
//
// A run repeats the workload's fixed batch of simulations (a round) for
// about S seconds, stopping before a round that would end later, at least
// three times, and checks every round's outputs. --trace 0 prints the end-to-end metrics (medians over rounds);
// --trace 1 prints the per-layer metrics from a traced round plus the
// serial re-runs some ratios need, and writes the spans to --spans-out.
// The last stdout line is the JSON result; diagnostics go to stderr.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace rb = routebench;

namespace {

struct MetricDef {
    const char* name;
    const char* unit;
};

// Order and units mirror BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"},      {"setup_s", "s"},           {"cpu_s", "s"},
    {"sim_s_per_s", "sim-s/s"}, {"peak_rss_mib", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"core.busy_s", "s"},
    {"core.ns_per_router_round", "ns"},
    {"core.ns_per_event", "ns"},
    {"core.events", "count"},
    {"core.router_rounds", "count"},
    {"core.trial_p50_ms", "ms"},
    {"core.trial_max_ms", "ms"},
    {"core.batch_gain", "ratio"},
    {"core.state_bytes_per_router", "B"},
    {"obs.monitor_s", "s"},
    {"obs.monitor_share", "ratio"},
    {"obs.hash_s", "s"},
    {"obs.trace_events", "count"},
    {"parallel.makespan_s", "s"},
    {"parallel.efficiency", "ratio"},
    {"parallel.steals", "count"},
    {"scenarios.cell_p50_ms", "ms"},
    {"scenarios.cell_max_ms", "ms"},
    {"scenarios.build_s", "s"},
    {"net.ns_per_frame", "ns"},
    {"net.frames_offered", "count"},
    {"net.frames_delivered", "count"},
    {"net.collisions", "count"},
    {"net.queue_drops", "count"},
    {"net.updates_heard_ratio", "ratio"},
    {"net.forwarded", "count"},
    {"net.cpu_blocked_drops", "count"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"routing.updates_sent", "count"},
    {"routing.updates_processed", "count"},
    {"apps.packets_sent", "count"},
    {"apps.packets_lost", "count"},
    {"stats.analysis_s", "s"},
    {"trace.wall_s", "s"},
    {"trace.untraced_wall_s", "s"},
    {"trace.overhead", "ratio"},
};

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "routebench: %s\nusage: routebench --workload "
                 "pm-sweep|pm-metro|lan-sweep|dv-storms --seed N --seconds S "
                 "--trace 0|1 [--spans-out PATH]\n",
                 why);
    std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const char* text) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || text[0] == '-') {
        usage((flag + " wants a non-negative integer").c_str());
    }
    return v;
}

struct Round {
    double setup_s, wall_s, cpu_s, sim_s;
};

/// Median time of one set-up. Set-ups range from microseconds (a list of
/// PM configs) to milliseconds (testbeds with 300-route tables), so each
/// round repeats it at least 3 times and until 5 ms have been spent, and
/// keeps the median; the last set-up stays for the run.
double timed_setup(rb::Workload& w) {
    std::vector<double> samples;
    double spent = 0.0;
    while (samples.size() < 3 || (spent < 5e-3 && samples.size() < 1000)) {
        w.release();
        if (rb::spans().enabled()) {
            rb::spans().clear(); // keep only the spans of the set-up that stays
        }
        const double t0 = rb::now_s();
        w.setup();
        samples.push_back(rb::now_s() - t0);
        spent += samples.back();
    }
    return rb::quantile(samples, 0.5);
}

/// One round: set up, run (timed), check. Fails every operation of the
/// round if its outputs differ from the first round's (same inputs).
Round run_round(rb::Workload& w, rb::Ledger& ledger, std::uint64_t& first_fingerprint,
                bool& have_first) {
    const double setup_s = timed_setup(w);
    const double t1 = rb::now_s();
    const double c1 = rb::process_cpu_s();
    const rb::RoundStats st = w.run();
    const double t2 = rb::now_s();
    const double c2 = rb::process_cpu_s();
    const std::size_t before = static_cast<std::size_t>(ledger.attempted());
    w.check(ledger);
    if (!have_first) {
        first_fingerprint = st.fingerprint;
        have_first = true;
    } else if (st.fingerprint != first_fingerprint) {
        const auto after = static_cast<std::size_t>(ledger.attempted());
        for (std::size_t op = before; op < after; ++op) {
            ledger.fail(op, "round outputs differ from the first round's");
        }
    }
    return Round{setup_s, t2 - t1, c2 - c1, st.sim_seconds};
}

/// Runs rounds, at least `min_rounds`, while one more (as long as the last)
/// would still end within `until` seconds of `begin`.
template <typename F>
void repeat_rounds(double begin, double until, std::size_t min_rounds, F&& round) {
    double last = 0.0;
    for (std::size_t done = 0; done < min_rounds || rb::now_s() - begin + last <= until;
         ++done) {
        const double t0 = rb::now_s();
        round();
        last = rb::now_s() - t0;
    }
}

void print_result(const rb::Ledger& ledger,
                  const std::vector<std::pair<MetricDef, double>>& metrics) {
    for (std::size_t i = 0; i < ledger.messages().size() && i < 20; ++i) {
        std::fprintf(stderr, "CHECK FAILED: %s\n", ledger.messages()[i].c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                ledger.failed() == 0 ? "true" : "false",
                static_cast<unsigned long long>(ledger.attempted()),
                static_cast<unsigned long long>(ledger.failed()));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].first.name, metrics[i].second,
                    metrics[i].first.unit);
    }
    std::printf("}}\n");
}

} // namespace

int main(int argc, char** argv) {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = -1.0;
    int trace = -1;
    std::string spans_out;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            usage(("missing value for " + flag).c_str());
        }
        const char* value = argv[++i];
        if (flag == "--workload") {
            workload = value;
        } else if (flag == "--seed") {
            seed = parse_uint(flag, value);
            have_seed = true;
        } else if (flag == "--seconds") {
            seconds = static_cast<double>(parse_uint(flag, value));
        } else if (flag == "--trace") {
            trace = static_cast<int>(parse_uint(flag, value));
        } else if (flag == "--spans-out") {
            spans_out = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_seed || seconds < 1.0 || (trace != 0 && trace != 1)) {
        usage("--seed, --seconds >= 1 and --trace 0|1 are required");
    }

    try {
        std::unique_ptr<rb::Workload> w;
        if (workload == "pm-sweep") {
            w = rb::make_pm_sweep(seed);
        } else if (workload == "pm-metro") {
            w = rb::make_pm_metro(seed);
        } else if (workload == "lan-sweep") {
            w = rb::make_lan_sweep(seed);
        } else if (workload == "dv-storms") {
            w = rb::make_dv_storms(seed);
        } else {
            usage(("unknown workload '" + workload + "'").c_str());
        }

        rb::Ledger ledger;
        std::uint64_t first_fp = 0;
        bool have_first = false;
        constexpr std::size_t kMinRounds = 3;
        std::vector<std::pair<MetricDef, double>> out;

        if (trace == 0) {
            std::vector<double> setup, wall, cpu, rate;
            double sim_s = 0.0;
            const double begin = rb::now_s();
            repeat_rounds(begin, seconds, kMinRounds, [&] {
                const Round r = run_round(*w, ledger, first_fp, have_first);
                setup.push_back(r.setup_s);
                wall.push_back(r.wall_s);
                cpu.push_back(r.cpu_s);
                rate.push_back(r.sim_s / r.wall_s);
                sim_s = r.sim_s;
            });
            std::fprintf(stderr, "%s: %zu rounds of %.6g simulated seconds\n",
                         workload.c_str(), wall.size(), sim_s);
            const double values[] = {rb::quantile(wall, 0.5), rb::quantile(setup, 0.5),
                                     rb::quantile(cpu, 0.5), rb::quantile(rate, 0.5),
                                     rb::peak_rss_mib()};
            for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
                out.emplace_back(kEndToEnd[i], values[i]);
            }
        } else {
            // Untraced rounds for the first half, traced rounds for the
            // second; the per-layer metrics come from the last traced
            // round (timed_setup clears the spans) plus the serial re-runs
            // the workload makes afterwards.
            std::vector<double> plain, traced;
            const double begin = rb::now_s();
            repeat_rounds(begin, seconds / 2, 1, [&] {
                plain.push_back(run_round(*w, ledger, first_fp, have_first).wall_s);
            });
            rb::spans().enable();
            repeat_rounds(begin, seconds, 1, [&] {
                traced.push_back(run_round(*w, ledger, first_fp, have_first).wall_s);
            });
            rb::Metrics layer;
            w->layer_metrics(layer);
            layer["trace.wall_s"] = rb::quantile(traced, 0.5);
            layer["trace.untraced_wall_s"] = rb::quantile(plain, 0.5);
            layer["trace.overhead"] =
                layer["trace.wall_s"] / layer["trace.untraced_wall_s"] - 1.0;
            for (const MetricDef& m : kPerLayer) {
                out.emplace_back(m, layer[m.name]); // 0 where the layer is idle
            }
            if (layer.size() != std::size(kPerLayer)) {
                std::fprintf(stderr, "routebench: a workload reported an unlisted metric\n");
                return 1;
            }
            if (!spans_out.empty()) {
                rb::spans().write_json(spans_out);
            }
        }
        print_result(ledger, out);
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "routebench: %s\n", e.what());
        return 1;
    }
}
