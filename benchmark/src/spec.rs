//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` at the repo root is
//! [`render_benchmark_json`] verbatim (a unit test holds them equal), so
//! the binaries and the file cannot drift apart.

/// Seconds one run measures (`run_seconds`, and the `--seconds` default).
pub const RUN_SECONDS: u64 = 20;

/// A workload: its name and the one-line reason it exists.
pub struct Workload {
    /// `--workload` value.
    pub name: &'static str,
    /// Why it was chosen — which layers it stresses and which it bypasses.
    pub why: &'static str,
}

/// The four workloads, in the order `--all` runs them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper_fig5",
        why: "closed loop, 1 client: the paper's nine benchmarks at paper scale (~562 k tasks) on one Titan X; core+gpu-sim+desim+pcie do all the work, serve/cluster/obs none; only workload with reference numbers",
    },
    Workload {
        name: "serve_netmix",
        why: "open loop: 3DES Poisson + MB bursty tenants, EDF, 8-rate ladder on a 128-entry slice; backlog leaves the TaskTable for admission/QoS, so serve and in-serve generation carry the run, device model small",
    },
    Workload {
        name: "fleet_batch",
        why: "closed loop, 1 client: 25 k narrow tasks on a 4-device fleet (traced run climbs to the 100 k scale bar); cluster owns most of the host time, workloads/serve/obs none; a core/desim gain barely shows",
    },
    Workload {
        name: "fleet_serve",
        why: "open loop: 8 Zipf tenants, WFQ, 4-device fleet, power-of-two routing, a mid-run device kill, recorder and profiler on; the whole stack in one run, each layer used differently from the other three",
    },
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the simulator sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit. `host_s` is wall clock; `sim_*` is simulated time.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Deterministic for a seed: two runs must agree to the last bit.
    pub exact: bool,
}

/// Every end-to-end metric; each workload reports all of them.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "tasks_per_host_s",
        unit: "tasks/host_s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "sim_tasks_per_s",
        unit: "tasks/sim_s",
        better: Better::Higher,
        bound: 0.20,
        exact: true,
    },
    EndToEnd {
        name: "sim_p50_us",
        unit: "sim_us",
        better: Better::Lower,
        bound: 0.25,
        exact: true,
    },
    EndToEnd {
        name: "sim_p99_us",
        unit: "sim_us",
        better: Better::Lower,
        bound: 0.25,
        exact: true,
    },
    EndToEnd {
        name: "completed_frac",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.15,
        exact: true,
    },
];

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A per-layer metric (no bound; read from the traced run).
pub struct PerLayer {
    /// `<layer>.<metric>`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

/// Lower-case benchmark suffixes, `Bench::ALL` order.
pub const BENCH_KEYS: [&str; 9] = ["mb", "fb", "bf", "conv", "dct", "mm", "slud", "3des", "mpe"];

/// Profiler phase suffixes, `Phase::ALL` order.
pub const PHASE_KEYS: [&str; 7] = [
    "admission",
    "host_queue",
    "staging",
    "mtb_wait",
    "smm_wait",
    "execution",
    "copyback",
];

/// Every per-layer metric, layer by layer; each workload reports all of
/// them (0 where the layer does no work on that workload).
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut v: Vec<PerLayer> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better| {
        v.push(PerLayer {
            name: name.to_string(),
            unit,
            better,
        });
    };

    add("workloads.gen_s", "s", Lower);
    for b in BENCH_KEYS {
        add(&format!("workloads.gen_ns_per_task.{b}"), "ns", Lower);
    }

    for s in ["new", "submit", "sync", "advance", "wait", "report"] {
        add(&format!("core.{s}_s"), "s", Lower);
    }
    add("core.submit_calls", "count", Lower);
    add("core.submit_full", "count", Lower);
    add("core.submit_useful_ratio", "ratio", Higher);
    add("core.sync_calls", "count", Lower);
    for c in [
        "scheduler_decisions",
        "chain_updates",
        "placement_steps",
        "tasktable_copybacks",
        "tasktable_polls",
    ] {
        add(&format!("core.{c}"), "1/task", Lower);
    }
    for b in BENCH_KEYS {
        add(
            &format!("core.tasks_per_host_s.{b}"),
            "tasks/host_s",
            Higher,
        );
    }
    add("core.buddy_ns_per_op", "ns", Lower);
    add("core.sim_mean_task_latency_us", "sim_us", Lower);

    add("gpu-sim.sim_running_occupancy", "ratio", Higher);
    add("gpu-sim.sim_gpu_busy_frac", "ratio", Higher);
    add("gpu-sim.native_ns_per_event", "ns", Lower);
    add("gpu-sim.est_share_pct", "%", Lower);

    for c in [
        "delivered",
        "scheduled",
        "cancelled",
        "rescheduled",
        "max_queue_len",
    ] {
        add(&format!("desim.{c}"), "count", Lower);
    }
    add("desim.comparisons_per_pop", "ratio", Lower);
    add("desim.events_per_task", "1/task", Lower);
    add("desim.events_per_host_s", "events/host_s", Higher);
    add("desim.replay_ns_per_op", "ns", Lower);
    add("desim.est_share_pct", "%", Lower);

    add("pcie.h2d_transactions", "count", Lower);
    add("pcie.d2h_transactions", "count", Lower);
    add("pcie.h2d_bytes", "B", Lower);
    add("pcie.d2h_bytes", "B", Lower);
    add("pcie.sim_h2d_busy_frac", "ratio", Lower);
    add("pcie.sim_d2h_busy_frac", "ratio", Lower);
    add("pcie.transfer_ns", "ns", Lower);
    add("pcie.est_share_pct", "%", Lower);

    for s in ["hyperq", "gemtc", "pthreads", "sequential"] {
        add(&format!("baselines.{s}_s"), "s", Lower);
    }
    for s in ["hyperq", "gemtc", "pthreads"] {
        add(&format!("baselines.sim_speedup_vs_{s}"), "ratio", Higher);
    }
    add("baselines.sim_pagoda_fastest_count", "count", Higher);
    add("baselines.paper_geomean_err_pct", "%", Lower);

    add("serve.self_s", "s", Lower);
    add("serve.backend_s", "s", Lower);
    for c in ["submit", "check", "sync", "advance_to"] {
        add(&format!("serve.backend_calls.{c}"), "count", Lower);
    }
    add("serve.submit_full_ratio", "ratio", Lower);
    add("serve.offered", "count", Higher);
    add("serve.admitted", "count", Higher);
    add("serve.shed", "count", Lower);
    add("serve.expired", "count", Lower);
    add("serve.completed", "count", Higher);
    add("serve.deadline_missed", "count", Lower);
    add("serve.max_queue_depth", "count", Lower);
    add("serve.sim_slot_occupancy", "ratio", Higher);
    add("serve.arrivalgen_ns", "ns", Lower);
    add("serve.qos_ns_per_op", "ns", Lower);
    add("serve.sim_rate_under_slo_per_s", "arrivals/sim_s", Higher);

    for s in ["submit", "sync", "advance", "wait"] {
        add(&format!("cluster.{s}_s"), "s", Lower);
    }
    add("cluster.sync_calls", "count", Lower);
    add("cluster.advance_calls", "count", Lower);
    add("cluster.self_s", "s", Lower);
    add("cluster.self_share_pct", "%", Lower);
    add("cluster.wall_scaling_exponent", "ratio", Lower);
    add("cluster.scale_bar_tasks_per_host_s", "tasks/host_s", Higher);
    for c in [
        "placements",
        "off_affinity",
        "staging_transfers",
        "resubmits",
        "tasks_lost",
        "kills",
    ] {
        add(&format!("cluster.{c}"), "count", Lower);
    }
    add("cluster.sim_scaling_4dev", "ratio", Higher);
    add("cluster.sim_device_imbalance", "ratio", Lower);

    add("obs.mem_overhead_pct", "%", Lower);
    add("obs.events_captured", "count", Lower);
    add("obs.snapshot_s", "s", Lower);

    add("prof.report_s", "s", Lower);
    for p in PHASE_KEYS {
        add(&format!("prof.phase_share_pct.{p}"), "%", Lower);
    }
    add("prof.phase_sum_mismatch", "count", Lower);

    add("trace.overhead_pct", "%", Lower);
    add("trace.accounted_pct", "%", Higher);
    v
}

/// The exact text of the repo-root `BENCHMARK.json`.
pub fn render_benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 == WORKLOADS.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name, w.why
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, m) in layers.iter().enumerate() {
        let comma = if i + 1 == layers.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let layers = per_layer();
        assert!((1..=128).contains(&layers.len()), "{}", layers.len());
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(layers.iter().map(|m| m.name.as_str()));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &layers {
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(render_benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_is_the_rendered_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            render_benchmark_json(),
            "regenerate with: e2e --print-benchmark-json > BENCHMARK.json"
        );
    }
}
