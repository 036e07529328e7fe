//! Runs every workload at its smoke size, untraced and traced, and checks
//! the output format: every metric named in the benchmark prints with
//! its unit, every output check passes, and the last line is the JSON
//! summary.

use std::process::Command;

const WORKLOADS: [&str; 2] = ["data_plane", "control_plane"];

/// Runs the benchmark binary and returns (exit success, stdout).
fn run(workload: &str, trace: u8) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.01"])
        .args(["--trace", &trace.to_string(), "--size", "smoke"])
        .output()
        .expect("the benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("stdout is UTF-8"),
    )
}

/// The `(name, unit)` pairs a JSON summary line reports, in order.
fn json_metrics(line: &str) -> Vec<(String, String)> {
    let body = line
        .split_once("\"metrics\": {")
        .expect("summary has a metrics object")
        .1;
    body.split("}, ")
        .map(|entry| {
            let name = entry.split('"').nth(1).expect("metric name").to_string();
            let unit = entry
                .split("\"unit\": \"")
                .nth(1)
                .and_then(|u| u.split('"').next())
                .expect("metric unit")
                .to_string();
            (name, unit)
        })
        .collect()
}

/// Runs `workload` and checks that the summary reports exactly `expected`,
/// that every metric in `expected` and `log_only` has a log line with its
/// unit, and that every output check passed.
fn check(workload: &str, trace: u8, expected: &[(&str, &str)], log_only: &[(&str, &str)]) {
    let (ok, stdout) = run(workload, trace);
    assert!(ok, "{workload} trace={trace} failed:\n{stdout}");
    let lines: Vec<&str> = stdout.lines().collect();
    let last = lines.last().expect("output is not empty");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{workload}: bad summary {last}"
    );
    let reported = json_metrics(last);
    let expected: Vec<(String, String)> = expected
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(reported, expected, "{workload} trace={trace}");
    for (name, unit) in expected
        .iter()
        .map(|(n, u)| (n.as_str(), u.as_str()))
        .chain(log_only.iter().copied())
    {
        let prefix = format!("metric {name} ");
        let line = lines
            .iter()
            .find(|l| l.starts_with(&prefix))
            .unwrap_or_else(|| panic!("{workload}: no line for {name}"));
        assert!(line.contains(&format!("({unit}")), "{workload}: {line}");
    }
    for needed in ["ops ", "ops_failed ", "sim_digest "] {
        assert!(
            lines.iter().any(|l| l.starts_with(needed)),
            "{workload}: no `{needed}` line"
        );
    }
    assert!(lines.iter().any(|l| l.starts_with("check ")));
    assert!(
        !lines.iter().any(|l| l.contains(" FAILED ")),
        "{workload}: a check failed:\n{stdout}"
    );
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let expected = [
        ("run_s", "s"),
        ("sharded_run_s", "s"),
        ("setup_s", "s"),
        ("peak_rss_mb", "MB"),
        ("billed_usd_per_hr", "usd/hr"),
        ("kairos_over_homo", "ratio"),
    ];
    for workload in WORKLOADS {
        check(
            workload,
            0,
            &expected,
            &[("qos_violation_frac", "frac"), ("sim_p99_ms", "ms")],
        );
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric_when_traced() {
    let expected = [
        ("workload.trace_gen_s", "s"),
        ("sim.engine.build_s", "s"),
        ("sim.engine.events", "count"),
        ("sim.engine.ns_per_event", "ns"),
        ("sim.engine.sched_rounds", "count"),
        ("sim.engine.sched_s", "s"),
        ("sim.engine.sched_round_ns.p50", "ns"),
        ("sim.engine.sched_round_ns.p99", "ns"),
        ("sim.engine.dispatches", "count"),
        ("sim.engine.self_s", "s"),
        ("sim.flex.batches_fired", "count"),
        ("sim.flex.mean_fill", "queries"),
        ("sim.flex.mean_wait_us", "us"),
        ("sim.sharded.split_s", "s"),
        ("sim.sharded.lane_sum_s", "s"),
        ("sim.sharded.lane_max_s", "s"),
        ("sim.sharded.merge_s", "s"),
        ("sim.stats.metrics_s", "s"),
        ("sim.stats.records_mb", "MB"),
        ("sim.capacity.probes", "count"),
        ("sim.capacity.ramp_s.p50", "s"),
        ("sim.capacity.ramp_s.max", "s"),
        ("core.distribution.rounds", "count"),
        ("core.distribution.busy_s", "s"),
        ("core.distribution.round_us.p50", "us"),
        ("core.distribution.round_us.p99", "us"),
        ("core.distribution.queue_len.p50", "count"),
        ("core.distribution.queue_len.p99", "count"),
        ("core.planner.plan_ms.p50", "ms"),
        ("core.planner.plan_ms.max", "ms"),
        ("core.planner.ranked", "count"),
        ("core.service.setup_ms", "ms"),
        ("core.service.replans", "count"),
        ("core.service.reconfigs", "count"),
        ("core.service.plan_cache_hits", "count"),
        ("core.service.plan_cache_misses", "count"),
        ("trace_overhead_frac", "frac"),
    ];
    for workload in WORKLOADS {
        check(workload, 1, &expected, &[]);
    }
}
