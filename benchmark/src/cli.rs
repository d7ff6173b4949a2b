//! Command line, the result line, and the two `/proc` readings both
//! binaries share.

use crate::spec::{RUN_SECONDS, WORKLOADS};

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `--workload NAME`; `None` until given.
    pub workload: Option<String>,
    /// `--seed N` (default 42): every input derives from it.
    pub seed: u64,
    /// `--seconds S`: how long the timed region runs.
    pub seconds: f64,
    /// `--trace 0|1` (the launcher picks the binary from it).
    pub trace: bool,
    /// `--smoke`: inputs divided by 32, one rep.
    pub smoke: bool,
    /// `--selfcheck`: run the end-to-end set twice and compare.
    pub selfcheck: bool,
    /// `--print-benchmark-json`: print the contract file and exit.
    pub print_benchmark_json: bool,
}

/// Usage text.
pub const USAGE: &str = "usage: --workload <paper_fig5|serve_netmix|fleet_batch|fleet_serve> \
[--seed N] [--seconds S] [--trace 0|1] [--smoke] | --selfcheck [--seed N] [--seconds S] | \
--print-benchmark-json";

impl Args {
    /// Parses an argument list (without the program name).
    ///
    /// # Errors
    /// A message naming the offending argument.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            workload: None,
            seed: 42,
            seconds: RUN_SECONDS as f64,
            trace: false,
            smoke: false,
            selfcheck: false,
            print_benchmark_json: false,
        };
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
            match a.as_str() {
                "--workload" => {
                    let w = value("--workload")?;
                    if !WORKLOADS.iter().any(|k| k.name == w) {
                        return Err(format!("unknown workload {w}"));
                    }
                    out.workload = Some(w);
                }
                "--seed" => {
                    out.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?;
                }
                "--seconds" => {
                    out.seconds = value("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--trace" => {
                    out.trace = match value("--trace")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    };
                }
                "--smoke" => out.smoke = true,
                "--selfcheck" => out.selfcheck = true,
                "--print-benchmark-json" => out.print_benchmark_json = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(out)
    }

    /// Input divisor: 32 for `--smoke`, else 1.
    pub fn scale(&self) -> usize {
        if self.smoke {
            32
        } else {
            1
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Renders the result object the contract asks for as the last line of
/// standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Shortest decimal that round-trips the `f64` — "all its digits".
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "a metric must be a finite number, got {v}");
    format!("{v:?}")
}

/// Reads `"name": {"value": V` pairs back out of a [`result_line`] —
/// `--selfcheck` compares child runs with it.
pub fn parse_result_line(line: &str) -> Option<(bool, Vec<(String, f64)>)> {
    let correct = line.contains("\"correct\": true");
    let metrics = line.split_once("\"metrics\": {")?.1;
    let mut out = Vec::new();
    for part in metrics.split("\"}") {
        let Some((head, value)) = part.split_once("\": {\"value\": ") else {
            continue;
        };
        let name = head.rsplit_once('"')?.1;
        let number = value.split_once(',')?.0;
        out.push((name.to_string(), number.parse().ok()?));
    }
    Some((correct, out))
}

/// Peak resident set of this process, MB (`VmHWM`).
///
/// # Panics
/// Panics where `/proc/self/status` has no `VmHWM` line (the benchmark
/// runs on Linux only).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux /proc is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn driver_invocation_parses() {
        let a = parse("--workload fleet_batch --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("fleet_batch"));
        assert_eq!((a.seed, a.seconds, a.trace, a.smoke), (7, 3.0, true, false));
        assert_eq!(a.scale(), 1);
        assert_eq!(parse("--smoke").unwrap().scale(), 32);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--frobnicate").is_err());
    }

    #[test]
    fn result_line_round_trips() {
        let metrics = vec![
            Metric {
                name: "setup_s".into(),
                value: 0.8127,
                unit: "s",
            },
            Metric {
                name: "sim_p99_us".into(),
                value: 1_234.000_000_000_1,
                unit: "sim_us",
            },
        ];
        let line = result_line(true, 1000, 0, &metrics);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0"));
        let (correct, back) = parse_result_line(&line).unwrap();
        assert!(correct);
        assert_eq!(back.len(), 2);
        assert_eq!(back[0], ("setup_s".to_string(), 0.8127));
        assert_eq!(back[1].1.to_bits(), 1_234.000_000_000_1_f64.to_bits());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
