//! Profile exporters: Prometheus text exposition and folded-stack
//! "time flamegraphs".
//!
//! Both formats are emitted with *integer picosecond* values only — no
//! float formatting — so identical reports (e.g. two same-seed runs)
//! serialize byte-identically, which the golden-file tests pin down.

use std::io::{self, Write};

use pagoda_obs::writer::escape_label;

use crate::phase::Phase;
use crate::report::ProfReport;

/// Writes `report` in Prometheus text exposition format (version 0.0.4).
///
/// Metrics:
/// * `pagoda_prof_tasks_total{group}` — completed tasks profiled;
/// * `pagoda_prof_phase_time_ps_total{group,phase}` — simulated time in
///   each phase;
/// * `pagoda_prof_sojourn_ps{group,quantile}` plus `_sum`/`_count` — the
///   sojourn distribution as a summary (quantiles are log-bucket lower
///   bounds, hence integers).
pub fn write_prometheus<W: Write>(report: &ProfReport, w: &mut W) -> io::Result<()> {
    writeln!(
        w,
        "# HELP pagoda_prof_tasks_total Completed tasks profiled."
    )?;
    writeln!(w, "# TYPE pagoda_prof_tasks_total counter")?;
    for g in &report.groups {
        writeln!(
            w,
            "pagoda_prof_tasks_total{{group=\"{}\"}} {}",
            escape_label(&g.label),
            g.tasks
        )?;
    }

    writeln!(
        w,
        "# HELP pagoda_prof_phase_time_ps_total Simulated picoseconds per critical-path phase."
    )?;
    writeln!(w, "# TYPE pagoda_prof_phase_time_ps_total counter")?;
    for g in &report.groups {
        for p in Phase::ALL {
            writeln!(
                w,
                "pagoda_prof_phase_time_ps_total{{group=\"{}\",phase=\"{}\"}} {}",
                escape_label(&g.label),
                p.name(),
                g.phase_total_ps(p)
            )?;
        }
    }

    writeln!(
        w,
        "# HELP pagoda_prof_sojourn_ps Task sojourn time (arrival to observed completion)."
    )?;
    writeln!(w, "# TYPE pagoda_prof_sojourn_ps summary")?;
    for g in &report.groups {
        let label = escape_label(&g.label);
        let (p50, p95, p99) = g.sojourn.p50_p95_p99();
        for (q, v) in [("0.5", p50), ("0.95", p95), ("0.99", p99)] {
            writeln!(
                w,
                "pagoda_prof_sojourn_ps{{group=\"{label}\",quantile=\"{q}\"}} {v}"
            )?;
        }
        writeln!(
            w,
            "pagoda_prof_sojourn_ps_sum{{group=\"{label}\"}} {}",
            g.sojourn.sum()
        )?;
        writeln!(
            w,
            "pagoda_prof_sojourn_ps_count{{group=\"{label}\"}} {}",
            g.sojourn.count()
        )?;
    }
    Ok(())
}

/// Writes `report` as folded stacks (`pagoda;<group>;<phase> <ps>`),
/// the input format of `flamegraph.pl` / `inferno` — one frame stack
/// per group×phase, weighted by total simulated time. Zero-weight
/// phases are omitted (they would render as nothing anyway).
pub fn write_folded<W: Write>(report: &ProfReport, w: &mut W) -> io::Result<()> {
    for g in &report.groups {
        let label = escape_label(&g.label);
        for p in Phase::ALL {
            let t = g.phase_total_ps(p);
            if t > 0 {
                writeln!(w, "pagoda;{label};{} {t}", p.name())?;
            }
        }
    }
    Ok(())
}

/// Minimal Prometheus text-format validator: every line is a comment
/// (`# ...`) or `name{labels} value` with a bare metric name, quoted
/// label values, and an integer value. Exporter tests and the ci smoke
/// use this to assert outputs parse without an external scrape library.
pub fn check_exposition(s: &str) -> Result<(), String> {
    fn is_name(n: &str) -> bool {
        !n.is_empty()
            && n.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    for (i, line) in s.lines().enumerate() {
        let at = |msg: &str| format!("{msg} on line {}: {line:?}", i + 1);
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (head, value) = line.rsplit_once(' ').ok_or_else(|| at("no sample value"))?;
        if value.parse::<u64>().is_err() {
            return Err(at("non-integer sample value"));
        }
        let name = match head.split_once('{') {
            None => head,
            Some((name, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| at("unclosed label set"))?;
                for pair in labels.split(',') {
                    let (k, v) = pair.split_once('=').ok_or_else(|| at("label without ="))?;
                    if !is_name(k) {
                        return Err(at("bad label name"));
                    }
                    if !(v.len() >= 2 && v.starts_with('"') && v.ends_with('"')) {
                        return Err(at("unquoted label value"));
                    }
                }
                name
            }
        };
        if !is_name(name) {
            return Err(at("bad metric name"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::TaskProf;
    use pagoda_obs::{MarkKind, TaskState};

    fn sample_report() -> ProfReport {
        let tasks: Vec<TaskProf> = (0..4u64)
            .map(|i| {
                let mut t = TaskProf::default();
                let t0 = i * 100;
                t.cuts.note_mark(MarkKind::Arrived, t0);
                t.cuts.note_state(TaskState::Spawned, t0 + 10);
                t.cuts.note_state(TaskState::Running, t0 + 40);
                t.cuts.note_state(TaskState::Freed, t0 + 90);
                t.tenant = Some((i % 2) as u32);
                t
            })
            .collect();
        ProfReport::aggregate(&tasks)
    }

    #[test]
    fn prometheus_output_parses_and_has_all_groups() {
        let mut out = Vec::new();
        write_prometheus(&sample_report(), &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        check_exposition(&s).unwrap();
        assert!(s.contains("pagoda_prof_tasks_total{group=\"total\"} 4"));
        assert!(s.contains("group=\"tenant/1\""));
        assert!(s.contains("phase=\"execution\""));
        assert!(s.contains("quantile=\"0.99\""));
    }

    #[test]
    fn folded_output_is_group_phase_weighted() {
        let mut out = Vec::new();
        write_folded(&sample_report(), &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        for line in s.lines() {
            let (stack, weight) = line.rsplit_once(' ').unwrap();
            assert_eq!(stack.split(';').count(), 3, "bad stack: {line}");
            assert!(weight.parse::<u64>().unwrap() > 0);
        }
        assert!(s.contains("pagoda;total;execution "));
        assert!(s.contains("pagoda;total;host_queue "));
        // Zero-width phases (no admitted mark -> admission is 0) are omitted.
        assert!(!s.contains(";admission "));
    }

    #[test]
    fn check_exposition_rejects_malformed_lines() {
        assert!(check_exposition("# comment\nm_x{a=\"b\"} 3\n").is_ok());
        assert!(check_exposition("m_x 42").is_ok());
        assert!(check_exposition("m_x{a=b} 3").is_err()); // unquoted
        assert!(check_exposition("m_x{a=\"b\"} x").is_err()); // non-numeric
        assert!(check_exposition("m_x{a=\"b\" 3").is_err()); // unclosed
        assert!(check_exposition("9bad{a=\"b\"} 3").is_err()); // bad name
        assert!(check_exposition("m_x{a=\"b\"} 3.5").is_err()); // float: we emit integers only
    }

    #[test]
    fn exports_are_deterministic() {
        let r = sample_report();
        let render = |r: &ProfReport| {
            let mut p = Vec::new();
            let mut f = Vec::new();
            write_prometheus(r, &mut p).unwrap();
            write_folded(r, &mut f).unwrap();
            (p, f)
        };
        assert_eq!(render(&r), render(&sample_report()));
    }
}
