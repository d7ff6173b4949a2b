//! The exporter over an [`ObsBuffer`]: chrome://tracing JSON with task
//! spans grouped by tenant beside per-SMM, per-MTB and per-device
//! counter tracks, so the warp-granularity claims are visible against
//! the resources they free — plus [`check_json`], which its tests and
//! smokes validate output with.

use std::collections::BTreeMap;
use std::io::{self, Write};

use crate::events::TaskState;
use crate::recorder::ObsBuffer;
use crate::writer::{us, TraceEvents};

/// Human-readable phase label for the span *beginning* at `state`.
fn phase_name(state: TaskState) -> &'static str {
    match state {
        TaskState::Spawned => "spawn",
        TaskState::Enqueued => "queue",
        TaskState::Placed => "place",
        TaskState::Running => "run",
        TaskState::Freed => "freed",
    }
}

/// Writes `buf` as a chrome://tracing JSON object (open in
/// `chrome://tracing` or Perfetto).
///
/// Track layout:
/// * **pid 1 — "tasks"**: one thread track per tenant (tid = tenant id;
///   untagged tasks land on tid 0, a task tagged twice on its first
///   tenant) carrying `X` duration events for each lifecycle phase
///   (`spawn` → `queue` → `place` → `run`).
/// * **pid 2 — "SMM resources"**: one counter track per SMM (`C` events,
///   name `smm<N>`) with resident warps, free regs (in units of 1024),
///   free smem KiB, and free TB slots.
/// * **pid 3 — "MTB occupancy"**: one counter track per MTB (`C` events,
///   name `mtb<N>`) with free warp slots, free smem KiB, used entries.
/// * **pid 4 — "fleet devices"**: one counter track per simulated device
///   (`C` events, name `dev<N>`) with known-free TaskTable entries,
///   outstanding cluster tasks, and liveness (1/0).
///
/// Events are emitted one per line, sorted by timestamp, so every track
/// is monotone in `ts`.
pub fn write_chrome_trace<W: Write>(buf: &ObsBuffer, w: &mut W) -> io::Result<()> {
    // A task tagged twice keeps its first tenant, as a duplicate state
    // keeps its first instant below, and as `pagoda-prof` groups it.
    let mut tenant_of: BTreeMap<u64, u32> = BTreeMap::new();
    for t in &buf.tenants {
        tenant_of.entry(t.task).or_insert(t.tenant);
    }

    let mut events = TraceEvents::new();

    // Task phase spans: consecutive pairs of reached states.
    let mut timelines: BTreeMap<u64, [Option<u64>; 5]> = BTreeMap::new();
    for ev in &buf.tasks {
        let slot = &mut timelines.entry(ev.task).or_insert([None; 5])[ev.state as usize];
        if slot.is_none() {
            *slot = Some(ev.at_ps);
        }
    }
    for (task, tl) in &timelines {
        let tid = tenant_of.get(task).copied().unwrap_or(0);
        let mut prev: Option<(TaskState, u64)> = None;
        for state in TaskState::ALL {
            let Some(at) = tl[state as usize] else {
                continue;
            };
            if let Some((ps, pt)) = prev {
                events.push(
                    pt,
                    format!(
                        r#"{{"name":"{}","ph":"X","ts":{},"dur":{},"pid":1,"tid":{},"args":{{"task":{}}}}}"#,
                        phase_name(ps),
                        us(pt),
                        us(at.saturating_sub(pt)),
                        tid,
                        task
                    ),
                );
            }
            prev = Some((state, at));
        }
    }

    // Per-SMM resource counter tracks.
    for s in &buf.smm {
        events.push(
            s.at_ps,
            format!(
                r#"{{"name":"smm{}","ph":"C","ts":{},"pid":2,"tid":{},"args":{{"resident_warps":{},"running_warps":{},"free_regs_k":{},"free_smem_kib":{},"free_tb_slots":{}}}}}"#,
                s.sm,
                us(s.at_ps),
                s.sm,
                s.resident_warps,
                s.running_warps,
                s.free_regs / 1024,
                s.free_smem / 1024,
                s.free_tb_slots
            ),
        );
    }

    // Per-MTB occupancy counter tracks.
    for s in &buf.mtb {
        events.push(
            s.at_ps,
            format!(
                r#"{{"name":"mtb{}","ph":"C","ts":{},"pid":3,"tid":{},"args":{{"free_warp_slots":{},"free_smem_kib":{},"used_entries":{}}}}}"#,
                s.mtb,
                us(s.at_ps),
                s.mtb,
                s.free_warp_slots,
                s.free_smem / 1024,
                s.used_entries
            ),
        );
    }

    // Per-fleet-device counter tracks.
    for s in &buf.devices {
        events.push(
            s.at_ps,
            format!(
                r#"{{"name":"dev{}","ph":"C","ts":{},"pid":4,"tid":{},"args":{{"known_free":{},"outstanding":{},"alive":{}}}}}"#,
                s.device,
                us(s.at_ps),
                s.device,
                s.known_free,
                s.outstanding,
                u32::from(s.alive)
            ),
        );
    }

    events.write(
        w,
        &[
            (1, "tasks"),
            (2, "SMM resources"),
            (3, "MTB occupancy"),
            (4, "fleet devices"),
        ],
    )
}

/// Minimal JSON *syntax* validator. The vendored `serde_json` serializes
/// only (no parser), so exporter tests use this to assert outputs are
/// well-formed without an external dependency.
pub fn check_json(s: &str) -> Result<(), String> {
    struct P<'a> {
        b: &'a [u8],
        i: usize,
    }
    impl P<'_> {
        fn err(&self, msg: &str) -> String {
            format!("{msg} at byte {}", self.i)
        }
        fn skip_ws(&mut self) {
            while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.i += 1;
            }
        }
        fn value(&mut self) -> Result<(), String> {
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => self.string(),
                Some(b't') => self.lit("true"),
                Some(b'f') => self.lit("false"),
                Some(b'n') => self.lit("null"),
                Some(b'-' | b'0'..=b'9') => self.number(),
                _ => Err(self.err("expected value")),
            }
        }
        fn lit(&mut self, lit: &str) -> Result<(), String> {
            if self.b[self.i..].starts_with(lit.as_bytes()) {
                self.i += lit.len();
                Ok(())
            } else {
                Err(self.err("bad literal"))
            }
        }
        fn number(&mut self) -> Result<(), String> {
            let start = self.i;
            if self.b.get(self.i) == Some(&b'-') {
                self.i += 1;
            }
            while matches!(
                self.b.get(self.i),
                Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            ) {
                self.i += 1;
            }
            if self.i == start {
                Err(self.err("empty number"))
            } else {
                Ok(())
            }
        }
        fn string(&mut self) -> Result<(), String> {
            self.i += 1; // opening quote
            loop {
                match self.b.get(self.i) {
                    None => return Err(self.err("unterminated string")),
                    Some(b'"') => {
                        self.i += 1;
                        return Ok(());
                    }
                    Some(b'\\') => self.i += 2,
                    Some(_) => self.i += 1,
                }
            }
        }
        fn object(&mut self) -> Result<(), String> {
            self.i += 1; // {
            self.skip_ws();
            if self.b.get(self.i) == Some(&b'}') {
                self.i += 1;
                return Ok(());
            }
            loop {
                self.skip_ws();
                if self.b.get(self.i) != Some(&b'"') {
                    return Err(self.err("expected object key"));
                }
                self.string()?;
                self.skip_ws();
                if self.b.get(self.i) != Some(&b':') {
                    return Err(self.err("expected ':'"));
                }
                self.i += 1;
                self.value()?;
                self.skip_ws();
                match self.b.get(self.i) {
                    Some(b',') => self.i += 1,
                    Some(b'}') => {
                        self.i += 1;
                        return Ok(());
                    }
                    _ => return Err(self.err("expected ',' or '}'")),
                }
            }
        }
        fn array(&mut self) -> Result<(), String> {
            self.i += 1; // [
            self.skip_ws();
            if self.b.get(self.i) == Some(&b']') {
                self.i += 1;
                return Ok(());
            }
            loop {
                self.value()?;
                self.skip_ws();
                match self.b.get(self.i) {
                    Some(b',') => self.i += 1,
                    Some(b']') => {
                        self.i += 1;
                        return Ok(());
                    }
                    _ => return Err(self.err("expected ',' or ']'")),
                }
            }
        }
    }
    let mut p = P {
        b: s.as_bytes(),
        i: 0,
    };
    p.value()?;
    p.skip_ws();
    if p.i == p.b.len() {
        Ok(())
    } else {
        Err(p.err("trailing garbage"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Obs;
    use crate::{Counter, DeviceSample, SmmSample};

    fn sample_buffer() -> ObsBuffer {
        let (obs, rec) = Obs::recording();
        for task in 0..4u64 {
            let t0 = 1000 * task;
            obs.task(t0, task, TaskState::Spawned);
            obs.task(t0 + 100, task, TaskState::Enqueued);
            obs.task(t0 + 250, task, TaskState::Placed);
            obs.task(t0 + 300, task, TaskState::Running);
            obs.task(t0 + 900, task, TaskState::Freed);
            obs.tenant(task, (task % 2) as u32);
        }
        for i in 0..8u64 {
            obs.smm(SmmSample {
                at_ps: 500 * i,
                sm: (i % 2) as u32,
                resident_warps: 2 + i as u32,
                running_warps: 1 + i as u32,
                free_regs: 65_536 - 1024 * i,
                free_smem: 98_304 - 4096 * i,
                free_tb_slots: 32 - i as u32,
            });
        }
        for i in 0..4u64 {
            obs.device(DeviceSample {
                at_ps: 700 * i,
                device: (i % 2) as u32,
                known_free: 64 - i as u32,
                outstanding: i as u32,
                alive: i < 3,
            });
        }
        obs.count(Counter::PcieH2dTransactions, 12);
        rec.snapshot()
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let mut out = Vec::new();
        write_chrome_trace(&sample_buffer(), &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        check_json(&s).unwrap();
        assert!(s.contains("\"ph\":\"C\""), "no counter tracks: {s}");
        assert!(s.contains("\"ph\":\"X\""), "no span events: {s}");
        assert!(s.contains("\"name\":\"dev1\""), "no device tracks: {s}");
        assert!(s.contains("fleet devices"), "no fleet process name: {s}");
    }

    #[test]
    fn chrome_trace_ts_monotone_per_track() {
        let mut out = Vec::new();
        write_chrome_trace(&sample_buffer(), &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        // One event object per line; extract (name, ts) pairs per line.
        let mut last_ts: BTreeMap<String, f64> = BTreeMap::new();
        for line in s.lines().filter(|l| l.contains("\"ts\":")) {
            let name = line
                .split("\"name\":\"")
                .nth(1)
                .and_then(|r| r.split('"').next())
                .unwrap()
                .to_string();
            let ts: f64 = line
                .split("\"ts\":")
                .nth(1)
                .and_then(|r| r.split([',', '}']).next())
                .unwrap()
                .parse()
                .unwrap();
            if let Some(prev) = last_ts.get(&name) {
                assert!(ts >= *prev, "track {name} went backwards: {prev} -> {ts}");
            }
            last_ts.insert(name, ts);
        }
        assert!(!last_ts.is_empty());
    }

    #[test]
    fn check_json_rejects_garbage() {
        assert!(check_json("{\"a\":1}").is_ok());
        assert!(check_json("[1,2,3]").is_ok());
        assert!(check_json("{\"a\":}").is_err());
        assert!(check_json("[1,2,").is_err());
        assert!(check_json("{} trailing").is_err());
    }
}
