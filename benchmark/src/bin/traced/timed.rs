//! The recording [`Probe`] and the [`TimedBackend`] it wraps around
//! whatever `serve_on` drives.
//!
//! `TimedBackend` is the only way to see inside a `serve_on` call from
//! outside the program: the serving loop talks to its executor through
//! the `Backend` trait, so a wrapper that times each mutating call gives
//! the serving layer's children, and the layer's self time is its span
//! minus those. The four mutating calls (`submit`, `check`, `sync`,
//! `advance_to`, plus `wait`) are timed; the getters the loop polls
//! every round (`capacity`, `now`, `observed_done`, `completion_time`)
//! pass through untimed — a clock read costs more than they do — and so
//! land in the serving layer's self time.

use pagoda::desim::EngineStats;
use pagoda::pagoda_core::TaskTrace;
use pagoda::pagoda_serve::ServeOutcome;
use pagoda::prelude::*;

use pagoda_benchmark::spans::Tracer;
use pagoda_benchmark::workloads::Probe;

/// Span names for one executor layer's backend calls.
pub struct BackendNames {
    pub submit: &'static str,
    pub check: &'static str,
    pub wait: &'static str,
    pub sync: &'static str,
    pub advance: &'static str,
}

/// A single runtime behind `serve_on`: the calls are `core`'s.
pub const CORE: BackendNames = BackendNames {
    submit: "core.submit",
    check: "core.check",
    wait: "core.wait",
    sync: "core.sync",
    advance: "core.advance",
};

/// A fleet behind `serve_on`: the calls are `cluster`'s.
pub const CLUSTER: BackendNames = BackendNames {
    submit: "cluster.submit",
    check: "cluster.check",
    wait: "cluster.wait",
    sync: "cluster.sync",
    advance: "cluster.advance",
};

/// The recording probe.
#[derive(Default)]
pub struct TraceProbe {
    /// The spans.
    pub tracer: Tracer,
    /// `submit` calls a timed backend answered with `Full`.
    pub submit_full: u64,
}

impl Probe for TraceProbe {
    const TRACED: bool = true;

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.tracer.span(name, f)
    }

    fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.tracer.call(name, f)
    }

    fn serve_on<B: Backend>(&mut self, cfg: &ServeConfig, backend: &mut B) -> ServeOutcome {
        let names = if backend.num_devices() > 1 {
            &CLUSTER
        } else {
            &CORE
        };
        let id = self.tracer.enter("serve.serve_on");
        let mut timed = TimedBackend {
            inner: backend,
            tracer: &mut self.tracer,
            submit_full: &mut self.submit_full,
            names,
        };
        let out = serve_on(cfg, &mut timed).expect("benchmark serve configs are valid");
        self.tracer.exit(id);
        out
    }
}

/// Times the mutating calls of the backend it wraps.
pub struct TimedBackend<'a, B: Backend> {
    inner: &'a mut B,
    tracer: &'a mut Tracer,
    submit_full: &'a mut u64,
    names: &'static BackendNames,
}

impl<B: Backend> Backend for TimedBackend<'_, B> {
    fn submit(&mut self, tenant: u32, desc: TaskDesc) -> Result<u64, SubmitError> {
        let inner = &mut *self.inner;
        let r = self
            .tracer
            .call(self.names.submit, || inner.submit(tenant, desc));
        if matches!(r, Err(SubmitError::Full(_))) {
            *self.submit_full += 1;
        }
        r
    }

    fn capacity(&self) -> Capacity {
        self.inner.capacity()
    }

    fn check(&mut self, key: u64) -> Result<bool, PagodaError> {
        let inner = &mut *self.inner;
        self.tracer.call(self.names.check, || inner.check(key))
    }

    fn wait(&mut self, key: u64) -> Result<SimTime, PagodaError> {
        let inner = &mut *self.inner;
        self.tracer.call(self.names.wait, || inner.wait(key))
    }

    fn observed_done(&self, key: u64) -> bool {
        self.inner.observed_done(key)
    }

    fn completion_time(&self, key: u64) -> Option<SimTime> {
        self.inner.completion_time(key)
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn advance_to(&mut self, t: SimTime) {
        let inner = &mut *self.inner;
        self.tracer.call(self.names.advance, || inner.advance_to(t));
    }

    fn sync(&mut self) {
        let inner = &mut *self.inner;
        self.tracer.call(self.names.sync, || inner.sync());
    }

    fn wait_timeout(&self) -> Dur {
        self.inner.wait_timeout()
    }

    fn warp_occupancy(&mut self) -> f64 {
        self.inner.warp_occupancy()
    }

    fn traces(&self) -> Vec<TaskTrace> {
        self.inner.traces()
    }

    fn attach_obs(&mut self, obs: Obs) {
        self.inner.attach_obs(obs);
    }

    fn engine_stats(&self) -> Vec<EngineStats> {
        self.inner.engine_stats()
    }

    fn num_devices(&self) -> u32 {
        self.inner.num_devices()
    }
}
