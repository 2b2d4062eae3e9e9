//! Tracing for the per-layer run: a timing [`RuntimeHandle`] decorator
//! and the span accumulators the traced pass fills in.
//!
//! Every span is taken from the benchmark's own code around a call
//! into a layer's public function; the program itself is unchanged.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use sdn_ctrl::controller::{CtrlOutput, UpdateReport};
use sdn_ctrl::runtime::{RuntimeHandle, RuntimeStats, StatusReport, SubmitOutcome, SubmitRequest};
use sdn_obs::Obs;
use sdn_openflow::messages::{Envelope, OfMessage};
use sdn_types::{DpId, SimTime};

use crate::alloc;

/// Calls, wall time and allocations inside one kind of call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    /// Calls made.
    pub calls: u64,
    /// Nanoseconds spent inside them.
    pub ns: u64,
    /// Heap allocations made inside them.
    pub allocs: u64,
}

impl Span {
    /// Run `f`, adding its time and allocations to this span.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let a0 = alloc::count();
        let t0 = Instant::now();
        let out = f();
        self.ns += t0.elapsed().as_nanos() as u64;
        self.allocs += alloc::count() - a0;
        self.calls += 1;
        out
    }

    /// Mean microseconds per call (0 when never called).
    pub fn us_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / 1e3 / self.calls as f64
        }
    }

    /// Total milliseconds.
    pub fn ms(&self) -> f64 {
        self.ns as f64 / 1e6
    }
}

/// Envelopes kept for the codec and switch replays (bounded so a long
/// run holds a fixed amount of memory).
pub const CAPTURE_CAP: usize = 200_000;

/// What the decorator saw.
#[derive(Debug, Default)]
pub struct RuntimeTrace {
    /// `submit_request` calls.
    pub submit: Span,
    /// `poll` calls.
    pub poll: Span,
    /// `on_message` calls.
    pub on_message: Span,
    /// The decorator's own copying of envelopes (tracing overhead,
    /// kept out of the runtime's and the world's time).
    pub capture: Span,
    /// Controller → switch envelopes, in send order.
    pub to_switch: Vec<(DpId, Envelope)>,
    /// Switch → controller envelopes, in arrival order.
    pub from_switch: Vec<Envelope>,
}

impl RuntimeTrace {
    /// Time inside the runtime across all three entry points.
    pub fn total_ns(&self) -> u64 {
        self.submit.ns + self.poll.ns + self.on_message.ns
    }

    /// Time inside `poll` and `on_message`, the calls the world makes
    /// from within `World::run`.
    pub fn in_run_ns(&self) -> u64 {
        self.poll.ns + self.on_message.ns
    }

    /// Allocations inside `poll` and `on_message`.
    pub fn in_run_allocs(&self) -> u64 {
        self.poll.allocs + self.on_message.allocs
    }

    /// Keep copies of the envelopes of one call, up to [`CAPTURE_CAP`]
    /// each way.
    fn record(&mut self, outs: &[CtrlOutput], arrived: Option<&Envelope>) {
        let RuntimeTrace {
            capture,
            to_switch,
            from_switch,
            ..
        } = self;
        capture.time(|| {
            if let Some(env) = arrived.filter(|_| from_switch.len() < CAPTURE_CAP) {
                from_switch.push(env.clone());
            }
            for CtrlOutput::Send(dp, env) in outs {
                if to_switch.len() < CAPTURE_CAP {
                    to_switch.push((*dp, env.clone()));
                }
            }
        });
    }
}

/// A [`RuntimeHandle`] that times the three hot entry points of the
/// runtime it wraps and records the envelopes crossing it. Every other
/// method forwards unchanged.
pub struct Timed {
    inner: Box<dyn RuntimeHandle>,
    trace: Rc<RefCell<RuntimeTrace>>,
}

impl Timed {
    /// Wrap `inner`; the returned handle reads the trace afterwards.
    pub fn wrap(inner: Box<dyn RuntimeHandle>) -> (Timed, Rc<RefCell<RuntimeTrace>>) {
        let trace = Rc::new(RefCell::new(RuntimeTrace::default()));
        (
            Timed {
                inner,
                trace: Rc::clone(&trace),
            },
            trace,
        )
    }
}

impl RuntimeHandle for Timed {
    fn submit_request(&mut self, req: SubmitRequest, now: SimTime) -> SubmitOutcome {
        let inner = &mut self.inner;
        self.trace
            .borrow_mut()
            .submit
            .time(|| inner.submit_request(req, now))
    }

    fn poll(&mut self, now: SimTime) -> Vec<CtrlOutput> {
        let inner = &mut self.inner;
        let mut t = self.trace.borrow_mut();
        let outs = t.poll.time(|| inner.poll(now));
        t.record(&outs, None);
        outs
    }

    fn on_message(&mut self, now: SimTime, from: DpId, env: &Envelope) -> Vec<CtrlOutput> {
        let inner = &mut self.inner;
        let mut t = self.trace.borrow_mut();
        let outs = t.on_message.time(|| inner.on_message(now, from, env));
        t.record(&outs, Some(env));
        outs
    }

    fn is_idle(&self) -> bool {
        self.inner.is_idle()
    }

    fn reports(&self) -> &[UpdateReport] {
        self.inner.reports()
    }

    fn queued(&self) -> usize {
        self.inner.queued()
    }

    fn active_count(&self) -> usize {
        self.inner.active_count()
    }

    fn stats(&self) -> RuntimeStats {
        self.inner.stats()
    }

    fn status_report(&self) -> StatusReport {
        self.inner.status_report()
    }

    fn on_disconnect(&mut self, dp: DpId, now: SimTime) {
        self.inner.on_disconnect(dp, now)
    }

    fn on_reconnect(&mut self, dp: DpId, now: SimTime) -> Vec<CtrlOutput> {
        self.inner.on_reconnect(dp, now)
    }

    fn note_installed(&mut self, dp: DpId, msg: &OfMessage) {
        self.inner.note_installed(dp, msg)
    }

    fn intended_hashes(&self, dp: DpId) -> Option<Vec<u64>> {
        self.inner.intended_hashes(dp)
    }

    fn recover_from_crash(&mut self, now: SimTime) -> bool {
        self.inner.recover_from_crash(now)
    }

    fn attach_obs(&mut self, obs: Obs) {
        self.inner.attach_obs(obs)
    }

    fn begin_seat_migration(&mut self, dp: DpId, to: u32, now: SimTime) -> bool {
        self.inner.begin_seat_migration(dp, to, now)
    }
}
