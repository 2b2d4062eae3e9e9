//! One pass over a workload: set-up, the timed phase, and the checks.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::Instant;

use sdn_ctrl::compile::{compile_schedule, initial_flowmods, CompiledUpdate, FlowSpec};
use sdn_ctrl::runtime::{FabricCoordinator, RuntimeHandle, SubmitRequest};
use sdn_obs::{DumpReason, Obs};
use sdn_sim::report::SimReport;
use sdn_sim::world::World;
use sdn_switch::SoftSwitch;
use sdn_topo::gen::{self, UpdatePair};
use sdn_topo::graph::Topology;
use sdn_types::{SimDuration, SimTime};
use update_core::checker::verify_schedule;
use update_core::model::UpdateInstance;
use update_core::partition::ShardAssignment;
use update_core::properties::PropertySet;
use update_core::schedule::Schedule;

use crate::replay::{self, Replays};
use crate::stats::{median, percentile};
use crate::trace::{RuntimeTrace, Span, Timed};
use crate::walk::{self, Hop, PortMap};
use crate::workload::{Flow, Workload};
use crate::{alloc, m, Metric};

/// Far enough in virtual time that every workload drains before it.
const HORIZON: SimDuration = SimDuration::from_secs(3600);

/// Spans of the traced pass, taken around each layer's calls.
#[derive(Debug, Default)]
pub struct Layers {
    /// `UpdateScheduler::schedule`.
    pub schedule: Span,
    /// `verify_schedule` on narrow schedules (see [`narrow`]).
    pub verify_narrow: Span,
    /// `verify_schedule` on the rest.
    pub verify_wide: Span,
    /// `compile_schedule`.
    pub compile: Span,
    /// `World::run`.
    pub run: Span,
    /// The runtime decorator's view.
    pub runtime: RuntimeTrace,
    /// Replays on the captured traffic and final tables.
    pub replays: Replays,
    /// Events the observability sink recorded.
    pub obs_events: u64,
    /// Up to [`VERIFY_SAMPLES`] narrow and as many wide schedules,
    /// kept for the verifier comparison replay.
    pub samples: Vec<Sample>,
}

/// Schedules of each shape kept for the verifier comparison.
pub const VERIFY_SAMPLES: usize = 32;

/// One planned schedule, with what it was verified against.
#[derive(Debug)]
pub struct Sample {
    /// The instance.
    pub inst: UpdateInstance,
    /// Its schedule.
    pub schedule: Schedule,
    /// The properties it was verified against.
    pub props: PropertySet,
    /// Whether it is narrow (see [`narrow`]).
    pub narrow: bool,
}

/// What one pass measured.
#[derive(Debug)]
pub struct Pass {
    /// Updates attempted.
    pub attempted: u64,
    /// Updates that failed a check (or were never submitted).
    pub failed: u64,
    /// Updates that committed.
    pub committed: u64,
    /// Wall-clock set-up time.
    pub setup_s: f64,
    /// Wall-clock timed phase.
    pub timed_s: f64,
    /// Median submit → commit latency, virtual ms.
    pub commit_p50_ms: f64,
    /// p99 of the same.
    pub commit_p99_ms: f64,
    /// Control frames sent, both directions.
    pub msgs: u64,
    /// Rounds summed over every computed schedule.
    pub rounds: u64,
    /// Heap allocations in the timed phase.
    pub allocs: u64,
    /// Barrier retransmissions.
    pub retransmissions: u64,
    /// Journal records at the end.
    pub journal_records: u64,
    /// Switch hops taken by all probes.
    pub probe_hops: u64,
    /// What went wrong, one line per failed check.
    pub errors: Vec<String>,
    /// Per-layer spans (traced passes only).
    pub layers: Option<Layers>,
    /// The calibration kernel's time right after the pass (see
    /// [`crate::calibrate`]); set by the caller.
    pub calibration_s: f64,
}

impl Pass {
    /// Committed updates per second of the timed phase, scaled to the
    /// reference machine speed.
    pub fn scaled_rate(&self) -> f64 {
        self.committed as f64 / self.timed_s * self.calibration_s / crate::calibrate::REFERENCE_S
    }

    /// Set-up time, scaled to the reference machine speed.
    pub fn scaled_setup_s(&self) -> f64 {
        self.setup_s / self.calibration_s * crate::calibrate::REFERENCE_S
    }
}

/// The planning result of one flow.
struct Planned {
    rounds: usize,
    update: CompiledUpdate,
}

/// A narrow schedule averages fewer than two operations per round
/// (the one-switch rounds of `SlfGreedy` on a reversal); a wide one
/// touches many switches per round.
fn narrow(s: &Schedule) -> bool {
    s.op_count() < 2 * s.round_count()
}

/// Plan one flow: schedule, verify, compile. Spans are filled only on
/// traced passes.
fn plan(
    i: usize,
    f: &Flow,
    topo: &Topology,
    layers: &mut Option<Layers>,
) -> Result<Planned, String> {
    let inst = UpdateInstance::new(f.pair.old.clone(), f.pair.new.clone(), f.pair.waypoint)
        .map_err(|e| format!("update {i}: bad instance: {e}"))?;
    let schedule = timed(layers.as_mut().map(|l| &mut l.schedule), || {
        f.algo.schedule(&inst)
    })
    .map_err(|e| format!("update {i}: {:?} failed: {e}", f.algo))?;
    let props = f.algo.props();
    let shape = narrow(&schedule);
    let check = timed(
        layers.as_mut().map(|l| {
            if shape {
                &mut l.verify_narrow
            } else {
                &mut l.verify_wide
            }
        }),
        || verify_schedule(&inst, &schedule, props),
    );
    if !check.is_ok() {
        return Err(format!("update {i}: schedule fails verification: {check}"));
    }
    if let Some(l) = layers {
        if l.samples.iter().filter(|s| s.narrow == shape).count() < VERIFY_SAMPLES {
            l.samples.push(Sample {
                inst: inst.clone(),
                schedule: schedule.clone(),
                props,
                narrow: shape,
            });
        }
    }
    let spec = FlowSpec {
        src: f.src,
        dst: f.dst,
    };
    let mut update = timed(layers.as_mut().map(|l| &mut l.compile), || {
        compile_schedule(topo, &inst, &schedule, &spec)
    })
    .map_err(|e| format!("update {i}: compile failed: {e}"))?;
    // the index prefix maps the runtime's report back to its flow
    update.label = format!("{i}:{}", update.label);
    Ok(Planned {
        rounds: schedule.round_count(),
        update,
    })
}

/// Run `f`, inside `span` on traced passes.
fn timed<T>(span: Option<&mut Span>, f: impl FnOnce() -> T) -> T {
    match span {
        Some(s) => s.time(f),
        None => f(),
    }
}

/// Events the sink recorded, summed over every ring (ring contents
/// plus what each ring already evicted).
fn obs_events(obs: &Obs, rings: u32, at: SimTime) -> u64 {
    (0..=rings)
        .filter_map(|tag| obs.dump_shard(DumpReason::Violation, tag, at))
        .map(|json| {
            let dropped = json
                .split("\"dropped\":")
                .nth(1)
                .and_then(|s| s.split(',').next())
                .and_then(|s| s.parse::<u64>().ok())
                .unwrap_or(0);
            dropped + json.matches("{\"at_ns\"").count() as u64
        })
        .sum()
}

/// Run one pass of `w`. With `traced`, every layer call is timed and
/// the replays run after the checks.
pub fn run_pass(w: &Workload, traced: bool) -> Pass {
    let pairs: Vec<UpdatePair> = w.flows.iter().map(|f| f.pair.clone()).collect();
    let mut layers = traced.then(Layers::default);

    // --- set-up: topology, fabric, world, initial tables -------------
    let t_setup = Instant::now();
    let topo = gen::materialize_batch(&pairs);
    let fabric = match &w.pins {
        Some(pins) => FabricCoordinator::with_assignment(
            w.fabric.clone(),
            ShardAssignment::with_overrides(w.fabric.shards, pins.iter().copied()),
        ),
        None => FabricCoordinator::new(w.fabric.clone()),
    };
    let mut trace: Option<Rc<RefCell<RuntimeTrace>>> = None;
    let runtime: Box<dyn RuntimeHandle> = if traced {
        let (timed, t) = Timed::wrap(Box::new(fabric));
        trace = Some(t);
        Box::new(timed)
    } else {
        Box::new(fabric)
    };
    let obs = if w.obs {
        Obs::recording()
    } else {
        Obs::disabled()
    };
    let mut world = World::builder(topo.clone())
        .config(w.world)
        .runtime_handle(runtime)
        .obs(obs)
        .build();
    for f in &w.flows {
        let spec = FlowSpec {
            src: f.src,
            dst: f.dst,
        };
        let mods = initial_flowmods(&topo, &f.pair.old, &spec).expect("generated routes are wired");
        world.install_initial(&mods);
    }
    let setup_s = t_setup.elapsed().as_secs_f64();

    // --- timed phase: plan, submit, simulate to quiescence ------------
    let mut errors: Vec<String> = Vec::new();
    let mut rounds: Vec<Option<usize>> = vec![None; w.flows.len()];
    let mut bad: BTreeSet<usize> = BTreeSet::new();
    let a0 = alloc::count();
    let t0 = Instant::now();
    for (i, f) in w.flows.iter().enumerate() {
        // probes are planned first: on a stepped workload their first
        // injection, at the arrival, is the event that brings the
        // world's clock to exactly the arrival before the submit
        if f.probes > 0 {
            world.set_waypoint(f.pair.waypoint);
            world.plan_injection(f.src, f.dst, f.probe_every, f.probes, f.at);
        }
        if w.stepped {
            // the step's report is dropped inside the span: building and
            // freeing it is the world's cost
            timed(layers.as_mut().map(|l| &mut l.run), || {
                drop(world.run(f.at))
            });
            if world.now() != f.at {
                errors.push(format!(
                    "update {i}: submitted at {:?}, arrives at {:?}",
                    world.now(),
                    f.at
                ));
                bad.insert(i);
            }
        }
        match plan(i, f, &topo, &mut layers) {
            Ok(p) => match world.submit(SubmitRequest::new(p.update)) {
                Ok(_) => rounds[i] = Some(p.rounds),
                Err(e) => errors.push(format!("update {i}: refused: {e:?}")),
            },
            Err(e) => errors.push(e),
        }
    }
    let report: SimReport = timed(layers.as_mut().map(|l| &mut l.run), || {
        world.run(SimTime::ZERO + HORIZON)
    });
    let timed_s = t0.elapsed().as_secs_f64();
    let allocs = alloc::count() - a0;

    // --- checks ---------------------------------------------------------
    bad.extend(
        rounds
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_none())
            .map(|(i, _)| i),
    );
    let mut latencies: Vec<f64> = Vec::with_capacity(w.flows.len());
    let mut seen = vec![false; w.flows.len()];
    for r in &report.updates {
        let Some(i) = r
            .label
            .split(':')
            .next()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&i| i < w.flows.len())
        else {
            errors.push(format!("report for an unknown update: {}", r.label));
            continue;
        };
        if std::mem::replace(&mut seen[i], true) {
            errors.push(format!("update {i}: reported twice"));
            bad.insert(i);
            continue;
        }
        match r.latency() {
            Some(l) if r.failure.is_none() => latencies.push(l.as_millis_f64()),
            _ => {
                errors.push(format!("update {i}: did not commit: {:?}", r.failure));
                bad.insert(i);
            }
        }
        if rounds[i].is_some_and(|n| n != r.rounds.len()) {
            errors.push(format!(
                "update {i}: executed {} rounds, schedule has {:?}",
                r.rounds.len(),
                rounds[i]
            ));
            bad.insert(i);
        }
    }
    for (i, f) in w.flows.iter().enumerate() {
        if rounds[i].is_some() && !seen[i] {
            errors.push(format!("update {i}: never reported"));
            bad.insert(i);
        }
        if let (Some(want), Some(got)) = (f.expect_rounds, rounds[i]) {
            if want != got {
                errors.push(format!(
                    "update {i}: SlfGreedy gave {got} rounds, want {want}"
                ));
                bad.insert(i);
            }
        }
    }
    let ports = PortMap::of(&topo);
    let mut probed_hops: Vec<Hop> = Vec::new();
    for (i, f) in w.flows.iter().enumerate() {
        match walk::check_route(
            |dp| world.switch(dp).map(SoftSwitch::table),
            &ports,
            f.src,
            f.dst,
            f.pair.new.hops(),
        ) {
            Ok(hops) if f.probes > 0 => probed_hops.extend(hops),
            Ok(_) => {}
            Err(e) => {
                errors.push(format!("update {i}: {e}"));
                bad.insert(i);
            }
        }
    }
    // whole-world checks: a failure here fails every update of the pass
    let v = report.violations;
    let mut global: Vec<String> = Vec::new();
    if v.any() || v.delivered != v.total {
        global.push(format!("probe violations: {v}"));
    }
    let probes: u64 = w.flows.iter().map(|f| f.probes).sum();
    if v.total != probes {
        global.push(format!("{} probes injected, {probes} planned", v.total));
    }
    let audit = world.audit();
    if !audit.is_clean() {
        global.push(format!("audit: {audit}"));
    }
    if !world.runtime().is_idle() {
        global.push("runtime not idle after the run".into());
    }
    if report.decode_errors > 0 {
        global.push(format!(
            "{} control frames failed to decode",
            report.decode_errors
        ));
    }
    let stats = world.runtime().stats();
    if stats.rejected > 0 || stats.failed > 0 {
        global.push(format!(
            "runtime refused {} and failed {} updates",
            stats.rejected, stats.failed
        ));
    }
    if !global.is_empty() {
        bad.extend(0..w.flows.len());
        errors.extend(global);
    }

    if let Some(l) = layers.as_mut() {
        let t = trace.take().expect("traced pass has a decorator");
        l.runtime = std::mem::take(&mut *t.borrow_mut());
        l.replays = replay::run(&world, &topo, &probed_hops, &l.runtime, &l.samples);
        l.obs_events = obs_events(world.obs(), w.fabric.shards, world.now());
    }

    Pass {
        attempted: w.flows.len() as u64,
        failed: bad.len() as u64,
        committed: latencies.len() as u64,
        setup_s,
        timed_s,
        commit_p50_ms: percentile(&latencies, 50.0).unwrap_or(0.0),
        commit_p99_ms: percentile(&latencies, 99.0).unwrap_or(0.0),
        msgs: report.channel.sent,
        rounds: rounds.iter().flatten().map(|&r| r as u64).sum(),
        allocs,
        retransmissions: stats.retransmissions,
        journal_records: world.status().journal_len as u64,
        probe_hops: report.packets.iter().map(|p| p.path.len() as u64).sum(),
        errors,
        layers,
        calibration_s: 0.0,
    }
}

/// Per-layer metrics of a traced run: every figure comes from the
/// traced pass with the median timed phase, so its layer times and
/// the unattributed remainder add up to that pass's timed phase.
/// The overhead compares median timed phases, traced against plain,
/// in units of the calibration kernel.
pub fn per_layer(plain: &[Pass], traced: &[Pass]) -> Vec<Metric> {
    let mut order: Vec<&Pass> = traced.iter().collect();
    order.sort_by(|a, b| a.timed_s.total_cmp(&b.timed_s));
    let p = order[(order.len() - 1) / 2];
    let l = p.layers.as_ref().expect("traced pass");
    let per_update = |x: u64| x as f64 / p.committed.max(1) as f64;
    let rt = &l.runtime;
    let timed_ms = p.timed_s * 1e3;
    let runtime_ms = rt.total_ns() as f64 / 1e6;
    let capture_ms = rt.capture.ms();
    let sim_self_ms = l.run.ns.saturating_sub(rt.in_run_ns() + rt.capture.ns) as f64 / 1e6;
    let verify_ms = l.verify_narrow.ms() + l.verify_wide.ms();
    let unattributed_ms = timed_ms
        - l.schedule.ms()
        - verify_ms
        - l.compile.ms()
        - runtime_ms
        - sim_self_ms
        - capture_ms;
    // timed phases in units of the calibration kernel, so a drift in
    // machine speed between passes does not read as overhead
    let med = |xs: &[Pass]| {
        median(
            &xs.iter()
                .map(|p| p.timed_s / p.calibration_s)
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0)
    };
    let overhead_pct = (med(traced) / med(plain) - 1.0) * 100.0;
    let r = &l.replays;
    vec![
        m("core.schedule.us_per_call", l.schedule.us_per_call(), "us"),
        m("core.schedule.ms", l.schedule.ms(), "ms"),
        m(
            "core.verify.narrow.us_per_call",
            l.verify_narrow.us_per_call(),
            "us",
        ),
        m(
            "core.verify.narrow.calls",
            l.verify_narrow.calls as f64,
            "count",
        ),
        m(
            "core.verify.wide.us_per_call",
            l.verify_wide.us_per_call(),
            "us",
        ),
        m(
            "core.verify.wide.calls",
            l.verify_wide.calls as f64,
            "count",
        ),
        m("core.verify.ms", verify_ms, "ms"),
        m(
            "core.verify_incremental.narrow.us_per_call",
            r.verify_incremental_narrow_us,
            "us",
        ),
        m(
            "core.verify_incremental.wide.us_per_call",
            r.verify_incremental_wide_us,
            "us",
        ),
        m("ctrl.compile.us_per_call", l.compile.us_per_call(), "us"),
        m("ctrl.compile.ms", l.compile.ms(), "ms"),
        m("ctrl.runtime.submit.calls", rt.submit.calls as f64, "count"),
        m(
            "ctrl.runtime.submit.us_per_call",
            rt.submit.us_per_call(),
            "us",
        ),
        m("ctrl.runtime.poll.calls", rt.poll.calls as f64, "count"),
        m("ctrl.runtime.poll.us_per_call", rt.poll.us_per_call(), "us"),
        m(
            "ctrl.runtime.on_message.calls",
            rt.on_message.calls as f64,
            "count",
        ),
        m(
            "ctrl.runtime.on_message.us_per_call",
            rt.on_message.us_per_call(),
            "us",
        ),
        m("ctrl.runtime.ms", runtime_ms, "ms"),
        m(
            "ctrl.runtime.allocs_per_update",
            per_update(rt.submit.allocs + rt.poll.allocs + rt.on_message.allocs),
            "count",
        ),
        m(
            "ctrl.runtime.retransmissions",
            p.retransmissions as f64,
            "count",
        ),
        m("ctrl.journal.records", p.journal_records as f64, "count"),
        m("obs.events", l.obs_events as f64, "count"),
        m("sim.world.self_ms", sim_self_ms, "ms"),
        m("sim.world.run_calls", l.run.calls as f64, "count"),
        m("sim.world.probe_hops", p.probe_hops as f64, "count"),
        m(
            "sim.world.allocs_per_update",
            per_update(l.run.allocs.saturating_sub(rt.in_run_allocs())),
            "count",
        ),
        m(
            "switch.process_packet.ns_per_hop",
            r.process_packet_ns_per_hop,
            "ns",
        ),
        m("switch.table_rules.mean", r.table_rules_mean, "count"),
        m("switch.table_rules.max", r.table_rules_max, "count"),
        m("topo.port_peer.ns_per_hop", r.port_peer_ns_per_hop, "ns"),
        m(
            "switch.handle_control.ns_per_msg",
            r.handle_control_ns_per_msg,
            "ns",
        ),
        m("openflow.encode.ns_per_msg", r.encode_ns_per_msg, "ns"),
        m("openflow.decode.ns_per_msg", r.decode_ns_per_msg, "ns"),
        m("openflow.bytes_per_msg", r.bytes_per_msg, "count"),
        m("trace.timed_ms", timed_ms, "ms"),
        m("trace.capture_ms", capture_ms, "ms"),
        m("trace.unattributed_ms", unattributed_ms, "ms"),
        m("trace.overhead_pct", overhead_pct, "%"),
        m(
            "trace.raw_updates_per_s",
            median(
                &plain
                    .iter()
                    .map(|p| p.committed as f64 / p.timed_s)
                    .collect::<Vec<_>>(),
            )
            .unwrap_or(0.0),
            "1/s",
        ),
        m(
            "trace.calibration_ms",
            median(
                &plain
                    .iter()
                    .map(|p| p.calibration_s * 1e3)
                    .collect::<Vec<_>>(),
            )
            .unwrap_or(0.0),
            "ms",
        ),
    ]
}
