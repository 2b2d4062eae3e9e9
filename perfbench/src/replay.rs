//! Replays behind the data-plane and codec per-layer figures.
//!
//! After a traced pass, the hops of every probed route (as the route
//! walker found them in the final tables) run again through
//! `SoftSwitch::process_packet` on clones of those switches and
//! through `Topology::port_peer`; the envelopes the runtime decorator
//! captured run again through `SoftSwitch::handle_control` on fresh
//! switches and through the codec; a sample of the planned schedules
//! runs through `verify_schedule_incremental`, the verifier the
//! pipeline does not use. Each is timed as one loop, so the
//! clock is read twice per replay rather than per call.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use sdn_openflow::codec::{decode, encode};
use sdn_sim::world::World;
use sdn_switch::SoftSwitch;
use sdn_topo::graph::Topology;
use sdn_types::DpId;

use update_core::checker::verify_schedule_incremental;

use crate::pass::Sample;
use crate::trace::RuntimeTrace;
use crate::walk::Hop;

/// Replays repeat until they have run this long, so sub-microsecond
/// costs are read off a measurable total.
const MIN_REPLAY_NS: u128 = 20_000_000;

/// The replay figures.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replays {
    /// `process_packet` per hop.
    pub process_packet_ns_per_hop: f64,
    /// Rules in the table each replayed hop looked up, mean.
    pub table_rules_mean: f64,
    /// The largest such table.
    pub table_rules_max: f64,
    /// `port_peer` per hop.
    pub port_peer_ns_per_hop: f64,
    /// `handle_control` per controller → switch message.
    pub handle_control_ns_per_msg: f64,
    /// `encode` per message, both directions.
    pub encode_ns_per_msg: f64,
    /// `decode` per message, both directions.
    pub decode_ns_per_msg: f64,
    /// Encoded frame size, mean.
    pub bytes_per_msg: f64,
    /// `verify_schedule_incremental` on the sampled narrow schedules,
    /// microseconds per call.
    pub verify_incremental_narrow_us: f64,
    /// The same on the sampled wide schedules.
    pub verify_incremental_wide_us: f64,
}

/// Time `f` over `n` items, repeating until [`MIN_REPLAY_NS`] has
/// passed; nanoseconds per item.
fn per_item(n: usize, mut f: impl FnMut()) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let t0 = Instant::now();
    let mut reps = 0u64;
    while reps == 0 || t0.elapsed().as_nanos() < MIN_REPLAY_NS {
        f();
        reps += 1;
    }
    t0.elapsed().as_nanos() as f64 / (reps as f64 * n as f64)
}

/// Run every replay for one traced pass.
pub fn run(
    world: &World,
    topo: &Topology,
    hops: &[Hop],
    rt: &RuntimeTrace,
    samples: &[Sample],
) -> Replays {
    let mut r = Replays::default();

    // planning: the other verifier on the same schedules, for the
    // narrow/wide comparison against `core.verify.*`
    for narrow in [true, false] {
        let of_shape: Vec<&Sample> = samples.iter().filter(|s| s.narrow == narrow).collect();
        let us = per_item(of_shape.len(), || {
            for s in &of_shape {
                black_box(verify_schedule_incremental(&s.inst, &s.schedule, s.props));
            }
        }) / 1e3;
        if narrow {
            r.verify_incremental_narrow_us = us;
        } else {
            r.verify_incremental_wide_us = us;
        }
    }

    // data plane: clones of the final switches along the probed routes
    let mut clones: BTreeMap<DpId, SoftSwitch> = BTreeMap::new();
    for h in hops {
        if let Some(sw) = world.switch(h.dp) {
            clones.entry(h.dp).or_insert_with(|| sw.clone());
        }
    }
    r.process_packet_ns_per_hop = per_item(hops.len(), || {
        for h in hops {
            let sw = clones.get_mut(&h.dp).expect("cloned above");
            black_box(sw.process_packet(black_box(h.meta)));
        }
    });
    let rules: Vec<f64> = hops
        .iter()
        .map(|h| clones[&h.dp].table().len() as f64)
        .collect();
    if !rules.is_empty() {
        r.table_rules_mean = rules.iter().sum::<f64>() / rules.len() as f64;
        r.table_rules_max = rules.iter().copied().fold(0.0, f64::max);
    }
    r.port_peer_ns_per_hop = per_item(hops.len(), || {
        for h in hops {
            black_box(topo.port_peer(black_box(h.dp), black_box(h.out)));
        }
    });

    // control plane: the captured envelopes on fresh switches
    let fresh: BTreeMap<DpId, SoftSwitch> = rt
        .to_switch
        .iter()
        .map(|(dp, _)| (*dp, SoftSwitch::new(*dp, 64)))
        .collect();
    r.handle_control_ns_per_msg = if rt.to_switch.is_empty() {
        0.0
    } else {
        let mut ns = 0u128;
        let mut reps = 0u64;
        while ns < MIN_REPLAY_NS {
            // fresh switches and owned envelopes each time, made off the clock
            let mut sws = fresh.clone();
            let envs = rt.to_switch.clone();
            let t0 = Instant::now();
            for (dp, env) in envs {
                let sw = sws.get_mut(&dp).expect("one switch per destination");
                black_box(sw.handle_control(env));
            }
            ns += t0.elapsed().as_nanos();
            reps += 1;
        }
        ns as f64 / (reps as f64 * rt.to_switch.len() as f64)
    };

    let envs: Vec<&sdn_openflow::messages::Envelope> = rt
        .to_switch
        .iter()
        .map(|(_, e)| e)
        .chain(rt.from_switch.iter())
        .collect();
    let mut frames = Vec::with_capacity(envs.len());
    r.encode_ns_per_msg = per_item(envs.len(), || {
        frames.clear();
        for e in &envs {
            frames.push(black_box(encode(black_box(e))));
        }
    });
    if !frames.is_empty() {
        r.bytes_per_msg =
            frames.iter().map(|f| f.len()).sum::<usize>() as f64 / frames.len() as f64;
    }
    r.decode_ns_per_msg = per_item(frames.len(), || {
        for f in &frames {
            let _ = black_box(decode(black_box(f)));
        }
    });
    r
}
