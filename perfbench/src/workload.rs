//! The three workloads: inputs generated from the seed, plus the
//! controller and world configuration each one runs under.
//!
//! The program sees only what is generated here (route pairs, arrival
//! times, probe plans); nothing in the stack is told which workload it
//! is running.

use std::collections::BTreeMap;

use sdn_channel::config::ChannelConfig;
use sdn_ctrl::executor::ExecConfig;
use sdn_ctrl::runtime::{FabricConfig, RuntimeConfig};
use sdn_sim::world::WorldConfig;
use sdn_topo::gen::{self, UpdatePair};
use sdn_types::{DetRng, DpId, HostId, SimDuration, SimTime};
use update_core::algorithms::{Peacock, SchedulerError, SlfGreedy, UpdateScheduler, WayUp};
use update_core::model::UpdateInstance;
use update_core::properties::PropertySet;
use update_core::schedule::Schedule;

/// The scheduler a flow is planned with (and the property set its
/// schedule is verified against).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Strong loop freedom, one switch per round on reversals.
    SlfGreedy,
    /// Relaxed loop freedom in few wide rounds.
    Peacock,
    /// Waypoint enforcement plus relaxed loop freedom.
    WayUp,
}

impl Algo {
    /// Plan `inst` with this scheduler at its default settings.
    pub fn schedule(self, inst: &UpdateInstance) -> Result<Schedule, SchedulerError> {
        match self {
            Algo::SlfGreedy => SlfGreedy::default().schedule(inst),
            Algo::Peacock => Peacock::default().schedule(inst),
            Algo::WayUp => WayUp::default().schedule(inst),
        }
    }

    /// The properties this scheduler's schedules must satisfy.
    pub fn props(self) -> PropertySet {
        match self {
            Algo::SlfGreedy => PropertySet::loop_free_strong(),
            Algo::Peacock => PropertySet::loop_free_relaxed(),
            Algo::WayUp => PropertySet::transiently_secure(),
        }
    }
}

/// One update of the workload.
#[derive(Debug, Clone)]
pub struct Flow {
    /// Old and new route, optional waypoint.
    pub pair: UpdatePair,
    /// How the update is planned.
    pub algo: Algo,
    /// Source host of the flow.
    pub src: HostId,
    /// Destination host of the flow.
    pub dst: HostId,
    /// Virtual submission time.
    pub at: SimTime,
    /// Probes injected along the flow from `at` on.
    pub probes: u64,
    /// Spacing of those probes.
    pub probe_every: SimDuration,
    /// For reversals planned with `SlfGreedy`: the round count the
    /// method must give (n − 2).
    pub expect_rounds: Option<usize>,
}

/// A workload: its flows and the stack configuration.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// Updates, in submission order.
    pub flows: Vec<Flow>,
    /// Fabric configuration (shard count, queues, journal).
    pub fabric: FabricConfig,
    /// Per-switch shard pins; `None` keeps the modulo assignment.
    pub pins: Option<Vec<(DpId, u32)>>,
    /// World configuration (channel, hop budget, seed).
    pub world: WorldConfig,
    /// Attach a recording observability sink.
    pub obs: bool,
    /// Step the world to each arrival before submitting it (open
    /// loop); otherwise submit everything at t = 0 and run once.
    pub stepped: bool,
}

/// Names accepted by [`generate`].
pub const NAMES: [&str; 3] = ["fabric_stream", "probe_burst", "long_routes"];

/// fabric_stream: updates in the stream.
pub const STREAM_UPDATES: usize = 1500;
/// fabric_stream: mean Poisson arrival rate, updates per virtual second.
pub const STREAM_RATE: f64 = 100.0;
/// fabric_stream: control-channel drop probability.
pub const STREAM_LOSS: f64 = 0.01;
/// probe_burst: updates in the batch.
pub const BURST_UPDATES: usize = 1024;
/// probe_burst: probes per flow, and their spacing.
pub const BURST_PROBES: u64 = 150;
/// probe_burst: probe spacing in microseconds.
pub const BURST_PROBE_US: u64 = 40_000;
/// long_routes: lanes (disjoint switch sets) and flows per lane.
pub const LANES: usize = 250;
/// long_routes: flows sharing one lane's route pair.
pub const FLOWS_PER_LANE: usize = 4;
/// long_routes: switches on a narrow (reversal) lane.
pub const NARROW_LEN: u64 = 64;
/// long_routes: switches on a wide (permutation, waypointed) lane.
pub const WIDE_LEN: u64 = 48;

/// Generate workload `name` from `seed`. `None` for unknown names.
pub fn generate(name: &str, seed: u64) -> Option<Workload> {
    let rng = DetRng::new(seed);
    match name {
        "fabric_stream" => Some(fabric_stream(rng.derive("fabric_stream", 0), seed)),
        "probe_burst" => Some(probe_burst(rng.derive("probe_burst", 0), seed)),
        "long_routes" => Some(long_routes(rng.derive("long_routes", 0), seed)),
        _ => None,
    }
}

fn fat_tree_algo(pair: &UpdatePair) -> Algo {
    if pair.waypoint.is_some() {
        Algo::WayUp
    } else {
        Algo::Peacock
    }
}

fn fabric_stream(mut rng: DetRng, seed: u64) -> Workload {
    let pairs = gen::fat_tree_flows(16, STREAM_UPDATES, &mut rng);
    let mut at = SimTime::ZERO;
    let flows = pairs
        .into_iter()
        .enumerate()
        .map(|(i, pair)| {
            at += SimDuration::from_millis_f64(rng.exponential(1e3 / STREAM_RATE));
            let (src, dst) = gen::batch_hosts(i);
            Flow {
                algo: fat_tree_algo(&pair),
                pair,
                src,
                dst,
                at,
                probes: 4,
                probe_every: SimDuration::from_millis(3),
                expect_rounds: None,
            }
        })
        .collect();
    let runtime = RuntimeConfig {
        exec: ExecConfig {
            flowmod_acks: true,
            ..ExecConfig::default()
        },
        ..RuntimeConfig::default()
    };
    Workload {
        name: "fabric_stream",
        flows,
        fabric: FabricConfig {
            runtime,
            journal: true,
            ..FabricConfig::default()
        },
        pins: None,
        world: WorldConfig {
            channel: ChannelConfig::lossy(STREAM_LOSS),
            seed,
            ..WorldConfig::default()
        },
        obs: true,
        stepped: true,
    }
}

fn probe_burst(mut rng: DetRng, seed: u64) -> Workload {
    let pairs = gen::fat_tree_flows(8, BURST_UPDATES, &mut rng);
    let flows = pairs
        .into_iter()
        .enumerate()
        .map(|(i, pair)| {
            let (src, dst) = gen::batch_hosts(i);
            Flow {
                algo: fat_tree_algo(&pair),
                pair,
                src,
                dst,
                at: SimTime::ZERO,
                probes: BURST_PROBES,
                probe_every: SimDuration::from_micros(BURST_PROBE_US),
                expect_rounds: None,
            }
        })
        .collect();
    Workload {
        name: "probe_burst",
        flows,
        fabric: FabricConfig {
            shards: 1,
            runtime: RuntimeConfig {
                queue_capacity: BURST_UPDATES,
                ..RuntimeConfig::default()
            },
            ..FabricConfig::default()
        },
        pins: None,
        world: WorldConfig {
            channel: ChannelConfig::lan(),
            seed,
            ..WorldConfig::default()
        },
        obs: false,
        stepped: false,
    }
}

fn long_routes(mut rng: DetRng, seed: u64) -> Workload {
    let shards = FabricConfig::default().shards;
    let mut flows = Vec::with_capacity(LANES * FLOWS_PER_LANE);
    let mut pins: BTreeMap<DpId, u32> = BTreeMap::new();
    let mut offset = 0;
    for lane in 0..LANES {
        let (pair, algo, n) = match lane % 3 {
            0 => (gen::reversal(NARROW_LEN), Algo::SlfGreedy, NARROW_LEN),
            1 => (
                gen::random_permutation(WIDE_LEN, &mut rng),
                Algo::Peacock,
                WIDE_LEN,
            ),
            _ => (
                gen::waypointed(WIDE_LEN, false, &mut rng),
                Algo::WayUp,
                WIDE_LEN,
            ),
        };
        let pair = gen::shift(&pair, offset);
        offset += n;
        let shard = (lane as u32) % shards;
        for &dp in pair.old.hops() {
            pins.insert(dp, shard);
        }
        for k in 0..FLOWS_PER_LANE {
            let (src, dst) = gen::batch_hosts(flows.len());
            flows.push(Flow {
                pair: pair.clone(),
                algo,
                src,
                dst,
                at: SimTime::ZERO,
                // one probed flow per lane, crossing it twice
                probes: if k == 0 { 2 } else { 0 },
                probe_every: SimDuration::from_millis(40),
                expect_rounds: (algo == Algo::SlfGreedy).then_some(n as usize - 2),
            });
        }
    }
    Workload {
        name: "long_routes",
        flows,
        fabric: FabricConfig {
            runtime: RuntimeConfig {
                queue_capacity: LANES * FLOWS_PER_LANE,
                ..RuntimeConfig::default()
            },
            ..FabricConfig::default()
        },
        pins: Some(pins.into_iter().collect()),
        world: WorldConfig {
            channel: ChannelConfig::lan(),
            max_hops: NARROW_LEN.max(WIDE_LEN) as usize + 16,
            seed,
            ..WorldConfig::default()
        },
        obs: false,
        stepped: false,
    }
}
