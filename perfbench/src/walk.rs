//! The route walker: follows the installed rules hop by hop and
//! reports the switches a packet would cross.
//!
//! It reads each table with [`FlowTable::peek`] (no hit counters move)
//! and resolves ports through its own [`PortMap`], built once from the
//! topology's link and host lists, so the check depends on neither the
//! simulator's forwarding loop nor `Topology::port_peer`.

use std::collections::BTreeMap;

use sdn_openflow::flow::{Action, PacketMeta};
use sdn_switch::flow_table::FlowTable;
use sdn_topo::graph::Topology;
use sdn_types::{DpId, HostId, PortNo};

/// What sits behind a switch port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Peer {
    /// A switch, entered through the given port.
    Switch(DpId, PortNo),
    /// A host.
    Host(HostId),
}

/// `(switch, port) → peer` for every wired port.
#[derive(Debug, Clone, Default)]
pub struct PortMap {
    peers: BTreeMap<(DpId, PortNo), Peer>,
    attach: BTreeMap<HostId, (DpId, PortNo)>,
}

impl PortMap {
    /// Index every link end and host attachment of `topo`.
    pub fn of(topo: &Topology) -> PortMap {
        let mut m = PortMap::default();
        for l in topo.links() {
            m.peers.insert((l.a, l.port_a), Peer::Switch(l.b, l.port_b));
            m.peers.insert((l.b, l.port_b), Peer::Switch(l.a, l.port_a));
        }
        for h in topo.hosts() {
            m.peers.insert((h.attached_to, h.port), Peer::Host(h.id));
            m.attach.insert(h.id, (h.attached_to, h.port));
        }
        m
    }

    /// The peer behind `port` of `dp`.
    pub fn peer(&self, dp: DpId, port: PortNo) -> Option<Peer> {
        self.peers.get(&(dp, port)).copied()
    }

    /// Where `host` is attached.
    pub fn attachment(&self, host: HostId) -> Option<(DpId, PortNo)> {
        self.attach.get(&host).copied()
    }
}

/// One forwarding step: the packet as it arrives at `dp`, and the port
/// the table sends it out of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// The switch.
    pub dp: DpId,
    /// The packet as it arrives.
    pub meta: PacketMeta,
    /// The egress port chosen.
    pub out: PortNo,
}

/// Walk a packet from `src` towards `dst` over the tables `table`
/// returns, for at most `max_hops` switches. Returns the hops taken
/// when the packet reaches `dst`, or why it did not.
pub fn walk<'a>(
    table: impl Fn(DpId) -> Option<&'a FlowTable>,
    ports: &PortMap,
    src: HostId,
    dst: HostId,
    max_hops: usize,
) -> Result<Vec<Hop>, String> {
    let (mut dp, in_port) = ports
        .attachment(src)
        .ok_or_else(|| format!("host {src} is not attached"))?;
    let mut meta = PacketMeta {
        in_port,
        src,
        dst,
        tag: None,
    };
    let mut hops = Vec::new();
    while hops.len() < max_hops {
        let t = table(dp).ok_or_else(|| format!("no switch {dp}"))?;
        let entry = t
            .peek(&meta)
            .ok_or_else(|| format!("table miss at {dp} for {dst}"))?;
        let arriving = meta;
        let mut out = None;
        for a in &entry.actions {
            match *a {
                Action::SetTag(tag) => meta.tag = Some(tag),
                Action::StripTag => meta.tag = None,
                Action::Output(p) => {
                    out = Some(p);
                    break;
                }
                Action::Drop | Action::ToController => {}
            }
        }
        let out = out.ok_or_else(|| format!("rule at {dp} outputs nothing"))?;
        hops.push(Hop {
            dp,
            meta: arriving,
            out,
        });
        match ports.peer(dp, out) {
            Some(Peer::Host(h)) if h == dst => return Ok(hops),
            Some(Peer::Host(h)) => return Err(format!("delivered to {h}, not {dst}")),
            Some(Peer::Switch(nb, nb_port)) => {
                dp = nb;
                meta.in_port = nb_port;
            }
            None => return Err(format!("{dp} port {out} is unwired")),
        }
    }
    Err(format!("no delivery within {max_hops} hops"))
}

/// Check that the tables deliver `src → dst` along exactly `route`.
pub fn check_route<'a>(
    table: impl Fn(DpId) -> Option<&'a FlowTable>,
    ports: &PortMap,
    src: HostId,
    dst: HostId,
    route: &[DpId],
) -> Result<Vec<Hop>, String> {
    let hops = walk(table, ports, src, dst, route.len() + 1)?;
    let path: Vec<DpId> = hops.iter().map(|h| h.dp).collect();
    if path != route {
        return Err(format!("walked {path:?}, expected {route:?}"));
    }
    Ok(hops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdn_ctrl::compile::{initial_flowmods, FlowSpec};
    use sdn_openflow::messages::{Envelope, OfMessage};
    use sdn_switch::SoftSwitch;
    use sdn_topo::gen;
    use sdn_types::Xid;

    /// Switches holding exactly the baseline rules of `route`.
    fn tables_for(
        topo: &Topology,
        route: &sdn_topo::route::RoutePath,
        spec: &FlowSpec,
    ) -> BTreeMap<DpId, SoftSwitch> {
        let mut sws: BTreeMap<DpId, SoftSwitch> = topo
            .switch_ids()
            .map(|dp| (dp, SoftSwitch::new(dp, 64)))
            .collect();
        for (dp, msg) in initial_flowmods(topo, route, spec).unwrap() {
            let _ = sws
                .get_mut(&dp)
                .unwrap()
                .handle_control(Envelope::new(Xid(1), msg));
        }
        sws
    }

    fn setup() -> (Topology, gen::UpdatePair, FlowSpec) {
        let pair = gen::reversal(6);
        let topo = gen::materialize_batch(std::slice::from_ref(&pair));
        let (src, dst) = gen::batch_hosts(0);
        (topo, pair, FlowSpec { src, dst })
    }

    #[test]
    fn accepts_tables_forwarding_along_the_new_route() {
        let (topo, pair, spec) = setup();
        let sws = tables_for(&topo, &pair.new, &spec);
        let ports = PortMap::of(&topo);
        let hops = check_route(
            |dp| sws.get(&dp).map(SoftSwitch::table),
            &ports,
            spec.src,
            spec.dst,
            pair.new.hops(),
        )
        .unwrap();
        assert_eq!(hops.len(), pair.new.len());
    }

    #[test]
    fn rejects_tables_still_forwarding_along_the_old_route() {
        let (topo, pair, spec) = setup();
        let sws = tables_for(&topo, &pair.old, &spec);
        let ports = PortMap::of(&topo);
        let err = check_route(
            |dp| sws.get(&dp).map(SoftSwitch::table),
            &ports,
            spec.src,
            spec.dst,
            pair.new.hops(),
        )
        .unwrap_err();
        assert!(err.starts_with("walked"), "{err}");
    }

    #[test]
    fn reports_a_blackhole_and_a_loop() {
        let (topo, pair, spec) = setup();
        let ports = PortMap::of(&topo);
        let empty: BTreeMap<DpId, SoftSwitch> = topo
            .switch_ids()
            .map(|dp| (dp, SoftSwitch::new(dp, 64)))
            .collect();
        let err = walk(
            |dp| empty.get(&dp).map(SoftSwitch::table),
            &ports,
            spec.src,
            spec.dst,
            16,
        )
        .unwrap_err();
        assert!(err.contains("table miss"), "{err}");

        // the old route sends 1 -> 2; a higher-priority rule sends 2 -> 1
        let mut looping = tables_for(&topo, &pair.old, &spec);
        let p21 = topo.egress_port(DpId(2), DpId(1)).unwrap();
        let rule = OfMessage::FlowMod(sdn_openflow::messages::FlowMod {
            command: sdn_openflow::messages::FlowModCommand::Add,
            priority: 100,
            matcher: sdn_openflow::flow::FlowMatch::dst_host(spec.dst),
            actions: vec![Action::Output(p21)],
            cookie: 9,
        });
        let _ = looping
            .get_mut(&DpId(2))
            .unwrap()
            .handle_control(Envelope::new(Xid(2), rule));
        let err = walk(
            |dp| looping.get(&dp).map(SoftSwitch::table),
            &ports,
            spec.src,
            spec.dst,
            16,
        )
        .unwrap_err();
        assert!(err.contains("no delivery"), "{err}");
    }
}
