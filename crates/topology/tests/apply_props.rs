//! Randomized `Network::apply` streams.
//!
//! Each case builds a network (grid, unit disk or complete graph; universe
//! 3, 8 or 70, so multi-word bitsets are covered; uniform or per-channel
//! propagation) and applies a stream of events of all six kinds, including
//! redundant no-ops, self-loop `EdgeAdd`s and out-of-range events. After
//! every event the network keeps its storage invariants and equals a
//! `Network::new` rebuild of its own topology and availability; a rejected
//! event leaves it equal to its prior state. At the end it serializes to
//! the rebuild's wire JSON.

use mmhew_obs::json;
use mmhew_spectrum::{ChannelId, ChannelSet};
use mmhew_topology::{generators, Network, NetworkEvent, NodeId, Propagation, Topology};
use mmhew_util::{check, SeedTree, Xoshiro256StarStar};
use rand::Rng;

const GRAPHS: [&str; 3] = ["grid", "unit_disk", "complete"];
const UNIVERSES: [u16; 3] = [3, 8, 70];
const EVENTS: usize = 240;

fn rebuilt(net: &Network) -> Network {
    let avail: Vec<ChannelSet> = (0..net.node_count())
        .map(|i| net.available(NodeId::new(i as u32)).to_owned())
        .collect();
    Network::new(
        net.topology().clone(),
        net.universe_size(),
        avail,
        net.propagation().clone(),
    )
    .expect("the applied state stays valid")
}

/// A random subset of the universe, of random density.
fn channel_set(g: &mut Xoshiro256StarStar, universe: u16) -> ChannelSet {
    let p = g.gen_range(0.1..0.9);
    (0..universe).filter(|_| g.gen_bool(p)).collect()
}

fn graph(g: &mut Xoshiro256StarStar, kind: &str) -> Topology {
    match kind {
        "grid" => generators::grid(g.gen_range(2..5), g.gen_range(2..5)),
        "unit_disk" => generators::unit_disk(
            g.gen_range(4..16),
            5.0,
            1.0,
            SeedTree::new(g.gen_range(0..u64::MAX)),
        ),
        _ => generators::complete(g.gen_range(2..8)),
    }
}

fn node(g: &mut Xoshiro256StarStar, n: usize) -> NodeId {
    NodeId::new(g.gen_range(0..n as u32))
}

/// One event; `true` when it references a node or channel out of range
/// and must be rejected.
fn event(g: &mut Xoshiro256StarStar, net: &Network) -> (NetworkEvent, bool) {
    let n = net.node_count();
    let universe = net.universe_size();
    let u = node(g, n);
    let ev = match g.gen_range(0..12u32) {
        0 => NetworkEvent::NodeJoin {
            node: u,
            position: (g.gen_range(0.0..5.0), g.gen_range(0.0..5.0)),
            available: channel_set(g, universe),
        },
        1 => NetworkEvent::NodeLeave { node: u },
        2..=5 => NetworkEvent::EdgeAdd {
            from: node(g, n),
            to: u,
        },
        // A self-loop, which the topology ignores.
        6 => NetworkEvent::EdgeAdd { from: u, to: u },
        7 => {
            // Mostly an existing edge; sometimes an absent one (a no-op).
            let heard = net.topology().in_neighbors(u);
            let from = if !heard.is_empty() && g.gen_bool(0.7) {
                heard[g.gen_range(0..heard.len())]
            } else {
                node(g, n)
            };
            NetworkEvent::EdgeRemove { from, to: u }
        }
        8 | 9 => NetworkEvent::ChannelGained {
            node: u,
            channel: ChannelId::new(g.gen_range(0..universe)),
        },
        10 => NetworkEvent::ChannelLost {
            node: u,
            channel: ChannelId::new(g.gen_range(0..universe)),
        },
        _ => return (out_of_range(g, n, universe), true),
    };
    (ev, false)
}

fn out_of_range(g: &mut Xoshiro256StarStar, n: usize, universe: u16) -> NetworkEvent {
    let far = NodeId::new(n as u32 + g.gen_range(0..3));
    let near = node(g, n);
    let wide = ChannelId::new(universe + g.gen_range(0..3));
    match g.gen_range(0..7u32) {
        0 => NetworkEvent::NodeLeave { node: far },
        1 => NetworkEvent::EdgeAdd {
            from: near,
            to: far,
        },
        2 => NetworkEvent::EdgeRemove {
            from: far,
            to: near,
        },
        3 => NetworkEvent::ChannelGained {
            node: near,
            channel: wide,
        },
        4 => NetworkEvent::ChannelLost {
            node: far,
            channel: ChannelId::new(0),
        },
        5 => NetworkEvent::NodeJoin {
            node: near,
            position: (0.0, 0.0),
            available: [0, wide.index()].into_iter().collect(),
        },
        _ => NetworkEvent::NodeJoin {
            node: far,
            position: (0.0, 0.0),
            available: ChannelSet::new(),
        },
    }
}

/// Every graph × universe × propagation combination, one case each, with a
/// fresh stream per case.
#[test]
fn apply_streams_keep_invariants_and_match_a_rebuild() {
    let mut case = 0usize;
    check::run((GRAPHS.len() * UNIVERSES.len() * 2) as u32, |g| {
        let kind = GRAPHS[case % 3];
        let universe = UNIVERSES[case / 3 % 3];
        let per_channel = case / 9 == 1;
        case += 1;
        let topo = graph(g, kind);
        let avail = (0..topo.node_count())
            .map(|_| channel_set(g, universe))
            .collect();
        let propagation = if per_channel {
            Propagation::PerChannelRange {
                ranges: (0..universe).map(|_| g.gen_range(0.5..4.0)).collect(),
            }
        } else {
            Propagation::Uniform
        };
        let mut net = Network::new(topo, universe, avail, propagation).expect("valid network");
        net.check_invariants().expect("a built network is sound");
        for i in 0..EVENTS {
            let (ev, rejected) = event(g, &net);
            let before = net.clone();
            let result = net.apply(&ev);
            if rejected {
                assert!(result.is_err(), "event {i} {ev:?} was accepted");
                assert_eq!(net, before, "rejected event {i} {ev:?} changed the network");
            } else {
                result.unwrap_or_else(|e| panic!("event {i} {ev:?} failed: {e}"));
            }
            net.check_invariants()
                .unwrap_or_else(|e| panic!("{kind}, S={universe}: after event {i} {ev:?}: {e}"));
            assert_eq!(
                net,
                rebuilt(&net),
                "{kind}, S={universe}: after event {i} {ev:?}"
            );
        }
        assert_eq!(
            json::to_string(&net).expect("serialize"),
            json::to_string(&rebuilt(&net)).expect("serialize"),
            "{kind}, S={universe}: wire bytes"
        );
    });
}
