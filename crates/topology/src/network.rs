//! The complete M²HeW network: communication graph ⊗ channel availability.
//!
//! A [`Network`] is the ground truth a simulation runs against: who can
//! hear whom on which channel, and therefore exactly which `(neighbor,
//! common channels)` pairs a correct neighbor-discovery run must output.
//! It also computes the paper's complexity parameters `S`, `Δ` and `ρ`.
//!
//! # Memory layout
//!
//! Per-channel adjacency is stored as two-level CSR (`ChannelCsr`): one
//! flat `Vec<NodeId>` of ids per direction, carved into one block per node,
//! plus `N·(S+1)` offsets, so `neighbors_on(u, c)` / `receivers_on(v, c)`
//! are O(1) slice carves with no pointer chasing. Availability lives in a
//! flat [`AvailabilityArena`] (one `u64` allocation for all nodes), and
//! [`Network::available`] returns a borrowed [`ChannelSetRef`] view. The
//! read surface is bundled as [`TopologyView`](crate::TopologyView)
//! ([`Network::view`]). A dynamics event rewrites only the blocks of the
//! receivers it touches and of the transmitters they hear, so its cost
//! follows the event's neighbourhood, not the network; steady-state churn
//! allocates nothing (the engine's churn allocation audit).

use crate::event::NetworkEvent;
use crate::graph::Topology;
use crate::node::NodeId;
use mmhew_spectrum::{AvailabilityArena, ChannelId, ChannelSet, ChannelSetRef};
use serde::ser::SerializeStruct;
use serde::{Deserialize, Serialize, Serializer};
use std::fmt;

/// Per-channel propagation behaviour.
///
/// The paper's base model assumes all channels propagate identically, so a
/// link operating on one common channel operates on all of them
/// (`Uniform`). The diverse-propagation extension (conclusion item (c),
/// experiment E14) gives each channel its own maximum range.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Propagation {
    /// All channels have identical propagation: `span(u,v) = A(u) ∩ A(v)`.
    Uniform,
    /// Channel `c` only carries a link whose endpoints are within
    /// `ranges[c]` of each other (higher frequencies die sooner).
    PerChannelRange {
        /// Max link distance per channel, indexed by channel.
        ranges: Vec<f64>,
    },
}

/// Errors constructing a [`Network`].
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkError {
    /// The universe has no channels.
    EmptyUniverse,
    /// One availability set per node is required.
    AvailabilityCount {
        /// Sets provided.
        provided: usize,
        /// Nodes in the topology.
        nodes: usize,
    },
    /// An availability set references a channel outside the universe.
    ChannelOutOfUniverse {
        /// Offending node.
        node: NodeId,
        /// Offending channel.
        channel: ChannelId,
    },
    /// Per-channel propagation needs one range per universe channel.
    PropagationCount {
        /// Ranges provided.
        provided: usize,
        /// Universe size.
        universe: u16,
    },
    /// A dynamics event references a node outside the fixed node universe.
    NodeOutOfRange {
        /// Offending node.
        node: NodeId,
        /// Nodes in the network.
        nodes: usize,
    },
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::EmptyUniverse => write!(f, "universe has no channels"),
            NetworkError::AvailabilityCount { provided, nodes } => {
                write!(f, "{provided} availability sets for {nodes} nodes")
            }
            NetworkError::ChannelOutOfUniverse { node, channel } => {
                write!(f, "node {node} lists {channel} outside the universe")
            }
            NetworkError::PropagationCount { provided, universe } => {
                write!(f, "{provided} propagation ranges for {universe} channels")
            }
            NetworkError::NodeOutOfRange { node, nodes } => {
                write!(f, "event references {node} in a {nodes}-node network")
            }
        }
    }
}

impl std::error::Error for NetworkError {}

/// The span of the directed link `from → to`: the channels common to
/// `A(from)` and `A(to)` that propagation admits at their distance (which
/// only per-channel ranges need).
fn span_channels<'a>(
    topology: &'a Topology,
    availability: &'a AvailabilityArena,
    propagation: &'a Propagation,
    from: NodeId,
    to: NodeId,
) -> impl Iterator<Item = ChannelId> + 'a {
    let reach = match propagation {
        Propagation::Uniform => None,
        Propagation::PerChannelRange { ranges } => Some((ranges, topology.distance(from, to))),
    };
    availability
        .get(from.as_usize())
        .iter_common(availability.get(to.as_usize()))
        .filter(move |c| reach.is_none_or(|(ranges, d)| d <= ranges[c.index() as usize]))
}

/// The distinct ids of `ids`, ascending, into `out`.
fn distinct(ids: &[NodeId], out: &mut Vec<NodeId>) {
    out.clear();
    out.extend_from_slice(ids);
    out.sort_unstable();
    out.dedup();
}

/// Walks two ascending, distinct id lists and calls `f` on every id that
/// is in exactly one of them.
fn diff_sorted(old: &[NodeId], new: &[NodeId], mut f: impl FnMut(NodeId)) {
    let (mut i, mut j) = (0, 0);
    while i < old.len() || j < new.len() {
        if j == new.len() || (i < old.len() && old[i] < new[j]) {
            f(old[i]);
            i += 1;
        } else if i == old.len() || new[j] < old[i] {
            f(new[j]);
            j += 1;
        } else {
            i += 1;
            j += 1;
        }
    }
}

/// A directed discovery obligation: receiver `to` must learn about
/// transmitter `from` (the paper's link `(from, to)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Link {
    /// Transmitting endpoint.
    pub from: NodeId,
    /// Receiving endpoint (the node that must make the discovery).
    pub to: NodeId,
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}→{})", self.from, self.to)
    }
}

/// Two-level compressed-sparse-row adjacency: for each `(node, channel)`
/// cell, a contiguous slice of a single flat id vector. Each node owns one
/// block of that vector holding its `S` rows back to back, then headroom.
///
/// ```text
/// starts: [ s(0,0) … s(0,S-1) e(0) │ s(1,0) … e(1) │ … │ s(N-1,0) … e(N-1) ]   N·(S+1)
/// caps:   [ cap(0) cap(1) … cap(N-1) ]                                        N
/// ids:    [ block(1) ░ │ block(0) ░░ │ dead │ … ]     block(u) = ids[s(u,0) ..][.. cap(u)]
/// row(u,c) = ids[starts[u·(S+1) + c] .. starts[u·(S+1) + c + 1]]
/// ```
///
/// Building packs the blocks tight, in node order, with no headroom. An
/// update rewrites a node's block in place when its rows fit the
/// capacity; otherwise the block moves to the tail of `ids` with
/// [`with_headroom`] room and its old space turns dead. Once dead space
/// exceeds live space, [`compact`](Self::compact) repacks every block, in
/// node order, keeping its capacity.
///
/// Row contents preserve the deterministic construction order (topology
/// neighbor-list order for the receiver-centric direction, ascending
/// receiver index for the transmitter-centric mirror), so CSR carves are
/// byte-identical to the nested `Vec<Vec<Vec<NodeId>>>` they replaced.
/// Equality is row-wise: block placement and headroom are not identity.
#[derive(Debug, Clone)]
struct ChannelCsr {
    universe: usize,
    /// `u32` offsets, `S + 1` per node (a network is rejected by
    /// construction well before 2³² adjacency entries).
    starts: Vec<u32>,
    /// Block capacity per node.
    caps: Vec<u32>,
    ids: Vec<NodeId>,
    /// Entries of `ids` that no block owns: space left by relocations.
    dead: usize,
}

/// The capacity a block gets when it outgrows its old one: half again its
/// width plus a few entries, so a node whose degree creeps up one link at
/// a time relocates O(log degree) times.
fn with_headroom(width: usize) -> usize {
    width + width / 2 + 4
}

/// Converts an `ids` position to a `u32` offset.
fn offset(pos: usize) -> u32 {
    u32::try_from(pos).expect("adjacency exceeds u32 CSR offsets")
}

impl ChannelCsr {
    /// An empty CSR with room for `nodes` packed blocks.
    fn with_nodes(universe: usize, nodes: usize) -> Self {
        Self {
            universe,
            starts: Vec::with_capacity(nodes * (universe + 1)),
            caps: Vec::with_capacity(nodes),
            ids: Vec::new(),
            dead: 0,
        }
    }

    fn node_count(&self) -> usize {
        self.caps.len()
    }

    #[inline]
    fn row(&self, node: usize, c: usize) -> &[NodeId] {
        let i = node * (self.universe + 1) + c;
        &self.ids[self.starts[i] as usize..self.starts[i + 1] as usize]
    }

    /// All of a node's rows, back to back in channel order.
    fn rows(&self, node: usize) -> &[NodeId] {
        let b = node * (self.universe + 1);
        &self.ids[self.starts[b] as usize..self.starts[b + self.universe] as usize]
    }

    /// Appends the next node's block, packed tight, from its rows in
    /// channel order.
    fn push_block<'r>(&mut self, rows: impl IntoIterator<Item = &'r [NodeId]>) {
        let start = self.ids.len();
        self.starts.push(offset(start));
        for row in rows {
            self.ids.extend_from_slice(row);
            self.starts.push(offset(self.ids.len()));
        }
        self.caps.push(offset(self.ids.len() - start));
    }

    /// The maximum row length across all `(node, channel)` cells.
    fn max_row_len(&self) -> usize {
        (0..self.node_count())
            .flat_map(|u| (0..self.universe).map(move |c| (u, c)))
            .map(|(u, c)| self.row(u, c).len())
            .max()
            .unwrap_or(0)
    }

    /// Rebuilds the nested `[node][channel] -> Vec` shape (the wire
    /// format). Allocates; serialization only.
    fn to_nested(&self) -> Vec<Vec<Vec<NodeId>>> {
        (0..self.node_count())
            .map(|u| {
                (0..self.universe)
                    .map(|c| self.row(u, c).to_vec())
                    .collect()
            })
            .collect()
    }

    /// Packs the nested wire shape into CSR, preserving row order.
    fn from_nested(nested: &[Vec<Vec<NodeId>>], universe: u16) -> Self {
        let mut csr = Self::with_nodes(universe as usize, nested.len());
        for node in nested {
            debug_assert_eq!(node.len(), universe as usize);
            csr.push_block(node.iter().map(Vec::as_slice));
        }
        csr
    }

    /// The transmitter-centric mirror by counting sort, packed tight:
    /// visiting rows in `(u asc, c asc)` order leaves every mirrored row
    /// ascending in `u` — the canonical `receivers_on` ordering.
    fn invert(&self) -> ChannelCsr {
        let n = self.node_count();
        let s = self.universe;
        let stride = s + 1;
        // Count row (v, c)'s entries into its end offset, then prefix-sum.
        let mut starts = vec![0u32; n * stride];
        for u in 0..n {
            for c in 0..s {
                for &v in self.row(u, c) {
                    starts[v.as_usize() * stride + c + 1] += 1;
                }
            }
        }
        let mut caps = Vec::with_capacity(n);
        let mut acc = 0u32;
        for b in (0..n).map(|v| v * stride) {
            starts[b] = acc;
            for c in 0..s {
                acc += starts[b + c + 1];
                starts[b + c + 1] = acc;
            }
            caps.push(acc - starts[b]);
        }
        let mut cursor = starts.clone();
        let mut ids = vec![NodeId::new(0); acc as usize];
        for u in 0..n {
            for c in 0..s {
                for &v in self.row(u, c) {
                    let k = v.as_usize() * stride + c;
                    ids[cursor[k] as usize] = NodeId::new(u as u32);
                    cursor[k] += 1;
                }
            }
        }
        ChannelCsr {
            universe: s,
            starts,
            caps,
            ids,
            dead: 0,
        }
    }

    /// Replaces a node's rows with `block.rows` (`block.widths[c]` ids for
    /// channel `c`, in channel order): in place when they fit the node's
    /// block, else in a fresh block with headroom at the tail of `ids`.
    /// Compacts through `spare` once dead space exceeds live space.
    fn write_block(&mut self, node: usize, block: &StagedBlock, spare: &mut Vec<NodeId>) {
        let b = node * (self.universe + 1);
        let width = block.rows.len();
        let mut start = self.starts[b] as usize;
        if width > self.caps[node] as usize {
            self.dead += self.caps[node] as usize;
            start = self.ids.len();
            let cap = with_headroom(width);
            self.ids.resize(start + cap, NodeId::new(0));
            self.caps[node] = offset(cap);
        }
        self.ids[start..start + width].copy_from_slice(&block.rows);
        let mut end = offset(start);
        self.starts[b] = end;
        for (c, &w) in block.widths.iter().enumerate() {
            end += w;
            self.starts[b + c + 1] = end;
        }
        if self.dead > self.ids.len() - self.dead {
            self.compact(spare);
        }
    }

    /// Repacks every block, in node order and at its current capacity,
    /// into `spare`, then swaps `spare` live: dead space drops to zero and
    /// the old id vector becomes the next compaction's target.
    fn compact(&mut self, spare: &mut Vec<NodeId>) {
        let stride = self.universe + 1;
        spare.clear();
        for (u, &cap) in self.caps.iter().enumerate() {
            let offsets = &mut self.starts[u * stride..(u + 1) * stride];
            let old = offsets[0];
            let new = offset(spare.len());
            spare.extend_from_slice(&self.ids[old as usize..old as usize + cap as usize]);
            for o in offsets {
                *o = *o - old + new;
            }
        }
        std::mem::swap(&mut self.ids, spare);
        self.dead = 0;
    }

    /// The block rules: every row lies inside its node's block, no two
    /// blocks overlap, and live plus dead space is the whole id vector.
    fn check_blocks(&self) -> Result<(), String> {
        let (n, s) = (self.node_count(), self.universe);
        if self.starts.len() != n * (s + 1) {
            return Err(format!(
                "{} offsets for {n} nodes × {} per node",
                self.starts.len(),
                s + 1
            ));
        }
        let mut blocks = Vec::with_capacity(n);
        for u in 0..n {
            let b = u * (s + 1);
            let (start, cap) = (self.starts[b] as usize, self.caps[u] as usize);
            if start + cap > self.ids.len() {
                return Err(format!(
                    "n{u}: block {start}..{} runs past the {}-entry id vector",
                    start + cap,
                    self.ids.len()
                ));
            }
            for c in 0..s {
                let (lo, hi) = (self.starts[b + c] as usize, self.starts[b + c + 1] as usize);
                if lo > hi || hi > start + cap {
                    return Err(format!(
                        "row (n{u}, ch{c}) = {lo}..{hi} lies outside block {start}..{}",
                        start + cap
                    ));
                }
            }
            if cap > 0 {
                blocks.push((start, cap, u));
            }
        }
        blocks.sort_unstable();
        for w in blocks.windows(2) {
            let ((a, a_cap, a_node), (b, _, b_node)) = (w[0], w[1]);
            if a + a_cap > b {
                return Err(format!("blocks of n{a_node} and n{b_node} overlap at {b}"));
            }
        }
        let live: usize = self.caps.iter().map(|&c| c as usize).sum();
        if live + self.dead != self.ids.len() {
            return Err(format!(
                "{live} live + {} dead entries ≠ {} ids",
                self.dead,
                self.ids.len()
            ));
        }
        Ok(())
    }
}

impl PartialEq for ChannelCsr {
    fn eq(&self, other: &Self) -> bool {
        self.universe == other.universe
            && self.node_count() == other.node_count()
            && (0..self.node_count())
                .all(|u| (0..self.universe).all(|c| self.row(u, c) == other.row(u, c)))
    }
}

/// One node's recomputed rows: `rows` holds `widths[c]` ids per channel
/// `c`, in channel order.
#[derive(Debug, Clone, Default)]
struct StagedBlock {
    widths: Vec<u32>,
    /// Per-channel fill cursors into `rows`; once staged, row ends.
    cursors: Vec<u32>,
    /// `(channel, peer)` in staging order, before the fill.
    pairs: Vec<(ChannelId, NodeId)>,
    rows: Vec<NodeId>,
}

impl StagedBlock {
    /// The span of `rows` holding channel `c`'s row.
    fn row_range(&self, c: usize) -> std::ops::Range<usize> {
        let end = self.cursors[c] as usize;
        end - self.widths[c] as usize..end
    }
}

/// Persistent scratch for [`Network::apply`]. Every buffer is sized by one
/// event's neighbourhood (a node's degree times `S`) except `spare`, the
/// compaction target, and all of them survive between events, so a steady
/// stream of dynamics events performs zero heap allocation once they have
/// grown (asserted by the engine's churn allocation audit).
#[derive(Debug, Clone, Default)]
struct ApplyScratch {
    /// Receivers whose rows the event may change, sorted + deduped.
    touched: Vec<NodeId>,
    /// The block being rewritten.
    block: StagedBlock,
    /// Sorted distinct ids of one touched receiver's old and new rows (of
    /// one channel, or of the whole block).
    old_row: Vec<NodeId>,
    new_row: Vec<NodeId>,
    /// Sources that joined or left some row of one touched receiver.
    changed: Vec<NodeId>,
    /// All such sources of the event: the only transmitters whose mirror
    /// blocks it can change.
    transmitters: Vec<NodeId>,
    /// One transmitter's out-neighbours, ascending.
    peers: Vec<NodeId>,
    /// Compaction target, swapped with whichever CSR compacts.
    spare: Vec<NodeId>,
}

/// An M²HeW network: topology, universe, per-node availability, and
/// propagation — plus precomputed per-channel adjacency and the paper's
/// parameters.
///
/// # Examples
///
/// ```
/// use mmhew_topology::{generators, Network, Propagation};
/// use mmhew_spectrum::ChannelSet;
///
/// // Two nodes sharing channel 1 only.
/// let topo = generators::line(2);
/// let avail = vec![
///     [0u16, 1].into_iter().collect::<ChannelSet>(),
///     [1u16, 2].into_iter().collect(),
/// ];
/// let net = Network::new(topo, 3, avail, Propagation::Uniform)?;
/// assert_eq!(net.s_max(), 2);
/// assert_eq!(net.max_degree(), 1);
/// assert!((net.rho() - 0.5).abs() < 1e-12);
/// assert_eq!(net.links().len(), 2);
/// # Ok::<(), mmhew_topology::NetworkError>(())
/// ```
#[derive(Debug, Clone, Deserialize)]
#[serde(from = "NetworkWire")]
pub struct Network {
    topology: Topology,
    universe: u16,
    /// Flat per-node bitsets; [`Self::available`] carves borrowed views.
    availability: AvailabilityArena,
    propagation: Propagation,
    /// `neighbors.row(u, c)` = in-neighbors `v` of `u` with `c ∈ span(v,u)`.
    neighbors: ChannelCsr,
    links: Vec<Link>,
    /// `receivers.row(v, c)` = out-neighbors `u` of `v` with `c ∈ span(v,u)`,
    /// ascending — the transmitter-centric mirror of `neighbors`, so the
    /// hot slot-resolution path can walk only the (few) transmitters.
    /// Derived state, canonically rebuilt from `neighbors`; skipped on the
    /// wire to keep the serialized shape unchanged.
    receivers: ChannelCsr,
    scratch: ApplyScratch,
}

/// Scratch state is execution residue, not network identity: equality
/// compares the topology, spectrum, adjacency and links only, so an
/// incrementally maintained network equals a scratch rebuild.
impl PartialEq for Network {
    fn eq(&self, other: &Self) -> bool {
        self.topology == other.topology
            && self.universe == other.universe
            && self.availability == other.availability
            && self.propagation == other.propagation
            && self.neighbors == other.neighbors
            && self.links == other.links
            && self.receivers == other.receivers
    }
}

/// Serializes the exact wire shape the former nested representation had
/// (field names, order, and nested `neighbors_on` lists), so manifests and
/// scenario files are byte-identical across the CSR migration.
impl Serialize for Network {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut st = serializer.serialize_struct("Network", 6)?;
        st.serialize_field("topology", &self.topology)?;
        st.serialize_field("universe", &self.universe)?;
        st.serialize_field("availability", &self.availability.to_sets())?;
        st.serialize_field("propagation", &self.propagation)?;
        st.serialize_field("neighbors_on", &self.neighbors.to_nested())?;
        st.serialize_field("links", &self.links)?;
        st.end()
    }
}

/// On-the-wire shape of [`Network`]: every serialized field, with the
/// adjacency in its historical nested form. The derived transmitter-centric
/// mirror is rebuilt on deserialization.
#[derive(Deserialize)]
struct NetworkWire {
    topology: Topology,
    universe: u16,
    availability: Vec<ChannelSet>,
    propagation: Propagation,
    neighbors_on: Vec<Vec<Vec<NodeId>>>,
    links: Vec<Link>,
}

impl From<NetworkWire> for Network {
    fn from(w: NetworkWire) -> Self {
        let neighbors = ChannelCsr::from_nested(&w.neighbors_on, w.universe);
        let receivers = neighbors.invert();
        Network {
            topology: w.topology,
            universe: w.universe,
            availability: AvailabilityArena::from_sets(&w.availability, w.universe),
            propagation: w.propagation,
            neighbors,
            links: w.links,
            receivers,
            scratch: ApplyScratch::default(),
        }
    }
}

impl Network {
    /// Assembles and validates a network.
    ///
    /// # Errors
    ///
    /// See [`NetworkError`] for each validation failure.
    pub fn new(
        topology: Topology,
        universe: u16,
        availability: Vec<ChannelSet>,
        propagation: Propagation,
    ) -> Result<Self, NetworkError> {
        if universe == 0 {
            return Err(NetworkError::EmptyUniverse);
        }
        let n = topology.node_count();
        if availability.len() != n {
            return Err(NetworkError::AvailabilityCount {
                provided: availability.len(),
                nodes: n,
            });
        }
        for (i, set) in availability.iter().enumerate() {
            if let Some(c) = set.max_channel() {
                if c.index() >= universe {
                    return Err(NetworkError::ChannelOutOfUniverse {
                        node: NodeId::new(i as u32),
                        channel: c,
                    });
                }
            }
        }
        if let Propagation::PerChannelRange { ranges } = &propagation {
            if ranges.len() != universe as usize {
                return Err(NetworkError::PropagationCount {
                    provided: ranges.len(),
                    universe,
                });
            }
        }
        let arena = AvailabilityArena::from_sets(&availability, universe);

        // Precompute the per-channel in-neighbor CSR and the link
        // inventory. Per-channel staging keeps the historical row order:
        // within a row, transmitters appear in topology neighbor-list
        // order.
        let s = universe as usize;
        let mut neighbors = ChannelCsr::with_nodes(s, n);
        let mut staging: Vec<Vec<NodeId>> = vec![Vec::new(); s];
        let mut links = Vec::new();
        for u in topology.nodes() {
            for &v in topology.in_neighbors(u) {
                let mut any = false;
                for c in span_channels(&topology, &arena, &propagation, v, u) {
                    staging[c.index() as usize].push(v);
                    any = true;
                }
                if any {
                    links.push(Link { from: v, to: u });
                }
            }
            neighbors.push_block(staging.iter().map(Vec::as_slice));
            staging.iter_mut().for_each(Vec::clear);
        }
        links.sort_unstable();
        let receivers = neighbors.invert();

        Ok(Self {
            topology,
            universe,
            availability: arena,
            propagation,
            neighbors,
            links,
            receivers,
            scratch: ApplyScratch::default(),
        })
    }

    /// Applies one [`NetworkEvent`], incrementally recomputing the
    /// per-channel adjacency and link inventory — and therefore `S`, `Δ`
    /// and `ρ`, which are derived from them on demand. The event names the
    /// receivers whose rows it may change; only their blocks, the mirror
    /// blocks of the transmitters that joined or left one of their rows,
    /// and those receivers' entries in the sorted link inventory are
    /// rewritten. An
    /// event therefore costs O(Σ degree · S) over that neighbourhood,
    /// amortized over the occasional compaction, whatever the network's
    /// size. All intermediate state lives in persistent scratch (no
    /// steady-state allocation), and the result equals a
    /// [`Network::new`] rebuild row for row.
    ///
    /// The node universe is fixed: `NodeJoin` reactivates a known index
    /// (overwriting its position and availability), it never grows the
    /// network. Redundant events (removing an absent edge, losing a
    /// channel not held) are no-ops, so generators need not deduplicate.
    ///
    /// # Errors
    ///
    /// [`NetworkError::NodeOutOfRange`] if the event references a node
    /// index `≥ node_count()`, [`NetworkError::ChannelOutOfUniverse`] if
    /// it references a channel outside the universe. The network is
    /// unmodified on error.
    pub fn apply(&mut self, event: &NetworkEvent) -> Result<(), NetworkError> {
        match event {
            NetworkEvent::NodeJoin {
                node,
                position,
                available,
            } => {
                self.check_node(*node)?;
                if let Some(c) = available.max_channel() {
                    if c.index() >= self.universe {
                        return Err(NetworkError::ChannelOutOfUniverse {
                            node: *node,
                            channel: c,
                        });
                    }
                }
                self.topology.set_position(*node, *position);
                self.availability.assign(node.as_usize(), available.view());
                // Position and availability both feed every link at `node`
                // (in either direction), so refresh it and everyone who
                // hears it.
                self.scratch.touched.clear();
                self.scratch.touched.push(*node);
                self.scratch
                    .touched
                    .extend_from_slice(self.topology.out_neighbors(*node));
                self.refresh_touched();
            }
            NetworkEvent::NodeLeave { node } => {
                self.check_node(*node)?;
                self.scratch.touched.clear();
                self.scratch.touched.push(*node);
                self.scratch
                    .touched
                    .extend_from_slice(self.topology.out_neighbors(*node));
                self.topology.remove_incident(*node);
                self.refresh_touched();
            }
            NetworkEvent::EdgeAdd { from, to } => {
                self.check_node(*from)?;
                self.check_node(*to)?;
                self.topology.add_edge(*from, *to);
                self.scratch.touched.clear();
                self.scratch.touched.push(*to);
                self.refresh_touched();
            }
            NetworkEvent::EdgeRemove { from, to } => {
                self.check_node(*from)?;
                self.check_node(*to)?;
                self.topology.remove_edge(*from, *to);
                self.scratch.touched.clear();
                self.scratch.touched.push(*to);
                self.refresh_touched();
            }
            NetworkEvent::ChannelGained { node, channel }
            | NetworkEvent::ChannelLost { node, channel } => {
                self.check_node(*node)?;
                if channel.index() >= self.universe {
                    return Err(NetworkError::ChannelOutOfUniverse {
                        node: *node,
                        channel: *channel,
                    });
                }
                match event {
                    NetworkEvent::ChannelGained { .. } => {
                        self.availability.insert(node.as_usize(), *channel);
                    }
                    _ => {
                        self.availability.remove(node.as_usize(), *channel);
                    }
                }
                // A(node) feeds node's own row and the row of every node
                // that hears it.
                self.scratch.touched.clear();
                self.scratch.touched.push(*node);
                self.scratch
                    .touched
                    .extend_from_slice(self.topology.out_neighbors(*node));
                self.refresh_touched();
            }
        }
        Ok(())
    }

    fn check_node(&self, node: NodeId) -> Result<(), NetworkError> {
        if node.as_usize() >= self.node_count() {
            return Err(NetworkError::NodeOutOfRange {
                node,
                nodes: self.node_count(),
            });
        }
        Ok(())
    }

    /// Rewrites the blocks of the receivers listed in `scratch.touched`
    /// and moves their links, then rewrites the mirror blocks of the
    /// transmitters that joined or left one of those receivers' rows on
    /// some channel: the only mirror rows a forward change can reach, and
    /// a subset of the transmitters in the receivers' old or new rows.
    fn refresh_touched(&mut self) {
        let mut sc = std::mem::take(&mut self.scratch);
        sc.touched.sort_unstable();
        sc.touched.dedup();
        sc.transmitters.clear();
        for &u in &sc.touched {
            self.stage(self.topology.in_neighbors(u), |v| (v, u), &mut sc.block);
            sc.changed.clear();
            for c in 0..self.universe as usize {
                let old = self.neighbors.row(u.as_usize(), c);
                let new = &sc.block.rows[sc.block.row_range(c)];
                // Rows follow in-neighbour order, which edits only append
                // to or thin out: an added edge extends a row, a cleared
                // row truncates it; anything else takes a sorted diff.
                if let Some(tail) = new.strip_prefix(old).or(old.strip_prefix(new)) {
                    sc.changed.extend_from_slice(tail);
                } else {
                    distinct(old, &mut sc.old_row);
                    distinct(new, &mut sc.new_row);
                    let changed = &mut sc.changed;
                    diff_sorted(&sc.old_row, &sc.new_row, |v| changed.push(v));
                }
            }
            sc.changed.sort_unstable();
            sc.changed.dedup();
            // Only a source that changed rows can gain or lose its link to
            // `u`: it does when it was in some old row and is in no new
            // one, or the reverse. A scan per source suits the usual one or
            // two; more (a node left, or its spectrum changed) search
            // sorted source lists instead, so the cost stays O(w log w).
            let (old_rows, new_rows) = (self.neighbors.rows(u.as_usize()), &sc.block.rows);
            let sorted = sc.changed.len() > 2;
            if sorted {
                distinct(old_rows, &mut sc.old_row);
                distinct(new_rows, &mut sc.new_row);
            }
            for &v in &sc.changed {
                let (was, is) = if sorted {
                    let found = |row: &[NodeId]| row.binary_search(&v).is_ok();
                    (found(&sc.old_row), found(&sc.new_row))
                } else {
                    (old_rows.contains(&v), new_rows.contains(&v))
                };
                if was == is {
                    continue;
                }
                let link = Link { from: v, to: u };
                match self.links.binary_search(&link) {
                    Ok(k) => {
                        self.links.remove(k);
                    }
                    Err(k) => self.links.insert(k, link),
                }
            }
            self.neighbors
                .write_block(u.as_usize(), &sc.block, &mut sc.spare);
            sc.transmitters.extend_from_slice(&sc.changed);
        }
        sc.transmitters.sort_unstable();
        sc.transmitters.dedup();
        for &v in &sc.transmitters {
            // Staging receivers in ascending order leaves every row
            // ascending, the canonical `receivers_on` order.
            sc.peers.clear();
            sc.peers.extend_from_slice(self.topology.out_neighbors(v));
            sc.peers.sort_unstable();
            self.stage(&sc.peers, |u| (v, u), &mut sc.block);
            self.receivers
                .write_block(v.as_usize(), &sc.block, &mut sc.spare);
        }
        self.scratch = sc;
    }

    /// Stages one block: each peer, in the given order, joins the row of
    /// every channel in the span of its link `link(peer) = (from, to)`.
    /// One span pass records `(channel, peer)` pairs and row widths; a
    /// cursor-guided fill then groups them by channel, peers in list order.
    fn stage(
        &self,
        peers: &[NodeId],
        link: impl Fn(NodeId) -> (NodeId, NodeId),
        block: &mut StagedBlock,
    ) {
        block.widths.clear();
        block.widths.resize(self.universe as usize, 0);
        block.pairs.clear();
        for &p in peers {
            let (from, to) = link(p);
            for c in span_channels(
                &self.topology,
                &self.availability,
                &self.propagation,
                from,
                to,
            ) {
                block.widths[c.index() as usize] += 1;
                block.pairs.push((c, p));
            }
        }
        block.cursors.clear();
        let mut acc = 0;
        for &w in &block.widths {
            block.cursors.push(acc);
            acc += w;
        }
        block.rows.resize(acc as usize, NodeId::new(0));
        for &(c, p) in &block.pairs {
            let cur = &mut block.cursors[c.index() as usize];
            block.rows[*cur as usize] = p;
            *cur += 1;
        }
    }

    /// The read-only view bundle over this network — the preferred way to
    /// hand the topology to resolvers, engines and generators.
    pub fn view(&self) -> crate::TopologyView<'_> {
        crate::TopologyView::new(self)
    }

    /// The underlying communication graph.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Number of nodes (`N`).
    pub fn node_count(&self) -> usize {
        self.topology.node_count()
    }

    /// Size of the universal channel set.
    pub fn universe_size(&self) -> u16 {
        self.universe
    }

    /// The available channel set `A(u)`, as a borrowed view into the flat
    /// availability arena. Materialize with [`ChannelSetRef::to_owned`]
    /// only off the hot path.
    pub fn available(&self, u: NodeId) -> ChannelSetRef<'_> {
        self.availability.get(u.as_usize())
    }

    /// The propagation model.
    pub fn propagation(&self) -> &Propagation {
        &self.propagation
    }

    /// In-neighbors of `u` on channel `c`: the nodes whose transmissions on
    /// `c` reach (and can collide at) `u`. A borrowed CSR slice.
    pub fn neighbors_on(&self, u: NodeId, c: ChannelId) -> &[NodeId] {
        self.neighbors.row(u.as_usize(), c.index() as usize)
    }

    /// Out-neighbors of `v` on channel `c`: the nodes a transmission by `v`
    /// on `c` reaches, ascending. The transmitter-centric mirror of
    /// [`neighbors_on`](Self::neighbors_on): `u ∈ receivers_on(v, c)` iff
    /// `v ∈ neighbors_on(u, c)`. A borrowed CSR slice.
    pub fn receivers_on(&self, v: NodeId, c: ChannelId) -> &[NodeId] {
        self.receivers.row(v.as_usize(), c.index() as usize)
    }

    /// The span of the directed link `from → to`: channels on which `to`
    /// can hear `from`.
    pub fn span(&self, from: NodeId, to: NodeId) -> ChannelSet {
        (0..self.universe)
            .map(ChannelId::new)
            .filter(|&c| self.neighbors_on(to, c).contains(&from))
            .collect()
    }

    /// All discovery obligations: directed links with non-empty span,
    /// sorted.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The degree `Δ(u, c)` — number of neighbors of `u` on channel `c`.
    pub fn degree_on(&self, u: NodeId, c: ChannelId) -> usize {
        self.neighbors_on(u, c).len()
    }

    /// `S`: size of the largest available channel set.
    pub fn s_max(&self) -> usize {
        (0..self.node_count())
            .map(|i| self.availability.get(i).len())
            .max()
            .unwrap_or(0)
    }

    /// `Δ`: maximum degree of any node on any channel.
    pub fn max_degree(&self) -> usize {
        self.neighbors.max_row_len()
    }

    /// `ρ`: minimum span-ratio over all links — `|span(v,u)| / |A(u)|`,
    /// minimized over directed links `(v, u)`. Returns 1.0 for a network
    /// with no links (vacuous minimum, and the best case for the bounds).
    pub fn rho(&self) -> f64 {
        self.links
            .iter()
            .map(|l| {
                let span = self.span(l.from, l.to).len() as f64;
                let a = self.available(l.to).len() as f64;
                span / a
            })
            .fold(f64::INFINITY, f64::min)
            .min(1.0)
    }

    /// Ground truth for node `u`: every `(neighbor, common channel set)`
    /// pair a correct discovery run must report. The common set is
    /// `A(v) ∩ A(u)` — what `u` computes from `v`'s beacon — even when
    /// diverse propagation makes the usable span smaller.
    pub fn expected_discovery(&self, u: NodeId) -> Vec<(NodeId, ChannelSet)> {
        let mut out: Vec<(NodeId, ChannelSet)> = self
            .links
            .iter()
            .filter(|l| l.to == u)
            .map(|l| {
                (
                    l.from,
                    self.available(l.from).intersection(self.available(u)),
                )
            })
            .collect();
        out.sort_by_key(|(v, _)| *v);
        out
    }

    /// Nodes with no discovery obligations toward them (no in-links).
    pub fn isolated_receivers(&self) -> Vec<NodeId> {
        let mut has_in = vec![false; self.node_count()];
        for l in &self.links {
            has_in[l.to.as_usize()] = true;
        }
        has_in
            .iter()
            .enumerate()
            .filter(|(_, &h)| !h)
            .map(|(i, _)| NodeId::new(i as u32))
            .collect()
    }

    /// Checks the storage invariants every constructor and every
    /// [`apply`](Self::apply) must keep:
    ///
    /// - in both CSRs, every row lies inside its node's block, no two
    ///   blocks overlap, and live plus dead space is the whole id vector;
    /// - every `neighbors_on` row is the span predicate recomputed over the
    ///   node's in-neighbours, in in-neighbour order;
    /// - every `receivers_on` row is strictly ascending and is exactly the
    ///   transpose of the `neighbors_on` rows;
    /// - `links` is sorted, unique, and equal to the distinct
    ///   `(source, receiver)` pairs of the `neighbors_on` rows;
    /// - no availability set holds a channel past the universe.
    ///
    /// O(N·S + edges·S); meant for tests and debugging, not hot paths.
    ///
    /// # Errors
    ///
    /// The first broken rule, naming the node and channel where it broke.
    pub fn check_invariants(&self) -> Result<(), String> {
        let (n, s) = (self.node_count(), self.universe as usize);
        for (name, csr) in [
            ("neighbors_on", &self.neighbors),
            ("receivers_on", &self.receivers),
        ] {
            if csr.universe != s || csr.node_count() != n {
                return Err(format!(
                    "{name}: {} nodes × {} channels in a {n}-node, {s}-channel network",
                    csr.node_count(),
                    csr.universe
                ));
            }
            csr.check_blocks().map_err(|e| format!("{name}: {e}"))?;
        }
        for u in self.topology.nodes() {
            if let Some(c) = self.available(u).max_channel() {
                if c.index() >= self.universe {
                    return Err(format!(
                        "available({u}) holds {c} past the {s}-channel universe"
                    ));
                }
            }
        }
        let mut want = Vec::new();
        for u in self.topology.nodes() {
            for c in (0..self.universe).map(ChannelId::new) {
                want.clear();
                want.extend(self.topology.in_neighbors(u).iter().copied().filter(|&v| {
                    span_channels(&self.topology, &self.availability, &self.propagation, v, u)
                        .any(|x| x == c)
                }));
                if self.neighbors_on(u, c) != want.as_slice() {
                    return Err(format!(
                        "neighbors_on({u}, {c}) = {:?}, but the span predicate over the \
                         in-neighbours gives {want:?}",
                        self.neighbors_on(u, c)
                    ));
                }
            }
        }
        let transpose = self.neighbors.invert();
        for v in 0..n {
            for c in 0..s {
                let row = self.receivers.row(v, c);
                let (v, c) = (NodeId::new(v as u32), ChannelId::new(c as u16));
                if row.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(format!(
                        "receivers_on({v}, {c}) = {row:?} is not strictly ascending"
                    ));
                }
                if row != transpose.row(v.as_usize(), c.index() as usize) {
                    return Err(format!(
                        "receivers_on({v}, {c}) = {row:?} is not the transpose of \
                         neighbors_on, which gives {:?}",
                        transpose.row(v.as_usize(), c.index() as usize)
                    ));
                }
            }
        }
        if let Some(w) = self.links.windows(2).find(|w| w[0] >= w[1]) {
            return Err(format!(
                "links: {} before {} is not sorted and unique",
                w[0], w[1]
            ));
        }
        let mut sources = Vec::new();
        let mut pairs = Vec::with_capacity(self.links.len());
        for u in self.topology.nodes() {
            distinct(self.neighbors.rows(u.as_usize()), &mut sources);
            pairs.extend(sources.iter().map(|&v| Link { from: v, to: u }));
        }
        pairs.sort_unstable();
        if pairs != self.links {
            let (a, b) = (pairs.iter(), self.links.iter());
            let first = a.zip(b).find(|(want, got)| want != got);
            return Err(match first {
                Some((want, got)) => {
                    format!("links holds {got} where the neighbors_on rows give {want}")
                }
                None => format!(
                    "links holds {} entries, the neighbors_on rows give {}",
                    self.links.len(),
                    pairs.len()
                ),
            });
        }
        Ok(())
    }
}

/// Estimated resident bytes of a network's fixed-cost storage: the two
/// CSR offset arrays (`2 · N·(S+1) · 4` bytes), their per-node block
/// capacities (`2 · N · 4` bytes), and the availability arena
/// (`N · ⌈S/64⌉ · 8` bytes). Adjacency ids scale with the edge count,
/// which depends on density, so this is the *floor* — the part that `N·S`
/// word math alone determines and the part that silently OOMs a careless
/// `--nodes 10000000` invocation.
pub fn estimate_storage_bytes(nodes: u64, universe: u16) -> u64 {
    let s = u64::from(universe.max(1));
    let stride = s.div_ceil(64).max(1);
    2 * nodes * (s + 1) * 4 + 2 * nodes * 4 + nodes * stride * 8
}

/// Default cap for [`check_storage_cap`]: 8 GiB.
pub const DEFAULT_STORAGE_CAP_BYTES: u64 = 8 * 1024 * 1024 * 1024;

/// The storage cap in effect: the `MMHEW_MEM_CAP_BYTES` environment
/// variable if set to a positive integer, else
/// [`DEFAULT_STORAGE_CAP_BYTES`].
pub fn storage_cap_bytes() -> u64 {
    std::env::var("MMHEW_MEM_CAP_BYTES")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .filter(|&b| b > 0)
        .unwrap_or(DEFAULT_STORAGE_CAP_BYTES)
}

/// A requested network would blow past the configured storage cap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageCapError {
    /// Requested node count.
    pub nodes: u64,
    /// Requested universe size.
    pub universe: u16,
    /// Estimated fixed-cost bytes ([`estimate_storage_bytes`]).
    pub estimate: u64,
    /// The cap in effect ([`storage_cap_bytes`]).
    pub cap: u64,
}

impl fmt::Display for StorageCapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "a {}-node network over {} channels needs an estimated {} MiB \
             of adjacency offsets + availability words, over the {} MiB cap \
             (set MMHEW_MEM_CAP_BYTES to raise it)",
            self.nodes,
            self.universe,
            self.estimate / (1024 * 1024),
            self.cap / (1024 * 1024),
        )
    }
}

impl std::error::Error for StorageCapError {}

/// Validates that `nodes × universe` fixed storage fits under the cap,
/// returning the estimate-naming error otherwise. Call this *before*
/// building a large network so an oversized `--nodes` request fails with
/// arithmetic instead of the OOM killer.
///
/// # Errors
///
/// [`StorageCapError`] when [`estimate_storage_bytes`] exceeds
/// [`storage_cap_bytes`].
pub fn check_storage_cap(nodes: u64, universe: u16) -> Result<(), StorageCapError> {
    let estimate = estimate_storage_bytes(nodes, universe);
    let cap = storage_cap_bytes();
    if estimate > cap {
        return Err(StorageCapError {
            nodes,
            universe,
            estimate,
            cap,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn cs(xs: &[u16]) -> ChannelSet {
        xs.iter().copied().collect()
    }

    fn two_node_net(a0: &[u16], a1: &[u16], universe: u16) -> Network {
        Network::new(
            generators::line(2),
            universe,
            vec![cs(a0), cs(a1)],
            Propagation::Uniform,
        )
        .expect("valid network")
    }

    #[test]
    fn basic_parameters() {
        let net = two_node_net(&[0, 1, 2], &[1, 2], 4);
        assert_eq!(net.s_max(), 3);
        assert_eq!(net.max_degree(), 1);
        assert_eq!(net.span(n(0), n(1)), cs(&[1, 2]));
        // rho = min(|span|/|A(receiver)|) = min(2/2, 2/3) = 2/3.
        assert!((net.rho() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(net.links().len(), 2);
    }

    #[test]
    fn disjoint_availability_removes_link() {
        let net = two_node_net(&[0, 1], &[2, 3], 4);
        assert!(net.links().is_empty());
        assert_eq!(net.rho(), 1.0, "vacuous minimum");
        assert_eq!(net.max_degree(), 0);
        assert_eq!(net.isolated_receivers(), vec![n(0), n(1)]);
    }

    #[test]
    fn degree_counts_per_channel() {
        // Star with hub 0; leaves 1,2 share channel 0 with hub, leaf 3 only
        // channel 1.
        let net = Network::new(
            generators::star(4),
            2,
            vec![cs(&[0, 1]), cs(&[0]), cs(&[0]), cs(&[1])],
            Propagation::Uniform,
        )
        .expect("valid network");
        assert_eq!(net.degree_on(n(0), ChannelId::new(0)), 2);
        assert_eq!(net.degree_on(n(0), ChannelId::new(1)), 1);
        assert_eq!(net.max_degree(), 2);
        assert_eq!(net.neighbors_on(n(0), ChannelId::new(0)), &[n(1), n(2)]);
    }

    #[test]
    fn expected_discovery_ground_truth() {
        let net = Network::new(
            generators::line(3),
            4,
            vec![cs(&[0, 1]), cs(&[1, 2]), cs(&[2, 3])],
            Propagation::Uniform,
        )
        .expect("valid network");
        assert_eq!(
            net.expected_discovery(n(1)),
            vec![(n(0), cs(&[1])), (n(2), cs(&[2]))]
        );
        assert_eq!(net.expected_discovery(n(0)), vec![(n(1), cs(&[1]))]);
        // Non-adjacent nodes never appear even with common channels.
        assert!(net.expected_discovery(n(0)).iter().all(|(v, _)| *v != n(2)));
    }

    #[test]
    fn asymmetric_links() {
        let mut topo = Topology::new(2);
        topo.add_edge(n(0), n(1)); // only 1 hears 0
        let net = Network::new(topo, 2, vec![cs(&[0]), cs(&[0])], Propagation::Uniform)
            .expect("valid network");
        assert_eq!(
            net.links(),
            &[Link {
                from: n(0),
                to: n(1)
            }]
        );
        assert!(net.expected_discovery(n(0)).is_empty());
        assert_eq!(net.expected_discovery(n(1)).len(), 1);
    }

    #[test]
    fn per_channel_propagation_prunes_spans() {
        // Nodes 3.0 apart; channel 0 reaches 5.0, channel 1 only 2.0.
        let mut topo = Topology::new(2);
        topo.set_position(n(0), (0.0, 0.0));
        topo.set_position(n(1), (3.0, 0.0));
        topo.add_bidirectional(n(0), n(1));
        let net = Network::new(
            topo,
            2,
            vec![cs(&[0, 1]), cs(&[0, 1])],
            Propagation::PerChannelRange {
                ranges: vec![5.0, 2.0],
            },
        )
        .expect("valid network");
        assert_eq!(net.span(n(0), n(1)), cs(&[0]));
        // rho uses the pruned span: 1/2.
        assert!((net.rho() - 0.5).abs() < 1e-12);
        // But the reported common set is the full intersection.
        assert_eq!(net.expected_discovery(n(1)), vec![(n(0), cs(&[0, 1]))]);
    }

    #[test]
    fn validation_errors() {
        assert_eq!(
            Network::new(generators::line(2), 0, vec![], Propagation::Uniform),
            Err(NetworkError::EmptyUniverse)
        );
        assert!(matches!(
            Network::new(generators::line(2), 2, vec![cs(&[0])], Propagation::Uniform),
            Err(NetworkError::AvailabilityCount {
                provided: 1,
                nodes: 2
            })
        ));
        assert!(matches!(
            Network::new(
                generators::line(2),
                2,
                vec![cs(&[0]), cs(&[5])],
                Propagation::Uniform
            ),
            Err(NetworkError::ChannelOutOfUniverse { .. })
        ));
        assert!(matches!(
            Network::new(
                generators::line(2),
                2,
                vec![cs(&[0]), cs(&[1])],
                Propagation::PerChannelRange { ranges: vec![1.0] }
            ),
            Err(NetworkError::PropagationCount { .. })
        ));
    }

    /// Rebuilds a network from scratch out of the mutated state; since the
    /// inputs are identical, every derived structure must match the
    /// incrementally maintained one bit-for-bit.
    fn rebuilt(net: &Network) -> Network {
        net.check_invariants().expect("invariants hold");
        let avail: Vec<ChannelSet> = (0..net.node_count())
            .map(|i| net.available(n(i as u32)).to_owned())
            .collect();
        Network::new(
            net.topology().clone(),
            net.universe_size(),
            avail,
            net.propagation().clone(),
        )
        .expect("mutated state stays valid")
    }

    #[test]
    fn apply_edge_events_match_scratch_rebuild() {
        let mut net = Network::new(
            generators::star(4),
            3,
            vec![cs(&[0, 1]), cs(&[0]), cs(&[0, 2]), cs(&[1])],
            Propagation::Uniform,
        )
        .expect("valid network");
        net.apply(&NetworkEvent::EdgeAdd {
            from: n(1),
            to: n(2),
        })
        .expect("apply");
        net.apply(&NetworkEvent::EdgeRemove {
            from: n(3),
            to: n(0),
        })
        .expect("apply");
        assert_eq!(net, rebuilt(&net));
        // Removing an absent edge is a no-op, not an error.
        let before = net.clone();
        net.apply(&NetworkEvent::EdgeRemove {
            from: n(3),
            to: n(0),
        })
        .expect("apply");
        assert_eq!(net, before);
    }

    #[test]
    fn apply_channel_events_update_spans_and_params() {
        let mut net = two_node_net(&[0, 1], &[0], 4);
        assert_eq!(net.span(n(0), n(1)), cs(&[0]));
        net.apply(&NetworkEvent::ChannelGained {
            node: n(1),
            channel: ChannelId::new(1),
        })
        .expect("apply");
        assert_eq!(net.span(n(0), n(1)), cs(&[0, 1]));
        assert_eq!(net.s_max(), 2);
        net.apply(&NetworkEvent::ChannelLost {
            node: n(1),
            channel: ChannelId::new(0),
        })
        .expect("apply");
        net.apply(&NetworkEvent::ChannelLost {
            node: n(1),
            channel: ChannelId::new(1),
        })
        .expect("apply");
        // Last common channel gone: the link (in both directions) vanishes.
        assert!(net.links().is_empty());
        assert_eq!(net.max_degree(), 0);
        assert_eq!(net, rebuilt(&net));
        // Regain one: the link reappears.
        net.apply(&NetworkEvent::ChannelGained {
            node: n(1),
            channel: ChannelId::new(1),
        })
        .expect("apply");
        assert_eq!(net.links().len(), 2);
        assert_eq!(net.span(n(1), n(0)), cs(&[1]));
        assert_eq!(net, rebuilt(&net));
    }

    #[test]
    fn apply_leave_and_rejoin() {
        let mut net = Network::new(
            generators::complete(3),
            2,
            vec![cs(&[0, 1]), cs(&[0, 1]), cs(&[0, 1])],
            Propagation::Uniform,
        )
        .expect("valid network");
        assert_eq!(net.links().len(), 6);
        net.apply(&NetworkEvent::NodeLeave { node: n(2) })
            .expect("apply");
        assert_eq!(net.links().len(), 2, "only 0↔1 remains");
        assert!(net.isolated_receivers().contains(&n(2)));
        assert_eq!(net, rebuilt(&net));
        // Rejoin with a narrower availability and restore its edges.
        net.apply(&NetworkEvent::NodeJoin {
            node: n(2),
            position: net.topology().position(n(2)),
            available: cs(&[1]),
        })
        .expect("apply");
        for (a, b) in [(0, 2), (1, 2)] {
            net.apply(&NetworkEvent::EdgeAdd {
                from: n(a),
                to: n(b),
            })
            .expect("apply");
            net.apply(&NetworkEvent::EdgeAdd {
                from: n(b),
                to: n(a),
            })
            .expect("apply");
        }
        assert_eq!(net.links().len(), 6);
        assert_eq!(net.span(n(0), n(2)), cs(&[1]));
        assert_eq!(net, rebuilt(&net));
    }

    #[test]
    fn receivers_on_mirrors_neighbors_on() {
        let mut net = Network::new(
            generators::star(4),
            3,
            vec![cs(&[0, 1]), cs(&[0]), cs(&[0, 2]), cs(&[1])],
            Propagation::Uniform,
        )
        .expect("valid network");
        let mirror_holds = |net: &Network| {
            for u in 0..net.node_count() as u32 {
                for c in 0..net.universe_size() {
                    let c = ChannelId::new(c);
                    let rx = net.receivers_on(n(u), c);
                    assert!(rx.windows(2).all(|w| w[0] < w[1]), "ascending receivers");
                    for v in 0..net.node_count() as u32 {
                        assert_eq!(
                            rx.contains(&n(v)),
                            net.neighbors_on(n(v), c).contains(&n(u)),
                            "mirror property for tx n{u} rx n{v} on {c}"
                        );
                    }
                }
            }
        };
        mirror_holds(&net);
        assert_eq!(net.receivers_on(n(0), ChannelId::new(0)), &[n(1), n(2)]);
        // The mirror must follow every class of dynamics event.
        net.apply(&NetworkEvent::ChannelLost {
            node: n(2),
            channel: ChannelId::new(0),
        })
        .expect("apply");
        mirror_holds(&net);
        net.apply(&NetworkEvent::EdgeAdd {
            from: n(1),
            to: n(3),
        })
        .expect("apply");
        mirror_holds(&net);
        net.apply(&NetworkEvent::NodeLeave { node: n(1) })
            .expect("apply");
        mirror_holds(&net);
        assert_eq!(net, rebuilt(&net));
    }

    #[test]
    fn apply_rejects_out_of_range() {
        let mut net = two_node_net(&[0], &[0], 2);
        let before = net.clone();
        assert!(matches!(
            net.apply(&NetworkEvent::NodeLeave { node: n(9) }),
            Err(NetworkError::NodeOutOfRange { nodes: 2, .. })
        ));
        assert!(matches!(
            net.apply(&NetworkEvent::ChannelGained {
                node: n(0),
                channel: ChannelId::new(7),
            }),
            Err(NetworkError::ChannelOutOfUniverse { .. })
        ));
        assert!(matches!(
            net.apply(&NetworkEvent::NodeJoin {
                node: n(1),
                position: (0.0, 0.0),
                available: cs(&[5]),
            }),
            Err(NetworkError::ChannelOutOfUniverse { .. })
        ));
        assert_eq!(net, before, "failed events leave the network untouched");
    }

    #[test]
    fn error_display() {
        let e = NetworkError::ChannelOutOfUniverse {
            node: n(3),
            channel: ChannelId::new(9),
        };
        assert!(e.to_string().contains("n3"));
        assert!(e.to_string().contains("ch9"));
    }

    #[test]
    fn link_display_and_order() {
        let l = Link {
            from: n(2),
            to: n(5),
        };
        assert_eq!(l.to_string(), "(n2→n5)");
        let net = two_node_net(&[0], &[0], 1);
        assert_eq!(
            net.links(),
            &[
                Link {
                    from: n(0),
                    to: n(1)
                },
                Link {
                    from: n(1),
                    to: n(0)
                }
            ]
        );
    }

    #[test]
    fn wire_round_trip_rebuilds_the_mirror() {
        // NetworkWire carries exactly the historical serialized fields; a
        // Network reconstructed from it must equal the original (scratch
        // excluded by the PartialEq contract) with the transmitter-centric
        // mirror rebuilt from the nested adjacency.
        let net = Network::new(
            generators::star(3),
            2,
            vec![cs(&[0, 1]), cs(&[0]), cs(&[1])],
            Propagation::Uniform,
        )
        .expect("valid network");
        let wire = NetworkWire {
            topology: net.topology.clone(),
            universe: net.universe,
            availability: net.availability.to_sets(),
            propagation: net.propagation.clone(),
            neighbors_on: net.neighbors.to_nested(),
            links: net.links.clone(),
        };
        let back = Network::from(wire);
        assert_eq!(back, net);
        assert_eq!(back.receivers_on(n(0), ChannelId::new(0)), &[n(1)]);
        // And the nested shape itself packs/unpacks losslessly.
        let nested = net.neighbors.to_nested();
        assert_eq!(
            ChannelCsr::from_nested(&nested, net.universe),
            net.neighbors
        );
    }

    #[test]
    fn churn_stream_relocates_and_compacts_blocks() {
        // A stream like the ones in `tests/apply_props.rs`, on a network
        // that starts edgeless: edges appear far faster than they go, so
        // blocks keep outgrowing their capacity, move to the tail, and
        // leave enough dead space behind to compact.
        use mmhew_util::Xoshiro256StarStar;
        use rand::Rng;
        let mut g = Xoshiro256StarStar::from_seed_u64(0x5EED);
        let avail = (0..24)
            .map(|_| (0..8u16).filter(|_| g.gen_bool(0.9)).collect())
            .collect();
        let mut net =
            Network::new(Topology::new(24), 8, avail, Propagation::Uniform).expect("valid network");
        let (mut relocated, mut compacted) = (false, false);
        for _ in 0..600 {
            let (u, v) = (n(g.gen_range(0..24)), n(g.gen_range(0..24)));
            let channel = ChannelId::new(g.gen_range(0..8));
            let event = match g.gen_range(0..32u32) {
                0 => NetworkEvent::NodeLeave { node: u },
                1 => NetworkEvent::EdgeRemove { from: v, to: u },
                2 => NetworkEvent::ChannelGained { node: u, channel },
                3 => NetworkEvent::ChannelLost { node: u, channel },
                _ => NetworkEvent::EdgeAdd { from: v, to: u },
            };
            let before = [&net.neighbors, &net.receivers].map(|csr| (csr.caps.clone(), csr.dead));
            net.apply(&event).expect("in-range event");
            for (csr, (caps, dead)) in [&net.neighbors, &net.receivers].into_iter().zip(before) {
                relocated |= csr.caps.iter().zip(&caps).any(|(now, was)| now > was);
                compacted |= csr.dead < dead;
            }
            net.check_invariants().expect("invariants hold");
        }
        assert!(relocated, "no block outgrew its capacity");
        assert!(compacted, "dead space never triggered a compaction");
        assert_eq!(net, rebuilt(&net));
    }

    #[test]
    fn storage_estimate_and_cap() {
        // 1M nodes × 8 channels: 2·1M·9·4 B of offsets, 2·1M·4 B of block
        // capacities and 1M·8 B of arena.
        let est = estimate_storage_bytes(1_000_000, 8);
        assert_eq!(
            est,
            2 * 1_000_000 * 9 * 4 + 2 * 1_000_000 * 4 + 1_000_000 * 8
        );
        assert!(check_storage_cap(1_000_000, 8).is_ok());
        let err = check_storage_cap(u64::MAX / 1_000, 64).expect_err("over any sane cap");
        let msg = err.to_string();
        assert!(msg.contains("MiB"), "names the estimate: {msg}");
        assert!(msg.contains("MMHEW_MEM_CAP_BYTES"), "names the knob: {msg}");
        assert_eq!(err.estimate, estimate_storage_bytes(err.nodes, 64));
    }
}
