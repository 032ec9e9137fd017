//! Topology construction and static routing.
//!
//! Routing is computed once at build time: a BFS from every destination
//! records *all* equal-cost first hops per `(src, dst)` pair into a
//! compact next-hop table ([`Routes`]). Packets crossing a node with
//! more than one candidate pick one by a seeded, purely functional ECMP
//! hash over `(flow, packet src, packet dst, current node)` — the same
//! packet takes the same path in every run and at every thread count,
//! because the choice depends only on packet content and static tables.

use std::collections::VecDeque;

use dctcp_rng::SplitMix64;

use crate::link::Link;
use crate::node::Node;
use crate::{Agent, LinkId, LinkSpec, NodeId, Packet, QueueConfig, SimError};

/// Builds a network of hosts, switches and links, then computes static
/// shortest-path routes.
///
/// # Examples
///
/// A two-host dumbbell through one switch:
///
/// ```
/// use dctcp_sim::{LinkSpec, QueueConfig, TopologyBuilder};
/// # use dctcp_sim::{Agent, Context, Packet};
/// # #[derive(Debug)]
/// # struct Nop;
/// # impl Agent for Nop {
/// #     fn on_packet(&mut self, _p: Packet, _c: &mut Context<'_>) {}
/// #     fn as_any(&self) -> &dyn std::any::Any { self }
/// #     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
/// # }
///
/// let mut b = TopologyBuilder::new();
/// let h1 = b.host("h1", Box::new(Nop));
/// let h2 = b.host("h2", Box::new(Nop));
/// let s = b.switch("s1");
/// b.link(h1, s, LinkSpec::gbps(1.0, 10), QueueConfig::host_nic(), QueueConfig::host_nic())?;
/// b.link(s, h2, LinkSpec::gbps(1.0, 10), QueueConfig::host_nic(), QueueConfig::host_nic())?;
/// let network = b.build()?;
/// # Ok::<(), dctcp_sim::SimError>(())
/// ```
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    nodes: Vec<Node>,
    links: Vec<Link>,
    ecmp_seed: u64,
}

/// A validated topology with routing tables, ready to simulate.
#[derive(Debug)]
pub struct Network {
    pub(crate) nodes: Vec<Node>,
    pub(crate) links: Vec<Link>,
    pub(crate) routes: Routes,
}

/// Per-switch next-hop tables with equal-cost multipath support.
///
/// Stored in CSR form: `index[src * n + dst]` gives the offset and
/// count of the `(src, dst)` candidate group inside `hops`. Groups are
/// in link-id order, so the table itself is a pure function of the
/// topology — independent of build iteration order or thread count.
#[derive(Debug, Clone)]
pub struct Routes {
    /// `(offset, candidate count)` per row-major `(src, dst)` pair.
    index: Vec<(u32, u16)>,
    /// Equal-cost `(link, transmitting end)` candidates, grouped per
    /// `(src, dst)` in link-id order.
    hops: Vec<(LinkId, usize)>,
    num_nodes: usize,
    /// Key material for the ECMP hash; part of every path decision.
    ecmp_seed: u64,
}

/// The seeded ECMP hash: a SplitMix64 absorption chain over the flow
/// id, the packet's endpoints, and the node making the decision. Every
/// input is packet content or static configuration, so the result is
/// identical across runs and thread counts.
#[inline]
fn ecmp_hash(seed: u64, flow: u64, src: u32, dst: u32, node: u32) -> u64 {
    let mut h = SplitMix64::new(seed);
    for x in [
        flow,
        (u64::from(src) << 32) | u64::from(dst),
        u64::from(node),
    ] {
        let mixed = h.next_u64() ^ x;
        h = SplitMix64::new(mixed);
    }
    h.next_u64()
}

impl Routes {
    /// All equal-cost next hops from `src` toward `dst`, in link-id
    /// order. Empty when no route exists.
    pub fn candidates(&self, src: NodeId, dst: NodeId) -> &[(LinkId, usize)] {
        let (off, len) = self.index[src.index() * self.num_nodes + dst.index()];
        &self.hops[off as usize..off as usize + len as usize]
    }

    /// The deterministic ECMP choice for `pkt` at `node`: the single
    /// candidate when the shortest path is unique, otherwise the
    /// hash-selected member of the equal-cost group.
    #[inline]
    pub fn select(&self, node: NodeId, pkt: &Packet) -> Option<(LinkId, usize)> {
        let (off, len) = self.index[node.index() * self.num_nodes + pkt.dst.index()];
        match len {
            0 => None,
            1 => Some(self.hops[off as usize]),
            _ => {
                let h = ecmp_hash(
                    self.ecmp_seed,
                    pkt.flow.0,
                    pkt.src.index() as u32,
                    pkt.dst.index() as u32,
                    node.index() as u32,
                );
                Some(self.hops[off as usize + (h % u64::from(len)) as usize])
            }
        }
    }

    /// The seed feeding the ECMP hash.
    pub fn ecmp_seed(&self) -> u64 {
        self.ecmp_seed
    }

    /// First (lowest-link-id) candidate, if any.
    fn first(&self, src: NodeId, dst: NodeId) -> Option<(LinkId, usize)> {
        self.candidates(src, dst).first().copied()
    }
}

impl TopologyBuilder {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the seed for the deterministic ECMP hash (default 0). Only
    /// observable on topologies with equal-cost multipath.
    pub fn ecmp_seed(&mut self, seed: u64) -> &mut Self {
        self.ecmp_seed = seed;
        self
    }

    /// Adds a host running the given agent.
    pub fn host(&mut self, name: impl Into<String>, agent: Box<dyn Agent>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::Host {
            name: name.into(),
            agent,
        });
        id
    }

    /// Adds a switch.
    pub fn switch(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::Switch { name: name.into() });
        id
    }

    /// Connects `a` and `b` with a full-duplex link. `queue_ab` configures
    /// the queue at `a` transmitting toward `b`; `queue_ba` the reverse.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for self-links, unknown nodes, or invalid
    /// queue parameters.
    pub fn link(
        &mut self,
        a: NodeId,
        b: NodeId,
        spec: LinkSpec,
        queue_ab: QueueConfig,
        queue_ba: QueueConfig,
    ) -> Result<LinkId, SimError> {
        if a == b {
            return Err(SimError::InvalidTopology(format!("self-link at {a}")));
        }
        for n in [a, b] {
            if n.index() >= self.nodes.len() {
                return Err(SimError::InvalidTopology(format!("unknown node {n}")));
            }
        }
        if spec.rate_bps == 0 {
            return Err(SimError::InvalidTopology(format!(
                "zero-rate link between {a} and {b}"
            )));
        }
        let id = LinkId(self.links.len() as u32);
        self.links
            .push(Link::new(spec, a, &queue_ab, b, &queue_ba)?);
        Ok(id)
    }

    /// Validates the topology and computes shortest-path routes. All
    /// equal-cost first hops (BFS hop count) are recorded per `(src,
    /// dst)` pair in link-id order; single-path queries resolve to the
    /// lowest-link-id candidate, deterministically.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if any two hosts cannot reach each other.
    pub fn build(self) -> Result<Network, SimError> {
        let n = self.nodes.len();
        // Outgoing adjacency in link-id order: out[v] holds (u, link,
        // end-at-v) — the transmitting end v uses to send toward u.
        let mut out: Vec<Vec<(usize, LinkId, usize)>> = vec![Vec::new(); n];
        for (li, link) in self.links.iter().enumerate() {
            let (a, b) = (link.ends[0].node, link.ends[1].node);
            out[a.index()].push((b.index(), LinkId(li as u32), 0));
            out[b.index()].push((a.index(), LinkId(li as u32), 1));
        }

        // BFS from every destination, then collect every neighbor that
        // is strictly closer to the destination as an equal-cost first
        // hop. Strictly decreasing distance makes every selectable path
        // loop-free and shortest by construction.
        let mut index = vec![(0u32, 0u16); n * n];
        let mut hops: Vec<(LinkId, usize)> = Vec::new();
        let mut dist = vec![u32::MAX; n];
        for dst in 0..n {
            dist.fill(u32::MAX);
            let mut frontier = VecDeque::new();
            dist[dst] = 0;
            frontier.push_back(dst);
            while let Some(u) = frontier.pop_front() {
                for &(v, _, _) in &out[u] {
                    if dist[v] == u32::MAX {
                        dist[v] = dist[u] + 1;
                        frontier.push_back(v);
                    }
                }
            }
            for src in 0..n {
                if src == dst || dist[src] == u32::MAX {
                    continue;
                }
                let off = hops.len();
                for &(v, link, end) in &out[src] {
                    if dist[v] != u32::MAX && dist[v] + 1 == dist[src] {
                        hops.push((link, end));
                    }
                }
                let len = hops.len() - off;
                if len > usize::from(u16::MAX) {
                    return Err(SimError::InvalidTopology(format!(
                        "{len} equal-cost next hops from node {src} exceed the table limit"
                    )));
                }
                index[src * n + dst] = (off as u32, len as u16);
            }
            for (src, node) in self.nodes.iter().enumerate() {
                if src != dst
                    && node.is_host()
                    && self.nodes[dst].is_host()
                    && dist[src] == u32::MAX
                {
                    return Err(SimError::InvalidTopology(format!(
                        "host {} cannot reach host {}",
                        self.nodes[src].name(),
                        self.nodes[dst].name()
                    )));
                }
            }
        }

        Ok(Network {
            nodes: self.nodes,
            links: self.links,
            routes: Routes {
                index,
                hops,
                num_nodes: n,
                ecmp_seed: self.ecmp_seed,
            },
        })
    }
}

impl Network {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// The name given to a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not part of this network.
    pub fn node_name(&self, node: NodeId) -> &str {
        self.nodes[node.index()].name()
    }

    /// The lowest-link-id next hop from `src` toward `dst`, if a route
    /// exists. On equal-cost topologies, per-packet forwarding may pick
    /// a different member of [`Network::equal_cost_routes`].
    pub fn route(&self, src: NodeId, dst: NodeId) -> Option<(LinkId, usize)> {
        self.routes.first(src, dst)
    }

    /// Every equal-cost next hop from `src` toward `dst`, in link-id
    /// order.
    pub fn equal_cost_routes(&self, src: NodeId, dst: NodeId) -> &[(LinkId, usize)] {
        self.routes.candidates(src, dst)
    }

    /// The full next-hop table, including the ECMP selector.
    pub fn routes(&self) -> &Routes {
        &self.routes
    }

    /// The two endpoint nodes of a link, in transmitting-end order.
    ///
    /// # Panics
    ///
    /// Panics if `link` is not part of this network.
    pub fn link_ends(&self, link: LinkId) -> (NodeId, NodeId) {
        let l = &self.links[link.index()];
        (l.ends[0].node, l.ends[1].node)
    }
}

/// Link rate/delay and queue configuration for one fat-tree tier.
#[derive(Debug, Clone, Copy)]
pub struct TierSpec {
    /// Full-duplex link parameters for every link of the tier.
    pub link: LinkSpec,
    /// Queue configuration at switch-side transmitting ends of the
    /// tier. (Host NIC ends always use [`QueueConfig::host_nic`].)
    pub queue: QueueConfig,
}

impl TierSpec {
    /// A tier with the given link spec and switch queue.
    pub fn new(link: LinkSpec, queue: QueueConfig) -> Self {
        TierSpec { link, queue }
    }
}

/// A parameterized k-ary fat-tree (folded Clos) topology: `k` pods of
/// `k/2` edge and `k/2` aggregation switches each, `(k/2)²` cores, and
/// `hosts_per_edge` hosts under every edge switch. Aggregation switch
/// `a` of every pod connects to cores `a·k/2 .. (a+1)·k/2`, giving
/// `(k/2)²` equal-cost paths between hosts in different pods.
///
/// Node creation order is hosts (pod-major), then edges, aggregations
/// and cores, so host indices are dense from zero. Tier delays are free
/// parameters.
#[derive(Debug, Clone)]
pub struct FatTree {
    k: u32,
    hosts_per_edge: u32,
    host_tier: TierSpec,
    agg_tier: TierSpec,
    core_tier: TierSpec,
    ecmp_seed: u64,
}

/// Node and link ids of a built fat-tree, grouped per tier.
#[derive(Debug, Clone)]
pub struct FatTreeIds {
    /// Hosts, pod-major then edge-major: host `i` sits under edge
    /// `i / hosts_per_edge`.
    pub hosts: Vec<NodeId>,
    /// Edge switches, pod-major (`k/2` per pod).
    pub edges: Vec<NodeId>,
    /// Aggregation switches, pod-major (`k/2` per pod).
    pub aggs: Vec<NodeId>,
    /// Core switches (`(k/2)²`).
    pub cores: Vec<NodeId>,
    /// Host↔edge access links, in host order.
    pub host_links: Vec<LinkId>,
    /// Edge↔aggregation pod-fabric links.
    pub pod_links: Vec<LinkId>,
    /// Aggregation↔core links.
    pub core_links: Vec<LinkId>,
}

/// A built fat-tree: the validated network plus its tier id map.
#[derive(Debug)]
pub struct FatTreeNet {
    /// The routed network, ready for a simulator.
    pub network: Network,
    /// Per-tier node and link ids.
    pub ids: FatTreeIds,
}

impl FatTree {
    /// A fat-tree of arity `k` with `hosts_per_edge` hosts per edge
    /// switch, using placeholder 10/10/40 Gb/s tiers. Configure tiers
    /// with [`FatTree::with_tiers`]; validation happens in
    /// [`FatTree::build`].
    pub fn new(k: u32, hosts_per_edge: u32) -> Self {
        let nic = QueueConfig::host_nic();
        FatTree {
            k,
            hosts_per_edge,
            host_tier: TierSpec::new(LinkSpec::gbps(10.0, 5), nic),
            agg_tier: TierSpec::new(LinkSpec::gbps(10.0, 10), nic),
            core_tier: TierSpec::new(LinkSpec::gbps(40.0, 20), nic),
            ecmp_seed: 0,
        }
    }

    /// Sets the per-tier link and queue parameters (host↔edge,
    /// edge↔aggregation, aggregation↔core).
    pub fn with_tiers(mut self, host: TierSpec, agg: TierSpec, core: TierSpec) -> Self {
        self.host_tier = host;
        self.agg_tier = agg;
        self.core_tier = core;
        self
    }

    /// Sets the ECMP hash seed baked into the routing tables.
    pub fn ecmp_seed(mut self, seed: u64) -> Self {
        self.ecmp_seed = seed;
        self
    }

    /// Total number of hosts: `k · (k/2) · hosts_per_edge`.
    pub fn num_hosts(&self) -> usize {
        self.k as usize * (self.k as usize / 2) * self.hosts_per_edge as usize
    }

    /// Checks the arity, host count and tier parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an odd or out-of-range
    /// `k`, zero hosts per edge, a zero-rate or zero-delay tier, or a
    /// zero-capacity tier queue.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.k < 4 || self.k > 16 {
            return Err(SimError::InvalidConfig(format!(
                "fat-tree arity k = {} must be in 4..=16",
                self.k
            )));
        }
        if self.k % 2 != 0 {
            return Err(SimError::InvalidConfig(format!(
                "fat-tree arity k = {} must be even",
                self.k
            )));
        }
        if self.hosts_per_edge == 0 {
            return Err(SimError::InvalidConfig(
                "fat-tree needs at least one host per edge switch".into(),
            ));
        }
        for (name, tier) in [
            ("host", &self.host_tier),
            ("agg", &self.agg_tier),
            ("core", &self.core_tier),
        ] {
            if tier.link.rate_bps == 0 {
                return Err(SimError::InvalidConfig(format!(
                    "fat-tree {name} tier has a zero-rate link"
                )));
            }
            if tier.link.delay.is_zero() {
                return Err(SimError::InvalidConfig(format!(
                    "fat-tree {name} tier has a zero-delay link"
                )));
            }
            let empty = match tier.queue.capacity {
                crate::Capacity::Packets(p) => p == 0,
                crate::Capacity::Bytes(b) => b == 0,
                crate::Capacity::Unbounded => false,
            };
            if empty {
                return Err(SimError::InvalidConfig(format!(
                    "fat-tree {name} tier queue has zero capacity"
                )));
            }
        }
        Ok(())
    }

    /// Builds and routes the fat-tree. `agents` is called once per host
    /// index (0 .. [`FatTree::num_hosts`]) to supply each host's agent.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for invalid parameters (see
    /// [`FatTree::validate`]) and propagates link construction errors.
    pub fn build<F>(&self, mut agents: F) -> Result<FatTreeNet, SimError>
    where
        F: FnMut(usize) -> Box<dyn Agent>,
    {
        self.validate()?;
        let k = self.k as usize;
        let half = k / 2;
        let hpe = self.hosts_per_edge as usize;
        let mut b = TopologyBuilder::new();
        b.ecmp_seed(self.ecmp_seed);

        let hosts: Vec<NodeId> = (0..self.num_hosts())
            .map(|i| b.host(format!("h{i}"), agents(i)))
            .collect();
        let mut edges = Vec::with_capacity(k * half);
        let mut aggs = Vec::with_capacity(k * half);
        for p in 0..k {
            for e in 0..half {
                edges.push(b.switch(format!("edge{p}_{e}")));
            }
        }
        for p in 0..k {
            for a in 0..half {
                aggs.push(b.switch(format!("agg{p}_{a}")));
            }
        }
        let cores: Vec<NodeId> = (0..half * half)
            .map(|c| b.switch(format!("core{c}")))
            .collect();

        let mut host_links = Vec::with_capacity(hosts.len());
        for (i, &h) in hosts.iter().enumerate() {
            host_links.push(b.link(
                h,
                edges[i / hpe],
                self.host_tier.link,
                QueueConfig::host_nic(),
                self.host_tier.queue,
            )?);
        }
        let mut pod_links = Vec::with_capacity(k * half * half);
        for p in 0..k {
            for e in 0..half {
                for a in 0..half {
                    pod_links.push(b.link(
                        edges[p * half + e],
                        aggs[p * half + a],
                        self.agg_tier.link,
                        self.agg_tier.queue,
                        self.agg_tier.queue,
                    )?);
                }
            }
        }
        let mut core_links = Vec::with_capacity(k * half * half);
        for p in 0..k {
            for a in 0..half {
                for c in 0..half {
                    core_links.push(b.link(
                        aggs[p * half + a],
                        cores[a * half + c],
                        self.core_tier.link,
                        self.core_tier.queue,
                        self.core_tier.queue,
                    )?);
                }
            }
        }
        Ok(FatTreeNet {
            network: b.build()?,
            ids: FatTreeIds {
                hosts,
                edges,
                aggs,
                cores,
                host_links,
                pod_links,
                core_links,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Context, FlowId, Packet};
    use std::any::Any;

    #[derive(Debug)]
    struct Nop;

    impl Agent for Nop {
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Context<'_>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn nic() -> QueueConfig {
        QueueConfig::host_nic()
    }

    #[test]
    fn star_routes_through_hub() {
        let mut b = TopologyBuilder::new();
        let hub = b.switch("hub");
        let hosts: Vec<NodeId> = (0..4)
            .map(|i| b.host(format!("h{i}"), Box::new(Nop)))
            .collect();
        let mut links = Vec::new();
        for &h in &hosts {
            links.push(
                b.link(h, hub, LinkSpec::gbps(1.0, 5), nic(), nic())
                    .unwrap(),
            );
        }
        let net = b.build().unwrap();
        // h0 -> h3 goes via its own uplink first.
        let (l, end) = net.route(hosts[0], hosts[3]).unwrap();
        assert_eq!(l, links[0]);
        assert_eq!(end, 0); // transmitting from the host side
                            // hub -> h3 uses h3's access link, transmitting from the hub side.
        let (l, end) = net.route(hub, hosts[3]).unwrap();
        assert_eq!(l, links[3]);
        assert_eq!(end, 1);
    }

    #[test]
    fn disconnected_hosts_rejected() {
        let mut b = TopologyBuilder::new();
        let _h1 = b.host("h1", Box::new(Nop));
        let _h2 = b.host("h2", Box::new(Nop));
        let err = b.build().unwrap_err();
        assert!(matches!(err, SimError::InvalidTopology(_)));
    }

    #[test]
    fn self_link_rejected() {
        let mut b = TopologyBuilder::new();
        let h = b.host("h", Box::new(Nop));
        let err = b
            .link(h, h, LinkSpec::gbps(1.0, 1), nic(), nic())
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidTopology(_)));
    }

    #[test]
    fn unknown_node_rejected() {
        let mut b = TopologyBuilder::new();
        let h = b.host("h", Box::new(Nop));
        let ghost = NodeId::from_index(42);
        assert!(b
            .link(h, ghost, LinkSpec::gbps(1.0, 1), nic(), nic())
            .is_err());
    }

    #[test]
    fn zero_rate_rejected() {
        let mut b = TopologyBuilder::new();
        let h1 = b.host("h1", Box::new(Nop));
        let h2 = b.host("h2", Box::new(Nop));
        let spec = LinkSpec {
            rate_bps: 0,
            delay: crate::SimDuration::from_micros(1),
        };
        assert!(b.link(h1, h2, spec, nic(), nic()).is_err());
    }

    #[test]
    fn multihop_chain_routes_hop_by_hop() {
        // h1 - s1 - s2 - h2
        let mut b = TopologyBuilder::new();
        let h1 = b.host("h1", Box::new(Nop));
        let s1 = b.switch("s1");
        let s2 = b.switch("s2");
        let h2 = b.host("h2", Box::new(Nop));
        let l0 = b
            .link(h1, s1, LinkSpec::gbps(1.0, 1), nic(), nic())
            .unwrap();
        let l1 = b
            .link(s1, s2, LinkSpec::gbps(1.0, 1), nic(), nic())
            .unwrap();
        let l2 = b
            .link(s2, h2, LinkSpec::gbps(1.0, 1), nic(), nic())
            .unwrap();
        let net = b.build().unwrap();
        assert_eq!(net.route(h1, h2).unwrap().0, l0);
        assert_eq!(net.route(s1, h2).unwrap().0, l1);
        assert_eq!(net.route(s2, h2).unwrap().0, l2);
        // And the reverse path.
        assert_eq!(net.route(h2, h1).unwrap().0, l2);
        assert_eq!(net.route(s2, h1).unwrap().0, l1);
    }

    #[test]
    fn network_accessors() {
        let mut b = TopologyBuilder::new();
        let h1 = b.host("alpha", Box::new(Nop));
        let h2 = b.host("beta", Box::new(Nop));
        let l = b
            .link(h1, h2, LinkSpec::gbps(1.0, 1), nic(), nic())
            .unwrap();
        let net = b.build().unwrap();
        assert_eq!(net.num_nodes(), 2);
        assert_eq!(net.num_links(), 1);
        assert_eq!(net.node_name(h1), "alpha");
        assert_eq!(net.link_ends(l), (h1, h2));
    }

    /// A diamond (h1 - s1 - {sa, sb} - s2 - h2) has two equal-cost
    /// paths; the candidate set is exposed in link-id order.
    fn diamond() -> (Network, NodeId, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let h1 = b.host("h1", Box::new(Nop));
        let h2 = b.host("h2", Box::new(Nop));
        let s1 = b.switch("s1");
        let sa = b.switch("sa");
        let sb = b.switch("sb");
        let s2 = b.switch("s2");
        let spec = LinkSpec::gbps(1.0, 5);
        b.link(h1, s1, spec, nic(), nic()).unwrap();
        b.link(s1, sa, spec, nic(), nic()).unwrap();
        b.link(s1, sb, spec, nic(), nic()).unwrap();
        b.link(sa, s2, spec, nic(), nic()).unwrap();
        b.link(sb, s2, spec, nic(), nic()).unwrap();
        b.link(s2, h2, spec, nic(), nic()).unwrap();
        (b.build().unwrap(), h1, h2, s1)
    }

    #[test]
    fn equal_cost_candidates_exposed_in_link_id_order() {
        let (net, h1, h2, s1) = diamond();
        let set = net.equal_cost_routes(s1, h2);
        assert_eq!(set.len(), 2);
        assert!(set[0].0 < set[1].0, "candidates must be link-id ordered");
        // The single-path legs are unique.
        assert_eq!(net.equal_cost_routes(h1, h2).len(), 1);
        // route() is the lowest-link-id candidate.
        assert_eq!(net.route(s1, h2), Some(set[0]));
    }

    #[test]
    fn ecmp_selection_is_deterministic_and_flow_sensitive() {
        let (net, h1, h2, s1) = diamond();
        let pick = |flow: u64| {
            net.routes()
                .select(s1, &Packet::data(FlowId(flow), h1, h2, 0, 1460))
                .unwrap()
        };
        let mut seen = std::collections::BTreeSet::new();
        for flow in 0..64 {
            // Same packet, same choice — repeatedly.
            assert_eq!(pick(flow), pick(flow));
            seen.insert(pick(flow).0);
        }
        // Across many flows both equal-cost links are exercised.
        assert_eq!(seen.len(), 2, "hash never spread across candidates");
    }

    #[test]
    fn ecmp_seed_changes_the_spread() {
        let build = |seed: u64| {
            let mut b = TopologyBuilder::new();
            b.ecmp_seed(seed);
            let h1 = b.host("h1", Box::new(Nop));
            let h2 = b.host("h2", Box::new(Nop));
            let s1 = b.switch("s1");
            let sa = b.switch("sa");
            let sb = b.switch("sb");
            let s2 = b.switch("s2");
            let spec = LinkSpec::gbps(1.0, 5);
            b.link(h1, s1, spec, nic(), nic()).unwrap();
            b.link(s1, sa, spec, nic(), nic()).unwrap();
            b.link(s1, sb, spec, nic(), nic()).unwrap();
            b.link(sa, s2, spec, nic(), nic()).unwrap();
            b.link(sb, s2, spec, nic(), nic()).unwrap();
            b.link(s2, h2, spec, nic(), nic()).unwrap();
            let net = b.build().unwrap();
            let picks: Vec<LinkId> = (0..32)
                .map(|f| {
                    net.routes()
                        .select(s1, &Packet::data(FlowId(f), h1, h2, 0, 1460))
                        .unwrap()
                        .0
                })
                .collect();
            picks
        };
        assert_ne!(build(1), build(2), "seed must be ECMP key material");
    }

    #[test]
    fn fat_tree_k4_shape() {
        let ft = FatTree::new(4, 2);
        let built = ft.build(|_| Box::new(Nop)).unwrap();
        let (net, ids) = (built.network, built.ids);
        assert_eq!(ids.hosts.len(), 16);
        assert_eq!(ids.edges.len(), 8);
        assert_eq!(ids.aggs.len(), 8);
        assert_eq!(ids.cores.len(), 4);
        assert_eq!(net.num_nodes(), 36);
        assert_eq!(net.num_links(), 16 + 16 + 16);
        // Inter-pod: the edge switch fans out over both pod aggs.
        let h0 = ids.hosts[0];
        let far = ids.hosts[15];
        assert_eq!(net.equal_cost_routes(ids.edges[0], far).len(), 2);
        // And each agg fans out over its two cores.
        assert_eq!(net.equal_cost_routes(ids.aggs[0], far).len(), 2);
        // The host's own uplink is unique.
        assert_eq!(net.equal_cost_routes(h0, far).len(), 1);
    }

    #[test]
    fn fat_tree_invalid_parameters_are_typed_errors() {
        let invalid = |ft: FatTree| {
            let err = ft.build(|_| Box::new(Nop) as Box<dyn Agent>).unwrap_err();
            assert!(
                matches!(err, SimError::InvalidConfig(_)),
                "expected InvalidConfig, got {err:?}"
            );
            err.to_string()
        };
        assert!(invalid(FatTree::new(5, 2)).contains("even"));
        assert!(invalid(FatTree::new(2, 2)).contains("4..=16"));
        assert!(invalid(FatTree::new(18, 2)).contains("4..=16"));
        assert!(invalid(FatTree::new(4, 0)).contains("host per edge"));

        let zero_rate = FatTree::new(4, 1).with_tiers(
            TierSpec::new(
                LinkSpec {
                    rate_bps: 0,
                    delay: crate::SimDuration::from_micros(1),
                },
                nic(),
            ),
            TierSpec::new(LinkSpec::gbps(10.0, 10), nic()),
            TierSpec::new(LinkSpec::gbps(10.0, 20), nic()),
        );
        assert!(invalid(zero_rate).contains("zero-rate"));

        let zero_delay = FatTree::new(4, 1).with_tiers(
            TierSpec::new(LinkSpec::gbps(10.0, 5), nic()),
            TierSpec::new(
                LinkSpec {
                    rate_bps: 10_000_000_000,
                    delay: crate::SimDuration::ZERO,
                },
                nic(),
            ),
            TierSpec::new(LinkSpec::gbps(10.0, 20), nic()),
        );
        assert!(invalid(zero_delay).contains("zero-delay"));

        let zero_cap = FatTree::new(4, 1).with_tiers(
            TierSpec::new(LinkSpec::gbps(10.0, 5), nic()),
            TierSpec::new(LinkSpec::gbps(10.0, 10), nic()),
            TierSpec::new(
                LinkSpec::gbps(10.0, 20),
                QueueConfig {
                    capacity: crate::Capacity::Packets(0),
                    ..nic()
                },
            ),
        );
        assert!(invalid(zero_cap).contains("zero capacity"));
    }
}
