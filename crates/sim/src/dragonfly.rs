//! Dragonfly / wafer-scale topology whose routers are Hi-Rise switches.
//!
//! A dragonfly (Kim et al.) is a two-level hierarchy: `a` routers per
//! group, fully connected locally; `p` endpoints per router; `h` global
//! channels per router connecting the groups all-to-all. With one
//! channel between every group pair, `g` groups need `g - 1 <= a * h`.
//! Minimal routing is at most local → global → local.
//!
//! The *wafer-scale* reading follows "Switch-Less Dragonfly on Wafers"
//! (PAPERS.md): each group is a wafer (or wafer region) of Hi-Rise
//! switches, and the global channels are the scarce wafer-to-wafer
//! links. Accordingly the fault model here kills whole *wafer links*
//! (group-to-group channels); routing detours dead links through a
//! deterministic intermediate group — the classic Valiant-style escape,
//! but only where the minimal path is broken.
//!
//! Two global-link arrangements are provided ([`GlobalLinkMap`]):
//! *consecutive* (channel `c` of group `G` reaches group `G + c + 1`)
//! and *palmtree* (`G - c - 1`), the two standard wirings; both give
//! one channel per group pair, they differ in which router owns which
//! pair (and therefore in load distribution under non-uniform traffic).
//!
//! Unlike the mesh, links exert no credit back-pressure
//! ([`ShardTopology::credit_links`] is `false`): input queues are
//! unbounded, which makes the network trivially deadlock-free without
//! the escape virtual channels real dragonflies need. Saturation still
//! shows exactly where it should — completed falls behind injected and
//! latency diverges — so stability and latency curves remain
//! meaningful; only finite-buffer effects are idealized away.
//!
//! This topology exists to be *sharded*: a
//! [`ShardedSim`](crate::shard::ShardedSim) over a
//! [`DragonflyGeometry`] runs 10k+ endpoints across worker threads
//! with byte-identical telemetry at any shard count.

use std::collections::{HashMap, HashSet};

use crate::shard::ShardTopology;
use hirise_core::rng::{SeedableRng, SliceRandom, StdRng};
use hirise_core::OutputId;

/// How each group's global channels map to peer groups.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum GlobalLinkMap {
    /// Channel `c` of group `G` connects to group `(G + c + 1) % g`.
    #[default]
    Consecutive,
    /// Channel `c` of group `G` connects to group `(G - c - 1) mod g`.
    Palmtree,
}

/// Shape of a dragonfly: `a` routers/group, `p` endpoints/router,
/// `h` global channels/router, `g` groups.
#[derive(Clone, Copy, Debug)]
pub struct DragonflyConfig {
    routers_per_group: usize,
    endpoints_per_router: usize,
    global_per_router: usize,
    groups: usize,
    map: GlobalLinkMap,
}

impl DragonflyConfig {
    /// A dragonfly with `routers_per_group` routers per group,
    /// `endpoints_per_router` endpoints each, `global_per_router`
    /// global (wafer) links per router, and `groups` groups.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or there are fewer than two
    /// groups (see [`try_new`](Self::try_new); shape errors that depend
    /// on the radix are reported by [`DragonflyGeometry::new`]).
    pub fn new(
        routers_per_group: usize,
        endpoints_per_router: usize,
        global_per_router: usize,
        groups: usize,
    ) -> Self {
        Self::try_new(
            routers_per_group,
            endpoints_per_router,
            global_per_router,
            groups,
        )
        .unwrap_or_else(|e| panic!("{e}"))
    }

    /// As [`new`](Self::new), reporting a zero dimension or fewer than
    /// two groups as an error instead of panicking.
    ///
    /// # Errors
    ///
    /// [`DragonflyError::ZeroDimension`] or
    /// [`DragonflyError::TooFewGroups`].
    pub fn try_new(
        routers_per_group: usize,
        endpoints_per_router: usize,
        global_per_router: usize,
        groups: usize,
    ) -> Result<Self, DragonflyError> {
        for (field, value) in [
            ("routers_per_group", routers_per_group),
            ("endpoints_per_router", endpoints_per_router),
            ("global_per_router", global_per_router),
        ] {
            if value == 0 {
                return Err(DragonflyError::ZeroDimension { field });
            }
        }
        if groups < 2 {
            return Err(DragonflyError::TooFewGroups { groups });
        }
        Ok(Self {
            routers_per_group,
            endpoints_per_router,
            global_per_router,
            groups,
            map: GlobalLinkMap::default(),
        })
    }

    /// Checks that routers of `radix` ports can build this shape: they
    /// host its endpoint, local and global ports, and its global
    /// channels reach every group.
    ///
    /// # Errors
    ///
    /// [`DragonflyError::RadixTooSmall`] or
    /// [`DragonflyError::TooManyGroups`].
    pub fn check_radix(&self, radix: usize) -> Result<(), DragonflyError> {
        let needed = self.ports_needed();
        if radix < needed {
            return Err(DragonflyError::RadixTooSmall { radix, needed });
        }
        let max = self.routers_per_group * self.global_per_router + 1;
        if self.groups > max {
            return Err(DragonflyError::TooManyGroups {
                groups: self.groups,
                max,
            });
        }
        Ok(())
    }

    /// Distinct wafer links, one per group pair: `g(g-1)/2`, the most
    /// [`sample_dead_links`] can kill.
    pub fn wafer_links(&self) -> usize {
        self.groups * (self.groups - 1) / 2
    }

    /// Selects the global-link arrangement.
    pub fn map(mut self, map: GlobalLinkMap) -> Self {
        self.map = map;
        self
    }

    /// Routers per group (`a`).
    pub fn routers_per_group(&self) -> usize {
        self.routers_per_group
    }

    /// Endpoints per router (`p`).
    pub fn endpoints_per_router(&self) -> usize {
        self.endpoints_per_router
    }

    /// Global links per router (`h`).
    pub fn global_per_router(&self) -> usize {
        self.global_per_router
    }

    /// Group count (`g`).
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Switch ports each router needs: `p + (a - 1) + h`.
    pub fn ports_needed(&self) -> usize {
        self.endpoints_per_router + self.routers_per_group - 1 + self.global_per_router
    }
}

/// Why a [`DragonflyGeometry`] could not be built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DragonflyError {
    /// A shape dimension is zero.
    ZeroDimension {
        /// The dimension: `routers_per_group`, `endpoints_per_router`
        /// or `global_per_router`.
        field: &'static str,
    },
    /// Fewer than two groups.
    TooFewGroups {
        /// Configured group count.
        groups: usize,
    },
    /// The switch radix cannot host endpoint + local + global ports.
    RadixTooSmall {
        /// The offered radix.
        radix: usize,
        /// Ports the shape needs (`p + a - 1 + h`).
        needed: usize,
    },
    /// More groups than the per-group global channels can reach.
    TooManyGroups {
        /// Configured group count.
        groups: usize,
        /// Maximum supported by the shape (`a * h + 1`).
        max: usize,
    },
    /// A dead wafer link names a group outside `0..groups` or a
    /// self-link.
    BadDeadLink {
        /// The offending pair as given.
        link: (usize, usize),
    },
    /// After removing the dead wafer links, some group pair has neither
    /// a direct link nor any intermediate group with both legs alive.
    Unroutable {
        /// Source group of the first unroutable pair found.
        from_group: usize,
        /// Destination group.
        to_group: usize,
    },
}

impl std::fmt::Display for DragonflyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DragonflyError::ZeroDimension { field } => write!(f, "{field} must be at least 1"),
            DragonflyError::TooFewGroups { groups } => {
                write!(f, "a dragonfly needs at least two groups, got {groups}")
            }
            DragonflyError::RadixTooSmall { radix, needed } => {
                write!(
                    f,
                    "radix {radix} too small: shape needs {needed} ports per router"
                )
            }
            DragonflyError::TooManyGroups { groups, max } => {
                write!(
                    f,
                    "{groups} groups exceed the {max} reachable with a*h channels"
                )
            }
            DragonflyError::BadDeadLink { link } => {
                write!(f, "dead wafer link {link:?} is out of range or a self-link")
            }
            DragonflyError::Unroutable {
                from_group,
                to_group,
            } => write!(
                f,
                "groups {from_group} -> {to_group} unreachable: direct wafer link dead and no \
                 intermediate group has both legs alive"
            ),
        }
    }
}

impl std::error::Error for DragonflyError {}

/// The pure geometry of a dragonfly of Hi-Rise switches, with an
/// optional set of dead wafer (global) links and precomputed detours
/// around them. Implements [`ShardTopology`], so it plugs straight
/// into [`ShardedSim`](crate::shard::ShardedSim).
///
/// Router ports: `[0, p)` endpoints, `[p, p + a - 1)` local links,
/// `[p + a - 1, p + a - 1 + h)` global links; any further ports of an
/// oversized switch stay unused. Node `G * a + r` is router `r` of
/// group `G`; endpoint numbering is node-major (`node * p + local`).
#[derive(Clone, Debug)]
pub struct DragonflyGeometry {
    cfg: DragonflyConfig,
    radix: usize,
    /// Dead group-pair links, stored as `(min, max)`.
    dead: HashSet<(usize, usize)>,
    /// For each ordered dead pair `(src, dst)`, the deterministic
    /// intermediate group with both legs alive.
    detour: HashMap<(usize, usize), usize>,
}

fn ordered(a: usize, b: usize) -> (usize, usize) {
    (a.min(b), a.max(b))
}

impl DragonflyGeometry {
    /// Builds the geometry on switches of `radix` ports with the given
    /// dead wafer links, validating that every group pair stays
    /// routable (directly or through one intermediate group).
    pub fn new(
        cfg: DragonflyConfig,
        radix: usize,
        dead_links: &[(usize, usize)],
    ) -> Result<Self, DragonflyError> {
        cfg.check_radix(radix)?;
        let g = cfg.groups;
        let mut dead = HashSet::new();
        for &link in dead_links {
            let (a, b) = link;
            if a >= g || b >= g || a == b {
                return Err(DragonflyError::BadDeadLink { link });
            }
            dead.insert(ordered(a, b));
        }
        let mut geo = Self {
            cfg,
            radix,
            dead,
            detour: HashMap::new(),
        };
        // Precompute a detour for every ordered dead pair: the first
        // intermediate (scanning deterministically from the destination
        // group) with both legs alive. A packet rerouted to the
        // intermediate then takes the alive direct path, so one level
        // of detour suffices.
        let dead_pairs: Vec<(usize, usize)> = geo.dead.iter().copied().collect();
        for (a, b) in dead_pairs {
            for (src, dst) in [(a, b), (b, a)] {
                let via = (1..g)
                    .map(|k| (dst + k) % g)
                    .find(|&via| {
                        via != src
                            && via != dst
                            && geo.link_alive(src, via)
                            && geo.link_alive(via, dst)
                    })
                    .ok_or(DragonflyError::Unroutable {
                        from_group: src,
                        to_group: dst,
                    })?;
                geo.detour.insert((src, dst), via);
            }
        }
        Ok(geo)
    }

    /// The shape this geometry was built from.
    pub fn config(&self) -> &DragonflyConfig {
        &self.cfg
    }

    /// Number of dead wafer links.
    pub fn dead_link_count(&self) -> usize {
        self.dead.len()
    }

    /// Whether the direct wafer link between two groups is alive.
    pub fn link_alive(&self, a: usize, b: usize) -> bool {
        !self.dead.contains(&ordered(a, b))
    }

    /// The global channel index at `src_group` whose link reaches
    /// `dst_group` (groups must differ).
    fn channel_between(&self, src_group: usize, dst_group: usize) -> usize {
        let g = self.cfg.groups;
        debug_assert_ne!(src_group, dst_group);
        match self.cfg.map {
            GlobalLinkMap::Consecutive => (dst_group + g - src_group - 1) % g,
            GlobalLinkMap::Palmtree => (src_group + g - dst_group - 1) % g,
        }
    }

    /// The group reached by global channel `c` of `group`.
    fn peer_group(&self, group: usize, c: usize) -> usize {
        let g = self.cfg.groups;
        match self.cfg.map {
            GlobalLinkMap::Consecutive => (group + c + 1) % g,
            GlobalLinkMap::Palmtree => (group + g - 1 - c) % g,
        }
    }

    /// Local-link output port at router `r` toward same-group router
    /// `r2`.
    fn local_port(&self, r: usize, r2: usize) -> usize {
        debug_assert_ne!(r, r2);
        self.cfg.endpoints_per_router + if r2 < r { r2 } else { r2 - 1 }
    }

    /// The group a packet leaving `src_group` for `dst_group` should
    /// head to: the destination itself, or the precomputed detour when
    /// the direct wafer link is dead.
    fn exit_group(&self, src_group: usize, dst_group: usize) -> usize {
        if self.link_alive(src_group, dst_group) {
            dst_group
        } else {
            self.detour[&(src_group, dst_group)]
        }
    }

    /// The routers a packet from `src_endpoint` to `dst_endpoint`
    /// visits, in order — the golden reference the differential tests
    /// step the simulator against.
    pub fn golden_path(&self, src_endpoint: usize, dst_endpoint: usize) -> Vec<usize> {
        let p = self.cfg.endpoints_per_router;
        let mut node = src_endpoint / p;
        let mut path = vec![node];
        // Detour routing visits at most 6 routers
        // (local, global, local, global, local between 6 of them).
        for _ in 0..8 {
            let output = ShardTopology::route(self, node, dst_endpoint, 0);
            match ShardTopology::wire(self, node, output) {
                None => {
                    assert_eq!(node, dst_endpoint / p, "ejected at the wrong router");
                    return path;
                }
                Some((next, _)) => {
                    node = next;
                    path.push(node);
                }
            }
        }
        panic!("routing loop from endpoint {src_endpoint} to {dst_endpoint}: {path:?}");
    }
}

impl ShardTopology for DragonflyGeometry {
    fn nodes(&self) -> usize {
        self.cfg.groups * self.cfg.routers_per_group
    }

    fn radix(&self) -> usize {
        self.radix
    }

    fn endpoints_per_node(&self) -> usize {
        self.cfg.endpoints_per_router
    }

    fn endpoint_port(&self, local: usize) -> usize {
        debug_assert!(local < self.cfg.endpoints_per_router);
        local
    }

    fn route(&self, node: usize, dst_endpoint: usize, _lane: usize) -> OutputId {
        let a = self.cfg.routers_per_group;
        let p = self.cfg.endpoints_per_router;
        let h = self.cfg.global_per_router;
        let group = node / a;
        let r = node % a;
        let dst_node = dst_endpoint / p;
        let dst_group = dst_node / a;
        if group == dst_group {
            if node == dst_node {
                // Eject to the local endpoint.
                return OutputId::new(dst_endpoint % p);
            }
            return OutputId::new(self.local_port(r, dst_node % a));
        }
        let exit = self.exit_group(group, dst_group);
        let c = self.channel_between(group, exit);
        let owner = c / h;
        if r == owner {
            OutputId::new(p + a - 1 + c % h)
        } else {
            OutputId::new(self.local_port(r, owner))
        }
    }

    fn wire(&self, node: usize, output: OutputId) -> Option<(usize, usize)> {
        let a = self.cfg.routers_per_group;
        let p = self.cfg.endpoints_per_router;
        let h = self.cfg.global_per_router;
        let g = self.cfg.groups;
        let group = node / a;
        let r = node % a;
        let o = output.index();
        if o < p {
            return None; // endpoint ejection
        }
        if o < p + a - 1 {
            let slot = o - p;
            let r2 = slot + usize::from(slot >= r);
            // Peer's local port back toward us.
            return Some((group * a + r2, self.local_port(r2, r)));
        }
        if o < p + a - 1 + h {
            let c = r * h + (o - (p + a - 1));
            if c >= g - 1 {
                return None; // spare global port beyond the g-1 channels
            }
            let peer = self.peer_group(group, c);
            let back = g - 2 - c; // the peer's channel on the same link
            return Some((peer * a + back / h, p + a - 1 + back % h));
        }
        None // unused port of an oversized switch
    }

    fn credit_links(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "dragonfly"
    }
}

/// Samples `count` distinct wafer links to kill, purely from `seed`:
/// the sweep axis for wafer-scale fault experiments. Links are drawn
/// from all `g * (g - 1) / 2` group pairs without replacement.
///
/// # Panics
///
/// Panics if `count` exceeds the number of distinct links.
pub fn sample_dead_links(groups: usize, count: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut pairs: Vec<(usize, usize)> = (0..groups)
        .flat_map(|a| (a + 1..groups).map(move |b| (a, b)))
        .collect();
    assert!(
        count <= pairs.len(),
        "cannot kill {count} of {} wafer links",
        pairs.len()
    );
    let mut rng = StdRng::seed_from_u64(seed);
    pairs.shuffle(&mut rng);
    pairs.truncate(count);
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo(map: GlobalLinkMap) -> DragonflyGeometry {
        // a=4, p=2, h=2, g=9 = a*h+1 (fully provisioned), radix 8.
        DragonflyGeometry::new(DragonflyConfig::new(4, 2, 2, 9).map(map), 8, &[]).unwrap()
    }

    #[test]
    fn shape_errors_are_typed() {
        let cfg = DragonflyConfig::new(4, 2, 2, 9);
        assert_eq!(cfg.ports_needed(), 7);
        assert_eq!(
            DragonflyGeometry::new(cfg, 6, &[]).err(),
            Some(DragonflyError::RadixTooSmall {
                radix: 6,
                needed: 7
            })
        );
        let cfg = DragonflyConfig::new(2, 2, 1, 4);
        assert_eq!(
            DragonflyGeometry::new(cfg, 8, &[]).err(),
            Some(DragonflyError::TooManyGroups { groups: 4, max: 3 })
        );
        let cfg = DragonflyConfig::new(4, 2, 2, 9);
        assert_eq!(
            DragonflyGeometry::new(cfg, 8, &[(0, 9)]).err(),
            Some(DragonflyError::BadDeadLink { link: (0, 9) })
        );
    }

    #[test]
    fn every_wire_has_a_symmetric_reverse() {
        for map in [GlobalLinkMap::Consecutive, GlobalLinkMap::Palmtree] {
            let geo = geo(map);
            for node in 0..geo.nodes() {
                for o in 0..geo.radix() {
                    let Some((peer, input)) = geo.wire(node, OutputId::new(o)) else {
                        continue;
                    };
                    // The peer's same-index output must wire straight back.
                    let back = geo.wire(peer, OutputId::new(input));
                    assert_eq!(
                        back,
                        Some((node, o)),
                        "{map:?}: wire {node}:{o} -> {peer}:{input} not symmetric"
                    );
                }
            }
        }
    }

    #[test]
    fn global_links_connect_every_group_pair_once() {
        for map in [GlobalLinkMap::Consecutive, GlobalLinkMap::Palmtree] {
            let geo = geo(map);
            let a = geo.config().routers_per_group();
            let g = geo.config().groups();
            let mut pairs = HashSet::new();
            for node in 0..geo.nodes() {
                for o in 0..geo.radix() {
                    if let Some((peer, _)) = geo.wire(node, OutputId::new(o)) {
                        let (ga, gb) = (node / a, peer / a);
                        if ga != gb {
                            pairs.insert(ordered(ga, gb));
                        }
                    }
                }
            }
            assert_eq!(pairs.len(), g * (g - 1) / 2, "{map:?}");
        }
    }

    #[test]
    fn golden_paths_are_minimal_without_faults() {
        let geo = geo(GlobalLinkMap::Consecutive);
        let p = geo.config().endpoints_per_router();
        let total = geo.total_endpoints();
        for src in [0, 3, 17, total - 1] {
            for dst in [0, 5, 29, total - 2] {
                if src / p == dst / p {
                    continue;
                }
                let path = geo.golden_path(src, dst);
                assert!(
                    path.len() <= 4,
                    "minimal dragonfly path visits <= 4 routers, got {path:?}"
                );
                assert_eq!(*path.last().unwrap(), dst / p);
            }
        }
    }

    #[test]
    fn dead_link_paths_detour_and_stay_bounded() {
        let cfg = DragonflyConfig::new(4, 2, 2, 9);
        let geo = DragonflyGeometry::new(cfg, 8, &[(0, 5)]).unwrap();
        let p = geo.config().endpoints_per_router();
        let a = geo.config().routers_per_group();
        // Endpoint in group 0 to endpoint in group 5: must detour.
        let src = 0;
        let dst = 5 * a * p;
        let path = geo.golden_path(src, dst);
        let groups: Vec<usize> = path.iter().map(|n| n / a).collect();
        assert!(groups.contains(&geo.detour[&(0, 5)]), "path {groups:?}");
        assert!(path.len() <= 6, "detour path too long: {path:?}");
        assert_eq!(*path.last().unwrap(), dst / p);
    }

    #[test]
    fn unroutable_dead_links_are_rejected() {
        // g=3: kill both links of group 0 — nothing can reach it.
        let cfg = DragonflyConfig::new(2, 2, 1, 3);
        assert!(matches!(
            DragonflyGeometry::new(cfg, 5, &[(0, 1), (0, 2)]),
            Err(DragonflyError::Unroutable { .. })
        ));
    }

    #[test]
    fn sampled_dead_links_are_distinct_and_seeded() {
        let links = sample_dead_links(9, 10, 42);
        assert_eq!(links.len(), 10);
        let set: HashSet<_> = links.iter().collect();
        assert_eq!(set.len(), 10);
        assert_eq!(links, sample_dead_links(9, 10, 42));
        assert_ne!(links, sample_dead_links(9, 10, 43));
    }
}
