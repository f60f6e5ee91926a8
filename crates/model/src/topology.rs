//! 3D-torus machine topology: node coordinates, neighbor directions, and
//! minimal-hop distance math.
//!
//! Anton 3 machines connect up to 512 nodes in a 3D torus (paper §II-B).
//! Each node has six neighbors — X+, X−, Y+, Y−, Z+ and Z− — reached over
//! 16 SERDES lanes each. The coordinate algebra itself is
//! shape-agnostic, so mega-fabric studies (16³, 32³) beyond the shipped
//! machine size use the same type; only the dense [`NodeId`] space (u16,
//! 65536 nodes) bounds a [`Torus`]. This module provides the coordinate
//! algebra that the routing, fence, and experiment code builds on.

use core::fmt;
use serde::{Deserialize, Serialize};

/// The three torus dimensions.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Dim {
    /// The X dimension of the inter-node torus.
    X,
    /// The Y dimension of the inter-node torus.
    Y,
    /// The Z dimension of the inter-node torus.
    Z,
}

impl Dim {
    /// All three dimensions, in XYZ order.
    pub const ALL: [Dim; 3] = [Dim::X, Dim::Y, Dim::Z];

    /// The index of this dimension (X→0, Y→1, Z→2).
    pub const fn index(self) -> usize {
        match self {
            Dim::X => 0,
            Dim::Y => 1,
            Dim::Z => 2,
        }
    }

    /// The dimension with the given index.
    ///
    /// # Panics
    /// Panics if `i > 2`.
    pub fn from_index(i: usize) -> Dim {
        Dim::ALL[i]
    }
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dim::X => write!(f, "X"),
            Dim::Y => write!(f, "Y"),
            Dim::Z => write!(f, "Z"),
        }
    }
}

/// One of the six torus neighbor directions (a dimension plus a sign).
///
/// ```
/// use anton_model::topology::{Dim, Direction};
/// let d = Direction::new(Dim::X, true);
/// assert_eq!(d.to_string(), "X+");
/// assert_eq!(d.opposite().to_string(), "X-");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct Direction {
    dim: Dim,
    positive: bool,
}

impl Direction {
    /// All six directions in the canonical order X+, X−, Y+, Y−, Z+, Z−.
    pub const ALL: [Direction; 6] = [
        Direction {
            dim: Dim::X,
            positive: true,
        },
        Direction {
            dim: Dim::X,
            positive: false,
        },
        Direction {
            dim: Dim::Y,
            positive: true,
        },
        Direction {
            dim: Dim::Y,
            positive: false,
        },
        Direction {
            dim: Dim::Z,
            positive: true,
        },
        Direction {
            dim: Dim::Z,
            positive: false,
        },
    ];

    /// Creates a direction from a dimension and a sign.
    pub const fn new(dim: Dim, positive: bool) -> Self {
        Direction { dim, positive }
    }

    /// The dimension this direction travels along.
    pub const fn dim(self) -> Dim {
        self.dim
    }

    /// Whether this is the positive direction of its dimension.
    pub const fn is_positive(self) -> bool {
        self.positive
    }

    /// The opposite direction (same dimension, flipped sign).
    pub const fn opposite(self) -> Direction {
        Direction {
            dim: self.dim,
            positive: !self.positive,
        }
    }

    /// A stable dense index in `0..6`, matching the order of [`Self::ALL`].
    pub const fn index(self) -> usize {
        self.dim.index() * 2 + if self.positive { 0 } else { 1 }
    }

    /// The direction with the given dense index.
    ///
    /// # Panics
    /// Panics if `i > 5`.
    pub fn from_index(i: usize) -> Direction {
        Direction::ALL[i]
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.dim, if self.positive { "+" } else { "-" })
    }
}

/// One of the six dimension orders a request packet may follow
/// (paper §III-B2: XYZ, XZY, YXZ, YZX, ZXY, ZYX).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct DimOrder(pub [Dim; 3]);

impl DimOrder {
    /// All six permutations of (X, Y, Z).
    pub const ALL: [DimOrder; 6] = [
        DimOrder([Dim::X, Dim::Y, Dim::Z]),
        DimOrder([Dim::X, Dim::Z, Dim::Y]),
        DimOrder([Dim::Y, Dim::X, Dim::Z]),
        DimOrder([Dim::Y, Dim::Z, Dim::X]),
        DimOrder([Dim::Z, Dim::X, Dim::Y]),
        DimOrder([Dim::Z, Dim::Y, Dim::X]),
    ];

    /// The canonical XYZ order, which response packets are restricted to
    /// (paper §III-B2).
    pub const XYZ: DimOrder = DimOrder([Dim::X, Dim::Y, Dim::Z]);
}

impl fmt::Display for DimOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}{}", self.0[0], self.0[1], self.0[2])
    }
}

/// A node's coordinates within the 3D torus.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, Serialize, Deserialize)]
pub struct TorusCoord {
    /// X coordinate, in `0..dims[0]`.
    pub x: u8,
    /// Y coordinate, in `0..dims[1]`.
    pub y: u8,
    /// Z coordinate, in `0..dims[2]`.
    pub z: u8,
}

impl TorusCoord {
    /// Creates a coordinate triple.
    pub const fn new(x: u8, y: u8, z: u8) -> Self {
        TorusCoord { x, y, z }
    }

    /// The coordinate along `dim`.
    pub const fn get(self, dim: Dim) -> u8 {
        match dim {
            Dim::X => self.x,
            Dim::Y => self.y,
            Dim::Z => self.z,
        }
    }

    /// Returns a copy with the coordinate along `dim` replaced.
    pub fn with(self, dim: Dim, value: u8) -> Self {
        let mut c = self;
        match dim {
            Dim::X => c.x = value,
            Dim::Y => c.y = value,
            Dim::Z => c.z = value,
        }
        c
    }
}

impl fmt::Display for TorusCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{},{})", self.x, self.y, self.z)
    }
}

/// A dense node identifier, `0..node_count`.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct NodeId(pub u16);

impl NodeId {
    /// The raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The shape of a torus machine plus coordinate/ID conversions.
///
/// ```
/// use anton_model::topology::{Torus, NodeId, TorusCoord};
/// let t = Torus::new([4, 4, 8]);
/// assert_eq!(t.node_count(), 128);
/// let c = t.coord(NodeId(37));
/// assert_eq!(t.node_id(c), NodeId(37));
/// assert_eq!(t.diameter(), 2 + 2 + 4);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Torus {
    dims: [u8; 3],
}

impl Torus {
    /// The largest node count a torus may have: the dense [`NodeId`]
    /// space (u16). Shipped Anton 3 machines stop at 512 nodes, but the
    /// simulator routes mega-fabric shapes (16³ = 4096, 32³ = 32768) up
    /// to this bound.
    pub const MAX_NODES: usize = 1 << 16;

    /// Creates a torus with the given extent in each dimension.
    ///
    /// # Panics
    /// Panics if any dimension is zero or the machine exceeds
    /// [`Torus::MAX_NODES`] nodes (the u16 [`NodeId`] space).
    pub fn new(dims: [u8; 3]) -> Self {
        assert!(
            dims.iter().all(|&d| d >= 1),
            "torus dimensions must be >= 1"
        );
        let n: u32 = dims.iter().map(|&d| d as u32).product();
        assert!(
            n as usize <= Torus::MAX_NODES,
            "torus exceeds the {}-node NodeId space, got {n}",
            Torus::MAX_NODES
        );
        Torus { dims }
    }

    /// The extent of each dimension.
    pub const fn dims(&self) -> [u8; 3] {
        self.dims
    }

    /// The extent along one dimension.
    pub const fn extent(&self, dim: Dim) -> u8 {
        self.dims[dim.index()]
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> usize {
        self.dims.iter().map(|&d| d as usize).product()
    }

    /// Converts a node ID to torus coordinates (x fastest-varying).
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn coord(&self, id: NodeId) -> TorusCoord {
        let i = id.index();
        assert!(i < self.node_count(), "node {id} out of range");
        let [dx, dy, _dz] = self.dims.map(|d| d as usize);
        TorusCoord {
            x: (i % dx) as u8,
            y: ((i / dx) % dy) as u8,
            z: (i / (dx * dy)) as u8,
        }
    }

    /// Converts torus coordinates to a node ID.
    ///
    /// # Panics
    /// Panics if any coordinate is out of range.
    pub fn node_id(&self, c: TorusCoord) -> NodeId {
        for dim in Dim::ALL {
            assert!(
                c.get(dim) < self.extent(dim),
                "coordinate {c} out of range for torus {:?}",
                self.dims
            );
        }
        let [dx, dy, _] = self.dims.map(|d| d as usize);
        NodeId((c.x as usize + dx * (c.y as usize + dy * c.z as usize)) as u16)
    }

    /// Iterates over all node IDs.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        // Count in usize: a full 65536-node torus would wrap a u16 range
        // bound to an empty iterator.
        (0..self.node_count()).map(|i| NodeId(i as u16))
    }

    /// The neighbor of `c` in direction `d`, with wraparound.
    pub fn neighbor(&self, c: TorusCoord, d: Direction) -> TorusCoord {
        let ext = self.extent(d.dim()) as i16;
        let cur = c.get(d.dim()) as i16;
        let next = if d.is_positive() {
            (cur + 1).rem_euclid(ext)
        } else {
            (cur - 1).rem_euclid(ext)
        };
        c.with(d.dim(), next as u8)
    }

    /// The signed minimal displacement from `a` to `b` along `dim`,
    /// choosing the shorter way around the ring (ties go positive).
    pub fn signed_distance(&self, a: TorusCoord, b: TorusCoord, dim: Dim) -> i16 {
        let ext = self.extent(dim) as i16;
        let raw = (b.get(dim) as i16 - a.get(dim) as i16).rem_euclid(ext);
        if raw * 2 <= ext {
            raw
        } else {
            raw - ext
        }
    }

    /// Minimal hop count between two nodes.
    pub fn hop_distance(&self, a: TorusCoord, b: TorusCoord) -> u32 {
        Dim::ALL
            .iter()
            .map(|&d| self.signed_distance(a, b, d).unsigned_abs() as u32)
            .sum()
    }

    /// The network diameter: the maximum minimal hop count over all pairs.
    pub fn diameter(&self) -> u32 {
        self.dims.iter().map(|&d| (d / 2) as u32).sum()
    }

    /// The first direction a minimal route takes from `a` toward `b` when
    /// following dimension order `order`, or `None` if `a == b`.
    pub fn first_hop(&self, a: TorusCoord, b: TorusCoord, order: DimOrder) -> Option<Direction> {
        for dim in order.0 {
            let d = self.signed_distance(a, b, dim);
            if d != 0 {
                return Some(Direction::new(dim, d > 0));
            }
        }
        None
    }

    /// The full minimal route from `a` to `b` as a direction sequence under
    /// dimension order `order`.
    pub fn route(&self, a: TorusCoord, b: TorusCoord, order: DimOrder) -> Vec<Direction> {
        let mut route = Vec::new();
        let mut cur = a;
        while let Some(d) = self.first_hop(cur, b, order) {
            route.push(d);
            cur = self.neighbor(cur, d);
        }
        route
    }
}

impl fmt::Display for Torus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{}x{} torus",
            self.dims[0], self.dims[1], self.dims[2]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_indexing_roundtrips() {
        for (i, d) in Direction::ALL.iter().enumerate() {
            assert_eq!(d.index(), i);
            assert_eq!(Direction::from_index(i), *d);
            assert_eq!(d.opposite().opposite(), *d);
            assert_ne!(d.opposite(), *d);
        }
    }

    #[test]
    fn dim_orders_are_all_permutations() {
        use std::collections::HashSet;
        let set: HashSet<[usize; 3]> = DimOrder::ALL
            .iter()
            .map(|o| [o.0[0].index(), o.0[1].index(), o.0[2].index()])
            .collect();
        assert_eq!(set.len(), 6);
        for p in &set {
            let mut s = *p;
            s.sort_unstable();
            assert_eq!(s, [0, 1, 2]);
        }
    }

    #[test]
    fn coord_id_roundtrip_128_node() {
        let t = Torus::new([4, 4, 8]);
        for n in t.nodes() {
            assert_eq!(t.node_id(t.coord(n)), n);
        }
    }

    #[test]
    fn neighbors_wrap() {
        let t = Torus::new([2, 2, 2]);
        let origin = TorusCoord::new(0, 0, 0);
        // In a 2-ring, both X+ and X- lead to the same node...
        let xp = t.neighbor(origin, Direction::new(Dim::X, true));
        let xm = t.neighbor(origin, Direction::new(Dim::X, false));
        assert_eq!(xp, xm);
        assert_eq!(xp, TorusCoord::new(1, 0, 0));
        // ...but in a 4-ring they do not.
        let t4 = Torus::new([4, 1, 1]);
        let p = t4.neighbor(origin, Direction::new(Dim::X, true));
        let m = t4.neighbor(origin, Direction::new(Dim::X, false));
        assert_eq!(p, TorusCoord::new(1, 0, 0));
        assert_eq!(m, TorusCoord::new(3, 0, 0));
    }

    #[test]
    fn signed_distance_takes_short_way() {
        let t = Torus::new([8, 1, 1]);
        let a = TorusCoord::new(0, 0, 0);
        assert_eq!(t.signed_distance(a, TorusCoord::new(3, 0, 0), Dim::X), 3);
        assert_eq!(t.signed_distance(a, TorusCoord::new(5, 0, 0), Dim::X), -3);
        // Tie (distance 4 either way) resolves positive.
        assert_eq!(t.signed_distance(a, TorusCoord::new(4, 0, 0), Dim::X), 4);
    }

    #[test]
    fn hop_distance_and_diameter() {
        let t = Torus::new([4, 4, 8]);
        assert_eq!(t.diameter(), 8); // paper §V-F: 8-hop global barrier on 4x4x8
        let a = TorusCoord::new(0, 0, 0);
        let far = TorusCoord::new(2, 2, 4);
        assert_eq!(t.hop_distance(a, far), 8);
        assert_eq!(t.hop_distance(a, a), 0);
    }

    #[test]
    fn routes_are_minimal_and_ordered() {
        let t = Torus::new([4, 4, 8]);
        let a = TorusCoord::new(0, 0, 0);
        let b = TorusCoord::new(1, 3, 2);
        for order in DimOrder::ALL {
            let route = t.route(a, b, order);
            assert_eq!(
                route.len() as u32,
                t.hop_distance(a, b),
                "route under {order} not minimal"
            );
            // Dimensions appear in the order's sequence.
            let mut cur = a;
            let mut last_stage = 0;
            for d in &route {
                let stage = order.0.iter().position(|&x| x == d.dim()).unwrap();
                assert!(
                    stage >= last_stage,
                    "route violates dimension order {order}"
                );
                last_stage = stage;
                cur = t.neighbor(cur, *d);
            }
            assert_eq!(cur, b);
        }
    }

    #[test]
    fn first_hop_none_at_destination() {
        let t = Torus::new([2, 2, 2]);
        let a = TorusCoord::new(1, 1, 1);
        assert_eq!(t.first_hop(a, a, DimOrder::XYZ), None);
    }

    #[test]
    fn accepts_mega_fabric_shapes() {
        // 16³ and 32³ exceed the shipped 512-node machines but fit the
        // NodeId space; coord/id conversion must roundtrip at the edges.
        for dims in [[16, 16, 16], [32, 32, 32]] {
            let t = Torus::new(dims);
            let n = t.node_count();
            assert_eq!(t.nodes().count(), n);
            let last = NodeId((n - 1) as u16);
            assert_eq!(t.node_id(t.coord(last)), last);
        }
        // The full 65536-node NodeId space is the inclusive bound.
        let t = Torus::new([64, 64, 16]);
        assert_eq!(t.node_count(), Torus::MAX_NODES);
        assert_eq!(t.nodes().count(), Torus::MAX_NODES);
    }

    #[test]
    #[should_panic(expected = "NodeId space")]
    fn rejects_oversized_machines() {
        let _ = Torus::new([64, 64, 32]);
    }

    #[test]
    fn display_impls() {
        assert_eq!(Torus::new([2, 2, 2]).to_string(), "2x2x2 torus");
        assert_eq!(TorusCoord::new(1, 2, 3).to_string(), "(1,2,3)");
        assert_eq!(NodeId(7).to_string(), "n7");
        assert_eq!(DimOrder::XYZ.to_string(), "XYZ");
    }
}
