//! Spatial decomposition: home boxes, import regions, and position
//! multicast trees.
//!
//! Parallel MD on Anton partitions the chemical system into boxes, one per
//! node (§II-A). Pair assignment follows the **midpoint method** (Bowers,
//! Dror & Shaw; the scheme behind Anton's parallelization): a pair is
//! computed on the node owning the pair's midpoint, so each node needs the
//! positions of remote atoms within *half* the cutoff radius of its box —
//! the import radius passed to [`Decomposition::new`] is `cutoff / 2`.
//! Every atom's position is multicast each step to its import set; Anton 3
//! does this multicast *in the network* (paper footnote 3): a position
//! crosses each channel of its dimension-ordered multicast tree once,
//! regardless of how many destinations share the edge.

use anton_model::topology::{DimOrder, Direction, NodeId, Torus, TorusCoord};

/// The static geometry of a spatial decomposition.
#[derive(Clone, Debug)]
pub struct Decomposition {
    torus: Torus,
    box_len: [f64; 3],
    node_box: [f64; 3],
    import_radius: f64,
}

impl Decomposition {
    /// Splits a periodic box across a torus machine.
    ///
    /// # Panics
    /// Panics unless every node box dimension and `import_radius` are
    /// positive. Node boxes narrower than the import radius are
    /// accepted: their atoms export beyond the nearest neighbours.
    pub fn new(torus: Torus, box_len: [f64; 3], import_radius: f64) -> Decomposition {
        let dims = torus.dims();
        let node_box = [
            box_len[0] / dims[0] as f64,
            box_len[1] / dims[1] as f64,
            box_len[2] / dims[2] as f64,
        ];
        assert!(
            node_box.iter().all(|&w| w > 0.0) && import_radius > 0.0,
            "degenerate decomposition"
        );
        Decomposition {
            torus,
            box_len,
            node_box,
            import_radius,
        }
    }

    /// The torus this decomposition spans.
    pub fn torus(&self) -> &Torus {
        &self.torus
    }

    /// Per-node box dimensions, Å.
    pub fn node_box(&self) -> [f64; 3] {
        self.node_box
    }

    /// The home node owning position `pos`.
    pub fn home_node(&self, pos: [f64; 3]) -> NodeId {
        let dims = self.torus.dims();
        let mut c = [0u8; 3];
        for k in 0..3 {
            let idx = (pos[k] / self.node_box[k]) as i64;
            c[k] = idx.clamp(0, dims[k] as i64 - 1) as u8;
        }
        self.torus.node_id(TorusCoord::new(c[0], c[1], c[2]))
    }

    /// The remote nodes that must receive this atom's position: every node
    /// whose box lies within the import radius of `pos` (midpoint method:
    /// half the interaction cutoff), excluding the home node, in
    /// [`NodeId`] order.
    ///
    /// A node's distance is the minimal periodic distance from `pos` to
    /// its box, zero inside it. The node boxes of one torus coordinate
    /// `c` along dimension `k` form a slab, so the squared distance to
    /// each slab is computed once per call: with `w` the node box width,
    /// `l` the box length and `δ = (pos[k] − c·w) mod l`, it is
    /// `min(δ − w, l − δ)²` when `δ ≥ w`, else 0. A node's distance is
    /// then `sqrt(t_x + t_y + t_z)` over its three slabs, summed in that
    /// order.
    pub fn export_targets(&self, pos: [f64; 3]) -> Vec<NodeId> {
        let home = self.home_node(pos);
        let dims = self.torus.dims().map(usize::from);
        let mut slabs = Vec::with_capacity(dims.iter().sum());
        for k in 0..3 {
            let (w, l) = (self.node_box[k], self.box_len[k]);
            slabs.extend((0..dims[k]).map(|c| {
                let delta = (pos[k] - c as f64 * w).rem_euclid(l);
                if delta >= w {
                    let dk = (delta - w).min(l - delta);
                    dk * dk
                } else {
                    0.0
                }
            }));
        }
        let (tx, rest) = slabs.split_at(dims[0]);
        let (ty, tz) = rest.split_at(dims[1]);
        // Node ids count x fastest, then y, then z, as `Torus::coord`
        // documents; the brute-force test scans through `Torus::coord`,
        // so it fails if that order changes.
        let mut nodes = self.torus.nodes();
        let mut targets = Vec::new();
        for &z in tz {
            for &y in ty {
                for (&x, n) in tx.iter().zip(&mut nodes) {
                    if n != home && (x + y + z).sqrt() < self.import_radius {
                        targets.push(n);
                    }
                }
            }
        }
        targets
    }
}

/// One edge of a multicast tree: a channel crossing from `from` in
/// direction `dir`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TreeEdge {
    /// The node transmitting on this edge.
    pub from: TorusCoord,
    /// The direction of the crossing.
    pub dir: Direction,
}

/// A dimension-ordered multicast tree from one source node, as
/// [`multicast_tree`] builds it: its edges, each edge's parent, and the
/// edge that reaches each destination.
///
/// Edges are listed in the order the destinations' paths first cross
/// them, so a parent always comes before its children. Edge `i`'s
/// parent is the edge reaching its `from` node, or `None` when `from`
/// is the source. A destination's reaching edge is `None` only when the
/// destination is the source itself. A one-destination tree is that
/// destination's dimension-order path, edge after edge.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MulticastTree {
    edges: Vec<TreeEdge>,
    parents: Vec<Option<usize>>,
    reaching: Vec<(NodeId, Option<usize>)>,
}

impl MulticastTree {
    /// The edges, each after its parent.
    pub fn edges(&self) -> &[TreeEdge] {
        &self.edges
    }

    /// The parent of edge `i`: the edge reaching its `from` node, or
    /// `None` for an edge leaving the source.
    pub fn parent(&self, i: usize) -> Option<usize> {
        self.parents[i]
    }

    /// Each destination, in the order given, with the edge that reaches
    /// it (`None` when the destination is the source).
    pub fn destinations(&self) -> &[(NodeId, Option<usize>)] {
        &self.reaching
    }
}

/// Builds the dimension-ordered multicast tree from `source` to `dests`:
/// the union of each destination's `order` path, each shared edge kept
/// once. Using a per-atom static order spreads through-traffic across
/// all dimensions while keeping each atom's channels fixed step-to-step
/// (so the particle caches stay warm).
/// With a fixed dimension order every node is reached along a unique
/// prefix, so the union is a tree and each edge carries the position once
/// — the in-network multicast of paper footnote 3. A force return is
/// the one-destination tree from the importer back home.
pub fn multicast_tree(
    torus: &Torus,
    source: TorusCoord,
    dests: &[NodeId],
    order: DimOrder,
) -> MulticastTree {
    let mut tree = MulticastTree {
        edges: Vec::new(),
        parents: Vec::new(),
        reaching: Vec::with_capacity(dests.len()),
    };
    for &dest in dests {
        let (mut cur, mut reach) = (source, None);
        for dir in torus.route(source, torus.coord(dest), order) {
            let edge = TreeEdge { from: cur, dir };
            let i = match tree.edges.iter().position(|&e| e == edge) {
                Some(i) => i,
                None => {
                    tree.edges.push(edge);
                    tree.parents.push(reach);
                    tree.edges.len() - 1
                }
            };
            reach = Some(i);
            cur = torus.neighbor(cur, dir);
        }
        tree.reaching.push((dest, reach));
    }
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use anton_model::topology::Dim;
    use anton_sim::rng::SplitMix64;

    fn decomp_2x2x2(box_len: f64, cutoff: f64) -> Decomposition {
        Decomposition::new(Torus::new([2, 2, 2]), [box_len; 3], cutoff)
    }

    #[test]
    fn home_node_partition() {
        let d = decomp_2x2x2(40.0, 6.5);
        assert_eq!(d.home_node([1.0, 1.0, 1.0]), NodeId(0));
        assert_eq!(d.home_node([21.0, 1.0, 1.0]), NodeId(1));
        assert_eq!(d.home_node([1.0, 21.0, 1.0]), NodeId(2));
        assert_eq!(d.home_node([21.0, 21.0, 21.0]), NodeId(7));
        assert_eq!(d.node_box(), [20.0; 3]);
    }

    #[test]
    fn interior_atom_exports_nowhere() {
        // Dead center of node 0's box, more than a cutoff from every face.
        let d = decomp_2x2x2(40.0, 6.5);
        assert!(d.export_targets([10.0, 10.0, 10.0]).is_empty());
    }

    #[test]
    fn face_atom_exports_to_face_neighbor() {
        let d = decomp_2x2x2(40.0, 6.5);
        // 1 A from the +x face of node 0, centered in y, z.
        let targets = d.export_targets([19.0, 10.0, 10.0]);
        assert!(
            targets.contains(&NodeId(1)),
            "must export across +x face: {targets:?}"
        );
        assert!(!targets.contains(&NodeId(2)));
        assert!(!targets.contains(&NodeId(7)));
    }

    #[test]
    fn corner_atom_exports_to_all_sharing_nodes() {
        let d = decomp_2x2x2(40.0, 6.5);
        // 1 A inside node 0's corner at (20, 20, 20).
        let targets = d.export_targets([19.0, 19.0, 19.0]);
        // Every other node's box touches that corner in a 2x2x2.
        assert_eq!(
            targets.len(),
            7,
            "corner atom reaches all 7 remotes: {targets:?}"
        );
    }

    #[test]
    fn wraparound_export() {
        let d = decomp_2x2x2(40.0, 6.5);
        // 1 A from the x=0 face: reaches node 1 through the periodic wrap.
        let targets = d.export_targets([1.0, 10.0, 10.0]);
        assert!(
            targets.contains(&NodeId(1)),
            "wrap export missing: {targets:?}"
        );
    }

    #[test]
    fn export_targets_shrink_with_cutoff() {
        let wide = decomp_2x2x2(40.0, 12.0);
        let narrow = decomp_2x2x2(40.0, 4.0);
        let pos = [19.0, 19.0, 10.0];
        assert!(wide.export_targets(pos).len() >= narrow.export_targets(pos).len());
    }

    /// The minimal periodic distance from `pos` to `node`'s box, zero
    /// inside it, computed per node as `export_targets` did before it
    /// summed per-slab terms.
    fn box_distance(d: &Decomposition, pos: [f64; 3], node: TorusCoord) -> f64 {
        let mut d2 = 0.0;
        #[allow(clippy::needless_range_loop)] // three index-parallel arrays
        for k in 0..3 {
            let w = d.node_box[k];
            let l = d.box_len[k];
            let lo = node.get(Dim::from_index(k)) as f64 * w;
            let delta = (pos[k] - lo).rem_euclid(l);
            if delta >= w {
                let dk = (delta - w).min(l - delta);
                d2 += dk * dk;
            }
        }
        d2.sqrt()
    }

    #[test]
    fn export_targets_match_a_brute_force_scan() {
        let machines = [
            ([4, 4, 8], [73.0; 3]),
            ([2, 2, 2], [40.0; 3]),
            ([3, 5, 4], [30.0, 50.0, 41.0]),
        ];
        let mut rng = SplitMix64::new(17);
        for (dims, box_len) in machines {
            for radius in [3.25, 6.5, 15.0] {
                let d = Decomposition::new(Torus::new(dims), box_len, radius);
                let w = d.node_box();
                // Random positions, then node box faces, the box's far
                // faces and points just outside the box.
                let mut positions: Vec<[f64; 3]> = (0..500)
                    .map(|_| std::array::from_fn(|k| rng.next_f64() * box_len[k]))
                    .collect();
                for c in 0..=8 {
                    positions.push(std::array::from_fn(|k| (c as f64 * w[k]).min(box_len[k])));
                }
                positions.push([-1.0, box_len[1] + 1.0, 0.5 * w[2]]);
                for pos in positions {
                    let home = d.home_node(pos);
                    let scan: Vec<NodeId> = d
                        .torus
                        .nodes()
                        .filter(|&n| n != home && box_distance(&d, pos, d.torus.coord(n)) < radius)
                        .collect();
                    assert_eq!(
                        d.export_targets(pos),
                        scan,
                        "{dims:?} r={radius} at {pos:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn multicast_tree_dedupes_shared_prefixes() {
        let t = Torus::new([4, 4, 4]);
        let home = TorusCoord::new(0, 0, 0);
        // Two destinations sharing the +x first hop.
        let dests = [
            t.node_id(TorusCoord::new(1, 1, 0)),
            t.node_id(TorusCoord::new(1, 0, 1)),
        ];
        let tree = multicast_tree(&t, home, &dests, DimOrder::XYZ);
        // Naive unicast would use 4 edges; the tree shares the +x edge.
        assert_eq!(tree.edges().len(), 3, "{tree:?}");
    }

    #[test]
    fn tree_links_each_edge_to_its_parent_and_each_destination_to_its_edge() {
        for dims in [[4, 4, 8], [4, 4, 4], [2, 2, 2], [3, 5, 4]] {
            let t = Torus::new(dims);
            let last = NodeId(t.node_count() as u16 - 1);
            for source in [t.coord(NodeId(0)), t.coord(last)] {
                // Every third node: the source is among them on some shapes.
                let dests: Vec<NodeId> = t.nodes().filter(|n| n.0 % 3 == 0).collect();
                for order in DimOrder::ALL {
                    let tree = multicast_tree(&t, source, &dests, order);
                    let head = |i: usize| {
                        let e = tree.edges()[i];
                        t.neighbor(e.from, e.dir)
                    };
                    for (i, e) in tree.edges().iter().enumerate() {
                        match tree.parent(i) {
                            Some(p) => {
                                assert!(p < i, "{dims:?} {order}: edge {i}'s parent {p}");
                                assert_eq!(head(p), e.from, "{dims:?} {order}: edge {i}");
                            }
                            None => assert_eq!(e.from, source, "{dims:?} {order}: edge {i}"),
                        }
                    }
                    let listed: Vec<NodeId> = tree.destinations().iter().map(|d| d.0).collect();
                    assert_eq!(listed, dests);
                    for &(dest, reach) in tree.destinations() {
                        let at = t.coord(dest);
                        match reach {
                            Some(i) => assert_eq!(head(i), at, "{dims:?} {order}: {dest}"),
                            None => assert_eq!(at, source, "{dims:?} {order}: {dest} unreached"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tree_is_a_tree() {
        // Edge count == reached nodes - 1 (no cycles, no duplicates).
        let t = Torus::new([4, 4, 4]);
        let home = TorusCoord::new(2, 2, 2);
        let dests: Vec<NodeId> = t.nodes().filter(|n| n.0 % 3 == 0).collect();
        let tree = multicast_tree(&t, home, &dests, DimOrder::XYZ);
        let mut nodes: std::collections::HashSet<TorusCoord> = [home].into();
        for e in tree.edges() {
            nodes.insert(t.neighbor(e.from, e.dir));
        }
        assert_eq!(tree.edges().len(), nodes.len() - 1, "not a tree");
        // The home node is one of the destinations, reached by no edge.
        assert!(tree.destinations().contains(&(t.node_id(home), None)));
    }

    #[test]
    fn a_one_destination_tree_is_the_dimension_order_path() {
        let t = Torus::new([4, 4, 8]);
        let a = TorusCoord::new(0, 0, 0);
        let b = TorusCoord::new(1, 1, 2);
        for order in DimOrder::ALL {
            let tree = multicast_tree(&t, a, &[t.node_id(b)], order);
            let dirs: Vec<Direction> = tree.edges().iter().map(|e| e.dir).collect();
            assert_eq!(dirs, t.route(a, b, order), "{order}");
            let mut cur = a;
            for (i, e) in tree.edges().iter().enumerate() {
                assert_eq!(e.from, cur, "{order}: edge {i}");
                assert_eq!(tree.parent(i), i.checked_sub(1), "{order}: edge {i}");
                cur = t.neighbor(cur, e.dir);
            }
            assert_eq!(cur, b);
            assert_eq!(tree.destinations(), [(t.node_id(b), Some(3))]);
        }
        let xyz = multicast_tree(&t, a, &[t.node_id(b)], DimOrder::XYZ);
        let dims: Vec<Dim> = xyz.edges().iter().map(|e| e.dir.dim()).collect();
        assert_eq!(dims, [Dim::X, Dim::Y, Dim::Z, Dim::Z]);
    }
}
