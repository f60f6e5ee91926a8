//! Integration: the spatial decomposition guarantees the paper's §II-C
//! invariant — every range-limited pair is computable on a node that has
//! both positions — and the traffic the timestep engine generates is
//! self-consistent.

use anton3::md::decomp::{multicast_tree, Decomposition};
use anton3::md::integrate::Simulation;
use anton3::model::topology::{DimOrder, NodeId, Torus};

/// Midpoint-method coverage: for every interacting pair (a, b), the node
/// owning the pair's midpoint holds both positions — b's home plus a's
/// export, a's home plus b's export, or a third node importing both.
#[test]
fn every_cutoff_pair_is_computable_somewhere() {
    let mut sim = Simulation::water(1200, 19);
    sim.run(2);
    let torus = Torus::new([2, 2, 2]);
    let decomp = Decomposition::new(torus, sim.system.box_len, sim.params.cutoff * 0.5);
    let rc2 = sim.params.cutoff * sim.params.cutoff;

    // availability[node] = set of atoms whose position node holds.
    let n_atoms = sim.system.n;
    let mut available: Vec<Vec<bool>> = vec![vec![false; n_atoms]; torus.node_count()];
    #[allow(clippy::needless_range_loop)] // atom indexes two parallel tables
    for atom in 0..n_atoms {
        let pos = sim.system.pos[atom];
        available[decomp.home_node(pos).index()][atom] = true;
        for t in decomp.export_targets(pos) {
            available[t.index()][atom] = true;
        }
    }

    let mut pairs = 0u64;
    for i in 0..n_atoms {
        for j in (i + 1)..n_atoms {
            let d = sim.system.min_image(sim.system.pos[i], sim.system.pos[j]);
            if d[0] * d[0] + d[1] * d[1] + d[2] * d[2] >= rc2 {
                continue;
            }
            pairs += 1;
            let computable = available.iter().any(|node| node[i] && node[j]);
            assert!(
                computable,
                "pair ({i},{j}) within cutoff but no node holds both positions"
            );
        }
    }
    assert!(
        pairs > 10_000,
        "the test must actually exercise many pairs: {pairs}"
    );
}

#[test]
fn import_counts_are_symmetric_in_aggregate() {
    // The number of (atom, importer) pairs equals the number of stream
    // force packets the timestep engine must return.
    let mut sim = Simulation::water(2000, 23);
    sim.run(1);
    let torus = Torus::new([2, 2, 2]);
    let decomp = Decomposition::new(torus, sim.system.box_len, sim.params.cutoff * 0.5);
    let mut exports = 0u64;
    let mut tree_edges = 0u64;
    for atom in 0..sim.system.n {
        let pos = sim.system.pos[atom];
        let targets = decomp.export_targets(pos);
        exports += targets.len() as u64;
        let home = torus.coord(decomp.home_node(pos));
        tree_edges += multicast_tree(&torus, home, &targets, DimOrder::ALL[atom % 6])
            .edges()
            .len() as u64;
    }
    // Multicast saves edges: the tree never uses more edges than unicast.
    assert!(tree_edges <= exports * 3, "trees bounded by path lengths");
    assert!(tree_edges >= exports / 3, "trees must reach all targets");
    assert!(exports > 0);
}

#[test]
fn multicast_trees_save_traffic_over_unicast() {
    let torus = Torus::new([4, 4, 4]);
    let home = torus.coord(NodeId(0));
    let dests: Vec<NodeId> = (1..30u16).map(NodeId).collect();
    let tree = multicast_tree(&torus, home, &dests, DimOrder::XYZ);
    let unicast_total: usize = dests
        .iter()
        .map(|&d| torus.hop_distance(home, torus.coord(d)) as usize)
        .sum();
    assert!(
        tree.edges().len() * 2 < unicast_total,
        "in-network multicast should at least halve edge crossings: {} vs {}",
        tree.edges().len(),
        unicast_total
    );
}

#[test]
fn atoms_stay_assigned_as_they_drift() {
    // Across steps, home assignment changes only for boundary atoms, and
    // the per-node totals stay balanced (no pathological sloshing).
    let mut sim = Simulation::water(3000, 29);
    let torus = Torus::new([2, 2, 2]);
    let decomp = Decomposition::new(torus, sim.system.box_len, sim.params.cutoff * 0.5);
    let homes_before: Vec<NodeId> = sim
        .system
        .pos
        .iter()
        .map(|p| decomp.home_node(*p))
        .collect();
    sim.run(5);
    let homes_after: Vec<NodeId> = sim
        .system
        .pos
        .iter()
        .map(|p| decomp.home_node(*p))
        .collect();
    let moved = homes_before
        .iter()
        .zip(&homes_after)
        .filter(|(a, b)| a != b)
        .count();
    let frac = moved as f64 / sim.system.n as f64;
    assert!(
        frac < 0.05,
        "{:.1}% of atoms changed home in 5 steps",
        frac * 100.0
    );
}
