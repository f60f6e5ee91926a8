//! Range-limited pairwise forces with cell lists.
//!
//! The computation Anton 3's PPIMs accelerate (§II-A): for all atom pairs
//! separated by less than the cutoff radius, evaluate a pairwise force.
//! We use a cutoff-shifted Lennard-Jones potential (energy continuous at
//! the cutoff) and a cell list so force evaluation is O(N).
//!
//! The cell list is stored compressed: one `start` offset per cell into
//! one `atoms` array, each cell's atoms in ascending index order. The
//! pair loop visits each home cell in index order, then its neighbour
//! cells `nb >= home` in `(dz, dy, dx)` order (deduplicated where the
//! grid is narrower than three cells), then the pairs of the two cells.
//!
//! **Cell-pair image shifts.** A neighbour cell reached across the
//! periodic boundary holds atoms whose nearest image lies one box length
//! away, so each neighbour cell carries a per-dimension image shift of
//! `+l`, `0` or `−l`, and a pair's displacement is `(pb − pa) − shift`,
//! with no division or rounding per pair. This is bit-identical to the
//! per-pair minimum image [`System::min_image`], `d − l·round(d / l)`, in
//! a dimension with at least three cells of width `w ≥ rc`: a pair within
//! the cutoff has `|d| < rc` there; the cell pair's image is under `2w`
//! away; any other image is at least `l − rc ≥ 2w` away. So for every
//! pair the cutoff admits, the shift is the image `round` picks and the
//! subtraction is the same IEEE operation, and a pair rejected one way
//! is rejected the other.
//!
//! **Where the per-pair image stays.** [`CellList::build`] chooses one
//! path per call, before any pair is visited, and the pair loop is
//! compiled once for each. Pairs take the shifts only if every dimension
//! has `l − 2w − rc > 16·ε·l` (ε the f64 machine epsilon, a margin above
//! the rounding of the cell binning, which can place an atom a few ε·l
//! outside its cell) and every position lies inside `[+0, l]` (a
//! [`System`] keeps them inside); otherwise every pair takes the
//! per-pair image in every dimension. The margin test fails with fewer
//! than three cells, where deduplication makes one neighbour cell stand
//! for two images, and with three cells exactly a cutoff wide, where
//! binning can place an atom one cell off.

use crate::system::{min_image_1d, System, WaterParams};

/// The result of one force evaluation.
#[derive(Clone, Debug)]
pub struct Forces {
    /// Per-atom total force, kcal/(mol·Å).
    pub f: Vec<[f64; 3]>,
    /// Total potential energy, kcal/mol.
    pub potential: f64,
    /// Number of interacting pairs found (the PPIM workload measure).
    pub pair_count: u64,
}

/// A uniform-grid cell list over a periodic box, stored compressed: the
/// atoms of cell `c` are `atoms[start[c]..start[c + 1]]`.
#[derive(Clone, Debug)]
pub struct CellList {
    dims: [usize; 3],
    start: Vec<u32>,
    atoms: Vec<u32>,
    /// Whether pairs take the cell pair's image shift in place of the
    /// per-pair minimum image (see the module doc).
    shifts: bool,
}

impl CellList {
    /// Bins atoms into cells at least `cutoff` wide, each cell's atoms in
    /// ascending index order, and chooses the pairs' image path.
    ///
    /// # Panics
    /// Panics if the box is smaller than one cutoff in any dimension.
    pub fn build(sys: &System, cutoff: f64) -> CellList {
        let mut dims = [0usize; 3];
        for (k, dk) in dims.iter_mut().enumerate() {
            *dk = (sys.box_len[k] / cutoff).floor().max(1.0) as usize;
            assert!(
                sys.box_len[k] >= cutoff,
                "box dimension {k} ({}) smaller than cutoff {cutoff}",
                sys.box_len[k]
            );
        }
        let cell_of = |r: &[f64; 3]| {
            let mut c = [0usize; 3];
            for k in 0..3 {
                c[k] = ((r[k] / sys.box_len[k] * dims[k] as f64) as usize).min(dims[k] - 1);
            }
            Self::index(dims, c)
        };
        let cells = dims[0] * dims[1] * dims[2];
        let mut start = vec![0u32; cells + 1];
        for r in &sys.pos {
            start[cell_of(r) + 1] += 1;
        }
        for c in 0..cells {
            start[c + 1] += start[c];
        }
        let mut fill = start[..cells].to_vec();
        let mut atoms = vec![0u32; sys.pos.len()];
        for (i, r) in sys.pos.iter().enumerate() {
            let slot = &mut fill[cell_of(r)];
            atoms[*slot as usize] = i as u32;
            *slot += 1;
        }
        let shifts = (0..3).all(|k| {
            let l = sys.box_len[k];
            let w = l / dims[k] as f64;
            l - 2.0 * w - cutoff > 16.0 * f64::EPSILON * l
        }) && sys.pos.iter().all(|r| {
            r.iter()
                .zip(sys.box_len)
                .all(|(&x, l)| x.is_sign_positive() && x <= l)
        });
        CellList {
            dims,
            start,
            atoms,
            shifts,
        }
    }

    fn index(dims: [usize; 3], c: [usize; 3]) -> usize {
        (c[2] * dims[1] + c[1]) * dims[0] + c[0]
    }

    fn cell(&self, c: usize) -> &[u32] {
        &self.atoms[self.start[c] as usize..self.start[c + 1] as usize]
    }

    /// Fills `out` with the cells the pair loop visits from `home`: its
    /// 27-cell neighbourhood (with wraparound) in `(dz, dy, dx)` order,
    /// deduplicated when the grid is narrower than three cells, keeping
    /// cells `nb >= home`. Each comes with its image shift per dimension:
    /// `+l` for a neighbour across the face at 0, `−l` across the face at
    /// `l`, else 0.
    fn neighbors(&self, home: usize, box_len: [f64; 3], out: &mut Vec<(usize, [f64; 3])>) {
        out.clear();
        let d = self.dims;
        let c = [home % d[0], home / d[0] % d[1], home / (d[0] * d[1])];
        for dz in -1i64..=1 {
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    let step = [dx, dy, dz];
                    let (mut n, mut shift) = ([0usize; 3], [0.0f64; 3]);
                    for k in 0..3 {
                        let (ck, m) = (c[k] as i64 + step[k], d[k] as i64);
                        n[k] = ck.rem_euclid(m) as usize;
                        shift[k] = if ck < 0 {
                            box_len[k]
                        } else if ck >= m {
                            -box_len[k]
                        } else {
                            0.0
                        };
                    }
                    let nb = Self::index(d, n);
                    if nb >= home && !out.iter().any(|&(seen, _)| seen == nb) {
                        out.push((nb, shift));
                    }
                }
            }
        }
    }
}

/// Evaluates cutoff-shifted Lennard-Jones forces using a cell list.
pub fn compute_forces(sys: &System, params: &WaterParams) -> Forces {
    let list = CellList::build(sys, params.cutoff);
    if list.shifts {
        pair_loop::<false>(&list, sys, params)
    } else {
        pair_loop::<true>(&list, sys, params)
    }
}

/// One dimension's displacement from `a` to `b`: the minimum image on
/// the per-pair path, else the cell pair's image `shift`.
#[inline(always)]
fn image<const PER_PAIR: bool>(a: f64, b: f64, l: f64, shift: f64) -> f64 {
    if PER_PAIR {
        min_image_1d(b - a, l)
    } else {
        (b - a) - shift
    }
}

/// The pair loop of [`compute_forces`], with its image path fixed at
/// compile time.
fn pair_loop<const PER_PAIR: bool>(list: &CellList, sys: &System, params: &WaterParams) -> Forces {
    let mut f = vec![[0.0f64; 3]; sys.n];
    let mut potential = 0.0;
    let mut pair_count = 0u64;
    let rc2 = params.cutoff * params.cutoff;
    let sigma2 = params.sigma * params.sigma;
    // Energy shift so U(rc) = 0 keeps total energy well-defined.
    let sr2_c = sigma2 / rc2;
    let sr6_c = sr2_c * sr2_c * sr2_c;
    let u_shift = 4.0 * params.epsilon * (sr6_c * sr6_c - sr6_c);
    let l = sys.box_len;

    let mut neighbors = Vec::with_capacity(27);
    for home in 0..list.start.len() - 1 {
        list.neighbors(home, l, &mut neighbors);
        for &(nb, shift) in &neighbors {
            // Visit each cell pair once (home <= nb); within the home
            // cell, use i < j.
            for (ai, &i) in list.cell(home).iter().enumerate() {
                let start = if nb == home { ai + 1 } else { 0 };
                let i = i as usize;
                let pa = sys.pos[i];
                for &j in &list.cell(nb)[start..] {
                    let j = j as usize;
                    let pb = sys.pos[j];
                    let d = [
                        image::<PER_PAIR>(pa[0], pb[0], l[0], shift[0]),
                        image::<PER_PAIR>(pa[1], pb[1], l[1], shift[1]),
                        image::<PER_PAIR>(pa[2], pb[2], l[2], shift[2]),
                    ];
                    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                    if r2 >= rc2 || r2 == 0.0 {
                        continue;
                    }
                    pair_count += 1;
                    let sr2 = sigma2 / r2;
                    let sr6 = sr2 * sr2 * sr2;
                    let sr12 = sr6 * sr6;
                    potential += 4.0 * params.epsilon * (sr12 - sr6) - u_shift;
                    // F = -dU/dr; along d (i -> j), magnitude/r:
                    let fmag_over_r = 24.0 * params.epsilon * (2.0 * sr12 - sr6) / r2;
                    for k in 0..3 {
                        let fk = fmag_over_r * d[k];
                        f[i][k] -= fk;
                        f[j][k] += fk;
                    }
                }
            }
        }
    }
    Forces {
        f,
        potential,
        pair_count,
    }
}

/// Reference O(N²) force evaluation, used to validate the cell list.
pub fn compute_forces_naive(sys: &System, params: &WaterParams) -> Forces {
    let mut f = vec![[0.0f64; 3]; sys.n];
    let mut potential = 0.0;
    let mut pair_count = 0u64;
    let rc2 = params.cutoff * params.cutoff;
    let sigma2 = params.sigma * params.sigma;
    let sr2_c = sigma2 / rc2;
    let sr6_c = sr2_c * sr2_c * sr2_c;
    let u_shift = 4.0 * params.epsilon * (sr6_c * sr6_c - sr6_c);
    for i in 0..sys.n {
        for j in (i + 1)..sys.n {
            let d = sys.min_image(sys.pos[i], sys.pos[j]);
            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
            if r2 >= rc2 || r2 == 0.0 {
                continue;
            }
            pair_count += 1;
            let sr2 = sigma2 / r2;
            let sr6 = sr2 * sr2 * sr2;
            let sr12 = sr6 * sr6;
            potential += 4.0 * params.epsilon * (sr12 - sr6) - u_shift;
            let fmag_over_r = 24.0 * params.epsilon * (2.0 * sr12 - sr6) / r2;
            for k in 0..3 {
                let fk = fmag_over_r * d[k];
                f[i][k] -= fk;
                f[j][k] += fk;
            }
        }
    }
    Forces {
        f,
        potential,
        pair_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::System;
    use anton_sim::rng::SplitMix64;

    fn small() -> (System, WaterParams) {
        let p = WaterParams::default();
        (System::water_box(300, &p, 7), p)
    }

    /// A box of literal side lengths at about water's density: a lattice
    /// of ~2.15 Å spacing with ±0.15 Å SplitMix64 jitter, so positions
    /// stay inside `(0, l)`. Built with IEEE arithmetic alone (no libm),
    /// so every platform builds the same bits.
    fn lattice_box(box_len: [f64; 3], seed: u64) -> System {
        let mut rng = SplitMix64::new(seed);
        let sites = box_len.map(|l| (l / 2.15) as usize);
        let mut pos = Vec::new();
        for iz in 0..sites[2] {
            for iy in 0..sites[1] {
                for ix in 0..sites[0] {
                    let at = [ix, iy, iz];
                    let mut r = [0.0; 3];
                    for k in 0..3 {
                        let spacing = box_len[k] / sites[k] as f64;
                        r[k] = (at[k] as f64 + 0.5) * spacing + (rng.next_f64() - 0.5) * 0.3;
                    }
                    pos.push(r);
                }
            }
        }
        System {
            n: pos.len(),
            box_len,
            vel: vec![[0.0; 3]; pos.len()],
            pos,
        }
    }

    /// Lattice boxes at the default 6.5 Å cutoff, with the cells per
    /// dimension each one has: boxes on either image path, the exact-width
    /// 3-cell case that keeps the per-pair image, and a mixed box.
    const BOXES: [([f64; 3], [usize; 3]); 6] = [
        ([14.0; 3], [2; 3]),
        ([19.5; 3], [3; 3]),
        ([21.0; 3], [3; 3]),
        ([30.0; 3], [4; 3]),
        ([40.0; 3], [6; 3]),
        ([14.0, 21.0, 34.0], [2, 3, 5]),
    ];

    /// FNV-1a over the f64 bits of every force component, then the
    /// potential's bits and the pair count.
    fn digest(forces: &Forces) -> u64 {
        let words = forces.f.iter().flatten().map(|x| x.to_bits());
        let words = words.chain([forces.potential.to_bits(), forces.pair_count]);
        words.fold(0xCBF2_9CE4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    #[test]
    fn cell_list_picks_its_image_path() {
        let p = WaterParams::default();
        for (i, (box_len, dims)) in BOXES.into_iter().enumerate() {
            let list = CellList::build(&lattice_box(box_len, i as u64), p.cutoff);
            assert_eq!(list.dims, dims, "box {box_len:?}");
            // Shifts need three cells wider than the cutoff in every
            // dimension.
            let shifts = (0..3).all(|k| dims[k] >= 3 && box_len[k] != 3.0 * p.cutoff);
            assert_eq!(list.shifts, shifts, "box {box_len:?}");
        }
        // A position outside [+0, l] keeps the per-pair image.
        for (k, x) in [(1, -0.0), (2, 30.5)] {
            let mut sys = lattice_box([30.0; 3], 0);
            sys.pos[5][k] = x;
            assert!(
                !CellList::build(&sys, p.cutoff).shifts,
                "{x} in dimension {k}"
            );
        }
    }

    #[test]
    fn forces_match_their_digests_bit_for_bit() {
        // (pair_count, digest) of each of BOXES, seeded by its index, as
        // the per-pair minimum image computes them.
        let want: [(u64, u64); 6] = [
            (8898, 0x6AFE_1B8D_2389_714E),
            (38927, 0x47D3_7D68_F6B2_256A),
            (30049, 0x85DB_CF2C_B946_D4B3),
            (93241, 0xA59C_153A_A1DA_3862),
            (274677, 0xFAB4_34A5_9527_FE01),
            (34292, 0x235C_163E_C4EF_F220),
        ];
        let p = WaterParams::default();
        for (i, ((box_len, _), want)) in BOXES.into_iter().zip(want).enumerate() {
            let forces = compute_forces(&lattice_box(box_len, i as u64), &p);
            assert_eq!(
                (forces.pair_count, digest(&forces)),
                want,
                "box {box_len:?}"
            );
        }
    }

    #[test]
    fn newtons_third_law() {
        let (sys, p) = small();
        let forces = compute_forces(&sys, &p);
        let mut sum = [0.0f64; 3];
        for f in &forces.f {
            for k in 0..3 {
                sum[k] += f[k];
            }
        }
        for s in sum {
            assert!(s.abs() < 1e-9, "net force {s} violates Newton's third law");
        }
    }

    #[test]
    fn cell_list_matches_naive() {
        let (water, p) = small();
        let boxes = BOXES.iter().enumerate();
        let lattices = boxes.map(|(i, &(box_len, _))| lattice_box(box_len, i as u64));
        for sys in std::iter::once(water).chain(lattices) {
            let fast = compute_forces(&sys, &p);
            let slow = compute_forces_naive(&sys, &p);
            let l = sys.box_len;
            assert_eq!(
                fast.pair_count, slow.pair_count,
                "pair counts differ in {l:?}"
            );
            assert!((fast.potential - slow.potential).abs() < 1e-9, "box {l:?}");
            for (a, b) in fast.f.iter().zip(&slow.f) {
                for k in 0..3 {
                    assert!((a[k] - b[k]).abs() < 1e-9, "box {l:?}");
                }
            }
        }
    }

    #[test]
    fn pair_count_scales_with_density() {
        let p = WaterParams::default();
        let sys = System::water_box(1000, &p, 8);
        let forces = compute_forces(&sys, &p);
        // Expected neighbors within cutoff: n * 4/3 pi rc^3 rho / 2.
        let expected =
            sys.n as f64 * 4.0 / 3.0 * std::f64::consts::PI * p.cutoff.powi(3) * p.density / 2.0;
        let ratio = forces.pair_count as f64 / expected;
        assert!(
            (0.8..1.2).contains(&ratio),
            "pair count {} vs expected {expected:.0}",
            forces.pair_count
        );
    }

    #[test]
    fn forces_are_finite_and_bounded() {
        let (sys, p) = small();
        let forces = compute_forces(&sys, &p);
        for f in &forces.f {
            for fk in f {
                assert!(fk.is_finite());
                assert!(fk.abs() < 1e4, "unphysical force {fk}");
            }
        }
    }

    #[test]
    fn potential_is_negative_in_liquid() {
        let (sys, p) = small();
        let forces = compute_forces(&sys, &p);
        assert!(
            forces.potential < 0.0,
            "liquid LJ potential should be cohesive, got {}",
            forces.potential
        );
    }
}
