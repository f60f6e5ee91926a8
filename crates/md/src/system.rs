//! Water-box construction: particles on a jittered lattice with
//! Maxwell-Boltzmann velocities.
//!
//! The paper's compression evaluation runs a synthetic "water-only
//! benchmark at various atom counts" (§IV-C). The network does not care
//! about chemistry — only that positions follow smooth, thermally
//! realistic trajectories and forces have water-like magnitudes — so we
//! model each atom as a single Lennard-Jones site at liquid-water atom
//! density with water-like mass. DESIGN.md §5.6 records this substitution.

use crate::units::{BOLTZMANN_KCAL_MOL_K, KCAL_PER_AMU_A2_FS2};
use anton_sim::rng::SplitMix64;

/// Physical and integration parameters of the water benchmark.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct WaterParams {
    /// Atom number density, atoms/Å³ (liquid water: ~0.100 atoms/Å³).
    pub density: f64,
    /// Atom mass, amu.
    pub mass: f64,
    /// Lennard-Jones σ, Å.
    pub sigma: f64,
    /// Lennard-Jones ε, kcal/mol.
    pub epsilon: f64,
    /// Interaction cutoff radius, Å (the range-limited radius of §II-A).
    pub cutoff: f64,
    /// Integration time step, fs.
    pub dt: f64,
    /// Initial temperature, K.
    pub temperature: f64,
}

impl Default for WaterParams {
    fn default() -> Self {
        WaterParams {
            density: 0.100,
            mass: 10.0,
            sigma: 1.9,
            epsilon: 1.50,
            cutoff: 6.5,
            dt: 2.5,
            temperature: 300.0,
        }
    }
}

impl WaterParams {
    /// The cubic box side length for `n` atoms at this density, Å.
    pub fn box_len(&self, n: usize) -> f64 {
        (n as f64 / self.density).cbrt()
    }
}

/// A periodic cubic simulation box of point particles.
#[derive(Clone, Debug)]
pub struct System {
    /// Number of atoms.
    pub n: usize,
    /// Box side lengths, Å (cubic: all equal).
    pub box_len: [f64; 3],
    /// Positions, Å, wrapped into `[0, box_len)`.
    pub pos: Vec<[f64; 3]>,
    /// Velocities, Å/fs.
    pub vel: Vec<[f64; 3]>,
}

impl System {
    /// Builds an `n`-atom water box: simple-cubic lattice with ±0.15 Å
    /// jitter and Maxwell-Boltzmann velocities at `params.temperature`,
    /// with center-of-mass motion removed.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn water_box(n: usize, params: &WaterParams, seed: u64) -> System {
        assert!(n > 0, "empty system");
        let l = params.box_len(n);
        let cells = (n as f64).cbrt().ceil() as usize;
        let spacing = l / cells as f64;
        let mut rng = SplitMix64::new(seed);
        let mut pos = Vec::with_capacity(n);
        'fill: for ix in 0..cells {
            for iy in 0..cells {
                for iz in 0..cells {
                    if pos.len() == n {
                        break 'fill;
                    }
                    let jitter = |r: &mut SplitMix64| (r.next_f64() - 0.5) * 0.3;
                    pos.push([
                        ((ix as f64 + 0.5) * spacing + jitter(&mut rng)).rem_euclid(l),
                        ((iy as f64 + 0.5) * spacing + jitter(&mut rng)).rem_euclid(l),
                        ((iz as f64 + 0.5) * spacing + jitter(&mut rng)).rem_euclid(l),
                    ]);
                }
            }
        }
        debug_assert_eq!(pos.len(), n);

        // Maxwell-Boltzmann: each component Gaussian with sigma^2 = kT/m.
        let kt = BOLTZMANN_KCAL_MOL_K * params.temperature;
        let comp_sigma = (kt / params.mass * KCAL_PER_AMU_A2_FS2).sqrt();
        let mut vel = Vec::with_capacity(n);
        for _ in 0..n {
            vel.push([
                comp_sigma * gaussian(&mut rng),
                comp_sigma * gaussian(&mut rng),
                comp_sigma * gaussian(&mut rng),
            ]);
        }
        // Remove center-of-mass drift.
        let mut com = [0.0f64; 3];
        for v in &vel {
            for k in 0..3 {
                com[k] += v[k];
            }
        }
        for v in &mut vel {
            for k in 0..3 {
                v[k] -= com[k] / n as f64;
            }
        }
        System {
            n,
            box_len: [l, l, l],
            pos,
            vel,
        }
    }

    /// Minimum-image displacement from `a` to `b` under periodic
    /// boundaries.
    pub fn min_image(&self, a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
        std::array::from_fn(|k| min_image_1d(b[k] - a[k], self.box_len[k]))
    }

    /// Instantaneous kinetic energy, kcal/mol.
    pub fn kinetic_energy(&self, mass: f64) -> f64 {
        let sum_v2: f64 = self
            .vel
            .iter()
            .map(|v| v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
            .sum();
        0.5 * mass * sum_v2 / KCAL_PER_AMU_A2_FS2
    }

    /// Instantaneous temperature, K (3N degrees of freedom).
    pub fn temperature(&self, mass: f64) -> f64 {
        2.0 * self.kinetic_energy(mass) / (3.0 * self.n as f64 * BOLTZMANN_KCAL_MOL_K)
    }
}

/// The minimum image of displacement `d` in one periodic dimension of
/// length `l`.
#[inline]
pub(crate) fn min_image_1d(d: f64, l: f64) -> f64 {
    d - l * (d / l).round()
}

/// Box-Muller standard normal deviate.
fn gaussian(rng: &mut SplitMix64) -> f64 {
    let u1 = rng.next_f64().max(1e-12);
    let u2 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_size_matches_density() {
        let p = WaterParams::default();
        let sys = System::water_box(1000, &p, 1);
        let vol = sys.box_len[0] * sys.box_len[1] * sys.box_len[2];
        let density = sys.n as f64 / vol;
        assert!((density - p.density).abs() / p.density < 1e-9);
    }

    #[test]
    fn positions_inside_box() {
        let p = WaterParams::default();
        let sys = System::water_box(777, &p, 2);
        for r in &sys.pos {
            for (k, rk) in r.iter().enumerate() {
                assert!((0.0..sys.box_len[k]).contains(rk));
            }
        }
    }

    #[test]
    fn no_severe_overlaps_on_lattice() {
        let p = WaterParams::default();
        let sys = System::water_box(512, &p, 3);
        let min_sep = 0.5 * p.sigma;
        for i in 0..sys.n {
            for j in (i + 1)..sys.n {
                let d = sys.min_image(sys.pos[i], sys.pos[j]);
                let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                assert!(
                    r2 > min_sep * min_sep,
                    "atoms {i},{j} overlap: r = {}",
                    r2.sqrt()
                );
            }
        }
    }

    #[test]
    fn initial_temperature_near_target() {
        let p = WaterParams::default();
        let sys = System::water_box(4096, &p, 4);
        let t = sys.temperature(p.mass);
        assert!(
            (t - p.temperature).abs() < 20.0,
            "initial temperature {t} K vs target {} K",
            p.temperature
        );
    }

    #[test]
    fn com_velocity_removed() {
        let p = WaterParams::default();
        let sys = System::water_box(500, &p, 5);
        let mut com = [0.0f64; 3];
        for v in &sys.vel {
            for k in 0..3 {
                com[k] += v[k];
            }
        }
        for c in com {
            assert!(c.abs() < 1e-9, "COM velocity {c} not removed");
        }
    }

    #[test]
    fn min_image_wraps() {
        let p = WaterParams::default();
        let sys = System::water_box(8, &p, 6);
        let l = sys.box_len[0];
        let d = sys.min_image([0.1, 0.0, 0.0], [l - 0.1, 0.0, 0.0]);
        assert!(
            (d[0] + 0.2).abs() < 1e-9,
            "wrap distance should be -0.2, got {}",
            d[0]
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let p = WaterParams::default();
        let a = System::water_box(100, &p, 42);
        let b = System::water_box(100, &p, 42);
        assert_eq!(a.pos, b.pos);
        assert_eq!(a.vel, b.vel);
    }
}
