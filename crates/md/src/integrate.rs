//! Velocity-Verlet time integration (the GC "integration" phase of §II-C).

use crate::force::{compute_forces, Forces};
use crate::system::{System, WaterParams};
use crate::units::KCAL_PER_AMU_A2_FS2;

/// A running MD simulation: system state plus the last force evaluation.
#[derive(Clone, Debug)]
pub struct Simulation {
    /// The particle system.
    pub system: System,
    /// Model parameters.
    pub params: WaterParams,
    /// Forces at the current positions.
    pub forces: Forces,
    /// Completed steps.
    pub step_count: u64,
}

impl Simulation {
    /// Creates a simulation and evaluates initial forces.
    pub fn new(system: System, params: WaterParams) -> Simulation {
        let forces = compute_forces(&system, &params);
        Simulation {
            system,
            params,
            forces,
            step_count: 0,
        }
    }

    /// Convenience: build an `n`-atom water box and wrap it.
    pub fn water(n: usize, seed: u64) -> Simulation {
        let params = WaterParams::default();
        let system = System::water_box(n, &params, seed);
        Simulation::new(system, params)
    }

    /// Advances one velocity-Verlet step.
    pub fn step(&mut self) {
        let dt = self.params.dt;
        let inv_m = KCAL_PER_AMU_A2_FS2 / self.params.mass;
        let n = self.system.n;
        // Half-kick + drift.
        for i in 0..n {
            for k in 0..3 {
                self.system.vel[i][k] += 0.5 * dt * self.forces.f[i][k] * inv_m;
                self.system.pos[i][k] = (self.system.pos[i][k] + dt * self.system.vel[i][k])
                    .rem_euclid(self.system.box_len[k]);
            }
        }
        // New forces + half-kick.
        self.forces = compute_forces(&self.system, &self.params);
        for i in 0..n {
            for k in 0..3 {
                self.system.vel[i][k] += 0.5 * dt * self.forces.f[i][k] * inv_m;
            }
        }
        self.step_count += 1;
    }

    /// Advances `steps` steps.
    pub fn run(&mut self, steps: usize) {
        for _ in 0..steps {
            self.step();
        }
    }

    /// Total (kinetic + potential) energy, kcal/mol.
    pub fn total_energy(&self) -> f64 {
        self.system.kinetic_energy(self.params.mass) + self.forces.potential
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_conserved_over_100_steps() {
        let mut sim = Simulation::water(300, 11);
        sim.run(10); // settle lattice artifacts
        let e0 = sim.total_energy();
        sim.run(100);
        let e1 = sim.total_energy();
        let drift = ((e1 - e0) / e0).abs();
        assert!(
            drift < 0.02,
            "energy drift {:.4} over 100 steps (e0={e0:.2}, e1={e1:.2})",
            drift
        );
    }

    #[test]
    fn atoms_move_thermally() {
        let mut sim = Simulation::water(300, 12);
        let before = sim.system.pos.clone();
        sim.step();
        let mut max_disp: f64 = 0.0;
        let mut mean_disp = 0.0;
        for (a, b) in before.iter().zip(&sim.system.pos) {
            let d = sim.system.min_image(*a, *b);
            let disp = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
            max_disp = max_disp.max(disp);
            mean_disp += disp / sim.system.n as f64;
        }
        // Thermal speeds ~9e-3 A/fs over 2.5 fs: ~0.02 A mean displacement.
        assert!(
            (0.005..0.1).contains(&mean_disp),
            "mean displacement {mean_disp} Å"
        );
        assert!(
            max_disp < 0.5,
            "max displacement {max_disp} Å too large for dt"
        );
    }

    #[test]
    fn trajectories_are_smooth_for_pcache() {
        // The property the particle cache depends on: quadratic
        // extrapolation error per coordinate much smaller than the step
        // displacement itself.
        let mut sim = Simulation::water(300, 13);
        sim.run(5);
        let mut hist: Vec<Vec<[f64; 3]>> = vec![sim.system.pos.clone()];
        for _ in 0..6 {
            sim.step();
            hist.push(sim.system.pos.clone());
        }
        let mut pred_err = 0.0f64;
        let mut step_disp = 0.0f64;
        let n = sim.system.n;
        let t = hist.len() - 1;
        #[allow(clippy::needless_range_loop)] // index-parallel history rows
        for i in 0..n {
            for k in 0..3 {
                // Unwrapped small motions: consecutive-step displacements
                // are far below half a box, so min_image is safe.
                let d1 = sim.system.min_image(hist[t - 1][i], hist[t][i])[k];
                let d2 = sim.system.min_image(hist[t - 2][i], hist[t - 1][i])[k];
                let d3 = sim.system.min_image(hist[t - 3][i], hist[t - 2][i])[k];
                // Quadratic prediction of d1 from d2, d3: 2*d2 - d3.
                let predicted = 2.0 * d2 - d3;
                pred_err += (d1 - predicted).abs() / (3 * n) as f64;
                step_disp += d1.abs() / (3 * n) as f64;
            }
        }
        assert!(
            pred_err < 0.5 * step_disp,
            "extrapolation error {pred_err:.2e} not smaller than displacement {step_disp:.2e}"
        );
    }

    #[test]
    fn step_count_tracks() {
        let mut sim = Simulation::water(300, 15);
        sim.run(7);
        assert_eq!(sim.step_count, 7);
    }
}
