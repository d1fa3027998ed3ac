//! The Adam optimizer (Kingma & Ba), as used for all paper training runs.

use crate::param::Param;

/// Adam hyperparameters; defaults match the paper's training setup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
}

bao_common::json_record!(AdamConfig { lr, beta1, beta2, eps });

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig { lr: 1e-3, beta1: 0.9, beta2: 0.999, eps: 1e-8 }
    }
}

/// Optimizer state: the step counter (per-parameter moments live inside
/// each [`Param`]).
#[derive(Debug, Clone, Default)]
pub struct Adam {
    pub cfg: AdamConfig,
    t: u64,
}

impl Adam {
    pub fn new(cfg: AdamConfig) -> Adam {
        Adam { cfg, t: 0 }
    }

    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Advance the step counter and update one parameter tensor from its
    /// accumulated gradient. Call once per tensor after bumping with
    /// [`Adam::begin_step`].
    pub fn update(&self, p: &mut Param) {
        debug_assert!(self.t > 0, "call begin_step before update");
        let b1 = self.cfg.beta1;
        let b2 = self.cfg.beta2;
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        for i in 0..p.w.len() {
            let g = p.g[i];
            p.m[i] = b1 * p.m[i] + (1.0 - b1) * g;
            p.v[i] = b2 * p.v[i] + (1.0 - b2) * g * g;
            let mhat = p.m[i] / bc1;
            let vhat = p.v[i] / bc2;
            p.w[i] -= self.cfg.lr * mhat / (vhat.sqrt() + self.cfg.eps);
        }
    }

    /// Start a new optimizer step (one per minibatch).
    pub fn begin_step(&mut self) {
        self.t += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descends_a_quadratic() {
        // minimize (w - 3)^2 for a single scalar parameter
        let mut p = Param::from_weights(1, 1, vec![0.0]);
        let mut adam = Adam::new(AdamConfig { lr: 0.1, ..AdamConfig::default() });
        for _ in 0..200 {
            p.zero_grad();
            p.g[0] = 2.0 * (p.w[0] - 3.0);
            adam.begin_step();
            adam.update(&mut p);
        }
        assert!((p.w[0] - 3.0).abs() < 0.1, "w={}", p.w[0]);
        assert_eq!(adam.steps(), 200);
    }

    #[test]
    fn zero_grad_is_noop_update_direction() {
        let mut p = Param::from_weights(1, 1, vec![1.0]);
        let mut adam = Adam::new(AdamConfig::default());
        adam.begin_step();
        adam.update(&mut p);
        // zero gradient, zero moments: weight unchanged
        assert_eq!(p.w[0], 1.0);
    }

    #[test]
    fn larger_gradient_moves_faster_initially() {
        let mk = |g: f32| {
            let mut p = Param::from_weights(1, 1, vec![0.0]);
            p.g[0] = g;
            let mut adam = Adam::new(AdamConfig::default());
            adam.begin_step();
            adam.update(&mut p);
            p.w[0].abs()
        };
        // Adam normalizes by the second moment, so first-step sizes are
        // equal regardless of gradient magnitude — a property worth
        // pinning down.
        assert!((mk(0.1) - mk(10.0)).abs() < 1e-6);
    }
}
