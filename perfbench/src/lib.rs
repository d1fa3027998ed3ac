//! Wall-clock benchmark of the Bao serving stack: the workloads, the
//! untraced end-to-end pass, and the traced per-layer replay.

pub mod driver;
pub mod e2e;
pub mod layers;
pub mod shadow;
pub mod spec;
pub mod stats;
pub mod trace;
