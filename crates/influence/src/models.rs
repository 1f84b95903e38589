//! Diffusion model specifications.
//!
//! The paper's experiments use the IC model with uniform propagation
//! probability `p(e) = 0.1` or `0.01` (Section 5.2) and note that every
//! compared algorithm extends to other triggering models (footnote 3);
//! we implement IC with three standard weightings plus the LT model.

use fair_submod_graphs::csr::NodeId;
use fair_submod_graphs::Graph;
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Per-arc probability/weight assignment. All variants are computable
/// from the arc endpoints, which keeps RR-set sampling allocation-free.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum EdgeWeighting {
    /// Uniform probability `p` on every arc (the paper's setting).
    Uniform(f64),
    /// Weighted cascade: `p(w→u) = 1 / in_degree(u)`.
    WeightedCascade,
    /// Trivalency: a deterministic hash of the arc picks
    /// 0.1 / 0.01 / 0.001.
    Trivalency,
}

impl EdgeWeighting {
    /// Probability of arc `src → dst`.
    #[inline]
    pub fn probability(&self, graph: &Graph, src: NodeId, dst: NodeId) -> f64 {
        match *self {
            EdgeWeighting::Uniform(p) => p,
            EdgeWeighting::WeightedCascade => {
                let d = graph.in_degree(dst);
                if d == 0 {
                    0.0
                } else {
                    1.0 / d as f64
                }
            }
            EdgeWeighting::Trivalency => {
                // Deterministic arc hash → {0.1, 0.01, 0.001}.
                let h = (src as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(dst as u64)
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9);
                match (h >> 33) % 3 {
                    0 => 0.1,
                    1 => 0.01,
                    _ => 0.001,
                }
            }
        }
    }
}

/// The uniform-`p` coin `gen::<f64>() < p` as an integer compare on
/// the same draw (DESIGN.md §9). `gen::<f64>()` is `x·2⁻⁵³` for the
/// 53-bit draw `x = next_u64() >> 11`, and scaling by a power of two
/// is exact, so `x·2⁻⁵³ < p ⟺ x < ⌈p·2⁵³⌉`: one `next_u64` per flip
/// and the same accept bit, with no float work per arc. RR sampling
/// and forward IC simulation both flip it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct UniformCoin {
    threshold: u64,
}

impl UniformCoin {
    pub(crate) fn new(p: f64) -> Self {
        Self {
            threshold: (p * (1u64 << 53) as f64).ceil() as u64,
        }
    }

    /// Whether the raw 53-bit draw `x` lands under `p`.
    #[inline]
    fn accepts(self, x: u64) -> bool {
        x < self.threshold
    }

    /// Flips the coin on one `next_u64` draw.
    #[inline]
    pub(crate) fn flip<R: RngCore>(self, rng: &mut R) -> bool {
        self.accepts(rng.next_u64() >> 11)
    }
}

/// Diffusion process.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum DiffusionModel {
    /// Independent cascade with the given edge weighting.
    IndependentCascade(EdgeWeighting),
    /// Linear threshold with uniform in-edge weights `1/in_degree`.
    LinearThreshold,
}

impl DiffusionModel {
    /// The paper's default: IC with uniform `p = 0.1`.
    pub fn ic(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        DiffusionModel::IndependentCascade(EdgeWeighting::Uniform(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fair_submod_graphs::GraphBuilder;

    #[test]
    fn uniform_probability() {
        let g = GraphBuilder::new(3, true).build();
        let w = EdgeWeighting::Uniform(0.1);
        assert_eq!(w.probability(&g, 0, 1), 0.1);
    }

    #[test]
    fn weighted_cascade_uses_in_degree() {
        let mut b = GraphBuilder::new(3, true);
        b.add_edge(0, 2).add_edge(1, 2);
        let g = b.build();
        let w = EdgeWeighting::WeightedCascade;
        assert!((w.probability(&g, 0, 2) - 0.5).abs() < 1e-12);
        assert_eq!(w.probability(&g, 2, 0), 0.0); // node 0 has no in-arcs
    }

    #[test]
    fn uniform_coin_agrees_with_the_float_coin_at_its_threshold() {
        // Random draws hit the threshold with probability 2⁻⁵³, so probe
        // the draws on either side of it: `x < t` must hold exactly when
        // the float coin `x·2⁻⁵³ < p` accepts.
        let scale = 1.0 / (1u64 << 53) as f64;
        for p in [0.0, scale, 0.01, 0.1, 0.5, 0.75, 1.0] {
            let coin = UniformCoin::new(p);
            let t = coin.threshold;
            let draws = [t.checked_sub(1), Some(t), t.checked_add(1)];
            for x in draws.into_iter().flatten().filter(|&x| x < 1u64 << 53) {
                assert_eq!(
                    coin.accepts(x),
                    x as f64 * scale < p,
                    "p = {p}, threshold {t}, draw {x}"
                );
            }
        }
    }

    #[test]
    fn trivalency_is_deterministic_and_valid() {
        let g = GraphBuilder::new(10, true).build();
        let w = EdgeWeighting::Trivalency;
        let p1 = w.probability(&g, 3, 7);
        let p2 = w.probability(&g, 3, 7);
        assert_eq!(p1, p2);
        assert!([0.1, 0.01, 0.001].contains(&p1));
    }
}
