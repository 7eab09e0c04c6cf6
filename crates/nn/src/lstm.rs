//! A single-layer LSTM with hand-derived backpropagation through time.
//!
//! The paper's text-matching difficulty predictor is built on MV-LSTM: an
//! LSTM encodes the query, and a dense head maps the concatenation of the
//! final state and pooled intermediate outputs to the discrepancy score
//! (§V-C: "we concatenate the final outputs with intermediate outputs from
//! the LSTM layer"). This module provides that LSTM; the two-headed wrapper
//! lives in [`crate::predictor`].
//!
//! Standard formulation (no peepholes), for step `t` with input `x_t` and
//! previous state `(h_{t-1}, c_t-1)`:
//!
//! ```text
//! i = σ(W_i x + U_i h + b_i)      f = σ(W_f x + U_f h + b_f)
//! g = tanh(W_g x + U_g h + b_g)   o = σ(W_o x + U_o h + b_o)
//! c_t = f ⊙ c_{t-1} + i ⊙ g       h_t = o ⊙ tanh(c_t)
//! ```
//!
//! The forget-gate bias is initialised to 1 (the usual trick against early
//! vanishing gradients). Gradients are checked against finite differences in
//! the tests.

use rand::Rng;
use schemble_tensor::Matrix;

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// Cached activations of one step, needed by BPTT.
#[derive(Debug, Clone)]
struct StepCache {
    x: Vec<f64>,
    h_prev: Vec<f64>,
    c_prev: Vec<f64>,
    i: Vec<f64>,
    f: Vec<f64>,
    g: Vec<f64>,
    o: Vec<f64>,
    tanh_c: Vec<f64>,
}

/// A single-layer LSTM processing one sequence at a time.
///
/// Weights are stored gate-major: rows 0..H are the input gate, then forget,
/// cell and output gates (`4H × in_dim` for `w`, `4H × H` for `u`).
#[derive(Debug, Clone)]
pub struct Lstm {
    /// Input-to-gates weights, `4H × in_dim`.
    pub w: Matrix,
    /// Hidden-to-gates weights, `4H × H`.
    pub u: Matrix,
    /// Gate biases, `1 × 4H`.
    pub b: Matrix,
    /// Accumulated gradients, matching `w`/`u`/`b`.
    pub grad_w: Matrix,
    /// Gradient of `u`.
    pub grad_u: Matrix,
    /// Gradient of `b`.
    pub grad_b: Matrix,
    in_dim: usize,
    hidden: usize,
    cache: Vec<StepCache>,
}

impl Lstm {
    /// A new LSTM with Xavier-uniform weights and forget bias 1.
    pub fn new(in_dim: usize, hidden: usize, rng: &mut impl Rng) -> Self {
        let limit_w = (6.0 / (in_dim + hidden) as f64).sqrt();
        let w = Matrix::from_fn(4 * hidden, in_dim, |_, _| rng.random_range(-limit_w..limit_w));
        let u = Matrix::from_fn(4 * hidden, hidden, |_, _| rng.random_range(-limit_w..limit_w));
        let mut b = Matrix::zeros(1, 4 * hidden);
        for j in hidden..2 * hidden {
            b[(0, j)] = 1.0; // forget-gate bias
        }
        Self {
            grad_w: Matrix::zeros(4 * hidden, in_dim),
            grad_u: Matrix::zeros(4 * hidden, hidden),
            grad_b: Matrix::zeros(1, 4 * hidden),
            w,
            u,
            b,
            in_dim,
            hidden,
            cache: Vec::new(),
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.w.len() + self.u.len() + self.b.len()
    }

    fn gates(&self, x: &[f64], h: &[f64]) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let hsz = self.hidden;
        let mut pre = vec![0.0f64; 4 * hsz];
        for (r, p) in pre.iter_mut().enumerate() {
            let mut acc = self.b[(0, r)];
            for (j, &xj) in x.iter().enumerate() {
                acc += self.w[(r, j)] * xj;
            }
            for (j, &hj) in h.iter().enumerate() {
                acc += self.u[(r, j)] * hj;
            }
            *p = acc;
        }
        let i: Vec<f64> = pre[..hsz].iter().map(|&z| sigmoid(z)).collect();
        let f: Vec<f64> = pre[hsz..2 * hsz].iter().map(|&z| sigmoid(z)).collect();
        let g: Vec<f64> = pre[2 * hsz..3 * hsz].iter().map(|&z| z.tanh()).collect();
        let o: Vec<f64> = pre[3 * hsz..].iter().map(|&z| sigmoid(z)).collect();
        (i, f, g, o)
    }

    /// Runs the whole sequence, caching activations for BPTT. Returns the
    /// per-step hidden states (`seq_len` rows of width `H`).
    pub fn forward(&mut self, sequence: &[Vec<f64>]) -> Vec<Vec<f64>> {
        assert!(!sequence.is_empty(), "empty sequence");
        self.cache.clear();
        let hsz = self.hidden;
        let mut h = vec![0.0f64; hsz];
        let mut c = vec![0.0f64; hsz];
        let mut outputs = Vec::with_capacity(sequence.len());
        for x in sequence {
            assert_eq!(x.len(), self.in_dim, "input width mismatch");
            let (i, f, g, o) = self.gates(x, &h);
            let c_prev = c.clone();
            for j in 0..hsz {
                c[j] = f[j] * c_prev[j] + i[j] * g[j];
            }
            let tanh_c: Vec<f64> = c.iter().map(|&v| v.tanh()).collect();
            let h_prev = h.clone();
            for j in 0..hsz {
                h[j] = o[j] * tanh_c[j];
            }
            self.cache.push(StepCache { x: x.clone(), h_prev, c_prev, i, f, g, o, tanh_c });
            outputs.push(h.clone());
        }
        outputs
    }

    /// Inference without caching.
    pub fn infer(&self, sequence: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let hsz = self.hidden;
        let mut h = vec![0.0f64; hsz];
        let mut c = vec![0.0f64; hsz];
        let mut outputs = Vec::with_capacity(sequence.len());
        for x in sequence {
            let (i, f, g, o) = self.gates(x, &h);
            for j in 0..hsz {
                c[j] = f[j] * c[j] + i[j] * g[j];
            }
            for j in 0..hsz {
                h[j] = o[j] * c[j].tanh();
            }
            outputs.push(h.clone());
        }
        outputs
    }

    /// BPTT: `grad_h[t]` is ∂L/∂h_t for every step (zero rows are fine).
    /// Accumulates parameter gradients; returns ∂L/∂x_t per step.
    ///
    /// # Panics
    /// Panics if called before `forward` or with mismatched lengths.
    pub fn backward(&mut self, grad_h: &[Vec<f64>]) -> Vec<Vec<f64>> {
        assert_eq!(grad_h.len(), self.cache.len(), "grad/sequence length mismatch");
        let hsz = self.hidden;
        let mut dh_next = vec![0.0f64; hsz];
        let mut dc_next = vec![0.0f64; hsz];
        let mut dx_all = vec![vec![0.0f64; self.in_dim]; grad_h.len()];
        for t in (0..self.cache.len()).rev() {
            let s = &self.cache[t];
            // Total gradient into h_t: external + recurrent.
            let dh: Vec<f64> = (0..hsz).map(|j| grad_h[t][j] + dh_next[j]).collect();
            // h = o ⊙ tanh(c)
            let do_: Vec<f64> = (0..hsz).map(|j| dh[j] * s.tanh_c[j]).collect();
            let mut dc: Vec<f64> = (0..hsz)
                .map(|j| dh[j] * s.o[j] * (1.0 - s.tanh_c[j] * s.tanh_c[j]) + dc_next[j])
                .collect();
            // c = f ⊙ c_prev + i ⊙ g
            let df: Vec<f64> = (0..hsz).map(|j| dc[j] * s.c_prev[j]).collect();
            let di: Vec<f64> = (0..hsz).map(|j| dc[j] * s.g[j]).collect();
            let dg: Vec<f64> = (0..hsz).map(|j| dc[j] * s.i[j]).collect();
            for (dcj, &fj) in dc.iter_mut().zip(&s.f) {
                *dcj *= fj; // flows to c_{t-1}
            }
            // Pre-activation gradients per gate.
            let pre_grads: Vec<f64> = (0..4 * hsz)
                .map(|r| {
                    let j = r % hsz;
                    match r / hsz {
                        0 => di[j] * s.i[j] * (1.0 - s.i[j]),
                        1 => df[j] * s.f[j] * (1.0 - s.f[j]),
                        2 => dg[j] * (1.0 - s.g[j] * s.g[j]),
                        _ => do_[j] * s.o[j] * (1.0 - s.o[j]),
                    }
                })
                .collect();
            // Parameter gradients and input/hidden backflow.
            let mut dh_prev = vec![0.0f64; hsz];
            for (r, &pg) in pre_grads.iter().enumerate() {
                self.grad_b[(0, r)] += pg;
                for (j, &xj) in s.x.iter().enumerate() {
                    self.grad_w[(r, j)] += pg * xj;
                    dx_all[t][j] += pg * self.w[(r, j)];
                }
                for (j, dhp) in dh_prev.iter_mut().enumerate() {
                    self.grad_u[(r, j)] += pg * s.h_prev[j];
                    *dhp += pg * self.u[(r, j)];
                }
            }
            dh_next = dh_prev;
            dc_next = dc;
        }
        dx_all
    }

    /// Zeroes the accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_w.map_inplace(|_| 0.0);
        self.grad_u.map_inplace(|_| 0.0);
        self.grad_b.map_inplace(|_| 0.0);
    }

    /// Applies one optimiser step under `key_base..key_base+3`.
    pub fn apply_grads(&mut self, opt: &mut impl crate::optim::Optimizer, key_base: usize) {
        opt.step(key_base, &mut self.w, &self.grad_w);
        opt.step(key_base + 1, &mut self.u, &self.grad_u);
        opt.step(key_base + 2, &mut self.b, &self.grad_b);
        self.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, Optimizer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(3)
    }

    fn seq(vals: &[&[f64]]) -> Vec<Vec<f64>> {
        vals.iter().map(|v| v.to_vec()).collect()
    }

    #[test]
    fn forward_shapes_and_state_propagation() {
        let mut lstm = Lstm::new(2, 4, &mut rng());
        let outs = lstm.forward(&seq(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]));
        assert_eq!(outs.len(), 3);
        assert!(outs.iter().all(|h| h.len() == 4));
        // State must evolve: consecutive hidden states differ.
        assert_ne!(outs[0], outs[1]);
    }

    #[test]
    fn infer_matches_forward() {
        let mut lstm = Lstm::new(3, 5, &mut rng());
        let s = seq(&[&[0.1, -0.2, 0.4], &[0.9, 0.0, -0.5]]);
        let a = lstm.forward(&s);
        let b = lstm.infer(&s);
        for (x, y) in a.iter().zip(&b) {
            for (p, q) in x.iter().zip(y) {
                assert!((p - q).abs() < 1e-12);
            }
        }
    }

    /// Finite-difference check of every parameter-gradient block and the
    /// input gradient, through a 3-step sequence.
    #[test]
    fn bptt_matches_finite_differences() {
        let mut lstm = Lstm::new(2, 3, &mut rng());
        let s = seq(&[&[0.5, -0.3], &[0.2, 0.8], &[-0.6, 0.1]]);
        // Loss = sum of all hidden outputs at every step.
        let outs = lstm.forward(&s);
        let grad_h: Vec<Vec<f64>> = outs.iter().map(|h| vec![1.0; h.len()]).collect();
        lstm.zero_grad();
        let dx = lstm.backward(&grad_h);

        let loss = |l: &Lstm| -> f64 { l.infer(&s).iter().map(|h| h.iter().sum::<f64>()).sum() };
        let eps = 1e-6;
        // w gradients.
        for &(r, c) in &[(0usize, 0usize), (4, 1), (7, 0), (11, 1)] {
            let orig = lstm.w[(r, c)];
            lstm.w[(r, c)] = orig + eps;
            let lp = loss(&lstm);
            lstm.w[(r, c)] = orig - eps;
            let lm = loss(&lstm);
            lstm.w[(r, c)] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - lstm.grad_w[(r, c)]).abs() < 1e-4,
                "dW[{r},{c}]: numeric {numeric} vs analytic {}",
                lstm.grad_w[(r, c)]
            );
        }
        // u gradients.
        for &(r, c) in &[(1usize, 1usize), (5, 2), (10, 0)] {
            let orig = lstm.u[(r, c)];
            lstm.u[(r, c)] = orig + eps;
            let lp = loss(&lstm);
            lstm.u[(r, c)] = orig - eps;
            let lm = loss(&lstm);
            lstm.u[(r, c)] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - lstm.grad_u[(r, c)]).abs() < 1e-4,
                "dU[{r},{c}]: numeric {numeric} vs analytic {}",
                lstm.grad_u[(r, c)]
            );
        }
        // b gradients.
        for &r in &[0usize, 3, 6, 9] {
            let orig = lstm.b[(0, r)];
            lstm.b[(0, r)] = orig + eps;
            let lp = loss(&lstm);
            lstm.b[(0, r)] = orig - eps;
            let lm = loss(&lstm);
            lstm.b[(0, r)] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - lstm.grad_b[(0, r)]).abs() < 1e-4,
                "db[{r}]: numeric {numeric} vs analytic {}",
                lstm.grad_b[(0, r)]
            );
        }
        // input gradient at step 0.
        let probe = |s2: &[Vec<f64>], l: &Lstm| -> f64 {
            l.infer(s2).iter().map(|h| h.iter().sum::<f64>()).sum()
        };
        let mut sp = s.clone();
        sp[0][1] += eps;
        let mut sm = s.clone();
        sm[0][1] -= eps;
        let numeric = (probe(&sp, &lstm) - probe(&sm, &lstm)) / (2.0 * eps);
        assert!(
            (numeric - dx[0][1]).abs() < 1e-4,
            "dx[0][1]: numeric {numeric} vs analytic {}",
            dx[0][1]
        );
    }

    /// The LSTM can learn a genuinely sequential task an order-blind model
    /// cannot: predict whether the *first* element of the sequence was
    /// positive, reading only the final hidden state.
    #[test]
    fn learns_long_range_memory() {
        let mut r = rng();
        let mut lstm = Lstm::new(1, 8, &mut r);
        let mut head = crate::dense::Dense::new(8, 1, crate::dense::Activation::Identity, &mut r);
        let mut opt = Adam::new(0.02);
        use rand::Rng;
        for _ in 0..600 {
            let first: f64 = if r.random_range(0.0..1.0) > 0.5 { 1.0 } else { -1.0 };
            let mut s = vec![vec![first]];
            for _ in 0..5 {
                s.push(vec![r.random_range(-1.0f64..1.0)]);
            }
            let label = f64::from(first > 0.0);
            let outs = lstm.forward(&s);
            let last = Matrix::row_vector(outs.last().expect("non-empty"));
            let z = head.forward(&last);
            let (_, grad) = crate::loss::bce_with_logits(z, &Matrix::row_vector(&[label]));
            let gh = head.backward(&grad);
            let mut grad_h = vec![vec![0.0; 8]; s.len()];
            grad_h[s.len() - 1] = gh.as_slice().to_vec();
            lstm.backward(&grad_h);
            lstm.apply_grads(&mut opt, 0);
            opt.step(100, &mut head.w, &head.grad_w);
            opt.step(101, &mut head.b, &head.grad_b);
            head.zero_grad();
        }
        // Evaluate.
        let mut correct = 0;
        let n = 200;
        for _ in 0..n {
            let first: f64 = if r.random_range(0.0..1.0) > 0.5 { 1.0 } else { -1.0 };
            let mut s = vec![vec![first]];
            for _ in 0..5 {
                s.push(vec![r.random_range(-1.0f64..1.0)]);
            }
            let outs = lstm.infer(&s);
            let z = head.infer(&Matrix::row_vector(outs.last().expect("non-empty")));
            let predicted = z[(0, 0)] > 0.0;
            if predicted == (first > 0.0) {
                correct += 1;
            }
        }
        let acc = correct as f64 / n as f64;
        assert!(acc > 0.9, "long-range memory accuracy too low: {acc}");
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_sequence_panics() {
        let mut lstm = Lstm::new(2, 2, &mut rng());
        lstm.forward(&[]);
    }
}
