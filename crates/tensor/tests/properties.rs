//! Property-based tests of the numeric kernels.

use proptest::prelude::*;
use schemble_tensor::dist::EPS;
use schemble_tensor::dist::{euclidean_sq, js_divergence, kl_divergence, total_variation};
use schemble_tensor::prob::{argmax, entropy, rescale_probs, softmax, temperature_nll};
use schemble_tensor::stats::{histogram, mean, percentile, MinMax, ZScore};
use schemble_tensor::Matrix;

fn prob_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-6.0f64..6.0, len).prop_map(|logits| softmax(&logits))
}

proptest! {
    #[test]
    fn softmax_is_a_distribution(logits in proptest::collection::vec(-50.0f64..50.0, 1..8)) {
        let p = softmax(&logits);
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        // Softmax preserves the argmax of the logits.
        prop_assert_eq!(argmax(&p), argmax(&logits));
    }

    #[test]
    fn kl_is_nonnegative_and_zero_on_self(p in prob_vec(4), q in prob_vec(4)) {
        prop_assert!(kl_divergence(&p, &q) >= -1e-12);
        prop_assert!(kl_divergence(&p, &p).abs() < 1e-9);
    }

    #[test]
    fn js_bounded_by_tv_relation(p in prob_vec(3), q in prob_vec(3)) {
        // JS ≤ TV·ln2 + something? Use the standard bound JS ≤ ln2 and
        // JS = 0 ⇔ TV = 0 (within numerics).
        let js = js_divergence(&p, &q);
        let tv = total_variation(&p, &q);
        prop_assert!(js <= std::f64::consts::LN_2 + 1e-12);
        if tv < 1e-9 {
            prop_assert!(js < 1e-6);
        }
    }

    #[test]
    fn temperature_one_is_identity(p in prob_vec(5)) {
        let q = rescale_probs(&p, 1.0);
        for (a, b) in p.iter().zip(&q) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// `rescale_probs` takes the logits in place; its result is the old
    /// three-vector composition's (logits, scaled logits, softmax) bit for
    /// bit, and `temperature_nll` is that result's NLL bit for bit.
    #[test]
    fn rescale_probs_matches_the_three_vector_composition(
        p in prob_vec(6),
        zeros in proptest::collection::vec(any::<bool>(), 6),
        t in 0.05f64..20.0,
    ) {
        // Exact zeros exercise the EPS floor.
        let p: Vec<f64> = p.iter().zip(&zeros).map(|(&x, &z)| if z { 0.0 } else { x }).collect();
        let logits: Vec<f64> = p.iter().map(|&x| x.max(EPS).ln()).collect();
        let scaled: Vec<f64> = logits.iter().map(|&x| x / t).collect();
        let old = softmax(&scaled);
        let new = rescale_probs(&p, t);
        prop_assert_eq!(old.len(), new.len());
        for (label, (a, b)) in old.iter().zip(&new).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits());
            let nll = -a.max(EPS).ln();
            prop_assert_eq!(temperature_nll(&logits, label, t).to_bits(), nll.to_bits());
        }
    }

    #[test]
    fn higher_temperature_raises_entropy(p in prob_vec(4), t in 1.1f64..8.0) {
        let soft = rescale_probs(&p, t);
        prop_assert!(entropy(&soft) >= entropy(&p) - 1e-9);
    }

    #[test]
    fn zscore_then_stats_are_standard(xs in proptest::collection::vec(-100.0f64..100.0, 3..40)) {
        let z = ZScore::fit(&xs);
        let t: Vec<f64> = xs.iter().map(|&x| z.apply(x)).collect();
        prop_assert!(mean(&t).abs() < 1e-6);
    }

    #[test]
    fn minmax_is_idempotent_on_unit_interval(xs in proptest::collection::vec(0.0f64..1.0, 2..30)) {
        let mm = MinMax::fit(&xs);
        for &x in &xs {
            let y = mm.apply(x);
            prop_assert!((0.0..=1.0).contains(&y));
        }
    }

    #[test]
    fn percentile_is_monotone(xs in proptest::collection::vec(-50.0f64..50.0, 1..30),
                              a in 0.0f64..100.0, b in 0.0f64..100.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(percentile(&xs, lo) <= percentile(&xs, hi) + 1e-12);
    }

    #[test]
    fn histogram_conserves_count(xs in proptest::collection::vec(-2.0f64..3.0, 0..50)) {
        let h = histogram(&xs, 0.0, 1.0, 7);
        prop_assert_eq!(h.iter().sum::<usize>(), xs.len());
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in proptest::collection::vec(-3.0f64..3.0, 6),
        b in proptest::collection::vec(-3.0f64..3.0, 6),
        c in proptest::collection::vec(-3.0f64..3.0, 6),
    ) {
        let a = Matrix::from_vec(2, 3, a);
        let b = Matrix::from_vec(3, 2, b);
        let c = Matrix::from_vec(3, 2, c);
        let lhs = a.matmul(&(&b + &c));
        let rhs = &a.matmul(&b) + &a.matmul(&c);
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn euclidean_sq_is_square_of_norm(a in proptest::collection::vec(-9.0f64..9.0, 4)) {
        let zero = vec![0.0; 4];
        let d2 = euclidean_sq(&a, &zero);
        let norm = Matrix::row_vector(&a).frobenius_norm();
        prop_assert!((d2 - norm * norm).abs() < 1e-9);
    }
}
