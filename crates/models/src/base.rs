//! Generative base models.
//!
//! A [`BaseModel`] stands in for one deployed deep network. Its output on a
//! sample is a **pure function** of `(model seed, sample)` — re-running
//! inference on the same sample yields the same output, as a deterministic
//! network would.
//!
//! The generative story per sample `x` with latent difficulty `z` is a
//! **logit-noise model** (see [`BaseModel::infer`]): the sample carries a
//! shared true-vs-distractor margin `μ(z) + σ_g·g` that shrinks to zero as
//! difficulty grows; each model observes it through skill-scaled parameters
//! `(w_k, b_k)` — solved from its `(acc_easy, acc_hard)` targets — plus
//! idiosyncratic logit noise seeded by `(model seed, sample id)`. The
//! published probabilities are softmax over `miscal_temp × logits`, i.e.
//! deliberately overconfident; temperature scaling recovers calibration.
//!
//! This yields every phenomenon the paper relies on: smooth accuracy decay
//! with difficulty, correlated errors across models (shared margin), stable
//! cross-seed difficulty structure with unstable per-model "preferences"
//! (Fig. 5), and heterogeneous miscalibration that pollutes raw-output
//! agreement metrics. Regression models use additive noise whose scale grows
//! with difficulty, correlated through `error_rho`.

use crate::difficulty::{normal_quantile, standard_normal};
use crate::output::{Output, TaskSpec};
use crate::sample::Sample;
use rand::Rng;
use schemble_sim::rng::stream_rng_u64;
use schemble_sim::LatencyModel;
use std::sync::OnceLock;

/// Shared true-vs-distractor margin at difficulty 0.
const MARGIN_EASY: f64 = 4.0;
/// Shared margin at difficulty 1 (zero: the hardest samples are coin flips
/// up to model skill).
const MARGIN_HARD: f64 = 0.0;
/// Scale of the sample-shared margin noise (what correlates model errors).
const SIGMA_G: f64 = 1.05;
/// Scale of each model's idiosyncratic logit noise.
const SIGMA_E: f64 = 1.15;
/// Extra logit gain at difficulty 1 (overconfidence on hard inputs).
const HARD_GAIN: f64 = 6.0;

/// One synthetic base model.
#[derive(Debug, Clone)]
pub struct BaseModel {
    /// Human-readable name ("BERT", "YoloX", …).
    pub name: String,
    /// P(correct) on the easiest samples (z = 0).
    pub acc_easy: f64,
    /// P(correct) on the hardest samples (z = 1).
    pub acc_hard: f64,
    /// Error correlation with the ensemble-shared noise, in `[0, 1)`.
    pub error_rho: f64,
    /// Miscalibration temperature: outputs are sharpened by this factor
    /// (1.0 = perfectly calibrated, > 1 = overconfident).
    pub miscal_temp: f64,
    /// Execution-time profile.
    pub latency: LatencyModel,
    /// Regression noise scale at z = 1 (regression tasks only).
    pub reg_noise: f64,
    /// Constant regression bias (regression tasks only).
    pub reg_bias: f64,
    /// Training seed — drives the idiosyncratic error stream.
    pub seed: u64,
    /// [`BaseModel::logit_params`] and the `(acc_easy, acc_hard)` it was
    /// solved for, solved on first use. The accuracy fields are public, so
    /// a memo that no longer matches them is ignored (see `logit_wb`).
    logit: OnceLock<LogitMemo>,
}

/// Logit-noise slope and offset, memoised with their inputs.
#[derive(Debug, Clone, Copy)]
struct LogitMemo {
    accs: (f64, f64),
    w: f64,
    b: f64,
}

impl BaseModel {
    /// A classification model with sensible defaults for the remaining knobs.
    pub fn classifier(
        name: &str,
        acc_easy: f64,
        acc_hard: f64,
        latency_ms: f64,
        miscal_temp: f64,
        seed: u64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&acc_easy) && (0.0..=1.0).contains(&acc_hard));
        Self {
            name: name.to_string(),
            acc_easy,
            acc_hard,
            error_rho: 0.8,
            miscal_temp,
            latency: LatencyModel::jittered_millis(latency_ms, 0.05),
            reg_noise: 0.0,
            reg_bias: 0.0,
            seed,
            logit: OnceLock::new(),
        }
    }

    /// A regression model (vehicle counting).
    pub fn regressor(
        name: &str,
        reg_noise: f64,
        reg_bias: f64,
        latency_ms: f64,
        seed: u64,
    ) -> Self {
        Self {
            name: name.to_string(),
            acc_easy: 1.0,
            acc_hard: 1.0,
            error_rho: 0.8,
            miscal_temp: 1.0,
            latency: LatencyModel::jittered_millis(latency_ms, 0.05),
            reg_noise,
            reg_bias,
            seed,
            logit: OnceLock::new(),
        }
    }

    /// Probability of a correct prediction at difficulty `z`.
    pub fn p_correct(&self, z: f64) -> f64 {
        (self.acc_easy + (self.acc_hard - self.acc_easy) * z).clamp(0.0, 1.0)
    }

    /// Logit-noise parameters `(w, b, σ_total)` derived from the accuracy
    /// targets (see [`infer_categorical`] below): the model's true-class
    /// logit is `w·(μ(z) + σ_g·g) − b + σ_e·e`, and the derivation solves
    /// `Φ((w·μ(z) − b)/σ_total) = p_correct(z)` at `z ∈ {0, 1}` by a short
    /// fixed-point on `σ_total = √(w²σ_g² + σ_e²)`.
    fn logit_params(&self) -> (f64, f64, f64) {
        let q_easy = normal_quantile(self.acc_easy.clamp(0.02, 0.995));
        let q_hard = normal_quantile(self.acc_hard.clamp(0.02, 0.995));
        let mut s = (SIGMA_G * SIGMA_G + SIGMA_E * SIGMA_E).sqrt();
        let mut w = 0.0;
        let mut b = 0.0;
        for _ in 0..8 {
            w = s * (q_easy - q_hard) / (MARGIN_EASY - MARGIN_HARD);
            b = w * MARGIN_HARD - s * q_hard;
            s = (w * w * SIGMA_G * SIGMA_G + SIGMA_E * SIGMA_E).sqrt();
        }
        (w, b, s)
    }

    /// `(w, b)` of [`BaseModel::logit_params`], solved once per model: the
    /// memo is used only while the accuracies it was solved for are still
    /// the model's (bit for bit), so editing a field re-solves per call
    /// rather than going stale.
    fn logit_wb(&self) -> (f64, f64) {
        let accs = (self.acc_easy, self.acc_hard);
        let memo = self.logit.get_or_init(|| {
            let (w, b, _) = self.logit_params();
            LogitMemo { accs, w, b }
        });
        if memo.accs.0.to_bits() == accs.0.to_bits() && memo.accs.1.to_bits() == accs.1.to_bits() {
            (memo.w, memo.b)
        } else {
            let (w, b, _) = self.logit_params();
            (w, b)
        }
    }

    /// Mean accuracy over uniform difficulty — used for aggregation weights.
    pub fn mean_accuracy(&self) -> f64 {
        0.5 * (self.acc_easy + self.acc_hard)
    }

    /// Runs inference on `sample`. Deterministic in `(self.seed, sample.id)`.
    pub fn infer(&self, sample: &Sample, spec: &TaskSpec) -> Output {
        // One idiosyncratic stream per (model, sample); the model's `seed`
        // stands for its training seed, so re-seeding the "same architecture"
        // re-rolls all of these.
        let mut rng = stream_rng_u64(self.seed, sample.id);
        match spec {
            TaskSpec::Classification { num_classes } => {
                self.infer_categorical(sample, *num_classes, false, &mut rng)
            }
            TaskSpec::Retrieval { num_candidates } => {
                self.infer_categorical(sample, *num_candidates, true, &mut rng)
            }
            TaskSpec::Regression { .. } => self.infer_regression(sample, &mut rng),
        }
    }

    /// Logit-noise generative model. Each sample carries a latent
    /// *true-vs-distractor margin* `μ(z) + σ_g·g` shared by every model
    /// (`μ` shrinks from [`MARGIN_EASY`] to [`MARGIN_HARD`] as difficulty
    /// grows; `g` is the sample's shared noise). Model `k` observes it
    /// through its own skill lens: `logit_true = w_k·(μ + σ_g·g) − b_k +
    /// σ_e·e_k`, with `(w_k, b_k)` solved from the accuracy targets. The
    /// distractor class sits at logit 0, remaining classes well below.
    /// Softmax over `miscal_temp × logits` yields the (deliberately
    /// overconfident) published output; dividing the logits by the same
    /// temperature — what temperature scaling fits — recovers calibration.
    ///
    /// Consequences: hard samples have small shared margins, so models
    /// disagree *with each other* there (stable across reseeds, the
    /// discrepancy signal), while each model's idiosyncratic flips are
    /// seed-dependent (the unstable "preferences" of Fig. 5).
    fn infer_categorical(
        &self,
        sample: &Sample,
        num_classes: usize,
        retrieval: bool,
        rng: &mut impl Rng,
    ) -> Output {
        let z = sample.difficulty;
        let (w, b) = self.logit_wb();
        let mu = MARGIN_EASY * (1.0 - z) + MARGIN_HARD * z;
        let e = standard_normal(rng);
        let true_logit = w * (mu + SIGMA_G * sample.shared_noise) - b + SIGMA_E * e;
        let true_class = sample.label.class();
        // The distractor (the plausible wrong answer) is a property of the
        // sample, shared by all models.
        let distractor = if num_classes == 2 {
            1 - true_class
        } else {
            let pick = schemble_sim::rng::mix(sample.id, 0xD157) as usize % (num_classes - 1);
            (true_class + 1 + pick) % num_classes
        };
        let mut logits = vec![0.0f64; num_classes];
        logits[true_class] = true_logit;
        logits[distractor] = 0.0;
        // Retrieval candidate pools carry heavy per-model rank noise: a
        // single backbone lets distractor images float over the relevant one
        // far more often than the two-model average does, which is what
        // makes single-DELG mAP visibly worse than the ensemble's (Fig. 8).
        let (other_mean, other_noise) = if retrieval { (-1.2, 1.6) } else { (-3.0, 0.5) };
        for (c, logit) in logits.iter_mut().enumerate() {
            if c != true_class && c != distractor {
                *logit = other_mean + other_noise * standard_normal(rng);
            }
        }
        // Difficulty-dependent gain: networks grow *more* confident off the
        // easy manifold, not less. Scaling all logits by a common positive
        // factor leaves the argmax (and hence accuracy) untouched but makes
        // disagreements on hard samples loud in divergence space — the
        // behaviour that lets output-distance metrics see difficulty at all.
        let gain = 1.0 + HARD_GAIN * z;
        // Deliberate miscalibration: sharpen every logit by miscal_temp.
        let scale = gain * self.miscal_temp;
        for logit in &mut logits {
            *logit *= scale;
        }
        schemble_tensor::prob::softmax_in_place(&mut logits);
        Output::Probs(logits)
    }

    fn infer_regression(&self, sample: &Sample, rng: &mut impl Rng) -> Output {
        let z = sample.difficulty;
        let e = standard_normal(rng);
        let err = self.error_rho * sample.shared_noise
            + (1.0 - self.error_rho * self.error_rho).sqrt() * e;
        // Noise grows with difficulty: crowded scenes are harder to count.
        let scale = self.reg_noise * (0.25 + 0.75 * z);
        Output::Scalar(sample.label.value() + self.reg_bias + scale * err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::difficulty::DifficultyDist;
    use crate::sample::SampleGenerator;

    fn spec() -> TaskSpec {
        TaskSpec::Classification { num_classes: 2 }
    }

    fn model(seed: u64) -> BaseModel {
        BaseModel::classifier("test", 0.97, 0.60, 20.0, 2.0, seed)
    }

    fn gen() -> SampleGenerator {
        SampleGenerator::new(spec(), DifficultyDist::Uniform, 11)
    }

    #[test]
    fn inference_is_deterministic() {
        let m = model(1);
        let s = gen().sample(42);
        assert_eq!(m.infer(&s, &spec()), m.infer(&s, &spec()));
    }

    #[test]
    fn accuracy_matches_skill_curve() {
        let m = model(1);
        let g = gen();
        let spec = spec();
        // Easy bucket.
        let easy_gen = SampleGenerator::new(spec, DifficultyDist::Fixed(0.05), 13);
        let hard_gen = SampleGenerator::new(spec, DifficultyDist::Fixed(0.95), 13);
        let acc = |g: &SampleGenerator| {
            let n = 4000;
            let correct = g
                .batch(0, n)
                .iter()
                .filter(|s| m.infer(s, &spec).predicted_class() == s.label.class())
                .count();
            correct as f64 / n as f64
        };
        let easy_acc = acc(&easy_gen);
        let hard_acc = acc(&hard_gen);
        assert!((easy_acc - m.p_correct(0.05)).abs() < 0.03, "easy acc {easy_acc}");
        assert!((hard_acc - m.p_correct(0.95)).abs() < 0.03, "hard acc {hard_acc}");
        let _ = g;
    }

    #[test]
    fn errors_are_correlated_across_models() {
        // Two distinct models share the sample's shared_noise; their error
        // indicator correlation must clearly exceed the independent case.
        let m1 = model(1);
        let m2 = model(2);
        let spec = spec();
        let g = SampleGenerator::new(spec, DifficultyDist::Fixed(0.6), 17);
        let n = 12000;
        let mut both = 0usize;
        let mut e1 = 0usize;
        let mut e2 = 0usize;
        for s in g.batch(0, n) {
            let w1 = m1.infer(&s, &spec).predicted_class() != s.label.class();
            let w2 = m2.infer(&s, &spec).predicted_class() != s.label.class();
            both += (w1 && w2) as usize;
            e1 += w1 as usize;
            e2 += w2 as usize;
        }
        let p1 = e1 as f64 / n as f64;
        let p2 = e2 as f64 / n as f64;
        let joint = both as f64 / n as f64;
        // The effect size depends on the RNG stream behind the sample
        // generator; 1.25x leaves a clear gap to the independent case
        // (ratio ~1.0) without demanding a particular draw.
        assert!(
            joint > 1.25 * p1 * p2,
            "errors should be positively correlated: joint {joint:.4} vs independent {:.4}",
            p1 * p2
        );
    }

    #[test]
    fn different_seeds_have_unrelated_idiosyncrasies() {
        // Same architecture, different seed: per-sample correctness patterns
        // must differ on a noticeable fraction of samples.
        let m1 = model(100);
        let m2 = model(200);
        let spec = spec();
        let g = SampleGenerator::new(spec, DifficultyDist::Fixed(0.7), 19);
        let n = 3000;
        let disagree = g
            .batch(0, n)
            .iter()
            .filter(|s| {
                m1.infer(s, &spec).predicted_class() != m2.infer(s, &spec).predicted_class()
            })
            .count();
        assert!(
            disagree as f64 / n as f64 > 0.08,
            "re-seeded twins should disagree on some samples"
        );
    }

    #[test]
    fn miscalibration_sharpens_outputs() {
        let sharp = model(1); // miscal_temp = 2.0
        let calibrated = BaseModel { miscal_temp: 1.0, ..model(1) };
        let spec = spec();
        let s = gen().sample(3);
        let p_sharp = match sharp.infer(&s, &spec) {
            Output::Probs(p) => p.iter().cloned().fold(0.0, f64::max),
            _ => unreachable!(),
        };
        let p_cal = match calibrated.infer(&s, &spec) {
            Output::Probs(p) => p.iter().cloned().fold(0.0, f64::max),
            _ => unreachable!(),
        };
        assert!(p_sharp > p_cal, "miscalibrated model should be more confident");
    }

    #[test]
    fn regression_noise_grows_with_difficulty() {
        let m = BaseModel::regressor("det", 3.0, 0.2, 25.0, 5);
        let spec = TaskSpec::Regression { tolerance: 0.5 };
        let err_at = |z: f64, seed: u64| {
            let g = SampleGenerator::new(spec, DifficultyDist::Fixed(z), seed);
            let n = 3000;
            g.batch(0, n)
                .iter()
                .map(|s| (m.infer(s, &spec).value() - s.label.value()).abs())
                .sum::<f64>()
                / n as f64
        };
        assert!(err_at(0.9, 23) > 1.8 * err_at(0.1, 29));
    }

    #[test]
    fn retrieval_spec_behaves_like_classification() {
        let m = model(4);
        let spec = TaskSpec::Retrieval { num_candidates: 20 };
        let g = SampleGenerator::new(spec, DifficultyDist::Fixed(0.1), 31);
        let s = g.sample(0);
        let out = m.infer(&s, &spec);
        match &out {
            Output::Probs(p) => {
                assert_eq!(p.len(), 20);
                assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-6);
            }
            _ => panic!("retrieval must emit probabilities"),
        }
    }

    /// Every output's bits, for exact comparison.
    fn bits(output: &Output) -> Vec<u64> {
        output.as_vec().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn memoised_logit_params_infer_bit_identically_to_solving_per_call() {
        use crate::zoo;
        for ens in [
            zoo::text_matching(1),
            zoo::vehicle_counting(2),
            zoo::image_retrieval(3),
            zoo::cifar_zoo(6, 4),
        ] {
            let samples = SampleGenerator::new(ens.spec, DifficultyDist::Uniform, 5).batch(0, 1000);
            for model in &ens.models {
                for s in &samples {
                    // A memo-less copy solves the parameters on this call.
                    let solving = BaseModel { logit: OnceLock::new(), ..model.clone() };
                    let (memo, fresh) = (model.infer(s, &ens.spec), solving.infer(s, &ens.spec));
                    assert_eq!(bits(&memo), bits(&fresh), "{} on sample {}", model.name, s.id);
                }
            }
        }
    }

    #[test]
    fn an_edited_accuracy_is_not_served_from_the_stale_memo() {
        let spec = spec();
        let s = gen().sample(3);
        let mut edited = model(9);
        let before = edited.infer(&s, &spec);
        edited.acc_hard = 0.75;
        let fresh = BaseModel::classifier("test", 0.97, 0.75, 20.0, 2.0, 9);
        assert_eq!(bits(&edited.infer(&s, &spec)), bits(&fresh.infer(&s, &spec)));
        assert_ne!(bits(&edited.infer(&s, &spec)), bits(&before));
    }
}
