//! Deadline assignment policies.

use rand::Rng;
use schemble_sim::rng::stream_rng;
use schemble_sim::{SimDuration, SimTime};

/// How relative deadlines are assigned to queries.
#[derive(Debug, Clone, PartialEq)]
pub enum DeadlinePolicy {
    /// Every query gets the same relative deadline ("we treat all customers
    /// the same" — text matching and image retrieval).
    Constant(SimDuration),
    /// Vehicle counting: each of `cameras` locations gets a deadline drawn
    /// once from `U[lo, hi]`; queries inherit their camera's deadline
    /// (camera = query id mod `cameras`).
    PerCameraUniform {
        /// Number of camera locations.
        cameras: usize,
        /// Lower bound of the uniform deadline draw.
        lo: SimDuration,
        /// Upper bound of the uniform deadline draw.
        hi: SimDuration,
    },
}

impl DeadlinePolicy {
    /// A constant policy from milliseconds.
    pub fn constant_millis(ms: f64) -> Self {
        DeadlinePolicy::Constant(SimDuration::from_millis_f64(ms))
    }

    /// The paper's UA-DETRAC setting: 24 cameras, deadlines uniform around a
    /// mean with ±40% spread.
    pub fn cameras_around_millis(mean_ms: f64) -> Self {
        DeadlinePolicy::PerCameraUniform {
            cameras: 24,
            lo: SimDuration::from_millis_f64(mean_ms * 0.6),
            hi: SimDuration::from_millis_f64(mean_ms * 1.4),
        }
    }

    /// Materialises the per-camera table (empty for constant policies).
    fn camera_table(&self, seed: u64) -> Vec<SimDuration> {
        match self {
            DeadlinePolicy::Constant(_) => Vec::new(),
            DeadlinePolicy::PerCameraUniform { cameras, lo, hi } => {
                let mut rng = stream_rng(seed, "camera-deadlines");
                (0..*cameras)
                    .map(|_| {
                        SimDuration::from_micros(rng.random_range(lo.as_micros()..=hi.as_micros()))
                    })
                    .collect()
            }
        }
    }

    /// Assigns absolute deadlines given arrival times. Deterministic per
    /// `(policy, seed)`.
    pub fn assign(&self, arrivals: &[SimTime], seed: u64) -> Vec<SimTime> {
        let table = self.camera_table(seed);
        arrivals
            .iter()
            .enumerate()
            .map(|(i, &arr)| match self {
                DeadlinePolicy::Constant(d) => arr + *d,
                DeadlinePolicy::PerCameraUniform { cameras, .. } => arr + table[i % cameras],
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn constant_policy_offsets_arrivals() {
        let p = DeadlinePolicy::constant_millis(100.0);
        let deadlines = p.assign(&[at(0), at(50)], 1);
        assert_eq!(deadlines, vec![at(100), at(150)]);
    }

    #[test]
    fn per_camera_deadlines_are_stable_per_camera() {
        let p = DeadlinePolicy::PerCameraUniform {
            cameras: 4,
            lo: SimDuration::from_millis(80),
            hi: SimDuration::from_millis(200),
        };
        let arrivals: Vec<SimTime> = (0..16).map(|i| at(i * 10)).collect();
        let deadlines = p.assign(&arrivals, 9);
        // Query i and i+4 share a camera, so share the *relative* deadline.
        for i in 0..12 {
            let rel_a = deadlines[i] - arrivals[i];
            let rel_b = deadlines[i + 4] - arrivals[i + 4];
            assert_eq!(rel_a, rel_b, "camera {} relative deadline drifted", i % 4);
        }
        // All relative deadlines in range.
        for (d, a) in deadlines.iter().zip(&arrivals) {
            let rel = *d - *a;
            assert!(rel >= SimDuration::from_millis(80) && rel <= SimDuration::from_millis(200));
        }
    }

    #[test]
    fn per_camera_is_deterministic_per_seed() {
        let p = DeadlinePolicy::cameras_around_millis(150.0);
        let arrivals: Vec<SimTime> = (0..10).map(at).collect();
        assert_eq!(p.assign(&arrivals, 3), p.assign(&arrivals, 3));
        assert_ne!(p.assign(&arrivals, 3), p.assign(&arrivals, 4));
    }
}
