//! Allocation gate for the predictor's training loop.
//!
//! `DiscrepancyPredictor::fit` runs thousands of Adam steps on every offline
//! build. Its batch, targets, layer caches, gradients and optimiser moments
//! are buffers sized by the first step and reused after it, so a
//! steady-state step allocates nothing: what `fit` allocates must not grow
//! with the number of epochs. This binary counts allocation events per
//! thread and holds `fit` to that.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use schemble_nn::predictor::{PredictorConfig, TaskLoss};
use schemble_nn::DiscrepancyPredictor;
use schemble_tensor::Matrix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` and without a destructor, so reading it from inside the
    // allocator can neither allocate nor run during thread teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// Counts allocation *events* (alloc + grow) per thread, which is what an
// allocation-free steady state promises; frees are uncounted on purpose.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded unchanged; `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations of one `fit` of `epochs` epochs, under `task_loss`, on a
/// history of 203 rows (so every epoch ends on a short batch of 11).
fn fit_allocations(task_loss: TaskLoss, epochs: usize) -> u64 {
    let mut rng = StdRng::seed_from_u64(4);
    let n = 203;
    let features = Matrix::from_fn(n, 12, |_, _| rng.random_range(-1.0..1.0));
    let task: Vec<f64> = (0..n).map(|r| f64::from(features[(r, 0)] > 0.0)).collect();
    let dis: Vec<f64> = (0..n).map(|r| (features[(r, 1)] + 1.0) / 2.0).collect();
    let config = PredictorConfig { epochs, ..PredictorConfig::default_for(12, task_loss) };
    let mut predictor = DiscrepancyPredictor::new(config, &mut rng);
    let before = allocs();
    predictor.fit(&features, &task, &dis, &mut rng);
    allocs() - before
}

#[test]
fn a_steady_state_training_step_allocates_nothing() {
    for task_loss in [TaskLoss::Binary, TaskLoss::Regression] {
        let one = fit_allocations(task_loss, 1);
        let many = fit_allocations(task_loss, 8);
        assert_eq!(
            many, one,
            "{task_loss:?}: fit allocated {one} times over 1 epoch (7 steps) but {many} \
             times over 8 (56 steps)"
        );
    }
}
