//! Scheduler playground: poke the DP scheduler (Alg. 1) directly with a
//! hand-built buffer and watch it trade accuracy for deadlines.
//!
//! Reproduces the paper's §I example: three models, two easy queries with
//! tight deadlines — running the full ensemble on the first query starves
//! the second, while the scheduler splits the models and serves both.
//!
//! ```sh
//! cargo run --release --example scheduler_playground
//! ```

use schemble::core::scheduler::{
    BufferedQuery, DpScheduler, GreedyScheduler, QueueOrder, ScheduleInput, Scheduler,
};
use schemble::sim::{SimDuration, SimTime};

fn main() {
    // Three equal models, 20 ms each; two queries, both due at 25 ms.
    let utilities: std::sync::Arc<[f64]> =
        vec![0.0, 0.90, 0.90, 0.95, 0.90, 0.95, 0.95, 1.00].into();
    let mk = |id: u64| BufferedQuery {
        id,
        arrival: SimTime::from_millis(id),
        deadline: SimTime::from_millis(25),
        utilities: utilities.clone(),
        score: 0.2,
    };
    let input = ScheduleInput {
        now: SimTime::ZERO,
        availability: vec![SimTime::ZERO; 3],
        latencies: vec![SimDuration::from_millis(20); 3],
        queries: vec![mk(0), mk(1)],
    };

    println!("two easy queries, three 20ms models, both deadlines at 25ms:\n");
    for scheduler in [
        Box::new(GreedyScheduler::new(QueueOrder::Fifo)) as Box<dyn Scheduler>,
        Box::new(DpScheduler::default()),
    ] {
        let plan = scheduler.plan(&input);
        println!("{}:", scheduler.name());
        for (qi, set) in plan.assignments.iter().enumerate() {
            let completion = input.completions(&plan)[qi];
            println!(
                "  query {qi}: models {set}  -> {}",
                match completion {
                    Some(t) => format!("completes at {}", t),
                    None => "NOT SERVED".to_string(),
                }
            );
        }
        println!(
            "  total utility {:.2}, feasible: {}\n",
            input.plan_utility(&plan),
            input.plan_is_feasible(&plan)
        );
    }

    // Now loosen the deadlines and watch the DP give everyone everything.
    let mut loose = input.clone();
    for q in &mut loose.queries {
        q.deadline = SimTime::from_millis(200);
    }
    let plan = DpScheduler::default().plan(&loose);
    println!("same buffer with 200ms deadlines:");
    for (qi, set) in plan.assignments.iter().enumerate() {
        println!("  query {qi}: models {set}");
    }
    println!(
        "  -> with slack the scheduler runs the full ensemble for everyone \
         (utility {:.2})",
        loose.plan_utility(&plan)
    );
}
