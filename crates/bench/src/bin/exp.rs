//! `exp <name>… | all` — prints the named experiments' tables to stdout.
//! `QUICK=1` shrinks the workloads ~10×; `SEEDS=n` sets the number of seeds
//! of `variance`.

use schemble_bench::{select, Scale, EXPERIMENTS};

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    match select(&names) {
        Ok(experiments) => {
            let scale = Scale::from_env();
            for (_, _, run) in experiments {
                print!("{}", run(scale).text);
            }
        }
        Err(message) => {
            eprintln!("error: {message}\n\nusage: exp <name>… | all");
            for (name, artefact, _) in EXPERIMENTS {
                eprintln!("  {name:<16} {artefact}");
            }
            std::process::exit(1);
        }
    }
}
