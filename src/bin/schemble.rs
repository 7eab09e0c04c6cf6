//! `schemble` — command-line front end for the reproduction; the subcommands,
//! the flag spec and the usage text live in [`schemble::cli`].

use schemble::cli;

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::run(&args) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{}", cli::usage());
            std::process::ExitCode::FAILURE
        }
    }
}
