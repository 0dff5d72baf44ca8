//! `roundbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! prints a header, then one JSON result line; exits nonzero on a usage
//! error or any failed check.

use std::process::ExitCode;

use roundbench::bench::{run, Args};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("roundbench: {e}");
            eprintln!(
                "usage: roundbench --workload <blocks_1k|stream_1k|blocks_100k|hostile_1k> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args);
    for line in &outcome.header {
        println!("# {line}");
    }
    for m in &outcome.metrics {
        println!(
            "# {} = {} {} ({} samples)",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!("{}", outcome.json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
