//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its metric table, a provenance line and, as
//! the last line, the result JSON. See `perfbench/README.md`.

use std::process::ExitCode;

use perfbench::{Config, Workload};
use workload::WorldScale;

const USAGE: &str = "usage: perfbench --workload <batch-large|stream-tail|serve-mixed> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut config = Config {
        workload: Workload::BatchLarge,
        seed: 7,
        seconds: 10.0,
        trace: false,
        scale: WorldScale::Large,
    };
    let mut workload = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let invalid = || format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(invalid)?),
            "--seed" => config.seed = value.parse().map_err(|_| invalid())?,
            "--seconds" => {
                config.seconds = value.parse().map_err(|_| invalid())?;
                if !(config.seconds > 0.0 && config.seconds.is_finite()) {
                    return Err(invalid());
                }
            }
            "--trace" => {
                config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(invalid()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    config.workload = workload.ok_or("--workload is required")?;
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse(&args) {
        Ok(config) => config,
        Err(error) => {
            eprintln!("perfbench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = perfbench::run(config);
    println!(
        "# perfbench {} seed {} trace {} ({} world)",
        config.workload.name(),
        config.seed,
        u8::from(config.trace),
        config.scale.label()
    );
    print!("{}", outcome.render_table());
    for note in &outcome.notes {
        println!("# {note}");
    }
    for failure in &outcome.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    println!("{}", outcome.provenance_json());
    println!("{}", outcome.result_json());
    ExitCode::SUCCESS
}
