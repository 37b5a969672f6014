//! `tukwila-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the end-to-end benchmark, prints every metric by
//! name with its unit, and ends with one JSON result line. Exits 1 when
//! any answer is wrong or any query fails, 2 on bad arguments.

use tukwila_perfbench::workload::{Params, Workload};
use tukwila_perfbench::{run, Args, SCALE};

const USAGE: &str = "usage: tukwila-perfbench --workload <local-nostats|local-cards|mirrors-wall|\
corrective-threaded> --seed <n> --seconds <s> --trace <0|1>";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(e.to_string()))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(e.to_string()))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(String::new())),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(Args {
        params: Params {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            scale: SCALE,
        },
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = run(args);
    print!("{}", report.render());
    println!("{}", report.json());
    // A query abandoned at its deadline still owns a thread; exiting ends it.
    std::process::exit(if report.correct() { 0 } else { 1 });
}
