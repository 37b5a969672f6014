//! End-to-end benchmark of the paper's queries: a closed loop (one client,
//! one query at a time) over a workload's query cells, each answer checked
//! against an oracle, with an optional traced run that attributes each
//! query's time to the engine's layers. See README.md for the metrics.

pub mod measure;
pub mod probe;
pub mod workload;

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tukwila_exec::reference::canonicalize_approx;

use measure::{mean, median, peak_rss_mb, process_cpu_s, tail};
use probe::{Probe, QueryThread};
use workload::{Cell, Params, QueryRun};

/// Default TPC-H scale factor of every workload.
pub const SCALE: f64 = 0.05;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// A query still running after this long counts as failed.
pub const QUERY_DEADLINE: Duration = Duration::from_secs(60);
/// `query_s_tail` is the highest sample with at least this many beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The end-to-end metrics, with their units, in report order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("query_s_p50", "s"),
    ("query_s_tail", "s"),
    ("queries_per_s", "1/s"),
    ("cpu_s_per_query", "s"),
    ("peak_rss_mb", "MiB"),
    ("answered_ratio", "ratio"),
];

/// The per-layer metrics of a traced run, with their units.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("datagen.generate_s", "s"),
    ("source.build_s", "s"),
    ("source.teardown_s", "s"),
    ("source.poll_s", "s"),
    ("source.polls", "count"),
    ("source.tuples", "count"),
    ("source.pending_ratio", "ratio"),
    ("federation.poll_s", "s"),
    ("federation.received", "count"),
    ("federation.duplicates", "count"),
    ("federation.useful_ratio", "ratio"),
    ("federation.failovers", "count"),
    ("federation.declined_hedges", "count"),
    ("federation.stalls", "count"),
    ("federation.blocked_sends", "count"),
    ("optimizer.plan_s", "s"),
    ("core.phases", "count"),
    ("core.switches", "count"),
    ("core.holds", "count"),
    ("core.stitch_s", "s"),
    ("core.reuse_ratio", "ratio"),
    ("exec.cpu_s", "s"),
    ("exec.idle_s", "s"),
    ("exec.batches", "count"),
    ("exec.max_queue_depth", "count"),
    ("exec.blocked_sends", "count"),
    ("exec.fragments", "count"),
    ("exec.quiesce_s", "s"),
    ("unattributed_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub params: Params,
    /// Length of the measured loop, rounded to whole cycles of the
    /// workload's cells (at least one) at their nominal duration.
    pub seconds: f64,
    pub trace: bool,
}

/// Why a query did not count as answered.
#[derive(Debug, PartialEq)]
pub enum Failure {
    WrongAnswer,
    Error(String),
    Panic,
    Deadline,
}

/// Run one query of `cell` on its own thread (the query thread), bounded
/// by [`QUERY_DEADLINE`]. A query past its deadline is abandoned: the
/// caller must stop measuring and end the process.
fn attempt(
    cell: &Arc<Cell>,
    params: Params,
    probe: Option<Arc<Probe>>,
) -> Result<QueryRun, Failure> {
    let (tx, rx) = mpsc::channel();
    let c = cell.clone();
    let handle = std::thread::Builder::new()
        .name("query".into())
        .spawn(move || {
            let _marker = QueryThread::enter();
            let _ = tx.send(workload::run_query(&c, params, probe.as_ref()));
        })
        .map_err(|e| Failure::Error(format!("spawn query thread: {e}")))?;
    match rx.recv_timeout(QUERY_DEADLINE) {
        Ok(out) => {
            handle.join().map_err(|_| Failure::Panic)?;
            out.map_err(|e| Failure::Error(e.to_string()))
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            let _ = handle.join();
            Err(Failure::Panic)
        }
        Err(mpsc::RecvTimeoutError::Timeout) => Err(Failure::Deadline),
    }
}

/// Every cell's oracle answer, computed on up to `nproc` threads.
fn oracles(cells: &[Arc<Cell>]) -> Vec<Vec<String>> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = cells.len().div_ceil(workers).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = cells
            .chunks(chunk)
            .map(|part| scope.spawn(move || part.iter().map(|c| workload::oracle(c)).collect()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| -> Vec<Vec<String>> { h.join().expect("oracle thread panicked") })
            .collect()
    })
}

/// The per-layer figures of one traced query.
#[derive(Debug)]
pub struct LayerSample {
    pub values: BTreeMap<&'static str, f64>,
    pub query_s: f64,
    /// Layer self time measured on the query thread; never above
    /// `query_s`.
    pub query_thread_s: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Attribute one traced query's time to the layers.
pub fn layer_sample(run: &QueryRun, probe: &Probe, accel: f64, plan_s: f64) -> LayerSample {
    let e = &run.engine;
    let src = probe.source.view();
    let fed = probe.federation.view();
    let wait = probe.wait.view();
    let summary = tukwila_stats::QuerySummary::from_records(&run.journal);
    let stitch_s = e.stitch_us as f64 / 1e6 / accel;
    let exec_cpu_s = (e.exec.cpu_us as f64 / 1e6 / accel - stitch_s).max(0.0);
    let fed_sum = |f: fn(&tukwila_federation::FederationReport) -> u64| -> f64 {
        e.federation.iter().map(f).sum::<u64>() as f64
    };
    let cand_sum = |f: fn(&tukwila_federation::CandidateReport) -> u64| -> f64 {
        e.federation
            .iter()
            .flat_map(|r| &r.candidates)
            .map(f)
            .sum::<u64>() as f64
    };
    // Operator CPU runs on the query thread only when no phase had
    // producer fragments; otherwise the engine's figure mixes threads and
    // stays out of the query-thread sum.
    let exec_on_query_thread = if e.max_fragments <= 1 {
        exec_cpu_s
    } else {
        0.0
    };
    let received = cand_sum(|c| c.delivered);
    let query_thread_s =
        run.build_s + src.query_s + fed.query_s + wait.query_s + stitch_s + exec_on_query_thread;
    let values = BTreeMap::from([
        ("source.build_s", run.build_s),
        ("source.teardown_s", run.teardown_s),
        ("source.poll_s", src.total_s()),
        ("source.polls", src.calls as f64),
        ("source.tuples", src.tuples as f64),
        (
            "source.pending_ratio",
            ratio(src.pending as f64, src.calls as f64),
        ),
        ("federation.poll_s", fed.total_s()),
        ("federation.received", received),
        ("federation.duplicates", cand_sum(|c| c.duplicates)),
        (
            "federation.useful_ratio",
            ratio(fed_sum(|r| r.delivered), received),
        ),
        ("federation.failovers", fed_sum(|r| r.failovers)),
        ("federation.declined_hedges", fed_sum(|r| r.declined_hedges)),
        ("federation.stalls", cand_sum(|c| c.stalls)),
        ("federation.blocked_sends", cand_sum(|c| c.blocked_sends)),
        ("optimizer.plan_s", plan_s),
        ("core.phases", e.phases as f64),
        ("core.switches", summary.switches as f64),
        ("core.holds", summary.holds as f64),
        ("core.stitch_s", stitch_s),
        (
            "core.reuse_ratio",
            ratio(e.reused as f64, (e.reused + e.discarded) as f64),
        ),
        ("exec.cpu_s", exec_cpu_s),
        ("exec.idle_s", wait.query_s),
        ("exec.batches", e.exec.batches as f64),
        ("exec.max_queue_depth", e.exec.max_queue_depth as f64),
        ("exec.blocked_sends", e.exec.blocked_sends() as f64),
        ("exec.fragments", e.max_fragments as f64),
        (
            "exec.quiesce_s",
            workload::quiesce_seconds(&run.journal, accel),
        ),
        ("unattributed_s", run.query_s - query_thread_s),
    ]);
    LayerSample {
        values,
        query_s: run.query_s,
        query_thread_s,
    }
}

/// Everything one invocation measured.
#[derive(Debug)]
pub struct Report {
    pub attempted: u64,
    pub failures: Vec<(String, Failure)>,
    /// Metric name → (value, unit, samples behind it).
    pub metrics: Vec<(&'static str, f64, &'static str, usize)>,
    /// Facts about the run printed alongside the metrics.
    pub provenance: Vec<(&'static str, String)>,
    pub layer_samples: Vec<LayerSample>,
    /// One line per query cell: its untraced query times and phases.
    pub cell_lines: Vec<String>,
    /// A query passed its deadline: its thread is still running.
    pub abandoned: bool,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && !self.abandoned
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// Run the benchmark.
pub fn run(args: Args) -> Report {
    let params = args.params;
    let workload = params.workload;

    // Set-up, several times; the last one is used.
    let mut setup_times = Vec::new();
    let mut generate_times = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPEATS {
        drop(setup.take());
        let (s, secs) = probe::timed(|| workload::setup(params));
        setup_times.push(secs);
        generate_times.push(s.generate_s);
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");

    // Oracles, outside every timing, one cell per core at a time.
    let (oracles, oracle_s) = probe::timed(|| oracles(&setup.cells));

    let mut report = Report {
        attempted: 0,
        failures: Vec::new(),
        metrics: Vec::new(),
        provenance: measure::host_provenance(),
        layer_samples: Vec::new(),
        cell_lines: Vec::new(),
        abandoned: false,
    };
    report.provenance.extend([
        ("workload", workload.name().to_string()),
        ("seed", params.seed.to_string()),
        ("scale_factor", params.scale.to_string()),
        ("clock_acceleration", workload.accel().to_string()),
        ("cells", setup.cells.len().to_string()),
        (
            "load",
            "closed loop, 1 client, 1 query at a time".to_string(),
        ),
    ]);

    let check = |run: &QueryRun, i: usize| -> Result<(), Failure> {
        if canonicalize_approx(&run.engine.rows) == oracles[i] {
            Ok(())
        } else {
            Err(Failure::WrongAnswer)
        }
    };

    // Warm-up: one untimed query.
    if let Err(f) = attempt(&setup.cells[0], params, None) {
        report.abandoned = f == Failure::Deadline;
        report
            .failures
            .push((format!("warm-up {}", setup.cells[0].label), f));
        return report;
    }

    let mut plain_s = Vec::new();
    // Per cell: untraced query seconds and the phase counts seen.
    let mut per_cell: Vec<(Vec<f64>, Vec<usize>)> = vec![Default::default(); setup.cells.len()];
    let mut traced_s = Vec::new();
    let mut correct = 0u64;
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    // Whole cycles only, so every cell weighs the same, and a cycle count
    // fixed by `seconds`, so every run of one `seconds` has the same
    // sample count and `query_s_tail` the same rank.
    // A traced cycle runs every cell twice.
    let cycle_s = workload.nominal_cycle_s() * if args.trace { 2.0 } else { 1.0 };
    let planned = ((args.seconds / cycle_s).round() as usize).max(1);
    let mut cycles = 0usize;
    'measure: while cycles < planned {
        cycles += 1;
        for (i, cell) in setup.cells.iter().enumerate() {
            let probes: &[bool] = if args.trace { &[false, true] } else { &[false] };
            for &traced in probes {
                let probe = traced.then(|| Arc::new(Probe::default()));
                report.attempted += 1;
                let outcome = attempt(cell, params, probe.clone())
                    .and_then(|run| check(&run, i).map(|()| run));
                match outcome {
                    Ok(run) => {
                        correct += 1;
                        if let Some(p) = &probe {
                            let plan_s = workload::plan_seconds(cell, workload);
                            report.layer_samples.push(layer_sample(
                                &run,
                                p,
                                workload.accel(),
                                plan_s,
                            ));
                            traced_s.push(run.query_s);
                        } else {
                            plain_s.push(run.query_s);
                            per_cell[i].0.push(run.query_s);
                            per_cell[i].1.push(run.engine.phases);
                        }
                    }
                    Err(f) => {
                        let deadline = f == Failure::Deadline;
                        report.failures.push((cell.label.clone(), f));
                        if deadline {
                            report.abandoned = true;
                            break 'measure;
                        }
                    }
                }
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let attempted = report.attempted.max(1) as f64;

    let (tail_s, tail_rank) = tail(&plain_s, TAIL_BEYOND);
    report.provenance.extend([
        ("cycles", cycles.to_string()),
        ("query_s_samples", plain_s.len().to_string()),
        (
            "query_s_tail_rank",
            format!("{tail_rank} of {} (ascending)", plain_s.len()),
        ),
        ("setup_s_samples", setup_times.len().to_string()),
        (
            "setup_total_s",
            format!("{:.3}", setup_times.iter().sum::<f64>()),
        ),
        ("oracle_s", format!("{oracle_s:.3}")),
        ("measured_s", format!("{elapsed:.3}")),
    ]);
    for (cell, (secs, phases)) in setup.cells.iter().zip(&per_cell) {
        report.cell_lines.push(format!(
            "cell {}: n={} query_s p50={:.4} min={:.4} max={:.4} phases={:?}",
            cell.label,
            secs.len(),
            median(secs),
            secs.iter().copied().fold(f64::INFINITY, f64::min),
            secs.iter().copied().fold(0.0, f64::max),
            phases
        ));
    }

    if !args.trace {
        let n = plain_s.len();
        let attempts = report.attempted as usize;
        let values = [
            (median(&setup_times), setup_times.len()),
            (median(&plain_s), n),
            (tail_s, n),
            (correct as f64 / elapsed, n),
            (cpu_s / attempted, attempts),
            (peak_rss_mb(), 1),
            (correct as f64 / attempted, attempts),
        ];
        report.metrics = END_TO_END
            .into_iter()
            .zip(values)
            .map(|((name, unit), (value, samples))| (name, value, unit, samples))
            .collect();
    } else {
        let n = report.layer_samples.len();
        report.provenance.extend([
            ("traced_query_s_p50", format!("{:.6}", median(&traced_s))),
            ("traced_query_s_samples", traced_s.len().to_string()),
        ]);
        for (name, unit) in PER_LAYER {
            let value = match name {
                "datagen.generate_s" => median(&generate_times),
                "trace.overhead_ratio" => ratio(median(&traced_s), median(&plain_s)),
                _ => mean(
                    &report
                        .layer_samples
                        .iter()
                        .map(|s| s.values.get(name).copied().unwrap_or(0.0))
                        .collect::<Vec<_>>(),
                ),
            };
            report.metrics.push((name, value, unit, n));
        }
    }
    report
}

/// Render a value as a JSON number (finite; full precision).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Report {
    /// The human-readable report: provenance, failures, every metric by
    /// name with its unit and sample count.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.provenance {
            out.push_str(&format!("# {k}: {v}\n"));
        }
        for line in &self.cell_lines {
            out.push_str(&format!("# {line}\n"));
        }
        for (cell, f) in &self.failures {
            out.push_str(&format!("# FAILED {cell}: {f:?}\n"));
        }
        for (name, value, unit, n) in &self.metrics {
            out.push_str(&format!("{name:<28} {value:>14.6} {unit:<6} (n={n})\n"));
        }
        out
    }

    /// The machine-readable result line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit, _)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(name),
                    json_number(*value),
                    json_string(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failures.len(),
            metrics.join(", ")
        )
    }
}
