//! The benchmark's own checks: the timing decorators change nothing the
//! engine decides, every seed's answers match the oracle, and the layer
//! times attributed to the query thread fit inside the query.

use std::sync::Arc;

use tukwila_bench::setup::MirrorKind;
use tukwila_core::{run_static_with_driver, CorrectiveExec};
use tukwila_exec::reference::canonicalize_approx;
use tukwila_exec::{CpuCostModel, SimDriver};
use tukwila_optimizer::OptimizerContext;
use tukwila_perfbench::probe::Probe;
use tukwila_perfbench::workload::{
    corrective_wall_config, mirror_sources, setup, slow_customer_sources, Params, Workload, Wrap,
};
use tukwila_perfbench::{run, Args, END_TO_END, PER_LAYER};
use tukwila_stats::{QuerySummary, TraceSink, VirtualClock};

/// Small enough for a test, large enough that every relation spans
/// several batches and the forced switch happens mid-stream.
const SCALE: f64 = 0.01;

fn params(workload: Workload, seed: u64) -> Params {
    Params {
        workload,
        seed,
        scale: SCALE,
    }
}

fn journal() -> TraceSink {
    TraceSink::unbounded(Arc::new(VirtualClock::new()))
}

/// Canonical answer and decision counts of one deterministic run.
type Outcome = (Vec<String>, String);

fn outcome(rows: &[tukwila_relation::Tuple], sink: &TraceSink) -> Outcome {
    (
        canonicalize_approx(rows),
        QuerySummary::from_records(&sink.snapshot()).decision_counts(),
    )
}

#[test]
fn timing_decorators_leave_answers_and_decisions_unchanged() {
    let p = params(Workload::MirrorsWall, 5);
    let cell = setup(p).cells.remove(0);
    let exp = p.exp();
    let probe = Arc::new(Probe::default());

    // Virtual-clock corrective run: federated customer mirrors, forced
    // mid-stream switch, sequential fragments.
    let corrective = |wrap: Wrap| -> Outcome {
        let sink = journal();
        let mut sources = slow_customer_sources(&cell, &exp, None, sink.clone(), wrap);
        let mut cfg = corrective_wall_config(None);
        cfg.trace = sink.clone();
        let report = CorrectiveExec::new(cell.query.query(), cfg)
            .run(&mut sources)
            .expect("virtual corrective run");
        assert!(report.phase_count() > 1, "the forced switch happens");
        outcome(&report.rows, &sink)
    };
    assert_eq!(corrective(Wrap(None)), corrective(Wrap(Some(&probe))));

    // Virtual-clock federated run over the flaky/steady/remote mirrors.
    let order = [
        MirrorKind::FastFlaky,
        MirrorKind::SteadySlow,
        MirrorKind::RemoteBackup,
    ];
    let federated = |wrap: Wrap| -> Outcome {
        let sink = journal();
        let mut sources = mirror_sources(&cell, &exp, &order, None, sink.clone(), wrap);
        let run = run_static_with_driver(
            &cell.query.query(),
            &mut sources,
            OptimizerContext::no_statistics(),
            SimDriver::new(1024, CpuCostModel::PerTupleNs(200)).with_trace(sink.clone()),
            None,
        )
        .expect("virtual federated run");
        outcome(&run.rows, &sink)
    };
    let plain = federated(Wrap(None));
    assert!(plain.1.contains("hedges_fired"), "{}", plain.1);
    assert_eq!(plain, federated(Wrap(Some(&probe))));

    assert!(probe.source.view().calls > 0, "base sources were timed");
    assert!(probe.federation.view().calls > 0, "adapters were timed");
}

#[test]
fn two_seeds_both_pass_the_oracle() {
    for workload in [Workload::LocalNoStats, Workload::MirrorsWall] {
        for seed in [1, 2] {
            let report = run(Args {
                params: params(workload, seed),
                seconds: 0.0,
                trace: false,
            });
            assert!(
                report.correct(),
                "{} seed {seed}: {:?}",
                workload.name(),
                report.failures
            );
            assert!(report.attempted >= 2);
            assert_eq!(report.metric("answered_ratio"), Some(1.0));
        }
    }
}

#[test]
fn layer_times_on_the_query_thread_fit_inside_the_query() {
    for workload in Workload::ALL {
        let report = run(Args {
            params: params(workload, 3),
            seconds: 0.0,
            trace: true,
        });
        assert!(
            report.correct(),
            "{}: {:?}",
            workload.name(),
            report.failures
        );
        assert!(!report.layer_samples.is_empty());
        for s in &report.layer_samples {
            // Every span is a disjoint interval inside the query's window;
            // the slack only absorbs float rounding of the sum.
            assert!(
                s.query_thread_s <= s.query_s + 1e-9,
                "{}: {} s attributed on the query thread of a {} s query",
                workload.name(),
                s.query_thread_s,
                s.query_s
            );
        }
        let federated = report.metric("federation.received").expect("reported");
        match workload {
            Workload::LocalNoStats | Workload::LocalCards => {
                assert_eq!(federated, 0.0, "local workloads run no federation")
            }
            Workload::MirrorsWall | Workload::CorrectiveThreaded => assert!(federated > 0.0),
        }
    }
}

#[test]
fn benchmark_json_names_every_metric_and_workload() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
        assert!(
            spec.contains(&entry),
            "BENCHMARK.json lacks {name} in {unit}"
        );
    }
    for w in Workload::ALL {
        assert!(spec.contains(&format!("\"name\": \"{}\"", w.name())));
    }
    let entries = spec.matches("\"name\":").count();
    assert_eq!(
        entries,
        END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
    );
}
