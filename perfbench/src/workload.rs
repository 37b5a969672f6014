//! The benchmark's workloads: what a query cell is, how its sources are
//! built, how the engine runs it, and the oracle its answer is checked
//! against.

use std::collections::HashMap;
use std::sync::Arc;

use tukwila_bench::setup::{
    local_sources, pinned_mirror_sources, true_cards, ExpConfig, MirrorKind, WorkloadQuery,
};
use tukwila_core::{run_static, run_static_with_driver, CorrectiveConfig, CorrectiveExec};
use tukwila_datagen::{queries, Dataset, DatasetConfig, TableId};
use tukwila_exec::reference::canonicalize_approx;
use tukwila_exec::{CpuCostModel, ExecReport, FragmentOptions, SimDriver};
use tukwila_federation::{
    ConcurrentFederatedSource, FederatedCatalog, FederatedSource, FederationConfig,
    FederationReport,
};
use tukwila_optimizer::{FragmentationConfig, Optimizer, OptimizerContext};
use tukwila_relation::Tuple;
use tukwila_source::{DelayModel, DelayedSource, MemSource, Source};
use tukwila_stats::trace::SpanKind;
use tukwila_stats::WallClock;
use tukwila_stats::{Clock, TraceEvent, TraceRecord, TraceSink, VirtualClock};

use crate::probe::{timed, Boundary, Probe, TimedClock, TimedSource};

/// Distance between the seeds of a workload's datasets of one kind.
const DATASET_SEED_STRIDE: u64 = 0x9E37_79B9;
/// Engine batch size for every workload (the paper's experiments' 1024).
const BATCH: usize = 1024;
/// Wall-clock acceleration of mirrors-wall.
const MIRRORS_ACCEL: f64 = 100.0;
/// Wall-clock acceleration of corrective-threaded.
const CORRECTIVE_ACCEL: f64 = 25.0;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 2 "Adaptive NoStats": corrective processing from the paper's
    /// bad phase-0 plans over local sources.
    LocalNoStats,
    /// The same cells with given cardinalities: no switch is expected.
    LocalCards,
    /// Q3A over flaky/steady/remote mirrors racing on producer threads.
    MirrorsWall,
    /// Threaded corrective execution with a forced mid-stream switch.
    CorrectiveThreaded,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LocalNoStats,
        Workload::LocalCards,
        Workload::MirrorsWall,
        Workload::CorrectiveThreaded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LocalNoStats => "local-nostats",
            Workload::LocalCards => "local-cards",
            Workload::MirrorsWall => "mirrors-wall",
            Workload::CorrectiveThreaded => "corrective-threaded",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Timeline µs per real µs (1 for the virtual clock).
    pub fn accel(self) -> f64 {
        match self {
            Workload::LocalNoStats | Workload::LocalCards => 1.0,
            Workload::MirrorsWall => MIRRORS_ACCEL,
            Workload::CorrectiveThreaded => CORRECTIVE_ACCEL,
        }
    }

    /// Typical seconds of one untraced cycle over the workload's cells on
    /// a 2-vCPU Xeon host. A run makes `round(seconds / this)` cycles, so
    /// its sample count depends on `--seconds` alone; the measured time
    /// follows the host's speed.
    pub fn nominal_cycle_s(self) -> f64 {
        match self {
            Workload::LocalNoStats => 8.5,
            Workload::LocalCards => 5.5,
            Workload::MirrorsWall => 2.9,
            Workload::CorrectiveThreaded => 1.1,
        }
    }

    /// The datasets a cycle covers: `(name, zipf_z, seed offset)`. The
    /// local workloads run every query on two uniform and two skewed
    /// datasets, so one run's figures average over several inputs.
    fn datasets(self) -> &'static [(&'static str, Option<f64>, u64)] {
        match self {
            Workload::LocalNoStats | Workload::LocalCards => &[
                ("uniform", None, 0),
                ("skewed", Some(0.5), 0),
                ("uniform2", None, 1),
                ("skewed2", Some(0.5), 1),
            ],
            Workload::MirrorsWall | Workload::CorrectiveThreaded => &[("uniform", None, 0)],
        }
    }
}

/// What varies between runs of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub workload: Workload,
    /// Feeds `DatasetConfig::seed` and the mirrors' delay-model seeds.
    pub seed: u64,
    /// TPC-H scale factor.
    pub scale: f64,
}

impl Params {
    /// The experiment knobs the shared source builders take.
    pub fn exp(&self) -> ExpConfig {
        ExpConfig {
            scale: self.scale,
            seed: self.seed,
            batch_size: BATCH,
            ..ExpConfig::default()
        }
    }
}

/// One query of a workload's cycle: a query over a dataset, plus how its
/// sources are registered.
pub struct Cell {
    pub label: String,
    pub query: WorkloadQuery,
    pub data: Arc<Dataset>,
    pub cards: HashMap<u32, u64>,
    /// mirrors-wall: the registration order of each relation's mirrors.
    pub mirrors: Option<[MirrorKind; 3]>,
}

/// Everything set-up builds before the first query.
pub struct Setup {
    pub cells: Vec<Arc<Cell>>,
    /// Seconds spent in `Dataset::generate`.
    pub generate_s: f64,
}

/// Generate the datasets and build the workload's cells.
pub fn setup(params: Params) -> Setup {
    let exp = params.exp();
    let mut generate_s = 0.0;
    let datasets: Vec<(&str, Arc<Dataset>)> = params
        .workload
        .datasets()
        .iter()
        .map(|&(name, zipf_z, offset)| {
            let (d, s) = timed(|| {
                Dataset::generate(DatasetConfig {
                    scale: exp.scale,
                    zipf_z,
                    seed: exp
                        .seed
                        .wrapping_add(offset.wrapping_mul(DATASET_SEED_STRIDE)),
                })
            });
            generate_s += s;
            (name, Arc::new(d))
        })
        .collect();
    let cell = |query: WorkloadQuery,
                dname: &str,
                data: &Arc<Dataset>,
                mirrors: Option<[MirrorKind; 3]>| {
        let label = match mirrors {
            Some([first, ..]) => format!("{}-{dname}-{first:?}-first", query.name()),
            None => format!("{}-{dname}", query.name()),
        };
        Arc::new(Cell {
            label,
            query,
            cards: true_cards(data, &query.query()),
            data: data.clone(),
            mirrors,
        })
    };
    let cells = match params.workload {
        Workload::LocalNoStats | Workload::LocalCards => WorkloadQuery::all()
            .into_iter()
            .flat_map(|w| datasets.iter().map(move |(n, d)| (w, *n, d)))
            .map(|(w, n, d)| cell(w, n, d, None))
            .collect(),
        Workload::MirrorsWall => {
            let (n, d) = &datasets[0];
            [
                [
                    MirrorKind::FastFlaky,
                    MirrorKind::SteadySlow,
                    MirrorKind::RemoteBackup,
                ],
                [
                    MirrorKind::SteadySlow,
                    MirrorKind::FastFlaky,
                    MirrorKind::RemoteBackup,
                ],
            ]
            .into_iter()
            .map(|order| cell(WorkloadQuery::Q3A, n, d, Some(order)))
            .collect()
        }
        Workload::CorrectiveThreaded => {
            let (n, d) = &datasets[0];
            vec![cell(WorkloadQuery::Q3A, n, d, None)]
        }
    };
    Setup { cells, generate_s }
}

/// The answer every run of `cell` must produce: a static plan with given
/// cardinalities over local in-memory sources, canonicalized.
pub fn oracle(cell: &Cell) -> Vec<String> {
    let q = cell.query.query();
    let run = run_static(
        &q,
        &mut local_sources(&cell.data, &q),
        OptimizerContext::with_cards(cell.cards.clone()),
        BATCH,
        CpuCostModel::Zero,
    )
    .expect("oracle plan runs");
    canonicalize_approx(&run.rows)
}

/// The paper's Fig. 2 corrective configuration (the `repro fig2`
/// adaptive cells).
fn fig2_config(given: Option<HashMap<u32, u64>>, order: Option<Vec<u32>>) -> CorrectiveConfig {
    CorrectiveConfig {
        batch_size: BATCH,
        cpu: CpuCostModel::Measured,
        poll_every_batches: 6,
        switch_threshold: 0.8,
        max_phases: 8,
        warmup_batches: 4,
        given_cards: given,
        initial_order: order,
        min_remaining_fraction: 0.15,
        stitch_reuse: true,
        ..Default::default()
    }
}

/// The `repro corrective-wall` configuration: aggressive fragmentation,
/// a forced switch, threaded producer fragments when `clock` is a wall
/// clock (deterministic sequential fragments on the virtual clock).
pub fn corrective_wall_config(clock: Option<Arc<dyn Clock>>) -> CorrectiveConfig {
    let threaded = clock.is_some();
    CorrectiveConfig {
        batch_size: BATCH,
        cpu: if threaded {
            CpuCostModel::Measured
        } else {
            CpuCostModel::Zero
        },
        poll_every_batches: 3,
        switch_threshold: 100.0,
        max_phases: 3,
        warmup_batches: 2,
        initial_order: Some(corrective_order()),
        min_remaining_fraction: 0.0,
        clock,
        fragments: Some(FragmentationConfig::aggressive()),
        threaded_fragments: threaded.then_some(true),
        fragment_options: FragmentOptions {
            queue_capacity: 16,
            poll_tick_us: 10_000,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn corrective_order() -> Vec<u32> {
    vec![
        TableId::Orders.rel_id(),
        TableId::Lineitem.rel_id(),
        TableId::Customer.rel_id(),
    ]
}

/// Wraps base sources and federated adapters in timing decorators when a
/// probe is present; the identity otherwise.
#[derive(Clone, Copy)]
pub struct Wrap<'a>(pub Option<&'a Arc<Probe>>);

impl Wrap<'_> {
    fn base(self, s: Box<dyn Source>) -> Box<dyn Source> {
        match self.0 {
            Some(p) => TimedSource::wrap(s, p, Boundary::Source),
            None => s,
        }
    }

    fn clock(self, c: Arc<dyn Clock>) -> Arc<dyn Clock> {
        match self.0 {
            Some(p) => TimedClock::wrap(c, p),
            None => c,
        }
    }
}

/// The catalog's federated adapters: sequential without a clock, racing
/// their candidates on producer threads with one.
fn adapters(
    catalog: FederatedCatalog,
    clock: Option<Arc<dyn Clock>>,
    wrap: Wrap,
) -> Vec<Box<dyn Source>> {
    let sources = match clock {
        None => catalog.into_sources(),
        Some(c) => catalog.into_concurrent_sources(c),
    }
    .expect("valid catalog");
    match wrap.0 {
        Some(p) => sources
            .into_iter()
            .map(|s| TimedSource::wrap(s, p, Boundary::Federation))
            .collect(),
        None => sources,
    }
}

/// Every relation of `q` behind its three mirrors, registered in `order`.
/// `clock: None` builds the sequential adapter (virtual clock); a wall
/// clock races the mirrors on producer threads.
pub fn mirror_sources(
    cell: &Cell,
    exp: &ExpConfig,
    order: &[MirrorKind],
    clock: Option<Arc<dyn Clock>>,
    trace: TraceSink,
    wrap: Wrap,
) -> Vec<Box<dyn Source>> {
    let q = cell.query.query();
    let mut by_kind: Vec<_> = order
        .iter()
        .map(|&k| pinned_mirror_sources(&cell.data, &q, exp, k).into_iter())
        .collect();
    let mut catalog = FederatedCatalog::new(FederationConfig {
        trace,
        ..FederationConfig::default()
    });
    for t in queries::tables_of(&q) {
        for mirrors in by_kind.iter_mut() {
            let base = mirrors.next().expect("one mirror per relation");
            catalog
                .register(t.key_cols(), wrap.base(base))
                .expect("uniform mirrors");
        }
    }
    adapters(catalog, clock, wrap)
}

/// CUSTOMER behind two slow federated mirrors, every other relation
/// local (the `repro corrective-wall` sources).
pub fn slow_customer_sources(
    cell: &Cell,
    exp: &ExpConfig,
    clock: Option<Arc<dyn Clock>>,
    trace: TraceSink,
    wrap: Wrap,
) -> Vec<Box<dyn Source>> {
    let d = &cell.data;
    let customer = TableId::Customer;
    let mut catalog = FederatedCatalog::new(FederationConfig {
        trace,
        ..FederationConfig::default()
    });
    for (i, frac) in [0.2, 0.16].into_iter().enumerate() {
        let mirror = DelayedSource::new(
            customer.rel_id(),
            format!("customer-slow{i}"),
            Dataset::schema(customer),
            d.table(customer).to_vec(),
            &DelayModel::Bandwidth {
                bytes_per_sec: exp.wireless_bps * frac,
                initial_latency_us: 2_000,
            },
        );
        catalog
            .register(customer.key_cols(), wrap.base(Box::new(mirror)))
            .expect("uniform mirrors");
    }
    let mut sources = adapters(catalog, clock, wrap);
    for t in queries::tables_of(&cell.query.query()) {
        if t != customer {
            sources.push(wrap.base(Box::new(MemSource::new(
                t.rel_id(),
                t.name(),
                Dataset::schema(t),
                d.table(t).to_vec(),
            ))));
        }
    }
    sources
}

/// What the engine reported about one query.
pub struct EngineRun {
    pub rows: Vec<Tuple>,
    pub exec: ExecReport,
    pub phases: usize,
    pub max_fragments: usize,
    pub stitch_us: u64,
    pub reused: usize,
    pub discarded: usize,
    /// Reports of every federated adapter among the query's sources.
    pub federation: Vec<FederationReport>,
}

fn federation_reports(sources: &[Box<dyn Source>]) -> Vec<FederationReport> {
    sources
        .iter()
        .filter_map(|s| {
            let any = s.as_any()?;
            if let Some(f) = any.downcast_ref::<FederatedSource>() {
                return Some(f.report());
            }
            any.downcast_ref::<ConcurrentFederatedSource>()
                .map(|f| f.report())
        })
        .collect()
}

fn corrective_run(
    exec: CorrectiveExec,
    sources: &mut [Box<dyn Source>],
) -> tukwila_relation::Result<EngineRun> {
    let r = exec.run(sources)?;
    Ok(EngineRun {
        phases: r.phase_count(),
        max_fragments: r.phases.iter().map(|p| p.fragments).max().unwrap_or(1),
        stitch_us: r.stitch_us,
        reused: r.reuse.reused_tuples,
        discarded: r.reuse.discarded_tuples,
        federation: federation_reports(sources),
        rows: r.rows,
        exec: r.exec,
    })
}

/// One timed query: its real seconds, what the engine reported (answer
/// rows included), and the engine's journal (traced runs only).
pub struct QueryRun {
    pub query_s: f64,
    /// The part of `query_s` spent building the query's sources.
    pub build_s: f64,
    /// Seconds spent dropping the query's sources after `query_s` ended.
    pub teardown_s: f64,
    pub engine: EngineRun,
    pub journal: Vec<TraceRecord>,
}

/// Run one query of `cell`, timed from building its sources to receiving
/// its answer rows. With a probe, base sources, federated adapters and the
/// wall clock are wrapped in timing decorators and the engine's journal is
/// on.
pub fn run_query(
    cell: &Cell,
    params: Params,
    probe: Option<&Arc<Probe>>,
) -> tukwila_relation::Result<QueryRun> {
    let wrap = Wrap(probe);
    let exp = params.exp();
    let q = cell.query.query();
    let accel = params.workload.accel();
    let wall: Option<Arc<dyn Clock>> =
        (accel > 1.0).then(|| wrap.clock(Arc::new(WallClock::accelerated(accel))));
    let sink = match probe {
        None => TraceSink::disabled(),
        Some(_) => TraceSink::unbounded(
            wall.clone()
                .unwrap_or_else(|| Arc::new(VirtualClock::new())),
        ),
    };
    let start = std::time::Instant::now();
    let mut sources = match params.workload {
        Workload::LocalNoStats | Workload::LocalCards => local_sources(&cell.data, &q)
            .into_iter()
            .map(|s| wrap.base(s))
            .collect(),
        Workload::MirrorsWall => {
            let order = cell.mirrors.expect("mirrors-wall cells carry an order");
            mirror_sources(cell, &exp, &order, wall.clone(), sink.clone(), wrap)
        }
        Workload::CorrectiveThreaded => {
            slow_customer_sources(cell, &exp, wall.clone(), sink.clone(), wrap)
        }
    };
    let build_s = start.elapsed().as_secs_f64();
    let engine = match params.workload {
        Workload::LocalNoStats | Workload::LocalCards => {
            let mut cfg = if params.workload == Workload::LocalCards {
                fig2_config(Some(cell.cards.clone()), None)
            } else {
                fig2_config(None, cell.query.paper_nostats_order())
            };
            cfg.trace = sink.clone();
            corrective_run(CorrectiveExec::new(q.clone(), cfg), &mut sources)?
        }
        Workload::MirrorsWall => {
            let clock = wall.expect("mirrors-wall runs on a wall clock");
            let run = run_static_with_driver(
                &q,
                &mut sources,
                OptimizerContext::no_statistics(),
                SimDriver::new(BATCH, CpuCostModel::Measured)
                    .with_clock(clock)
                    .with_trace(sink.clone()),
                None,
            )?;
            EngineRun {
                rows: run.rows,
                exec: run.exec,
                phases: 1,
                max_fragments: 1,
                stitch_us: 0,
                reused: 0,
                discarded: 0,
                federation: federation_reports(&sources),
            }
        }
        Workload::CorrectiveThreaded => {
            let mut cfg = corrective_wall_config(wall);
            cfg.trace = sink.clone();
            corrective_run(CorrectiveExec::new(q.clone(), cfg), &mut sources)?
        }
    };
    let query_s = start.elapsed().as_secs_f64();
    // Outside `query_s`: the answer is in hand. Dropping federated sources
    // joins their producer threads.
    let ((), teardown_s) = timed(|| drop(sources));
    Ok(QueryRun {
        query_s,
        build_s,
        teardown_s,
        journal: sink.snapshot(),
        engine,
    })
}

/// Seconds of one `Optimizer` call planning `cell` the way the workload's
/// phase 0 is planned.
pub fn plan_seconds(cell: &Cell, workload: Workload) -> f64 {
    let q = cell.query.query();
    let (ctx, order) = match workload {
        Workload::LocalNoStats => (
            OptimizerContext::no_statistics(),
            cell.query.paper_nostats_order(),
        ),
        Workload::LocalCards => (OptimizerContext::with_cards(cell.cards.clone()), None),
        Workload::MirrorsWall => (OptimizerContext::no_statistics(), None),
        Workload::CorrectiveThreaded => {
            (OptimizerContext::no_statistics(), Some(corrective_order()))
        }
    };
    let (plan, s) = timed(|| {
        let opt = Optimizer::new(ctx);
        match &order {
            Some(o) => opt.plan_with_order(&q, o),
            None => opt.optimize(&q),
        }
    });
    std::hint::black_box(plan.expect("the workload's queries plan"));
    s
}

/// Real seconds inside `Quiesce` spans of a journal.
pub fn quiesce_seconds(journal: &[TraceRecord], accel: f64) -> f64 {
    let mut open: Vec<u64> = Vec::new();
    let mut total_us = 0u64;
    for rec in journal {
        match &rec.event {
            TraceEvent::SpanBegin {
                kind: SpanKind::Quiesce,
                ..
            } => open.push(rec.at_us),
            TraceEvent::SpanEnd {
                kind: SpanKind::Quiesce,
                ..
            } => {
                if let Some(begin) = open.pop() {
                    total_us += rec.at_us.saturating_sub(begin);
                }
            }
            _ => {}
        }
    }
    total_us as f64 / 1e6 / accel
}
