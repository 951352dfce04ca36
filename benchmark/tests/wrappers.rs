//! The timing wrappers and traced replicas observe without changing
//! anything: wrapped runs equal bare runs, and replicas equal the library
//! entry points they stand in for.

use std::sync::{Arc, Mutex};
use tnpu_bench::faults;
use tnpu_benchmark::spans::{Probe, Tracer, Untraced};
use tnpu_benchmark::timed::{Meter, TimedEngine};
use tnpu_benchmark::workloads::{attack, fault};
use tnpu_core::Scheme;
use tnpu_memprot::faults::FaultKind;
use tnpu_memprot::{
    build_engine, AccessCost, EngineStats, ProtectionConfig, ProtectionEngine, SchemeKind,
};
use tnpu_models::builder::ModelBuilder;
use tnpu_models::{registry, Model};
use tnpu_npu::{NpuConfig, TileTrace};
use tnpu_sim::{Addr, BlockAddr, BlockRun, Cycles};

/// An engine overriding every trait method, logging which one ran and
/// answering with a cost unique to it.
struct Recorder(Arc<Mutex<Vec<&'static str>>>);

impl Recorder {
    fn hit(&self, method: &'static str, tag: u64) -> AccessCost {
        self.0.lock().expect("call log").push(method);
        AccessCost {
            meta_bytes: tag,
            independent_misses: 0,
            serial_misses: 0,
        }
    }
}

impl ProtectionEngine for Recorder {
    fn scheme(&self) -> SchemeKind {
        SchemeKind::Treeless
    }
    fn read_block(&mut self, _: Addr, _: u64) -> AccessCost {
        self.hit("read_block", 1)
    }
    fn write_block(&mut self, _: Addr, _: u64) -> AccessCost {
        self.hit("write_block", 2)
    }
    fn read_run(&mut self, _: BlockRun, _: u64) -> AccessCost {
        self.hit("read_run", 3)
    }
    fn write_run(&mut self, _: BlockRun, _: u64) -> AccessCost {
        self.hit("write_run", 4)
    }
    fn version_access(&mut self, _: Addr, _: bool) -> AccessCost {
        self.hit("version_access", 5)
    }
    fn pipeline_latency(&self) -> Cycles {
        Cycles(6)
    }
    fn stats(&self) -> EngineStats {
        let mut stats = EngineStats::default();
        stats.traffic.mac = 7;
        stats
    }
    fn reset_stats(&mut self) {
        self.hit("reset_stats", 0);
    }
    fn context_state_bytes(&self) -> u64 {
        8
    }
    fn flush(&mut self) -> AccessCost {
        self.hit("flush", 9)
    }
}

#[test]
fn timed_engine_forwards_every_method() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let meter = Meter::new();
    let mut e = TimedEngine::new(Box::new(Recorder(Arc::clone(&log))), Arc::clone(&meter));
    let run = BlockRun {
        first: BlockAddr(0),
        len: 5,
    };
    assert_eq!(e.scheme(), SchemeKind::Treeless);
    assert_eq!(e.read_block(Addr(0), 1).meta_bytes, 1);
    assert_eq!(e.write_block(Addr(0), 1).meta_bytes, 2);
    // A default `read_run`/`write_run` would loop over read_block/write_block.
    assert_eq!(e.read_run(run, 1).meta_bytes, 3);
    assert_eq!(e.write_run(run, 1).meta_bytes, 4);
    assert_eq!(e.version_access(Addr(0), true).meta_bytes, 5);
    assert_eq!(e.pipeline_latency(), Cycles(6));
    assert_eq!(e.stats().traffic.mac, 7);
    e.reset_stats();
    assert_eq!(e.context_state_bytes(), 8);
    assert_eq!(e.flush().meta_bytes, 9);
    assert_eq!(
        *log.lock().expect("call log"),
        [
            "read_block",
            "write_block",
            "read_run",
            "write_run",
            "version_access",
            "reset_stats",
            "flush"
        ]
    );
    let tnpu = meter.read().engine[2];
    assert_eq!(tnpu.calls, 6, "every data-path call is metered");
    assert_eq!(tnpu.blocks, 1 + 1 + 5 + 5, "runs count their blocks");
}

#[test]
fn replaying_through_a_timed_engine_changes_no_report() {
    let df = registry::model("df").expect("registered");
    let npu = NpuConfig::small_npu();
    let trace = TileTrace::build_replicated(&df, &npu, 2, 0xBEEF);
    let meter = Meter::new();
    for (i, scheme) in SchemeKind::ALL.into_iter().enumerate() {
        let engine = || build_engine(scheme, &ProtectionConfig::paper_default());
        let bare = trace.replay(engine(), &npu, 2);
        let timed = trace.replay(
            Box::new(TimedEngine::new(engine(), Arc::clone(&meter))),
            &npu,
            2,
        );
        assert_eq!(bare, timed, "{scheme}");
        assert!(
            meter.read().engine[i].calls > 0,
            "{scheme}: nothing metered"
        );
    }
}

fn tiny() -> Model {
    ModelBuilder::new("tiny", "TinyNet", (4, 8, 8))
        .conv("c1", 8, 3, 1, 1)
        .pool("p1", 2, 2)
        .fc("fc", 16)
        .build()
}

#[test]
fn timed_memory_changes_no_runner_output_or_layer_trace() {
    let model = tiny();
    for scheme in Scheme::ALL {
        let bare = attack::phases(&mut Untraced, &model, scheme);
        let mut tracer = Tracer::new();
        let traced = attack::phases(&mut tracer, &model, scheme);
        assert_eq!(bare, traced, "{scheme}");
        assert_eq!(
            traced.pass2_output, traced.reference,
            "{scheme}: clean pass 2"
        );
        let reading = tracer.reading();
        assert!(
            reading.reads_total().calls > 0
                && reading.memory_total().calls > reading.reads_total().calls
        );
        assert!(tracer.sum("core.runner.self_s") > 0.0);
        assert!(tracer.sum("core.attacks.pass1_s") > 0.0);
    }
    // The untraced probe records nothing and wraps nothing.
    let mut u = Untraced;
    u.add("ignored", 1.0);
    let (v, d) = u.span(
        "cell",
        || unreachable!("names are built only when recording"),
        |_| 7,
    );
    assert_eq!((v, d), (7, std::time::Duration::ZERO));
}

#[test]
fn traced_fault_cell_equals_the_library_cell() {
    let df = registry::model("df").expect("registered");
    let refs = fault::reference_outputs(&df, fault::PASSES);
    let mut tracer = Tracer::new();
    for (scheme, kind) in [
        (Scheme::Treeless, FaultKind::TransientBitFlip),
        (Scheme::EncryptOnly, FaultKind::DroppedRead),
        (Scheme::TreeBased, FaultKind::StuckAtBit),
    ] {
        let library = faults::run_cell(&df, scheme, kind, fault::PERIOD, &refs);
        let traced = fault::traced_cell(&mut tracer, &df, scheme, kind, fault::PERIOD, &refs, 0);
        assert_eq!(traced, library, "{scheme} x {kind}");
        assert!(library.matches(), "{scheme} x {kind}");
    }
    assert!(
        tracer.sum("core.recovery.retries") > 0.0,
        "the transient cell retried"
    );
    assert!(tracer.sum("memprot.faults.injected") > 0.0);
}
