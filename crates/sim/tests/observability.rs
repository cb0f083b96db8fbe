//! Observability-layer integration tests: trace determinism, conservation
//! on multi-MPU (NoC) runs, and Chrome trace-event export validity.

use mastodon::{
    chrome_trace_json, run_single_traced, EventLog, FaultAction, FaultConfig, Profile, Redundancy,
    SimConfig, Stats, StuckLane, System, TraceEvent, TraceKind, NOC_TID,
};
use microjson::Value;
use mpu_isa::Program;
use pum_backend::DatapathKind;
use std::collections::HashMap;

/// A two-MPU schedule exercising compute ensembles, a move block, a
/// SEND/RECV exchange, and control flow.
const SENDER: &str = "COMPUTE h0 v0\nADD r0 r1 r2\nMUL r2 r1 r3\nCOMPUTE_DONE\n\
                      SEND mpu1\nMOVE h0 h0\nMEMCPY v0 r3 v0 r6\nMOVE_DONE\nSEND_DONE\n\
                      NOP";
const RECEIVER: &str = "RECV mpu0\nCOMPUTE h0 v0\nADD r6 r6 r7\nCOMPUTE_DONE\nNOP";

fn traced_system(config: SimConfig) -> (Stats, Vec<TraceEvent>, Vec<Stats>) {
    let mut sys = System::new(config, 2);
    let log = EventLog::new();
    sys.set_event_log(&log);
    sys.set_program(0, Program::parse_asm(SENDER).expect("sender asm"));
    sys.set_program(1, Program::parse_asm(RECEIVER).expect("receiver asm"));
    sys.mpu_mut(0).write_register(0, 0, 0, &vec![5; 64]).expect("stage r0");
    sys.mpu_mut(0).write_register(0, 0, 1, &vec![3; 64]).expect("stage r1");
    let stats = sys.run().expect("schedule completes");
    let per_mpu = (0..2).map(|i| *sys.mpu_mut(i).stats()).collect();
    (stats, log.take(), per_mpu)
}

/// Asserts that each MPU's attribution tree partitions its totals: the
/// root's inclusive charges equal them on every field but elapsed cycles.
fn assert_tree_partitions(profile: &Profile) {
    for m in &profile.mpus {
        let inclusive = Stats { cycles: m.totals.cycles, ..m.root.inclusive() };
        assert_eq!(inclusive, m.totals, "mpu{} tree must partition its totals", m.mpu);
    }
}

fn faulty_config() -> SimConfig {
    let mut config = SimConfig::mpu(DatapathKind::Racer);
    // Rate sized so a ~15k-uop MUL recipe draws well under one transient
    // per redundant run: DMR's bounded retries must make the schedule
    // completable, not just detectable.
    config.fault = FaultConfig { seed: Some(0xC0FFEE), transient_rate: 2e-5, ..Default::default() };
    config.recovery.redundancy = Redundancy::Dmr;
    config
}

#[test]
fn trace_streams_are_deterministic() {
    let (stats_a, events_a, _) = traced_system(SimConfig::mpu(DatapathKind::Racer));
    let (stats_b, events_b, _) = traced_system(SimConfig::mpu(DatapathKind::Racer));
    assert_eq!(stats_a, stats_b);
    assert_eq!(events_a, events_b, "same program must trace identically");
    assert!(!events_a.is_empty());
}

#[test]
fn trace_streams_are_deterministic_under_seeded_faults() {
    let (stats_a, events_a, _) = traced_system(faulty_config());
    let (stats_b, events_b, _) = traced_system(faulty_config());
    assert_eq!(stats_a, stats_b);
    assert_eq!(events_a, events_b, "seeded fault runs must trace identically");
}

#[test]
fn profile_conserves_noc_and_fault_charges() {
    let (stats, events, per_mpu) = traced_system(faulty_config());
    assert!(
        events.iter().any(|e| matches!(e.kind, TraceKind::Noc { delivered: true, .. })),
        "schedule must exercise the NoC"
    );
    let profile = Profile::build(&events);
    for m in &profile.mpus {
        assert_eq!(
            m.totals, per_mpu[m.mpu as usize],
            "mpu{} profile totals must reproduce its Stats exactly",
            m.mpu
        );
    }
    assert_eq!(profile.merged(), stats, "merged profile must equal System::run stats");
    assert_tree_partitions(&profile);
}

#[test]
fn profile_conserves_scheduler_waves_across_checkpoint_restarts() {
    // Two VRFs on one RFH form two waves; DMR with no retries escalates
    // every detected fault, and each escalation restarts the ensemble
    // from its checkpoint, often before the second wave starts. The fold
    // must charge only the waves each attempt actually replayed.
    let body = "ADD r0 r1 r2\nADD r2 r1 r2\n".repeat(8);
    let program = Program::parse_asm(&format!("COMPUTE h0 v0\nCOMPUTE h0 v1\n{body}COMPUTE_DONE"))
        .expect("asm");
    let mut config = SimConfig::mpu(DatapathKind::Racer);
    config.fault = FaultConfig { seed: Some(27), transient_rate: 3e-4, ..Default::default() };
    config.recovery.redundancy = Redundancy::Dmr;
    config.recovery.max_retries = 0;
    config.recovery.checkpoint_restart = true;
    config.recovery.max_restarts = 64;
    let inputs = [((0, 0, 0), vec![5; 64]), ((0, 0, 1), vec![9; 64])];
    let log = EventLog::new();
    let (stats, _) =
        run_single_traced(config, &program, &inputs, None, Some(Box::new(log.clone())))
            .expect("restarts recover the run");
    assert!(stats.faults.ensemble_restarts > 0, "the run must exercise restarts");
    let profile = Profile::build(&log.take());
    assert_eq!(profile.mpus[0].totals, stats, "profile totals must reproduce Stats exactly");
    assert_tree_partitions(&profile);
}

#[test]
fn profile_conserves_tmr_votes_and_lane_remap() {
    // TMR over a transient fault model plus a stuck lane that the boot
    // self-test power-gates and remaps onto a spare: the redundant runs,
    // the votes, the self-test charge and the landed-fault count in
    // `finish` must all fold back into `Stats` and partition the tree.
    let body = "ADD r0 r1 r2\nADD r2 r1 r2\n".repeat(8);
    let program = Program::parse_asm(&format!("COMPUTE h0 v0\n{body}COMPUTE_DONE")).expect("asm");
    let mut config = SimConfig::mpu(DatapathKind::Racer);
    config.fault = FaultConfig {
        seed: Some(2),
        transient_rate: 1e-4,
        stuck_lanes: vec![StuckLane { mpu: 0, rfh: 0, vrf: 0, lane: 5, value: true }],
        ..Default::default()
    };
    config.recovery.redundancy = Redundancy::Tmr;
    config.recovery.remap = true;
    config.recovery.spare_lanes = 4;
    let inputs = [((0, 0, 0), vec![5; 60]), ((0, 0, 1), vec![9; 60])];
    let log = EventLog::new();
    let (stats, _) =
        run_single_traced(config, &program, &inputs, None, Some(Box::new(log.clone())))
            .expect("TMR run completes");
    let events = log.take();
    assert!(events.iter().any(|e| matches!(e.kind, TraceKind::SelfTest { dead: 1, .. })));
    assert!(events.iter().any(|e| e.kind == TraceKind::Fault(FaultAction::RedundantRun)));
    assert!(stats.faults.injected > 0, "transient faults must land");
    assert!(stats.faults.corrected > 0, "TMR must vote at least one fault out");
    assert!(stats.faults.remapped_lanes > 0, "lanes past the dead one must shift");
    let profile = Profile::build(&events);
    assert_eq!(profile.mpus[0].totals, stats, "profile totals must reproduce Stats exactly");
    assert_tree_partitions(&profile);
}

#[test]
fn chrome_export_is_valid_and_loadable() {
    let (_, events, _) = traced_system(faulty_config());
    let json = chrome_trace_json(&events);
    let doc = Value::parse(&json).expect("export must be well-formed JSON");
    let trace_events =
        doc.get("traceEvents").and_then(Value::as_arr).expect("traceEvents array present");
    assert!(!trace_events.is_empty());

    let mut open: HashMap<u64, u64> = HashMap::new();
    let mut last_ts: HashMap<u64, f64> = HashMap::new();
    let mut named_tracks = Vec::new();
    let mut saw_noc_slice = false;
    for ev in trace_events {
        let ph = ev.get("ph").and_then(Value::as_str).expect("every event has ph");
        let tid = ev.get("tid").and_then(Value::as_u64).expect("every event has tid");
        match ph {
            "M" => {
                assert_eq!(ev.get("name").and_then(Value::as_str), Some("thread_name"));
                let name = ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    .expect("thread_name metadata carries a name");
                named_tracks.push((tid, name.to_string()));
                continue;
            }
            "B" => *open.entry(tid).or_default() += 1,
            "E" => {
                let depth = open.entry(tid).or_default();
                assert!(*depth > 0, "E without a matching B on tid {tid}");
                *depth -= 1;
            }
            "X" => {
                assert!(ev.get("dur").and_then(Value::as_f64).is_some());
                if tid == u64::from(NOC_TID) {
                    saw_noc_slice = true;
                }
            }
            other => panic!("unexpected phase {other:?}"),
        }
        let ts = ev.get("ts").and_then(Value::as_f64).expect("every event has ts");
        let prev = last_ts.entry(tid).or_insert(ts);
        assert!(ts >= *prev, "timestamps must be monotonic per track (tid {tid})");
        *prev = ts;
    }
    assert!(open.values().all(|&d| d == 0), "B/E pairs must balance per track");
    assert!(saw_noc_slice, "NoC traversals must land on the NoC track");
    assert!(named_tracks.contains(&(0, "mpu0".to_string())));
    assert!(named_tracks.contains(&(1, "mpu1".to_string())));
    assert!(named_tracks.contains(&(u64::from(NOC_TID), "noc".to_string())));
}

#[test]
fn arming_a_tracer_does_not_change_execution() {
    let run = |armed: bool| {
        let mut sys = System::new(faulty_config(), 2);
        let log = EventLog::new();
        if armed {
            sys.set_event_log(&log);
        }
        sys.set_program(0, Program::parse_asm(SENDER).expect("sender asm"));
        sys.set_program(1, Program::parse_asm(RECEIVER).expect("receiver asm"));
        sys.mpu_mut(0).write_register(0, 0, 0, &vec![5; 64]).expect("stage r0");
        sys.mpu_mut(0).write_register(0, 0, 1, &vec![3; 64]).expect("stage r1");
        let stats = sys.run().expect("schedule completes");
        let lanes = sys.mpu_mut(1).read_register(0, 0, 7).expect("result reg");
        (stats, lanes)
    };
    assert_eq!(run(true), run(false), "tracing must be execution-transparent");
}
