//! Hierarchical cycle/energy attribution: folds a trace-event stream into
//! a per-MPU tree (program line → instruction → micro-op class) whose
//! totals reproduce the live [`Stats`] exactly.
//!
//! # Conservation
//!
//! [`MpuProfile::totals`] folds every event's delta with
//! [`Stats::merge_sequential`]. Every counter, energy included, is an
//! integer, so the fold equals the machine's final [`Stats`] in any order.
//! The one exception is elapsed `cycles`, which message delivery advances
//! with a `max`; it is recovered from the last event's cycle stamp instead
//! (for a completed run that event is [`TraceKind::Finish`], stamped after
//! all charges). [`Profile::merged`] then folds per-MPU totals with
//! [`Stats::merge_parallel`], the reduction [`crate::System::run`]
//! performs, so the chip-level total matches too.
//!
//! Within the tree, each event's delta is attached to exactly one node, so
//! every field but elapsed `cycles` partitions exactly across the
//! hierarchy: the root's [`ProfileNode::inclusive`] equals the totals.

use crate::machine::EnsembleKind;
use crate::stats::Stats;
use crate::trace::{TraceEvent, TraceKind};
use std::collections::HashMap;
use std::fmt::Write as _;

/// One node of the attribution tree.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileNode {
    /// Stable merge key (deterministic for a given program).
    pub key: String,
    /// Human-readable label.
    pub label: String,
    /// How many events (or micro-ops, for micro-op-class leaves) merged
    /// into this node.
    pub count: u64,
    /// Charges attached directly to this node (exclusive of children).
    pub stats: Stats,
    /// Child spans, in first-appearance order.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    fn new(key: String, label: String) -> Self {
        Self { key, label, count: 0, stats: Stats::default(), children: Vec::new() }
    }

    /// Finds (or creates) the child with `key`.
    fn child_mut(&mut self, key: &str, label: &str) -> &mut ProfileNode {
        if let Some(i) = self.children.iter().position(|c| c.key == key) {
            return &mut self.children[i];
        }
        self.children.push(ProfileNode::new(key.to_string(), label.to_string()));
        let last = self.children.len() - 1;
        &mut self.children[last]
    }

    /// Merges a finished span into this node's children (same key → one
    /// node whose counters add).
    fn absorb(&mut self, span: ProfileNode) {
        if let Some(i) = self.children.iter().position(|c| c.key == span.key) {
            let dst = &mut self.children[i];
            dst.count += span.count;
            dst.stats.merge_sequential(&span.stats);
            for child in span.children {
                dst.absorb(child);
            }
        } else {
            self.children.push(span);
        }
    }

    /// Inclusive charges: this node plus its whole subtree.
    pub fn inclusive(&self) -> Stats {
        let mut total = self.stats;
        for child in &self.children {
            total.merge_sequential(&child.inclusive());
        }
        total
    }
}

/// The attribution tree of a single MPU.
#[derive(Debug, Clone, PartialEq)]
pub struct MpuProfile {
    /// Which MPU.
    pub mpu: u16,
    /// The exact [`Stats`] reproduction (see the module docs).
    pub totals: Stats,
    /// Root of the attribution tree.
    pub root: ProfileNode,
}

/// A hierarchical cycle/energy attribution profile built from a trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Profile {
    /// Per-MPU trees, sorted by MPU id.
    pub mpus: Vec<MpuProfile>,
}

impl Profile {
    /// Builds the profile from a trace-event stream (in emission order, as
    /// collected by [`crate::EventLog`]).
    pub fn build(events: &[TraceEvent]) -> Profile {
        let mut per_mpu: HashMap<u16, Vec<&TraceEvent>> = HashMap::new();
        let mut order: Vec<u16> = Vec::new();
        for ev in events {
            if !per_mpu.contains_key(&ev.mpu) {
                order.push(ev.mpu);
            }
            per_mpu.entry(ev.mpu).or_default().push(ev);
        }
        order.sort_unstable();
        let mpus = order
            .into_iter()
            .map(|id| {
                let evs = &per_mpu[&id];
                MpuProfile { mpu: id, totals: fold_totals(evs), root: build_tree(id, evs) }
            })
            .collect();
        Profile { mpus }
    }

    /// The tree for one MPU, if it emitted any events.
    pub fn mpu(&self, id: u16) -> Option<&MpuProfile> {
        self.mpus.iter().find(|m| m.mpu == id)
    }

    /// Chip-level totals: per-MPU totals reduced with
    /// [`Stats::merge_parallel`] in MPU-id order — exactly the reduction
    /// [`crate::System::run`] returns.
    pub fn merged(&self) -> Stats {
        let mut total = Stats::default();
        for m in &self.mpus {
            total.merge_parallel(&m.totals);
        }
        total
    }

    /// Renders the whole profile as a deterministic text report: one block
    /// per MPU, spans sorted by inclusive cycles (descending, then key).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.mpus {
            let t = &m.totals;
            let _ = writeln!(
                out,
                "== mpu{}: {} cycles, {} instr, {} uops, {:.3} pJ ==",
                m.mpu,
                t.cycles,
                t.instructions,
                t.uops,
                t.energy.total_pj()
            );
            render_node(&mut out, &m.root, 0);
        }
        out
    }
}

/// Folds every delta in emission order (the exact reproduction), then
/// recovers elapsed cycles from the last event's stamp.
fn fold_totals(events: &[&TraceEvent]) -> Stats {
    let mut totals = Stats::default();
    for ev in events {
        totals.merge_sequential(&ev.delta);
    }
    if let Some(last) = events.last() {
        totals.cycles = last.cycle;
    }
    totals
}

fn render_node(out: &mut String, node: &ProfileNode, depth: usize) {
    let inc = node.inclusive();
    for _ in 0..depth {
        out.push_str("  ");
    }
    let _ = write!(out, "{}  [count {}]", node.label, node.count);
    if inc.cycles > 0 {
        let _ = write!(out, " cycles={}", inc.cycles);
    }
    if inc.uops > 0 {
        let _ = write!(out, " uops={}", inc.uops);
    }
    let pj = inc.energy.total_pj();
    if pj > 0.0 {
        let _ = write!(out, " energy={pj:.3}pJ");
    }
    out.push('\n');
    let mut order: Vec<usize> = (0..node.children.len()).collect();
    order.sort_by(|&a, &b| {
        let (ca, cb) = (&node.children[a], &node.children[b]);
        cb.inclusive().cycles.cmp(&ca.inclusive().cycles).then_with(|| ca.key.cmp(&cb.key))
    });
    for i in order {
        render_node(out, &node.children[i], depth + 1);
    }
}

/// Builds one MPU's tree by replaying the event stream against a span
/// stack (root at the bottom, open ensembles above it).
fn build_tree(id: u16, events: &[&TraceEvent]) -> ProfileNode {
    let mut root = ProfileNode::new(format!("mpu{id}"), format!("mpu{id}"));
    root.count = 1;
    // Open ensemble spans; everything else attaches to the current top.
    let mut stack: Vec<ProfileNode> = Vec::new();

    fn top<'a>(root: &'a mut ProfileNode, stack: &'a mut [ProfileNode]) -> &'a mut ProfileNode {
        match stack.last_mut() {
            Some(n) => n,
            None => root,
        }
    }

    fn close_one(root: &mut ProfileNode, stack: &mut Vec<ProfileNode>, kind: EnsembleKind) {
        let suffix = format!(":{kind}");
        while let Some(span) = stack.pop() {
            let matched = span.key.ends_with(&suffix);
            top(root, stack).absorb(span);
            if matched {
                return;
            }
        }
    }

    fn close_all(root: &mut ProfileNode, stack: &mut Vec<ProfileNode>) {
        while let Some(span) = stack.pop() {
            top(root, stack).absorb(span);
        }
    }

    for ev in events {
        let line = ev.line;
        // Each arm picks the node the event's delta attaches to.
        let node = match &ev.kind {
            TraceKind::EnsembleBegin { kind } => {
                stack.push(ProfileNode::new(format!("e{line}:{kind}"), format!("{kind} @{line}")));
                top(&mut root, &mut stack)
            }
            TraceKind::EnsembleEnd { kind } => {
                // Merged into the closing span without counting.
                top(&mut root, &mut stack).stats.merge_sequential(&ev.delta);
                close_one(&mut root, &mut stack, *kind);
                continue;
            }
            TraceKind::Restart => {
                // The failed attempt's spans never closed; fold them back
                // before attaching the rollback charge at the root.
                close_all(&mut root, &mut stack);
                root.child_mut("restart", "checkpoint restart")
            }
            TraceKind::Wave { index, vrfs } => top(&mut root, &mut stack)
                .child_mut(&format!("w{index}"), &format!("wave {index} ({vrfs} vrfs)")),
            TraceKind::Instr { mnemonic, class } => {
                let node = top(&mut root, &mut stack).child_mut(&format!("i{line}"), mnemonic);
                node.label = format!("{line}: {mnemonic} [{class:?}]");
                node
            }
            TraceKind::Exec { vrfs, mix } => {
                let node = top(&mut root, &mut stack)
                    .child_mut(&format!("i{line}"), "exec")
                    .child_mut("exec", &format!("exec ({vrfs} vrfs)"));
                // Micro-op-class leaves carry counts only: their parent's
                // delta already holds the cycles/energy, so the partition
                // stays exact.
                for (kind, n) in mix.counts() {
                    node.child_mut(&format!("u{kind}"), &format!("uop {kind}")).count += n as u64;
                }
                node
            }
            TraceKind::RecipeLookup { hit, pool } => {
                let what = match (hit, pool) {
                    (true, _) => "hit",
                    (false, Some(true)) => "miss (pool hit)",
                    (false, Some(false)) => "miss (pool miss)",
                    (false, None) => "miss",
                };
                top(&mut root, &mut stack)
                    .child_mut(&format!("i{line}"), "recipe")
                    .child_mut(&format!("r:{what}"), &format!("recipe {what}"))
            }
            TraceKind::PlaybackRefill => top(&mut root, &mut stack)
                .child_mut(&format!("i{line}"), "playback")
                .child_mut("playback", "playback refill"),
            TraceKind::Offload { batched } => {
                let what = if *batched { "offload (batched)" } else { "offload round trip" };
                let key = if *batched { "o:b" } else { "o:r" };
                top(&mut root, &mut stack)
                    .child_mut(&format!("i{line}"), "offload")
                    .child_mut(key, what)
            }
            TraceKind::Memcpy { src_rfh, dst_rfh } => {
                top(&mut root, &mut stack).child_mut(&format!("i{line}"), "memcpy").child_mut(
                    &format!("m{src_rfh}-{dst_rfh}"),
                    &format!("copy h{src_rfh} -> h{dst_rfh}"),
                )
            }
            TraceKind::Fault(action) => top(&mut root, &mut stack)
                .child_mut(&format!("i{line}"), "recovery")
                .child_mut(&format!("f:{action:?}"), &format!("{action:?}")),
            TraceKind::Checkpoint => {
                top(&mut root, &mut stack).child_mut("checkpoint", "checkpoint")
            }
            TraceKind::SelfTest { .. } => root.child_mut("selftest", "boot self-test"),
            TraceKind::Noc { src, dst, delivered, .. } => {
                let what = if *delivered { "delivered" } else { "lost" };
                top(&mut root, &mut stack).child_mut(
                    &format!("noc{src}-{dst}:{what}"),
                    &format!("noc mpu{src} -> mpu{dst} ({what})"),
                )
            }
            TraceKind::Finish => {
                close_all(&mut root, &mut stack);
                root.child_mut("finish", "finalization")
            }
        };
        node.count += 1;
        node.stats.merge_sequential(&ev.delta);
    }
    close_all(&mut root, &mut stack);
    root
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::machine::Mpu;
    use crate::trace::EventLog;
    use mpu_isa::{MpuId, Program};
    use pum_backend::DatapathKind;

    fn traced_run(asm: &str) -> (Stats, Vec<TraceEvent>) {
        let log = EventLog::new();
        let mut mpu = Mpu::new(SimConfig::mpu(DatapathKind::Racer), MpuId(0));
        mpu.set_tracer(Box::new(log.clone()));
        mpu.write_register(0, 0, 0, &vec![3; 64]).unwrap();
        mpu.write_register(0, 0, 1, &vec![4; 64]).unwrap();
        let program = Program::parse_asm(asm).unwrap();
        let stats = mpu.run(&program).unwrap();
        (stats, log.take())
    }

    const KERNEL: &str = "COMPUTE h0 v0\nADD r0 r1 r2\nMUL r2 r1 r3\nCOMPUTE_DONE\n\
                          MOVE h0 h1\nMEMCPY v0 r3 v0 r0\nMOVE_DONE";

    #[test]
    fn totals_reproduce_stats_exactly() {
        let (stats, events) = traced_run(KERNEL);
        let profile = Profile::build(&events);
        assert_eq!(profile.mpus.len(), 1);
        assert_eq!(profile.mpus[0].totals, stats, "emission-order fold must be exact");
        assert_eq!(profile.merged(), stats);
    }

    #[test]
    fn counters_partition_across_the_tree() {
        let (stats, events) = traced_run(KERNEL);
        let profile = Profile::build(&events);
        let inc = profile.mpus[0].root.inclusive();
        assert_eq!(inc.instructions, stats.instructions);
        assert_eq!(inc.uops, stats.uops);
        assert_eq!(inc.compute_cycles, stats.compute_cycles);
        assert_eq!(inc.control_cycles, stats.control_cycles);
        assert_eq!(inc.transfer_cycles, stats.transfer_cycles);
        assert_eq!(inc.scheduler_waves, stats.scheduler_waves);
    }

    #[test]
    fn tree_has_line_instruction_uop_hierarchy() {
        let (_, events) = traced_run(KERNEL);
        let profile = Profile::build(&events);
        let root = &profile.mpus[0].root;
        let ensemble =
            root.children.iter().find(|c| c.key.starts_with("e0:")).expect("compute ensemble span");
        let add = ensemble.children.iter().find(|c| c.key == "i1").expect("line node for ADD");
        assert!(add.label.contains("ADD"));
        let exec = add.children.iter().find(|c| c.key == "exec").expect("exec child");
        assert!(!exec.children.is_empty(), "micro-op-class leaves present");
        assert!(exec.children.iter().all(|u| u.key.starts_with('u')));
        let uops: u64 = exec.children.iter().map(|u| u.count).sum();
        assert_eq!(uops, exec.stats.uops, "class counts partition the uop counter");
    }

    #[test]
    fn render_is_deterministic_and_mentions_spans() {
        let (_, events) = traced_run(KERNEL);
        let profile = Profile::build(&events);
        let a = profile.render();
        let b = Profile::build(&events).render();
        assert_eq!(a, b);
        assert!(a.contains("== mpu0:"));
        assert!(a.contains("COMPUTE @0"));
        assert!(a.contains("MEMCPY"));
    }
}
