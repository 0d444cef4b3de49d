//! The reference `derive_deps` is held to, test builds only: the
//! derivation as it stood before the dense index, verbatim — two hashed
//! maps keyed by tile / virtual resource and a `BTreeSet` per node. It
//! defines a plan's edges: RAW, WAR and WAW over the declared accesses
//! along the issue order, and a [`TaskKind::Drain`] depending on every
//! node before it. The two differential tests below read it, dependency
//! list for dependency list, over every scheme and option axis at
//! nt ≤ 20 (12 in debug builds) and over balancer tail splices; the
//! plan-shape pins (`tests/plan_shape_pins.rs`) hold the planner's output
//! to captured digests, so this is the check that still stands when a
//! plan's shape moves on purpose.

use super::*;
use crate::options::{ChecksumPlacement, ShardOptions};
use std::collections::BTreeSet;

impl FactorPlan {
    /// `derive_deps` as it stood before the dense index, verbatim.
    fn derive_deps_oracle(&mut self) {
        #[derive(PartialEq, Eq, Hash, Clone, Copy)]
        enum Key {
            Tile(TileRef),
            Virt(VirtRes),
        }
        let mut last_writer: HashMap<Key, NodeId> = HashMap::new();
        let mut readers: HashMap<Key, Vec<NodeId>> = HashMap::new();
        self.deps = vec![Vec::new(); self.nodes.len()];
        let order = self.order().to_vec();
        for (pos, &id) in order.iter().enumerate() {
            if matches!(self.nodes[id.0].kind, TaskKind::Drain) {
                self.deps[id.0] = order[..pos].to_vec();
                continue;
            }
            let acc = self.node_access(id);
            let reads: Vec<Key> = acc
                .tiles
                .reads
                .iter()
                .map(|&t| Key::Tile(t))
                .chain(acc.virt_reads.iter().map(|&v| Key::Virt(v)))
                .collect();
            let writes: Vec<Key> = acc
                .tiles
                .writes
                .iter()
                .map(|&t| Key::Tile(t))
                .chain(acc.virt_writes.iter().map(|&v| Key::Virt(v)))
                .collect();
            let mut set: BTreeSet<NodeId> = BTreeSet::new();
            for k in &reads {
                if let Some(&w) = last_writer.get(k) {
                    set.insert(w);
                }
            }
            for k in &writes {
                if let Some(&w) = last_writer.get(k) {
                    set.insert(w);
                }
                if let Some(rs) = readers.get(k) {
                    set.extend(rs.iter().copied());
                }
            }
            set.remove(&id);
            self.deps[id.0] = set.into_iter().collect();
            for k in &reads {
                readers.entry(*k).or_default().push(id);
            }
            for k in &writes {
                last_writer.insert(*k, id);
                readers.insert(*k, Vec::new());
            }
        }
    }
}

/// Both derivations over `plan`, every node's list compared (nodes off
/// the issue order included: both leave them empty).
fn assert_same_deps(mut plan: FactorPlan, what: &str) {
    let mut old = plan.clone();
    old.derive_deps_oracle();
    plan.derive_deps();
    assert_eq!(plan.deps.len(), old.deps.len(), "{what}");
    for (id, (new, old)) in plan.deps.iter().zip(&old.deps).enumerate() {
        assert_eq!(
            new, old,
            "{what}: deps of node {id} ({:?})",
            plan.nodes[id].kind
        );
    }
}

fn gpu() -> AbftOptions {
    AbftOptions::default().with_placement(ChecksumPlacement::Gpu)
}

#[test]
fn dense_derive_deps_matches_the_hashed_oracle_on_every_feature() {
    // The release leg of ci.sh goes deeper.
    let nt_max = if cfg!(debug_assertions) { 12 } else { 20 };
    let configs = [
        ("default", gpu(), false),
        ("fused", gpu().with_chk_fused(true), false),
        ("cpu", gpu().with_placement(ChecksumPlacement::Cpu), false),
        (
            "inline",
            gpu().with_placement(ChecksumPlacement::Inline),
            false,
        ),
        ("k3", gpu().with_interval(3), false),
        ("shard2", gpu().with_shard(ShardOptions::new(2)), false),
        ("shard4", gpu().with_shard(ShardOptions::new(4)), false),
        ("faulty", gpu(), true),
        (
            "faulty cpu k3",
            gpu()
                .with_placement(ChecksumPlacement::Cpu)
                .with_interval(3),
            true,
        ),
    ];
    for nt in 1..=nt_max {
        for (name, opts, faulty) in &configs {
            for kind in [
                SchemeKind::Enhanced,
                SchemeKind::Online,
                SchemeKind::Offline,
            ] {
                let plan = passes(kind, nt, opts, *faulty);
                assert_same_deps(plan, &format!("{kind:?} nt={nt} {name}"));
            }
        }
        for style in [DriveStyle::Overlapped, DriveStyle::Synchronous] {
            let plan = skeleton::algorithm1(nt, style, true, false);
            assert_same_deps(plan, &format!("baseline {style:?} nt={nt}"));
        }
        let plan = skeleton::right_looking(nt);
        assert_same_deps(plan, &format!("right-looking nt={nt}"));
    }
}

/// The balancer's rewrite: a GPU-placement prefix with a CPU-placement,
/// K = 3 tail spliced in behind it, the cut at every iteration.
#[test]
fn dense_derive_deps_matches_the_hashed_oracle_on_a_replace_tail_splice() {
    let nt = 9;
    let tail = gpu()
        .with_placement(ChecksumPlacement::Cpu)
        .with_interval(3);
    for from_iter in 0..nt {
        let mut plan = for_scheme(SchemeKind::Enhanced, nt, &gpu(), false);
        plan.replace_tail(from_iter, &passes(SchemeKind::Enhanced, nt, &tail, false));
        plan.cpu_mirrors = true;
        assert_same_deps(plan, &format!("splice at iteration {from_iter}"));
    }
}
