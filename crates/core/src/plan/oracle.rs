//! The reference the edge derivation is held to, test builds only: the
//! derivation as it stood before the dense index, verbatim — two hashed
//! maps keyed by tile / virtual resource and a `BTreeSet` per node. It
//! defines a plan's edges: RAW, WAR and WAW over the declared accesses
//! along the issue order, and a [`TaskKind::Drain`] depending on every
//! node before it. The differential tests below read it, dependency list
//! for dependency list, over every scheme and option axis at nt ≤ 20 (12
//! in debug builds), over balancer tail splices and after every kind of
//! plan edit; the plan-shape pins (`tests/plan_shape_pins.rs`) hold the
//! planner's output to captured digests, so this is the check that still
//! stands when a plan's shape moves on purpose.

use super::*;
use crate::options::{ChecksumPlacement, ShardOptions};
use std::collections::BTreeSet;

impl FactorPlan {
    /// The edge derivation as it stood before the dense index, verbatim
    /// but for returning the lists.
    fn deps_oracle(&self) -> Vec<Vec<NodeId>> {
        #[derive(PartialEq, Eq, Hash, Clone, Copy)]
        enum Key {
            Tile(TileRef),
            Virt(VirtRes),
        }
        let mut last_writer: HashMap<Key, NodeId> = HashMap::new();
        let mut readers: HashMap<Key, Vec<NodeId>> = HashMap::new();
        let mut deps = vec![Vec::new(); self.nodes.len()];
        let order = self.order().to_vec();
        for (pos, &id) in order.iter().enumerate() {
            if matches!(self.nodes[id.0].kind, TaskKind::Drain) {
                deps[id.0] = order[..pos].to_vec();
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
            deps[id.0] = set.into_iter().collect();
            for k in &reads {
                readers.entry(*k).or_default().push(id);
            }
            for k in &writes {
                last_writer.insert(*k, id);
                readers.insert(*k, Vec::new());
            }
        }
        deps
    }
}

/// The plan's edges, read as any caller reads them, against the oracle's
/// over the same plan: every node's list compared (nodes off the issue
/// order included: both leave them empty).
fn assert_same_deps(plan: &FactorPlan, what: &str) {
    let old = plan.deps_oracle();
    assert_eq!(plan.nodes.len(), old.len(), "{what}");
    for (id, old) in old.iter().enumerate() {
        assert_eq!(
            plan.deps(NodeId(id)),
            &old[..],
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
                let plan = for_scheme(kind, nt, opts, *faulty);
                assert_same_deps(&plan, &format!("{kind:?} nt={nt} {name}"));
            }
        }
        for style in [DriveStyle::Overlapped, DriveStyle::Synchronous] {
            let plan = skeleton::algorithm1(nt, style, true, false);
            assert_same_deps(&plan, &format!("baseline {style:?} nt={nt}"));
        }
        let plan = skeleton::right_looking(nt);
        assert_same_deps(&plan, &format!("right-looking nt={nt}"));
    }
}

/// The balancer's rewrite on a clean run: a GPU-placement prefix with a
/// CPU-placement, K = 3 tail spliced in behind it, the cut at every
/// iteration, no other edit and no ledger chain.
#[test]
fn dense_derive_deps_matches_the_hashed_oracle_on_a_replace_tail_splice() {
    let nt = 9;
    let tail = gpu()
        .with_placement(ChecksumPlacement::Cpu)
        .with_interval(3);
    for from_iter in 0..nt {
        let mut plan = for_scheme(SchemeKind::Enhanced, nt, &gpu(), false);
        plan.replace_tail(
            from_iter,
            &for_scheme(SchemeKind::Enhanced, nt, &tail, false),
        );
        plan.cpu_mirrors = true;
        assert_same_deps(&plan, &format!("splice at iteration {from_iter}"));
    }
}

/// Edges are never stale: read them, then edit the plan through each
/// mutator in turn — a node's flag, a removal, a node appended to every
/// iteration, and the balancer's splice of a CPU-placement, K = 3 tail
/// behind a GPU prefix, cut at every iteration — and each read after an
/// edit equals the oracle over the edited plan, with no explicit
/// derivation between. Each edit moves some list, so a stale read fails.
/// A severed edge stays severed until the next edit, which the analyzers'
/// mutation controls rely on.
#[test]
fn edges_are_never_stale_after_an_edit() {
    let nt = 9;
    let cpu_k3 = gpu()
        .with_placement(ChecksumPlacement::Cpu)
        .with_interval(3);
    let tail = for_scheme(SchemeKind::Enhanced, nt, &cpu_k3, true);
    let find = |p: &FactorPlan, f: fn(&TaskKind) -> bool| p.find(|n| f(&n.kind)).unwrap();
    for cut in 0..nt {
        type Edit<'a> = &'a dyn Fn(&mut FactorPlan);
        let edits: [(&str, Edit); 4] = [
            ("node_mut", &|p| {
                let id = find(p, |k| matches!(k, TaskKind::Potf2 { .. }));
                if let TaskKind::Potf2 { propagate, .. } = &mut p.node_mut(id).kind {
                    *propagate = !*propagate;
                }
            }),
            ("remove", &|p| {
                p.remove(find(p, |k| matches!(k, TaskKind::VerifyBatch { .. })))
            }),
            ("append", &|p| {
                p.append_to_iterations(|j| TaskKind::MirrorPanel { j })
            }),
            ("replace_tail", &|p| {
                p.replace_tail(cut, &tail);
                p.cpu_mirrors = true;
            }),
        ];
        let mut plan = for_scheme(SchemeKind::Enhanced, nt, &gpu(), true);
        for (what, edit) in edits {
            let before = plan.edges().to_vec();
            edit(&mut plan);
            let what = format!("{what}, cut at {cut}");
            assert_ne!(
                plan.deps_oracle()[..before.len()],
                before,
                "{what}: no edge moved"
            );
            assert_same_deps(&plan, &what);
        }
        let victim = find(&plan, |k| matches!(k, TaskKind::Encode));
        assert!(plan.deps_oracle().iter().any(|d| d.contains(&victim)));
        plan.drop_edges_from(victim);
        assert!(plan
            .order()
            .iter()
            .all(|&id| !plan.deps(id).contains(&victim)));
        plan.node_mut(victim);
        assert_same_deps(&plan, "an edit after a sever");
    }
}
