//! Phase-level wall-clock breakdown of one incremental construction,
//! for hot-path diagnosis. Replicates `IncrementalConstructor`'s loop
//! with timers around each phase.

use std::time::{Duration, Instant};

use openwf_bench::scale::{layered_universe, random_universe};
use openwf_core::construct::explore::{explore_with, ExploreScratch};
use openwf_core::construct::{self, ColorState, ConstructStats, PickOrder};
use openwf_core::{FxHashSet, Label};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(100_000);
    let merge_first = std::env::args().nth(2).as_deref() == Some("merge-first");
    for mut u in [layered_universe(n), random_universe(n, 0xC0FFEE)] {
        if merge_first {
            let all: Vec<std::sync::Arc<openwf_core::Fragment>> =
                u.store.fragments_shared().cloned().collect();
            let t0 = Instant::now();
            let mut g = openwf_core::Graph::new();
            let mut map = Vec::new();
            for f in &all {
                let _ = g.merge_from_mapped(f.graph(), &mut map);
            }
            let graph_only = t0.elapsed();
            let t0 = Instant::now();
            let mut sg2 = openwf_core::Supergraph::new();
            let merged = sg2.merge_fragments_batch(&all);
            let batch = t0.elapsed();
            println!(
                "{}/{n} clean-process merge ({merged} fragments): graph-only {graph_only:>7.1?}  supergraph-batch {batch:>7.1?}",
                u.name
            );
            continue;
        }
        // Warm-up.
        let (c, _) = openwf_core::IncrementalConstructor::new()
            .construct(&mut u.store, &u.spec)
            .unwrap();
        assert!(u.spec.accepts(c.workflow()));

        let mut t_query = Duration::ZERO;
        let mut t_merge = Duration::ZERO;
        let mut t_explore = Duration::ZERO;
        let mut t_finish = Duration::ZERO;
        let total = Instant::now();

        let mut sg = openwf_core::Supergraph::new();
        let h = u.hints();
        sg.reserve(h.fragments, h.nodes, h.edges);
        let mut state = ColorState::with_len(0);
        state.reserve(h.nodes);
        let mut scratch = ExploreScratch::new();
        let mut queried: FxHashSet<Label> = FxHashSet::default();
        queried.reserve(h.nodes / 2);
        let mut stats = ConstructStats::default();
        let mut last = None;
        let mut frontier_candidates: Vec<Label> = u.spec.triggers().iter().cloned().collect();
        loop {
            let frontier: Vec<Label> = frontier_candidates
                .drain(..)
                .filter(|l| queried.insert(l.clone()))
                .collect();
            if frontier.is_empty() {
                break;
            }
            let t0 = Instant::now();
            let fragments = u.store.consuming(&frontier);
            t_query += t0.elapsed();
            let t0 = Instant::now();
            sg.merge_fragments_batch(&fragments);
            t_merge += t0.elapsed();
            let t0 = Instant::now();
            let outcome = explore_with(
                sg.graph(),
                &mut state,
                &u.spec,
                &mut |_| true,
                PickOrder::Fifo,
                None,
                &mut scratch,
            );
            t_explore += t0.elapsed();
            stats.explore_steps += outcome.steps;
            frontier_candidates.extend_from_slice(&outcome.new_green_labels);
            let done = outcome.unreachable_goals.is_empty();
            last = Some(outcome);
            if done {
                break;
            }
        }
        let t0 = Instant::now();
        let c = construct::finish(&sg, &u.spec, state, last.unwrap(), stats, None).unwrap();
        t_finish += t0.elapsed();
        let t_total = total.elapsed();
        assert!(u.spec.accepts(c.workflow()));
        println!(
            "{}/{n}: total {:>7.1?}  query {:>7.1?}  merge {:>7.1?}  explore {:>7.1?}  finish {:>7.1?}  (other {:>7.1?})",
            u.name,
            t_total,
            t_query,
            t_merge,
            t_explore,
            t_finish,
            t_total - t_query - t_merge - t_explore - t_finish,
        );

        // Merge-cost microbreakdown over the whole universe in one batch.
        let all: Vec<std::sync::Arc<openwf_core::Fragment>> =
            u.store.fragments_shared().cloned().collect();
        let t0 = Instant::now();
        let mut g = openwf_core::Graph::new();
        let mut map = Vec::new();
        for f in &all {
            let _ = g.merge_from_mapped(f.graph(), &mut map);
        }
        let graph_only = t0.elapsed();
        let t0 = Instant::now();
        let mut sg2 = openwf_core::Supergraph::new();
        let merged = sg2.merge_fragments_batch(&all);
        let batch = t0.elapsed();
        let t0 = Instant::now();
        let mut sg3 = openwf_core::Supergraph::new();
        for f in &all {
            let _ = sg3.try_merge_fragment(f);
        }
        let seq = t0.elapsed();
        println!(
            "  merge breakdown ({merged} fragments): graph-only {graph_only:>7.1?}  supergraph-batch {batch:>7.1?}  supergraph-seq {seq:>7.1?}"
        );
    }
}
