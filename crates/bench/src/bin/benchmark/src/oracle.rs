//! Correctness oracle: the served answers against the repository's
//! sequential reference BFS (`validate::sequential_levels`) and BFS-tree
//! checker (`validate::validate_bfs_tree`). It runs after the timed phases.

use mcbfs_graph::csr::CsrGraph;
use mcbfs_graph::validate::{sequential_levels, validate_bfs_tree};
use mcbfs_query::Query;
use mcbfs_serve::wire::QueryReply;

/// Answers checked, and the wrong ones.
#[derive(Debug, Default)]
pub struct Tally {
    pub checked: u64,
    pub wrong: u64,
    pub first_error: Option<String>,
}

impl Tally {
    pub fn add(&mut self, verdict: Result<(), String>) {
        self.checked += 1;
        if let Err(e) = verdict {
            self.wrong += 1;
            self.first_error.get_or_insert(e);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.checked += other.checked;
        self.wrong += other.wrong;
        if let Some(e) = other.first_error {
            self.first_error.get_or_insert(e);
        }
    }
}

/// Checks one reply given the reference hop distances from its source.
pub fn check_reply(
    graph: &CsrGraph,
    levels: &[u32],
    query: &Query,
    reply: &QueryReply,
) -> Result<(), String> {
    let level = |v: u32| levels[v as usize];
    let depths_match = |what: &str| match &reply.depths {
        Some(d) if d.as_slice() == levels => Ok(()),
        Some(d) if d.len() != levels.len() => Err(format!(
            "{what}: {} depths for {} vertices",
            d.len(),
            levels.len()
        )),
        Some(d) => {
            let v = (0..d.len()).find(|&v| d[v] != levels[v]).unwrap_or(0);
            Err(format!(
                "{what}: vertex {v} at depth {}, expected {}",
                d[v], levels[v]
            ))
        }
        None => Err(format!("{what}: reply carries no depths")),
    };
    match *query {
        Query::StCon { s, t } => {
            let want = (level(t) != u32::MAX).then(|| level(t));
            if reply.distance == want {
                Ok(())
            } else {
                Err(format!(
                    "stcon {s}->{t}: got {:?}, expected {want:?}",
                    reply.distance
                ))
            }
        }
        Query::Reachable { from, to } => {
            let want = level(to) != u32::MAX;
            if reply.reachable == Some(want) {
                Ok(())
            } else {
                Err(format!(
                    "reachable {from}->{to}: got {:?}, expected {want}",
                    reply.reachable
                ))
            }
        }
        Query::Distances { root } => depths_match(&format!("distances from {root}")),
        Query::Parents { root } => {
            depths_match(&format!("parents from {root}"))?;
            let parents = reply
                .parents
                .as_ref()
                .ok_or_else(|| format!("parents from {root}: reply carries no tree"))?;
            validate_bfs_tree(graph, root, parents)
                .map(|_| ())
                .map_err(|e| format!("parents from {root}: {e}"))
        }
    }
}

/// Checks every reply, computing each source's reference levels once, on
/// two threads.
pub fn check_replies(graph: &CsrGraph, items: &[(Query, &QueryReply)]) -> Tally {
    let mut sorted: Vec<&(Query, &QueryReply)> = items.iter().collect();
    sorted.sort_by_key(|(q, _)| q.source());
    let mid = sorted.len() / 2;
    // Split between sources so each source's levels are computed once.
    let cut = (mid..sorted.len())
        .find(|&i| i == 0 || sorted[i].0.source() != sorted[i - 1].0.source())
        .unwrap_or(sorted.len());
    let check = |part: &[&(Query, &QueryReply)]| {
        let mut tally = Tally::default();
        let mut cached: Option<(u32, Vec<u32>)> = None;
        for (query, reply) in part {
            let source = query.source();
            if cached.as_ref().map(|(s, _)| *s) != Some(source) {
                cached = Some((source, sequential_levels(graph, source)));
            }
            let levels = &cached.as_ref().expect("levels cached").1;
            tally.add(check_reply(graph, levels, query, reply));
        }
        tally
    };
    let (head, tail) = sorted.split_at(cut);
    let (mut a, b) = std::thread::scope(|s| {
        let other = s.spawn(|| check(tail));
        (check(head), other.join().expect("oracle thread"))
    });
    a.merge(b);
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 - 1 - 2 - 3, and 4 - 5 apart.
    fn graph() -> CsrGraph {
        CsrGraph::from_edges_symmetric(6, &[(0, 1), (1, 2), (2, 3), (4, 5)])
    }

    fn reply(kind: &str) -> QueryReply {
        QueryReply {
            tag: 0,
            kind: kind.to_string(),
            wave_queries: 1,
            queue_ms: 0.0,
            service_ms: 0.0,
            latency_ms: 0.0,
            edges: 0,
            distance: None,
            reachable: None,
            depths: None,
            parents: None,
        }
    }

    fn verdict(query: Query, reply: &QueryReply) -> Result<(), String> {
        let g = graph();
        check_reply(&g, &sequential_levels(&g, query.source()), &query, reply)
    }

    #[test]
    fn a_flipped_depth_is_caught() {
        let q = Query::Distances { root: 0 };
        let mut r = reply("distances");
        r.depths = Some(vec![0, 1, 2, 3, u32::MAX, u32::MAX]);
        assert_eq!(verdict(q, &r), Ok(()));
        r.depths.as_mut().unwrap()[2] = 1;
        assert!(verdict(q, &r).unwrap_err().contains("vertex 2"));
    }

    #[test]
    fn a_wrong_stcon_distance_is_caught() {
        let q = Query::StCon { s: 0, t: 3 };
        let mut r = reply("stcon");
        r.distance = Some(3);
        assert_eq!(verdict(q, &r), Ok(()));
        r.distance = Some(2);
        assert!(verdict(q, &r).is_err());
        let apart = Query::StCon { s: 0, t: 5 };
        assert!(verdict(apart, &r).is_err(), "disconnected pair answered");
        r.distance = None;
        assert_eq!(verdict(apart, &r), Ok(()));
    }

    #[test]
    fn a_wrong_reachable_bit_is_caught() {
        let mut r = reply("reachable");
        r.reachable = Some(true);
        assert_eq!(verdict(Query::Reachable { from: 1, to: 3 }, &r), Ok(()));
        assert!(verdict(Query::Reachable { from: 1, to: 4 }, &r).is_err());
    }

    #[test]
    fn a_tree_with_a_missing_edge_is_caught() {
        let q = Query::Parents { root: 0 };
        let mut r = reply("parents");
        r.depths = Some(vec![0, 1, 2, 3, u32::MAX, u32::MAX]);
        r.parents = Some(vec![0, 0, 1, 2, u32::MAX, u32::MAX]);
        assert_eq!(verdict(q, &r), Ok(()));
        r.parents.as_mut().unwrap()[3] = 1;
        assert!(verdict(q, &r).is_err());
    }

    #[test]
    fn replies_are_tallied_across_sources() {
        let g = graph();
        let mut good = reply("reachable");
        good.reachable = Some(true);
        let mut bad = reply("stcon");
        bad.distance = Some(1);
        let items = vec![
            (Query::Reachable { from: 0, to: 3 }, &good),
            (Query::StCon { s: 2, t: 0 }, &bad),
            (Query::Reachable { from: 4, to: 5 }, &good),
        ];
        let tally = check_replies(&g, &items);
        assert_eq!((tally.checked, tally.wrong), (3, 1));
        assert!(tally.first_error.unwrap().contains("stcon 2->0"));
    }
}
