//! Scenario and request objects in the scenario server's wire format.
//!
//! The sweep and serving workloads define their scenarios here, once, as
//! the JSON a client would send; `sweep::protocol::parse_request` turns them
//! into `Scenario`s, so both workloads run exactly what a wire client would.

use mini_json::Json;

/// The single-message payload (the repo's bench convention).
pub const PAYLOAD: u64 = 0xFEED;

/// `cluster_chain(clusters x size)`.
pub fn cluster_chain(clusters: u64, size: u64) -> Json {
    Json::obj([
        ("kind", Json::from("cluster_chain")),
        ("clusters", Json::from(clusters)),
        ("size", Json::from(size)),
    ])
}

/// `unit_disk(n, r, g)`.
pub fn unit_disk(n: u64, radius: f64, graph_seed: u64) -> Json {
    Json::obj([
        ("kind", Json::from("unit_disk")),
        ("n", Json::from(n)),
        ("radius", Json::from(radius)),
        ("graph_seed", Json::from(graph_seed)),
    ])
}

/// `streamed_unit_disk(n, r, g)`.
pub fn streamed_unit_disk(n: u64, radius: f64, graph_seed: u64) -> Json {
    Json::obj([
        ("kind", Json::from("streamed_unit_disk")),
        ("n", Json::from(n)),
        ("radius", Json::from(radius)),
        ("graph_seed", Json::from(graph_seed)),
    ])
}

/// `grid(w x h)`.
pub fn grid(w: u64, h: u64) -> Json {
    Json::obj([("kind", Json::from("grid")), ("w", Json::from(w)), ("h", Json::from(h))])
}

/// Theorem 1.1 single-message broadcast.
pub fn single() -> Json {
    Json::obj([("kind", Json::from("single")), ("payload", Json::from(PAYLOAD))])
}

/// The Decay baseline.
pub fn decay() -> Json {
    Json::obj([("kind", Json::from("decay")), ("payload", Json::from(PAYLOAD))])
}

/// Theorem 1.3 with `k` 32-bit messages; `generations: None` is `FullK`.
pub fn multi_unknown(k: u64, generations: Option<u64>) -> Json {
    let messages: Vec<u64> = (0..k).map(|i| 0xBEE0 + i).collect();
    let batch = match generations {
        None => Json::from("full_k"),
        Some(g) => Json::obj([("generations", Json::from(g))]),
    };
    Json::obj([
        ("kind", Json::from("multi_unknown")),
        ("messages", Json::from(messages)),
        ("batch", batch),
    ])
}

/// A scenario object; `extra` adds `faults`, `fec_repair` and the like.
pub fn scenario(topology: Json, workload: Json, extra: Vec<(&'static str, Json)>) -> Json {
    let mut pairs = vec![("topology", topology), ("workload", workload)];
    pairs.extend(extra);
    Json::obj(pairs)
}

/// A `submit_sweep` request over `scenarios` × `seeds`.
pub fn submit(id: u64, scenarios: Vec<Json>, seeds: &[u64]) -> Json {
    Json::obj([
        ("type", Json::from("submit_sweep")),
        ("id", Json::from(id)),
        ("scenarios", Json::Arr(scenarios)),
        ("seeds", Json::from(seeds.to_vec())),
    ])
}
