//! Serving mode, end to end: drives `sweep::serve` with a canned request
//! script and prints the full wire transcript — the same loop `serve`
//! would run over stdin/stdout in production, here over in-memory buffers
//! so the example is self-checking.
//!
//! ```sh
//! cargo run --release --example sweep_server
//! ```
//!
//! The script exercises the whole request surface: a corridor bake-off
//! sweep, a status probe, a deliberately malformed line (the server must
//! answer a typed error and keep serving), a results fetch for the
//! finished sweep, and a submit for an unsupported workload.

use mini_json::Json;
use std::io::BufReader;
use sweep::SweepPool;

fn main() {
    let script = [
        // A two-scenario corridor bake-off over 4 shared seeds.
        r#"{"type":"submit_sweep","id":1,"scenarios":[{"topology":{"kind":"cluster_chain","clusters":20,"size":6},"workload":{"kind":"single","payload":661847}},{"topology":{"kind":"cluster_chain","clusters":20,"size":6},"workload":{"kind":"decay","payload":661847}}],"seed_range":{"start":0,"end":4}}"#,
        // Probe it (it may already be done: status is exact either way).
        r#"{"type":"status","id":2,"sweep":1}"#,
        // A line a buggy client might send: typed error, loop survives.
        r#"{"type":"submit_sweep","id":3,"scenario":{"#,
        // multi_known is deliberately not servable.
        r#"{"type":"submit_sweep","id":4,"scenario":{"topology":{"kind":"path","n":4},"workload":{"kind":"multi_known"}},"seeds":[0]}"#,
    ];
    let input = script.join("\n");
    let mut output: Vec<u8> = Vec::new();
    sweep::serve(BufReader::new(input.as_bytes()), &mut output, SweepPool::new().workers(2));

    // Self-checks: every response parses, the sweep drained to its
    // sweep_done summary, and the malformed line got its typed error.
    let transcript = String::from_utf8(output).expect("server wrote non-UTF-8");
    let responses: Vec<(String, Json)> = transcript
        .lines()
        .map(|l| (l.to_string(), Json::parse(l).expect("server emitted unparseable JSON")))
        .collect();
    let kind = |r: &Json| r.get("type").and_then(Json::as_str).unwrap_or("").to_string();

    // The live wire order is scheduler-dependent — two workers stream
    // outcome lines concurrently with the control loop — so the demo prints
    // a canonical view: submit_ok, outcomes in serial (scenario, order)
    // position, the sweep_done summary, then the control responses. The
    // status_ok progress snapshot is itself timing-dependent (the probe
    // races the runner), so it is asserted on but elided from the print.
    let mut ordered: Vec<&(String, Json)> =
        responses.iter().filter(|(_, r)| kind(r) == "outcome").collect();
    ordered.sort_by_key(|(_, r)| {
        let at = |k| r.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX);
        (at("sweep"), at("scenario"), at("order"))
    });
    println!("--- wire transcript, canonical order ({} request lines) ---", script.len());
    for (line, _) in responses.iter().filter(|(_, r)| kind(r) == "submit_ok") {
        println!("< {line}");
    }
    for (line, _) in ordered {
        println!("< {line}");
    }
    for (line, _) in responses.iter().filter(|(_, r)| kind(r) == "sweep_done") {
        println!("< {line}");
    }
    println!("< (status_ok for id 2 elided: its progress snapshot races the runner)");
    for (line, _) in responses.iter().filter(|(_, r)| kind(r) == "error") {
        println!("< {line}");
    }
    let responses: Vec<Json> = responses.into_iter().map(|(_, r)| r).collect();

    let outcomes = responses.iter().filter(|r| kind(r) == "outcome").count();
    assert_eq!(outcomes, 8, "2 scenarios x 4 seeds must stream 8 outcome lines");

    let done: Vec<&Json> = responses.iter().filter(|r| kind(r) == "sweep_done").collect();
    assert_eq!(done.len(), 1, "the sweep must drain to exactly one sweep_done");
    assert_eq!(done[0].get("cancelled").and_then(Json::as_bool), Some(false));
    let summary = done[0].get("summary").and_then(Json::as_arr).expect("no summary");
    assert_eq!(summary.len(), 2, "one matrix digest per scenario");
    for digest in summary {
        assert_eq!(digest.get("runs").and_then(Json::as_u64), Some(4));
        assert_eq!(digest.get("failures").and_then(Json::as_arr), Some(&[][..]));
    }

    let status: Vec<&Json> = responses.iter().filter(|r| kind(r) == "status_ok").collect();
    assert_eq!(status.len(), 1, "the probe must get exactly one status_ok");
    assert_eq!(status[0].get("sweep").and_then(Json::as_u64), Some(1));
    assert_eq!(status[0].get("total").and_then(Json::as_u64), Some(8));

    let errors: Vec<String> = responses
        .iter()
        .filter(|r| kind(r) == "error")
        .map(|r| r.get("code").and_then(Json::as_str).unwrap_or("").to_string())
        .collect();
    assert!(errors.contains(&"malformed_json".to_string()), "errors: {errors:?}");
    assert!(errors.contains(&"unsupported".to_string()), "errors: {errors:?}");

    println!("--- ok: {} responses, 1 sweep drained, errors typed ---", responses.len());
}
